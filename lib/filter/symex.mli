(** Symbolic path execution of filter programs.

    The filter language is loop-free, so a validated program has finitely
    many execution paths and each can be described exactly by the conditions
    under which it runs: a {e path condition} over the 16-bit packet words
    and the packet length. This module enumerates those paths — for stack
    programs ({!run}) and for the register IR ({!run_ir}) — under the
    [`Paper] semantics of {!Interp.run}.

    {2 The path-condition domain}

    A condition is a conjunction of atoms in a deliberately small domain:

    - [pkt\[i\] = c], [pkt\[i\] ≠ c], [pkt\[i\] < c], [pkt\[i\] ≥ c]
      — a word against a constant;
    - [(pkt\[i\] land m) = c] / [≠ c] — masked-bit equalities, from [AND]
      with a constant mask;
    - [pkt\[i\] = pkt\[j]] / [≠] — word-vs-word equalities;
    - [len > i] / [len ≤ i] — which words exist (an out-of-bounds push
      faults, rejecting, so presence is part of every verdict);
    - {e opaque predicates} over hash-consed symbolic expressions, for
      decisions the tracked domain cannot express (comparisons of derived
      arithmetic values, data-dependent indirect-push bounds). Opaque atoms
      keep the path decomposition {e exact} — the program is deterministic,
      so each predicate has a definite truth value per packet — but they
      cannot be solved for a witness, only evaluated against a concrete
      packet ({!satisfies}) or refuted by identity ([P ∧ ¬P]).

    Expressions are hash-consed in a {!Ctx.t} shared between runs, so two
    programs that compute the same value — e.g. an optimizer's input and
    output — build the {e same} expression node, and their opaque
    predicates refute each other by identity. The smart constructors apply
    the same algebraic identities as {!Regopt}'s folder, keeping that
    alignment through optimization.

    {2 Guarantees}

    Every fork records complementary atoms, so for a completed run
    ([complete = true]) the emitted paths {e partition} the packets: each
    packet satisfies exactly one path, whose [accept] matches
    {!Interp.run} — a property the differential fuzz oracle cross-checks
    on every case. The path budget degrades enumeration to an explicit
    incomplete result, never to a wrong one: an incomplete run still emits
    only genuine, mutually-exclusive paths. *)

(** Hash-consing context for symbolic expressions. Runs that should be
    compared against each other (e.g. the two sides of an equivalence
    check) must share one context. *)
module Ctx : sig
  type t

  val create : unit -> t
end

type cond
(** A path condition: a conjunction of atoms, plus derived summaries
    (per-word fixed bits, bounds and disequalities, packet-length bounds)
    used for fast unsatisfiability checks. *)

type path = {
  cond : cond;  (** conditions under which the program runs this path *)
  accept : bool;  (** the path's verdict *)
}

type outcome = {
  paths : path list;  (** in deterministic depth-first order *)
  complete : bool;
      (** [false]: the path budget was exhausted; [paths] is a genuine but
          non-exhaustive prefix of the decomposition *)
}

val default_budget : int
(** Default bound on emitted paths (4096). *)

val run : ?budget:int -> Ctx.t -> Validate.t -> outcome
(** Enumerate the paths of a validated stack program. *)

val run_ir : ?budget:int -> Ctx.t -> Ir.t -> outcome
(** Enumerate the paths of a register-IR program ({!Ir.t} as executed by
    {!Regvm}: loads and divisions by zero reject, [Tcond] exits early). *)

val true_cond : cond
(** The empty conjunction. *)

val equal_cond : cond -> cond -> bool
(** Structural equality of the atom sequences. Meaningful only for
    conditions built in the same {!Ctx.t}. *)

val conj : cond -> cond -> cond option
(** Conjunction; [None] when the combination is {e provably}
    unsatisfiable (bit/bound/disequality conflicts, contradictory length
    bounds, an opaque predicate taken with both polarities). [Some] means
    "not yet refuted", not "satisfiable". *)

val solve : cond -> [ `Sat of Pf_pkt.Packet.t | `Unsat | `Unknown ]
(** Find a packet satisfying the condition. [`Sat p] comes with the
    guarantee that {!satisfies}[ cond p] holds — the model is checked
    before it is returned. [`Unsat] is a proof (per-word candidate
    enumeration is exhaustive). [`Unknown] is returned whenever neither
    can be established, e.g. when opaque predicates resist the solved
    assignment. *)

val satisfies : cond -> Pf_pkt.Packet.t -> bool
(** Evaluate every atom — including opaque predicates — against a concrete
    packet. *)

val pp_cond : Format.formatter -> cond -> unit
val pp_path : Format.formatter -> path -> unit
