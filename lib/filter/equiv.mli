(** Equivalence checking with counterexample-witness synthesis.

    Translation validation for the optimizer pipeline: given two filters —
    stack programs or register IR — decide whether they accept exactly the
    same packets. The checker runs {!Symex} on both sides in a shared
    hash-consing context and compares the path decompositions:

    - if every pair of paths with {e differing} verdicts has an
      unsatisfiable combined condition, the filters are {!Proved_equal};
    - if some differing pair's condition can be solved into a packet, that
      packet is {e confirmed} by running both filters on it concretely —
      only a packet on which they demonstrably disagree is ever returned
      as {!Counterexample};
    - anything else (path budget exhausted, a condition neither refuted
      nor solved, a synthesized model the filters agree on) degrades to
      {!Unknown}, never to a wrong answer.

    The report records why a check fell short of a proof so callers can
    distinguish "ran out of path budget" from "the domain could not decide
    this pair". *)

type side =
  | Prog of Validate.t  (** a validated stack program, [`Paper] semantics *)
  | Ir_prog of Ir.t  (** register IR, {!Regvm} semantics *)

type verdict =
  | Proved_equal
  | Counterexample of Pf_pkt.Packet.t
      (** a packet the two filters demonstrably disagree on (confirmed by
          concrete execution of both sides) *)
  | Unknown

type reason =
  | Path_budget of [ `Left | `Right ]
      (** symbolic execution of that side exhausted its path budget *)
  | Pair_budget  (** too many differing path pairs to check them all *)
  | Unsolved of int  (** pairs neither refuted nor solved into a packet *)
  | Spurious of int
      (** pairs whose synthesized packet both filters agreed on *)

type report = {
  verdict : verdict;
  paths_left : int;
  paths_right : int;
  pairs_checked : int;  (** differing-verdict pairs examined *)
  reasons : reason list;  (** empty iff [verdict = Proved_equal] *)
}

val default_budget : int
(** Per-side path budget, {!Symex.default_budget}. *)

val default_pair_budget : int
(** Bound on differing-verdict path pairs examined (4096). *)

val check : ?budget:int -> ?pair_budget:int -> side -> side -> report

val check_programs :
  ?budget:int -> ?pair_budget:int -> Validate.t -> Validate.t -> report
(** Program ↔ Program. *)

val check_ir : ?budget:int -> ?pair_budget:int -> Validate.t -> Ir.t -> report
(** Program ↔ IR — certifies {!Regopt.optimize} output against its
    source. *)

val relate :
  ?budget:int -> ?pair_budget:int -> Validate.t -> Validate.t ->
  Analysis.relation
(** Sharpen {!Analysis.relate}: [Disjoint] when no packet is accepted by
    both (proved path-pair by path-pair), [Equivalent] when
    {!check_programs} proves equality, [Unknown] otherwise. Never returns
    [Subsumes]/[Subsumed_by]. *)

(** Memo table for every symbolic-equivalence verdict, shared by the
    dispatch automaton, the firewall rule lint ({!relate_memo}) and the
    superoptimizer ({!check_memo} — MCMC search re-proposes structurally
    identical candidates constantly). Keys are the encoded sides
    ({!Program.encode} / {!Ir.encode}, tagged) plus the budgets, so one
    table can serve callers with different budgets without confusing
    their answers. *)
module Memo : sig
  type t

  val create : unit -> t

  val size : t -> int
  (** Number of cached verdicts, relations plus check reports (cheap
      {!Analysis.relate} hits are not stored). *)

  val check_hits : t -> int
  (** Times {!check_memo} answered from the table instead of re-proving. *)
end

val relate_memo :
  ?budget:int -> ?pair_budget:int -> Memo.t -> Validate.t ->
  Validate.t -> Analysis.relation
(** {!Analysis.relate} first (interval reasoning, never cached — it is
    cheaper than the lookup); where it answers [Unknown], fall back to the
    symbolic {!relate} through the memo table. *)

val check_memo : ?budget:int -> ?pair_budget:int -> Memo.t -> side -> side -> report
(** {!check} through the memo table: the full report (verdict, path
    counts, reasons) is cached by hash-consed candidate identity. *)

(** Outcome of certifying one optimizer rewrite, shared by
    {!Peephole.optimize_certified}, {!Regopt.optimize_superopt} and the
    kernel's certifying installs. *)
type certification =
  | Certified  (** the rewrite is proved meaning-preserving *)
  | Refuted of Pf_pkt.Packet.t
      (** a confirmed witness packet; callers fall back to the input *)
  | Uncertified of string
      (** neither proved nor refuted; the string says why (e.g. ["path
          budget exhausted"]) *)

val certification_of_report : report -> certification

val run_side : side -> Pf_pkt.Packet.t -> bool
(** Concrete execution used for confirmation: {!Interp.run} with [`Paper]
    semantics for programs, the {!Regvm} instruction semantics for IR. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_reasons : Format.formatter -> reason list -> unit
val pp_report : Format.formatter -> report -> unit
val pp_certification : Format.formatter -> certification -> unit
