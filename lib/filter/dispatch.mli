(** The cross-filter dispatch automaton: sublinear demultiplexing over the
    whole installed port set.

    Section 7 proposes compiling "the set of active filters into a
    decision table"; this module is that table, and it makes demux cheaper
    {e in the number of filters}. The entire active set is compiled
    into one shared-prefix dispatch structure over read-set words (in the
    spirit of BPF+'s CFG merging): filters are grouped by the {e signature}
    of their leading guard chain ({!Analysis.guards}) — its guard words and
    the mask each is compared under — and each group keeps one hash table
    from the packet's masked words at those offsets to the filters
    requiring exactly those values. Classifying a packet then costs one
    probe per group — independent of how many filters share the group —
    plus running the few same-slot candidate programs.

    Soundness rests on the guard chains of {!Analysis.guards}:

    - a guard [word land mask = value] is {e necessary}, so a filter whose
      slot does not match the packet (or whose guard word is missing)
      provably rejects; the guards on one word merge into one, so two
      slots of one group demand different values of a shared word under
      one mask, a packet matches at most one of them, and hash dispatch
      across slots needs no order;
    - when the chain is the {e whole} program it is also {e sufficient},
      so an [exact] entry accepts on slot match with zero interpretation;
    - entries sharing a slot are scanned in walk order and an exact entry
      ends the scan, so an entry ranked after an exact entry of its slot
      can never win a packet ({!decisions} reports it [Shadowed]).

    Everything that cannot be indexed soundly — unbounded read sets,
    empty or unprovable guard chains, and entries the caller excludes
    (copy-all and tap ports in {!Pf_kernel.Pfdev}) — falls back to the
    ordered per-port residual walk, exposed by {!residuals} so the caller
    can merge it with the automaton winner by rank. *)

type 'a t

type residual_reason =
  [ `Unbounded  (** the filter's {!Analysis.read_set} is [Unbounded] *)
  | `No_chain  (** no leading guard chain — nothing provably sharable *)
  | `Excluded  (** the caller marked it not [indexable] *) ]

(** What the automaton decided for one filter. *)
type decision =
  | Indexed of { words : (int * int) list; exact : bool }
      (** member of the group keyed on [words], (offset, mask) pairs;
          [exact] entries accept on slot match without running it *)
  | Shadowed of { by : int }
      (** ranked after an exact entry of its slot, the one at rank [by]:
          it can never win a packet *)
  | Residual of residual_reason  (** walked per-port, in rank order *)
  | Never_accepts
      (** [Always_reject] verdict or a guard chain that can never hold;
          dropped from both the automaton and the residual walk *)

(** {1 Maintenance}

    The automaton is a maintained structure: each {!add} or {!remove}
    touches only its own group slot (or the residual list), and leaves the
    automaton exactly as a scratch build of the resulting filter set would
    be — the same groups in the same order, the same slot contents, the
    same decisions and residuals — so classification answers and costs
    never depend on the history of changes. *)

val create : unit -> 'a t
(** The empty automaton. *)

val add : 'a t -> rank:int -> ?indexable:bool -> Fast.t -> 'a -> unit
(** [add t ~rank fast value] enters one compiled filter at walk position
    [rank]: lower ranks walk first, and ranks need not be dense. Indexes
    the filter if it can prove that safe and classifies it per {!decision}
    otherwise; [indexable] (default [true]) [false] forces it residual
    ([`Excluded]) — {!Pf_kernel.Pfdev} excludes copy-all and tap ports,
    whose multi-delivery the first-match automaton cannot express. Raises
    [Invalid_argument] if [rank] is taken. *)

val remove : 'a t -> rank:int -> unit
(** Take out the filter at [rank]; a slot or group disappears with its
    last entry. Raises [Invalid_argument] if no filter has that rank. *)

val build_compiled : ?indexable:('a -> bool) -> (Fast.t * 'a) list -> 'a t
(** [build_compiled filters] ranks filters by decreasing
    {!Program.priority} of their programs, breaking ties by list position,
    and {!add}s them in that order under dense ranks [0 .. n-1].
    [indexable] (default: everything) is asked per value. One {!add} per
    filter. *)

val build : ?indexable:('a -> bool) -> (Validate.t * 'a) list -> 'a t
(** {!build_compiled} after {!Fast.compile} of every filter ([pftool
    dispatch] and the tests). *)

val size : 'a t -> int
(** Number of filters entered, whatever their decision. *)

val residuals : 'a t -> (int * 'a) list
(** The non-indexed entries as [(rank, value)], in rank (walk) order.
    Ranks are shared with {!classify}'s winner, so the caller can
    interleave the residual walk with the automaton's answer. *)

val decisive : 'a t -> (int * int) option
(** [Some (groups, words)] — the probes and the most guard words hashed per
    classify — when {!classify} decides every packet without running a
    program: no residuals, and every slot's first entry exact. *)

val decisions : 'a t -> (int * 'a * decision) list
(** Per-filter decisions in rank order (the [pftool dispatch] inspection
    surface). *)

val classify :
  ?on_run:('a -> insns:int -> unit) -> 'a t -> Pf_pkt.Packet.t -> (int * 'a) option
(** The lowest-rank {e indexed} filter accepting the packet, with its
    rank, or [None] when no indexed filter accepts. The caller must still
    walk {!residuals} of lower rank than the winner to preserve
    first-match semantics. [on_run] is invoked for every candidate program
    actually interpreted (the kernel uses it for per-port engine
    accounting); exact entries accept without any interpretation. Its
    counts are read with {!stats}.

    Allocates nothing, unless several slots match: their entries are then
    merged and sorted by rank. The winner is stored with its entry. Not
    reentrant: the counts and probe keys are scratch space in the
    automaton, which is safe because the simulator serializes demux
    events. *)

type stats = private {
  mutable probes : int;  (** group hash probes performed *)
  mutable hash_words : int;  (** packet words read while forming slot keys *)
  mutable exact_accepts : int;  (** 1 when the winner was an exact entry *)
  mutable candidates_run : int;  (** same-slot candidate programs interpreted *)
  mutable insns : int;  (** instructions those candidates executed *)
  mutable slots_matched : int;  (** slots whose guard values the packet holds *)
}

val stats : 'a t -> stats
(** The counts of the last {!classify} on this automaton, in one record
    that each classify resets and refills: read it before the next. *)

(** {1 Inspection} *)

type group_info = {
  words : (int * int) list;  (** the shared (offset, mask) signature *)
  slots : int;  (** distinct guard-value tuples *)
  members : int;  (** indexed entries across the slots, post-shadowing *)
  exact_members : int;
}

type info = {
  filters : int;
  indexed : int;
  residual : int;
  residual_unbounded : int;
  residual_no_chain : int;
  residual_excluded : int;
  never_accepts : int;
  shadowed : int;
  max_prefix_depth : int;  (** deepest shared guard prefix, in words *)
  groups : group_info list;  (** sorted by offset signature *)
}

val info : 'a t -> info
val pp_info : Format.formatter -> info -> unit
val pp_decision : Format.formatter -> decision -> unit

(** {1 Test hooks} *)

module For_testing : sig
  val unsound_prefix_sharing : bool ref
  (** When set, {!classify} treats every slot-matched entry as [exact] —
      accepting on guard-prefix match without running the rest of the
      program, the unsound sharing this module's [exact] distinction
      exists to prevent. The differential suite flips this to prove the
      automaton/linear-walk oracle catches it; never set it outside
      tests. *)
end
