(** Abstract interpretation of filter programs.

    Section 7 of the paper hoists the interpreter's dynamic checks to
    installation time; {!Validate} does that for stack depth and
    constant-offset packet bounds. This module goes further: a sound abstract
    interpreter over validated programs, using an interval domain on 16-bit
    words and an abstract stack with one interval per slot (the stack shape
    is exact because the language is straight-line — there are no joins of
    control paths, only early exits).

    One pass over the program derives, per filter:

    - a {e verdict summary} ({!verdict}): whether the filter accepts every
      packet, rejects every packet, or genuinely depends on packet contents
      or length;
    - {e fault facts}: whether [Div]/[Mod] can divide by zero (refining
      {!Validate.t.has_division}) and how many packet words suffice to rule
      out every packet-bounds fault, including [Pushind] with a
      data-flow-derived index bound (refining {!Validate.t.has_indirect});
    - a refined [min_packet_words] that follows data flow through indirect
      pushes: packets shorter than it are {e certainly rejected};
    - the {e dead-code boundary}: the instruction at which every execution
      reaching it terminates, making everything after it unreachable
      ({!Regopt}'s analysis pass truncates there);
    - a {e worst-case cost bound} in abstract cycles, which [pftool lint]
      reports.

    All facts describe the [`Paper] semantics of {!Interp.run} (the
    semantics {!Fast} and {!Regvm} implement); every fact is
    cross-checked against the concrete engines by the differential fuzzer
    ({!Pf_fuzz.Oracle}), which asserts that no concrete run ever
    contradicts the verdict, the fault facts, or the cost bound. *)

(** {1 The interval domain} *)

module Interval : sig
  type t = private { lo : int; hi : int }
  (** A non-empty range of 16-bit words: [0 <= lo <= hi <= 0xffff]. *)

  val v : int -> int -> t
  (** [v lo hi]; raises [Invalid_argument] unless [0 <= lo <= hi <= 0xffff]. *)

  val const : int -> t
  val top : t

  val is_const : t -> int option
  val mem : int -> t -> bool
  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Convex hull — the only join this domain ever needs (used by binary
      transfer functions whose result spans several cases, e.g. a wrapped
      sum or an undecided comparison). *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Per-program facts} *)

type verdict = Always_accept | Always_reject | Depends_on_packet

type fault = Impossible | Possible
(** Whether a runtime fault of the given kind can occur on {e some}
    packet. [Impossible] is a proof; [Possible] is only "not proven
    impossible". *)

type termination = Accepts | Rejects | Faults

type read_set = Exact of int list | Unbounded
(** The packet word indices a filter's verdict can depend on. [Exact idxs]
    (sorted, duplicate-free) is a proof: two packets that agree on every
    word in [idxs] — including on which of those words exist at all — get
    the same verdict, whatever their other contents. Constant-offset pushes
    and indirect pushes with a provably constant index keep the set exact;
    a data-dependent [Pushind] index makes it [Unbounded]. The kernel's
    demultiplexing flow cache ({!Pf_kernel.Pfdev}) keys on the union read
    set of the installed filters and is bypassed when any is [Unbounded]. *)

type t = private {
  program : Program.t;
  verdict : verdict;
  div_by_zero : fault;
      (** Can a [Div]/[Mod] divide by zero? [Impossible] refines
          {!Validate.t.has_division}: the divisor's interval excludes 0 at
          every division. *)
  ind_bound : int option;
      (** [None] when the program has no [Pushind]. [Some b]: every
          [Pushind] index is proven < [b], following data flow (e.g. a
          masked header nibble); packets with at least [b] words can never
          fault an indirect push. Refines {!Validate.t.has_indirect}. *)
  safe_packet_words : int;
      (** Packets with at least this many words cannot fault {e any}
          packet access, constant-offset or indirect. At least
          {!Validate.t.min_packet_words}; [max 0x10000] when an indirect
          index is unbounded. {!Fast} runs entirely checkless at or
          above it. *)
  min_packet_words : int;
      (** Packets with {e fewer} words than this are certainly rejected
          (they fault a packet access on every path that could otherwise
          accept). At least {!Validate.t.min_packet_words}, and possibly
          larger: data flow bounds [Pushind] indices from below too. *)
  terminates_at : (int * termination) option;
      (** [Some (pc, how)]: every execution reaching instruction [pc]
          terminates there (a short-circuit whose outcome intervals are
          decided, or a division by a provably-zero divisor). Instructions
          after [pc] are dead code. *)
  max_insns : int;
      (** No execution runs more than this many instructions. *)
  cost_bound : int;
      (** Worst-case cost in abstract cycles: the sum of {!insn_cost} over
          every reachable instruction. An upper bound on the cost of any
          run ({!cost_of_prefix} of the executed prefix). *)
  read_set : read_set;
      (** See {!read_set}. Only reachable instructions contribute; the
          fuzz oracle cross-checks that mutating any word outside an
          [Exact] read set never changes the verdict. *)
}

val union_read_sets : read_set -> read_set -> read_set
(** Union; [Unbounded] absorbs. *)

val analyze : Validate.t -> t
(** Requires a validated program (exact stack shape); runs in one linear
    pass at installation time. *)

val dead_after : t -> int option
(** [Some pc] iff {!t.terminates_at} truncates the program strictly before
    its last instruction: instructions [pc+1 ..] never execute. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_fault : Format.formatter -> fault -> unit
val pp_read_set : Format.formatter -> read_set -> unit
val pp : Format.formatter -> t -> unit
(** Multi-line lint-style report. *)

(** {1 The cost model} *)

val insn_cost : Insn.t -> int
(** Abstract cycles to execute one instruction: 1 for fetch/dispatch, plus
    per-action weight (literal word fetch, packet load, indirect load) and
    per-operator weight (multiply and divide cost more, as on the
    microVAX the paper measured). *)

val cost_of_prefix : Program.t -> int -> int
(** [cost_of_prefix p k]: cost of the first [k] instructions — the
    concrete cost of a run that executed [k] instructions (execution is
    always a prefix in a straight-line language). *)

(** {1 Guard chains} *)

val guards : Program.t -> (int * int * int) list * bool
(** The leading guard chain of a program — a run of [pushword+i / const
    CAND] pairs, operands in either order, and a trailing [EQ] pair; word
    first, a constant [AND] by [m] or [RSH] by [k] (the [low_byte] and
    [high_byte] forms {!Expr} emits) may precede the comparison. A guard
    [(word index, mask, value)] requires [word land mask = value]: mask
    [0xffff] for a whole word, [m], or [0xffff lsl k] with the value
    shifted up by [k] (a value outside its mask never holds). Each is a
    {e necessary} condition for acceptance (a mismatched or missing word
    rejects). The second component says whether the chain is the
    {e whole} program, in which case the conditions are also
    {e sufficient}. The foundation of {!Dispatch}. *)

(** {1 Test hooks} *)

module For_testing : sig
  val unsound_wrap : bool ref
  (** When set, [Add]/[Sub]/[Mul] transfer functions clamp instead of
      widening on 16-bit wraparound — a deliberately unsound interval
      mutant. The fuzz suite flips this to prove the differential oracle
      catches an unsound analysis; never set it outside tests. *)
end
