(** The optimizing backend over the register IR.

    {!Ir.lower} turns a validated stack program into three-address code;
    this module spends the dataflow that representation exposes:

    - {e terminator folding} seeded by {!Analysis} interval facts: a filter
      whose verdict the abstract interpreter decides collapses to a bare
      [Halt], and a proven always-terminating instruction truncates
      everything after it;
    - {e constant folding and copy propagation}: operators whose operands
      are immediates fold away (a division by a constant zero folds to the
      rejecting terminator), and algebraic identities ([x and 0xffff],
      [x add 0], [x sub x], ...) turn into copies or constants that
      propagate into later operands;
    - {e common subexpression elimination}: repeated [pushword+i] loads and
      identical subtrees read each packet word once (registers are
      single-assignment and packets immutable, so availability is global);
      a repeated compare-and-terminate on the same operands is deleted (it
      can fire only if the first did) or, with the opposite polarity,
      decides the program;
    - {e dead-value elimination}: values no execution can observe are
      dropped. Instructions that can reject on their own survive unless
      provably harmless: a dead packet load is deleted only when an earlier
      retained load proves the packet long enough, a dead division only
      when its divisor is a non-zero immediate.

    The pipeline preserves the [`Paper] verdict of {!Interp.run} on every
    packet — including short packets and runtime faults. The differential
    fuzz oracle ({!Pf_fuzz.Oracle}) cross-checks the optimized IR (via
    {!Regvm}) on every case, and [pftool verify] proves it equal to the
    source program for every builtin filter. *)

type report = {
  insns_before : int;  (** stack instructions in the source program *)
  lowered_instrs : int;  (** IR instructions straight out of {!Ir.lower} *)
  optimized_instrs : int;  (** IR instructions after the pipeline *)
  loads_before : int;  (** packet loads in the lowered IR *)
  loads_after : int;  (** packet loads after the pipeline *)
  passes : (string * int) list;
      (** Per-pass change counts in pipeline order ([analysis], [fold],
          [cse], [dve]), summed over fixpoint iterations. *)
  fell_back : bool;
      (** {!optimize_superopt} only: translation validation refuted the
          pipeline output and the plain {!Ir.lower} lowering was kept.
          Always [false] in {!optimize} reports. *)
}

val optimize : Validate.t -> Ir.t * report
(** Lower and run the pass pipeline to a fixpoint; registers are
    renumbered densely afterwards (the [reg_count] is what {!Regvm} sizes
    its scratch file with). *)

val optimize_superopt :
  ?equiv_budget:int -> ?budget:int -> ?seed:int -> ?memo:Equiv.Memo.t ->
  Validate.t -> (Ir.t * report) * Equiv.certification * Superopt.outcome
(** [optimize] under translation validation, then the stochastic
    superoptimizer. The optimized IR is checked against the source program
    with {!Equiv.check_ir}; on {!Equiv.Refuted} the unoptimized lowering
    ({!Ir.lower}, with [fell_back] set) is kept alongside the witness
    packet, and [Uncertified] keeps the optimized IR and says why the check
    fell short (e.g. path budget). {!Superopt.search} ([budget] proposals,
    optionally [?seed]/[?memo]) then refines that verified incumbent; it
    only moves through candidates proved equal to it, so the certification
    outcome is unchanged. A ["superopt"] entry (static cycles saved) is
    appended to the report's passes. The full search {!Superopt.outcome}
    (stats, refuted candidates) is what [pftool superopt] reports from;
    [equiv_budget] bounds the pipeline certification. *)
