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
    - {e early exits}: when the terminator is [accept if r] and [r] roots a
      tree of single-use [and]s whose leaves are all comparison results,
      each single-use [eq]/[neq] leaf after the program's last accept exit
      becomes a reject exit at its own position ([if a != b reject]) and
      the remaining leaves are joined again with [and]. This is figure
      3-9's short-circuit style recovered from figure 3-8's "blender"
      style: a zero conjunct rejects, so rejecting as soon as it is known
      changes no verdict.

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
          [cse], [dve], [exits]), summed over fixpoint iterations; for
          [exits], the reject exits made. *)
}

val optimize : Validate.t -> Ir.t * report
(** Lower and run the pass pipeline to a fixpoint; registers are
    renumbered densely afterwards (the [reg_count] is what {!Regvm} sizes
    its scratch file with). *)
