(** Scratch-register execution engine over the optimized IR.

    Where {!Fast} replays the stack program, [Regvm] executes the
    three-address code produced by {!Regopt.optimize} directly: no stack
    pointer, no operand shuffling, each packet word read once (after CSE),
    constants folded into immediates. The simulated cost model charges
    {!Pf_sim.Costs.t.regvm_apply} per application and
    {!Pf_sim.Costs.t.regvm_insn} per executed IR instruction — cheaper per
    step than the stack interpreter, consistent with the register-vs-stack
    results of the BPF lineage.

    Verdicts agree with {!Interp.run} under [`Paper] semantics on every
    packet, including short packets and runtime faults (both reject). The
    instruction {e count} is an IR count, not the stack count — callers
    comparing against {!Fast.run_counted} must not expect equality. *)

type t

val compile : Validate.t -> t
(** Lower, optimize, and wrap with a reusable scratch register file. Like
    {!Fast.t}, the scratch state makes a compiled filter safe for
    sequential reuse but not for concurrent runs. *)

val compile_super :
  ?equiv_budget:int -> ?budget:int -> ?seed:int -> ?memo:Equiv.Memo.t ->
  Validate.t -> t * Equiv.certification * Superopt.outcome
(** {!Regopt.optimize_superopt} wrapped for execution: the certified
    pipeline output refined by the stochastic search, with the
    certification and the search outcome surfaced for accounting. The
    offline superoptimizer's entry point ([pftool superopt],
    [bench superopt]); the kernel never runs the search. *)

val validated : t -> Validate.t
val ir : t -> Ir.t
val report : t -> Regopt.report
val priority : t -> int

val run_counted : t -> Pf_pkt.Packet.t -> bool * int
(** Verdict plus the number of IR instructions executed (terminating
    instructions count themselves; the terminator is free). *)

val run : t -> Pf_pkt.Packet.t -> bool
