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

val ir : t -> Ir.t
val report : t -> Regopt.report

val eval : t -> Pf_pkt.Packet.t -> int
(** One run, allocating nothing: the verdict and the number of IR
    instructions executed (terminating instructions count themselves; the
    terminator is free), packed as {!Op.packed}, the same encoding as
    {!Fast.eval}. The kernel's demux walks call this. *)

val run_counted : t -> Pf_pkt.Packet.t -> bool * int
(** {!eval} decoded: the verdict and the IR instruction count. *)

val run : t -> Pf_pkt.Packet.t -> bool
(** The verdict of {!eval}. *)

val exec : Ir.t -> Pf_pkt.Packet.t -> bool
(** The verdict of any IR, optimized or not, run by the loop {!eval} runs
    over a fresh register file. {!Equiv} confirms its IR witnesses with
    it, so certification checks the semantics the kernel runs. *)
