(** Three-address register IR for filter programs.

    Section 7 of the paper anticipates compiling filters into something
    better than the stack machine; the BPF lineage showed the decisive step
    is a register model that makes dataflow explicit. This module is that
    step: a validated stack program ({!Validate.t}) lowers into a linear
    sequence of virtual-register instructions — explicit packet loads,
    three-address binary operators with immediate operands, and
    compare-and-terminate side exits — followed by a single terminator.

    The language stays straight-line (the stack language has no branches,
    only early exits), so the IR needs no control-flow graph: an instruction
    either falls through to the next or terminates the whole program with a
    verdict. Registers are single-assignment by construction of
    {!lower}, which {!Regopt}'s passes rely on.

    Fault semantics mirror the checked interpreter: a packet load beyond
    the packet and a division by zero both {e reject} the packet at that
    instruction. Constants never occupy registers — they are immediate
    operands — so stack pushes of literals cost nothing here; the
    symbolic-stack lowering folds them into the instructions that consume
    them. *)

type operand =
  | Reg of int  (** a virtual register, assigned exactly once *)
  | Imm of int  (** a 16-bit constant *)

(** Equality test of a compare-and-terminate exit. The four short-circuit
    stack operators all compare [T1 = T2]; the IR keeps the comparison and
    the verdict separate. *)
type cond = Ceq | Cne

type instr =
  | Load of { dst : int; word : int }
      (** [dst := packet[word]]; rejects the packet if [word] is beyond it. *)
  | Loadind of { dst : int; idx : operand }
      (** [dst := packet[idx]] (the §7 indirect push); rejects if out of
          bounds. *)
  | Binop of { dst : int; op : Op.t; a : operand; b : operand }
      (** [dst := a op b] with [a] the paper's T2 and [b] its T1; [op] is
          never [Nop] nor a short-circuit operator. [Div]/[Mod] by zero
          reject the packet. Results are 16-bit like every stack value. *)
  | Tcond of { cond : cond; a : operand; b : operand; verdict : bool }
      (** If [(a = b)] matches [cond], terminate the whole program with
          [verdict]; otherwise fall through. Lowered from [Cor]/[Cand]/
          [Cnor]/[Cnand]; the constant the stack operator would push on
          fall-through lives on the symbolic stack as an immediate. *)

type terminator =
  | Accept_if of operand  (** accept iff the operand is non-zero *)
  | Halt of bool  (** constant verdict (empty final stack accepts) *)

type t = {
  instrs : instr array;
  terminator : terminator;
  reg_count : int;  (** registers are numbered [0 .. reg_count - 1] *)
}

val lower : Validate.t -> t
(** Symbolic-stack conversion of a validated program: one linear pass,
    [`Paper] semantics (short-circuit fall-through values are pushed).
    Validation guarantees the symbolic stack neither underflows nor
    overflows. *)

val lower_with_map : Validate.t -> t * int array
(** [lower] plus the position map: element [pc] is the number of IR
    instructions emitted after lowering stack instructions [0 .. pc]
    — used to transfer {!Analysis.t.terminates_at} facts onto the IR. *)

val instr_count : t -> int

val cost : t -> int
(** Static cost in the abstract cycles of {!Analysis.insn_cost}: every
    instruction pays a fetch/dispatch cycle, packet loads pay the word
    fetch, multiply and divide dominate the ALU ops, and the terminator is
    free (mirroring {!Regvm.run_counted}'s charging). [pftool ir --json]
    reports it as [optimized_cost]. *)

val load_count : t -> int
(** Number of packet-load instructions ([Load] + [Loadind]) — what common
    subexpression elimination minimizes. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp : Format.formatter -> t -> unit
(** One instruction per line, e.g.
    {v
    r0 := pkt[8]
    if r0 != 35 reject
    r1 := pkt[1]
    r2 := r1 eq 2
    accept if r2
    v} *)
