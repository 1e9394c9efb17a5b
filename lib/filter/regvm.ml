module Packet = Pf_pkt.Packet

type t = {
  ir : Ir.t;
  report : Regopt.report;
  regs : int array;
      (* Scratch register file reused across runs; safe because filters run
         sequentially on the (simulated) kernel path, never concurrently. *)
}

let compile validated =
  let ir, report = Regopt.optimize validated in
  { ir; report; regs = Array.make (max 1 ir.Ir.reg_count) 0 }

let ir t = t.ir
let report t = t.report

let value regs = function Ir.Reg r -> regs.(r) | Ir.Imm v -> v

(* One run of [ir] over the register file [regs], allocation-free, like
   [Fast.eval]: the result is [Op.packed], a terminating instruction sets
   [stop], which ends the loop, and operands are read through the top-level
   [value], so a run builds no closure. *)
let eval_ir (ir : Ir.t) regs packet =
  let words = Packet.word_count packet in
  let instrs = ir.Ir.instrs in
  let n = Array.length instrs in
  let i = ref 0 and stop = ref (-1) in
  while !stop < 0 && !i < n do
    let executed = !i + 1 in
    (match instrs.(!i) with
    | Ir.Load { dst; word } ->
      if word >= words then stop := Op.packed ~accept:false ~insns:executed
      else regs.(dst) <- Packet.word packet word
    | Ir.Loadind { dst; idx } ->
      let idx = value regs idx in
      if idx >= words then stop := Op.packed ~accept:false ~insns:executed
      else regs.(dst) <- Packet.word packet idx
    | Ir.Binop { dst; op; a; b } ->
      (* Only [apply_fault] is possible negatively: short-circuit
         operators lower to [Tcond], never to [Binop]. *)
      let r = Op.apply_int op ~t2:(value regs a) ~t1:(value regs b) in
      if r >= 0 then regs.(dst) <- r
      else stop := Op.packed ~accept:false ~insns:executed
    | Ir.Tcond { cond; a; b; verdict } ->
      let eq = value regs a = value regs b in
      let fires = match cond with Ir.Ceq -> eq | Ir.Cne -> not eq in
      if fires then stop := Op.packed ~accept:verdict ~insns:executed);
    i := executed
  done;
  if !stop >= 0 then !stop
  else
    let accept =
      match ir.Ir.terminator with
      | Ir.Halt v -> v
      | Ir.Accept_if o -> value regs o <> 0
    in
    Op.packed ~accept ~insns:n

let eval t packet = eval_ir t.ir t.regs packet
let run t packet = Op.packed_accepts (eval t packet)

let run_counted t packet =
  let r = eval t packet in
  (Op.packed_accepts r, Op.packed_insns r)

let exec ir packet =
  Op.packed_accepts (eval_ir ir (Array.make (max 1 ir.Ir.reg_count) 0) packet)
