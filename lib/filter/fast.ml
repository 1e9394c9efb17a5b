module Packet = Pf_pkt.Packet

type t = {
  validated : Validate.t;
  analysis : Analysis.t;
  insns : Insn.t array;
  stack : int array;
      (* Scratch stack reused across runs; safe because filters are applied
         sequentially on the (simulated) kernel path, never concurrently. *)
}

let compile validated =
  { validated;
    analysis = Analysis.analyze validated;
    insns = Array.of_list (Program.insns (Validate.program validated));
    stack = Array.make Interp.stack_size 0;
  }

let program t = Validate.program t.validated
let priority t = Program.priority (program t)
let analysis t = t.analysis

let runs_checkless t packet =
  Packet.word_count packet >= t.analysis.Analysis.safe_packet_words

(* One run, allocation-free: the verdict and the executed-instruction count
   come back packed ([Op.packed]), and an early exit (a fault or a
   short-circuit) sets [stop], which ends the loop. *)
let eval t packet =
  let words = Packet.word_count packet in
  (* When the packet covers every constant offset the program can touch, the
     loop below performs no packet bounds checks at all. A shorter packet
     cannot simply be rejected up front: a short-circuit operator might
     terminate the program (accepting!) before the out-of-range push is
     reached, so such packets keep a cheap per-push check to stay exactly
     equivalent to the checked interpreter. *)
  let need_check = words < t.validated.Validate.min_packet_words in
  (* Indirect pushes normally stay dynamically checked (the index comes off
     the stack), but when the packet meets the analysis' proven bound on
     every access — constant or data-flow-derived — even those checks are
     skipped and the whole run is checkless. *)
  let need_ind_check = words < t.analysis.Analysis.safe_packet_words in
  let stack = t.stack in
  let insns = t.insns in
  let n = Array.length insns in
  let sp = ref 0 and pc = ref 0 and stop = ref (-1) in
  while !stop < 0 && !pc < n do
    let insn = insns.(!pc) in
    incr pc;
    let pushed =
      match insn.Insn.action with
      | Action.Nopush -> true
      | Action.Pushlit v ->
        stack.(!sp) <- v;
        incr sp;
        true
      | Action.Pushzero ->
        stack.(!sp) <- 0;
        incr sp;
        true
      | Action.Pushone ->
        stack.(!sp) <- 1;
        incr sp;
        true
      | Action.Pushffff ->
        stack.(!sp) <- 0xffff;
        incr sp;
        true
      | Action.Pushff00 ->
        stack.(!sp) <- 0xff00;
        incr sp;
        true
      | Action.Push00ff ->
        stack.(!sp) <- 0x00ff;
        incr sp;
        true
      | Action.Pushword i ->
        if need_check && i >= words then false
        else begin
          stack.(!sp) <- Packet.word packet i;
          incr sp;
          true
        end
      | Action.Pushind ->
        let index = stack.(!sp - 1) in
        if need_ind_check && index >= words then false
        else begin
          stack.(!sp - 1) <- Packet.word packet index;
          true
        end
    in
    if not pushed then stop := Op.packed ~accept:false ~insns:!pc
    else
      match insn.Insn.op with
      | Op.Nop -> ()
      | op ->
        let t1 = stack.(!sp - 1) in
        let t2 = stack.(!sp - 2) in
        sp := !sp - 2;
        (* [Op.apply_int] keeps the ALU allocation-free: [Op.apply]'s
           [Push r] result boxed a fresh variant on every arithmetic
           instruction. A fault and a rejecting short-circuit both
           terminate rejecting, so the two negative sentinels besides
           [apply_accept] need no distinction here. *)
        let r = Op.apply_int op ~t2 ~t1 in
        if r >= 0 then begin
          stack.(!sp) <- r;
          incr sp
        end
        else stop := Op.packed ~accept:(r = Op.apply_accept) ~insns:!pc
  done;
  if !stop >= 0 then !stop
  else Op.packed ~accept:(!sp = 0 || stack.(!sp - 1) <> 0) ~insns:n

let run t packet = Op.packed_accepts (eval t packet)

let run_counted t packet =
  let r = eval t packet in
  (Op.packed_accepts r, Op.packed_insns r)
