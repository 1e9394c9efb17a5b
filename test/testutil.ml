(* Small shared helpers for the test suite. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A Pup frame on the 3Mb experimental Ethernet, built by hand so filter
   tests do not depend on the Pup encoder under test elsewhere. Layout per
   figure 3-7. *)
let pup_frame ?(dst_byte = 1) ?(src_byte = 2) ?(ptype = 1) ?(dst_socket = 35l)
    ?(etype = 2) () =
  let hi = Int32.to_int (Int32.shift_right_logical dst_socket 16) land 0xffff in
  let lo = Int32.to_int dst_socket land 0xffff in
  Pf_pkt.Packet.of_words
    [
      (dst_byte lsl 8) lor src_byte (* word 0: EtherDst | EtherSrc *);
      etype (* word 1: EtherType (Pup = 2) *);
      22 (* word 2: PupLength *);
      ptype land 0xff (* word 3: HopCount | PupType *);
      0; 0 (* words 4-5: Pup identifier *);
      0x0003 (* word 6: DstNet | DstHost *);
      hi (* word 7: DstSocket high *);
      lo (* word 8: DstSocket low *);
      0x0002 (* word 9: SrcNet | SrcHost *);
      0; 7 (* words 10-11: SrcSocket *);
      0 (* word 12: checksum *);
    ]

(* Run a complete simulation to quiescence and return it. *)
let run_sim engine = Pf_sim.Engine.run engine

(* A 10Mb-Ethernet IP/UDP frame with a 20-byte option-less header. *)
let ip_udp_frame ~dst_port =
  let b = Pf_pkt.Builder.create () in
  Pf_pkt.Builder.add_string b (String.make 6 '\x02');
  Pf_pkt.Builder.add_string b (String.make 6 '\x01');
  Pf_pkt.Builder.add_word b 0x0800;
  Pf_pkt.Builder.add_byte b 0x45;
  Pf_pkt.Builder.add_byte b 0;
  Pf_pkt.Builder.add_word b 28;
  Pf_pkt.Builder.add_word b 0;
  Pf_pkt.Builder.add_word b 0;
  Pf_pkt.Builder.add_byte b 30;
  Pf_pkt.Builder.add_byte b 17;
  Pf_pkt.Builder.add_word b 0;
  Pf_pkt.Builder.add_word32 b 0x0a000001l;
  Pf_pkt.Builder.add_word32 b 0x0a000002l;
  Pf_pkt.Builder.add_word b 1234;
  Pf_pkt.Builder.add_word b dst_port;
  Pf_pkt.Builder.add_word b 8;
  Pf_pkt.Builder.add_word b 0;
  Pf_pkt.Builder.to_packet b

(* {1 The dispatch automaton as a first-match classifier} *)

(* The first of [filters] to accept a packet, in walk order (priority
   descending, then list position), found the way the kernel finds it:
   classify through the dispatch automaton, then walk the residuals ranked
   below the winner. Also returns the instructions interpreted. *)
let dispatch_first_match filters =
  let open Pf_filter in
  let d =
    Dispatch.build_compiled
      (List.map
         (fun (v, x) ->
           let fast = Fast.compile v in
           (fast, (fast, x)))
         filters)
  in
  fun packet ->
    let winner = Dispatch.classify d packet in
    let below = match winner with Some (rank, _) -> rank | None -> max_int in
    let rec walk insns = function
      | (rank, (fast, x)) :: rest when rank < below ->
        let ok, n = Fast.run_counted fast packet in
        if ok then (Some x, insns + n) else walk (insns + n) rest
      | _ -> (Option.map (fun (_, (_, x)) -> x) winner, insns)
    in
    walk (Dispatch.stats d).Dispatch.insns (Dispatch.residuals d)

(* {1 QCheck generators shared by the filter suites} *)

(* Programs valid by construction: the exact stack depth is tracked during
   generation, so every emitted program passes Validate.check. *)
let gen_valid_insns =
  let open Pf_filter in
  QCheck.Gen.(
    let gen_push depth =
      if depth >= Interp.stack_size then return None
      else
        map Option.some
          (oneof
             [ map (fun v -> Action.Pushlit (v land 0xffff)) (int_bound 0xffff);
               return Action.Pushzero; return Action.Pushone; return Action.Pushffff;
               return Action.Pushff00; return Action.Push00ff;
               map (fun n -> Action.Pushword n) (int_bound 20);
             ])
    in
    let gen_op depth =
      if depth < 2 then return Op.Nop
      else
        oneof
          [ return Op.Nop; return Op.Eq; return Op.Neq; return Op.Lt; return Op.Le;
            return Op.Gt; return Op.Ge; return Op.And; return Op.Or; return Op.Xor;
            return Op.Cor; return Op.Cand; return Op.Cnor; return Op.Cnand;
            return Op.Add; return Op.Sub; return Op.Mul; return Op.Div; return Op.Lsh;
            return Op.Rsh;
          ]
    in
    let step depth =
      gen_push depth >>= fun action_opt ->
      let action, depth =
        match action_opt with Some a -> (a, depth + 1) | None -> (Action.Nopush, depth)
      in
      gen_op depth >>= fun op ->
      let depth = if op = Op.Nop then depth else depth - 1 in
      return (Insn.make ~op action, depth)
    in
    int_bound 24 >>= fun n ->
    let rec go i depth acc =
      if i >= n then return (List.rev acc)
      else step depth >>= fun (insn, depth') -> go (i + 1) depth' (insn :: acc)
    in
    go 0 0 [])

let gen_packet =
  QCheck.Gen.(
    int_bound 24 >>= fun words ->
    list_repeat words (int_bound 0xffff) >>= fun ws ->
    return (Pf_pkt.Packet.of_words ws))

let arb_program_packet =
  QCheck.make
    ~print:(fun (insns, packet) ->
      Format.asprintf "%a@.packet: %a" Pf_filter.Program.pp (Pf_filter.Program.v insns)
        Pf_pkt.Packet.pp packet)
    QCheck.Gen.(pair gen_valid_insns gen_packet)

(* Minor-heap words allocated while [f] runs. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before
