(* Tests for the post-1987 extensions and baselines: the peephole optimizer,
   the NIT-style single-field matcher, decision-tree demultiplexing inside
   the pseudodevice, the Pup echo protocol, and VMTP loss recovery. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame

(* {1 Peephole optimizer} *)

let test_peephole_nops () =
  let p =
    Program.v
      [ Insn.make Action.Nopush; Insn.make (Action.Pushword 1);
        Insn.make Action.Nopush; Insn.make ~op:Op.Eq (Action.Pushlit 2);
        Insn.make Action.Nopush ]
  in
  let optimized, report = Peephole.optimize_with_report p in
  Alcotest.(check int) "nops removed" 2 (Program.insn_count optimized);
  Alcotest.(check int) "before" 5 report.Peephole.insns_before;
  Alcotest.(check int) "after" 2 report.Peephole.insns_after

let test_peephole_strength_reduction () =
  let p = Program.v [ Insn.make (Action.Pushlit 0xffff); Insn.make ~op:Op.And (Action.Pushlit 0x00ff) ] in
  let optimized = Peephole.optimize p in
  (* 0xffff land 0x00ff = 0x00ff: the whole thing folds to one PUSH00FF. *)
  Alcotest.(check int) "folds to one insn" 1 (Program.insn_count optimized);
  Alcotest.(check int) "no literal words" 1 (Program.code_words optimized);
  Alcotest.(check (list int)) "result is push00ff"
    (Insn.encode (Insn.make Action.Push00ff))
    (List.concat_map Insn.encode (Program.insns optimized))

let test_peephole_constant_folding_chain () =
  (* (3 + 4) * 2 == 14 -> constant TRUE, one push. *)
  let p =
    Program.v
      [ Insn.make (Action.Pushlit 3); Insn.make ~op:Op.Add (Action.Pushlit 4);
        Insn.make ~op:Op.Mul (Action.Pushlit 2); Insn.make ~op:Op.Eq (Action.Pushlit 14) ]
  in
  let optimized = Peephole.optimize p in
  Alcotest.(check int) "whole chain folds" 1 (Program.insn_count optimized);
  Alcotest.(check bool) "still accepts" true (Interp.accepts optimized (Packet.of_string ""))

let test_peephole_truncates_dead_code () =
  (* pushone, pushone, COR always terminates TRUE: the tail is dead. *)
  let p =
    Program.v
      [ Insn.make Action.Pushone; Insn.make ~op:Op.Cor Action.Pushone;
        Insn.make (Action.Pushword 100); Insn.make ~op:Op.Eq (Action.Pushlit 9) ]
  in
  let optimized = Peephole.optimize p in
  Alcotest.(check bool) "tail removed" true (Program.insn_count optimized <= 2);
  (* Verdict preserved even on a packet where the dead pushword+100 would
     have faulted. *)
  Alcotest.(check bool) "same verdict on short packet"
    (Interp.accepts p (Packet.of_string "ab"))
    (Interp.accepts optimized (Packet.of_string "ab"))

let test_peephole_keeps_dynamic_code () =
  let p = Predicates.fig_3_9 in
  let optimized = Peephole.optimize p in
  Alcotest.(check bool) "nothing to optimize in fig 3-9" true (Program.equal p optimized)

let test_peephole_invalid_program_untouched () =
  let p = Program.v [ Insn.make ~op:Op.And Action.Nopush ] in
  Alcotest.(check bool) "underflowing program returned as-is" true
    (Program.equal p (Peephole.optimize p))

let prop_peephole_preserves_verdict =
  QCheck.Test.make ~name:"peephole preserves the checked verdict" ~count:1000
    Testutil.arb_program_packet
    (fun (insns, packet) ->
      let p = Program.v insns in
      let optimized = Peephole.optimize p in
      Interp.accepts p packet = Interp.accepts optimized packet)

let prop_peephole_never_grows =
  QCheck.Test.make ~name:"peephole never grows the encoding" ~count:500
    Testutil.arb_program_packet
    (fun (insns, _) ->
      let p = Program.v insns in
      Program.code_words (Peephole.optimize p) <= Program.code_words p)

let prop_decode_never_raises =
  QCheck.Test.make ~name:"Program.decode total on arbitrary words" ~count:500
    QCheck.(list (int_bound 0xffff))
    (fun words ->
      match Program.decode words with Ok _ | Error _ -> true)

(* {1 NIT-style single-field matching} *)

let test_fieldmatch_basics () =
  let f = Fieldmatch.v ~offset:1 2 in
  Alcotest.(check bool) "matches pup type" true
    (Fieldmatch.matches f (Testutil.pup_frame ()));
  Alcotest.(check bool) "rejects others" false
    (Fieldmatch.matches f (Testutil.pup_frame ~etype:9 ()));
  Alcotest.(check bool) "short packet rejected" false
    (Fieldmatch.matches f (Packet.of_string "x"));
  (* The packet filter subsumes it. *)
  let program = Fieldmatch.to_program f in
  List.iter
    (fun pkt ->
      Alcotest.(check bool) "program = matcher" (Fieldmatch.matches f pkt)
        (Interp.accepts program pkt))
    [ Testutil.pup_frame (); Testutil.pup_frame ~etype:9 (); Packet.of_string "x" ]

let test_fieldmatch_masked () =
  let f = Fieldmatch.v ~offset:3 ~mask:0x00ff 16 in
  Alcotest.(check bool) "masked match" true
    (Fieldmatch.matches f (Testutil.pup_frame ~ptype:16 ()));
  Alcotest.(check bool) "mask ignores high byte" true
    (Fieldmatch.matches f
       (Packet.of_bytes
          (let b = Packet.to_bytes (Testutil.pup_frame ~ptype:16 ()) in
           Bytes.set_uint8 b 6 0xAA;
           b)))

let test_fieldmatch_expressible () =
  let open Dsl in
  (* One plain field: NIT can do it. *)
  (match Fieldmatch.expressible (word 1 =: lit 2) with
  | Some f -> Alcotest.(check int) "offset" 1 f.Fieldmatch.offset
  | None -> Alcotest.fail "single field should be expressible");
  (* One masked field. *)
  (match Fieldmatch.expressible (low_byte (word 3) =: lit 16) with
  | Some f ->
    Alcotest.(check int) "mask" 0x00ff f.Fieldmatch.mask;
    Alcotest.(check int) "value" 16 f.Fieldmatch.value
  | None -> Alcotest.fail "masked field should be expressible");
  (* Figure 3-9 needs three fields: NIT cannot express it — the paper's
     point about single-field kernel demultiplexers. *)
  Alcotest.(check bool) "fig 3-9 not expressible" true
    (Fieldmatch.expressible
       (word 8 =: lit 35 &&: (word 7 =: lit 0) &&: (word 1 =: lit 2))
    = None);
  Alcotest.(check bool) "inequality not expressible" true
    (Fieldmatch.expressible (word 1 >: lit 2) = None)

let test_fieldmatch_false_positives () =
  (* NIT matching only the socket word accepts a non-Pup packet whose bytes
     happen to coincide — the CSPF filter does not. *)
  let nit = Fieldmatch.v ~offset:8 35 in
  let cspf = Predicates.pup_dst_socket 35l in
  let pup = Testutil.pup_frame ~dst_socket:35l () in
  let impostor =
    (* ethertype 0x0800 (not Pup), but word 8 = 35 *)
    Packet.of_words [ 0x0102; 0x0800; 0; 0; 0; 0; 0; 0; 35; 0; 0; 0 ]
  in
  Alcotest.(check bool) "both accept the real Pup" true
    (Fieldmatch.matches nit pup && Interp.accepts cspf pup);
  Alcotest.(check bool) "NIT accepts the impostor" true (Fieldmatch.matches nit impostor);
  Alcotest.(check bool) "CSPF rejects the impostor" false (Interp.accepts cspf impostor)

(* {1 Two-host worlds} *)

let mk_world () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Exp3 ~rate_mbit:3. () in
  let a = Host.create ~costs:Pf_sim.Costs.free link ~name:"a" ~addr:(Addr.exp 1) in
  let b = Host.create ~costs:Pf_sim.Costs.free link ~name:"b" ~addr:(Addr.exp 2) in
  (eng, a, b)

(* {1 Pup echo} *)

let test_pup_echo_ping () =
  let eng, a, b = mk_world () in
  let server = Pf_proto.Pup_echo.server b in
  let result = ref None in
  ignore
    (Host.spawn a ~name:"ping" (fun () ->
         result := Some (Pf_proto.Pup_echo.ping a ~dst_host:2 ~count:4 ~size:100)));
  Engine.run eng;
  (match !result with
  | Some r ->
    Alcotest.(check int) "all answered" 4 r.Pf_proto.Pup_echo.answered;
    Alcotest.(check int) "four rtts" 4 (List.length r.Pf_proto.Pup_echo.rtts);
    List.iter
      (fun rtt -> Alcotest.(check bool) "positive rtt" true (rtt > 0))
      r.Pf_proto.Pup_echo.rtts
  | None -> Alcotest.fail "ping did not run");
  Alcotest.(check int) "server counted them" 4 (Pf_proto.Pup_echo.echoed server);
  Pf_proto.Pup_echo.stop server;
  Engine.run eng

let test_pup_echo_no_server () =
  let eng, a, _b = mk_world () in
  let result = ref None in
  ignore
    (Host.spawn a ~name:"ping" (fun () ->
         result := Some (Pf_proto.Pup_echo.ping a ~dst_host:2 ~count:2 ~timeout:10_000)));
  Engine.run eng;
  match !result with
  | Some r -> Alcotest.(check int) "nothing answered" 0 r.Pf_proto.Pup_echo.answered
  | None -> Alcotest.fail "ping did not run"

(* {1 VMTP selective retransmission} *)

let test_vmtp_recovers_from_drops () =
  (* Realistic costs + the era queue limit: the 16KB response bursts
     overflow the client's port, and the transaction must still complete,
     via the needed-parts mask. *)
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let a = Host.create link ~name:"a" ~addr:(Addr.eth_host 1) in
  let b = Host.create link ~name:"b" ~addr:(Addr.eth_host 2) in
  (* The demux flow cache makes the client's interrupt path cheap enough
     that the burst no longer overflows; this test is about recovery from
     drops, so run the uncached (paper-era) demultiplexer. *)
  Pfdev.set_cache_enabled (Host.pf a) false;
  Pfdev.set_cache_enabled (Host.pf b) false;
  let impl = Pf_proto.Vmtp.User { batch = false } in
  let server =
    Pf_proto.Vmtp.server b impl ~entity:1l
      ~handler:(fun _ -> Packet.of_string (String.make Pf_proto.Vmtp.max_response 'z'))
  in
  let got = ref None in
  ignore
    (Host.spawn a ~name:"caller" (fun () ->
         got :=
           Pf_proto.Vmtp.call
             (Pf_proto.Vmtp.client a impl ~entity:2l)
             ~server:1l ~server_addr:(Host.addr b) (Packet.of_string "want it all");
         Pf_proto.Vmtp.stop_server server));
  Engine.run ~until:30_000_000 eng;
  (match !got with
  | Some response ->
    Alcotest.(check int) "full 16KB recovered" Pf_proto.Vmtp.max_response
      (Packet.length response);
    Alcotest.(check char) "content intact" 'z' (Char.chr (Packet.byte response 0))
  | None -> Alcotest.fail "transaction failed");
  (* The point of the test: packets were really dropped on the way. *)
  Alcotest.(check bool) "drops happened" true
    (Pf_sim.Stats.get (Host.stats a) "pf.drop.overflow" > 0)

(* {1 Write batching (§7)} *)

let test_write_batch_single_syscall () =
  let eng, alice, bob = mk_world () in
  let rx = Pfdev.open_port (Host.pf bob) in
  (match Pfdev.set_filter rx Predicates.accept_all with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "set_filter");
  let tx = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write_batch tx
           (List.init 6 (fun _ -> Testutil.pup_frame ~dst_byte:2 ()))));
  Engine.run eng;
  Alcotest.(check int) "one syscall for six packets" 1
    (Pf_sim.Stats.get (Host.stats alice) "pf.syscalls");
  Alcotest.(check int) "all delivered" 6 (Pfdev.poll rx)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "peephole removes nops" `Quick test_peephole_nops;
      Alcotest.test_case "peephole strength reduction" `Quick test_peephole_strength_reduction;
      Alcotest.test_case "peephole folds constants" `Quick test_peephole_constant_folding_chain;
      Alcotest.test_case "peephole truncates dead code" `Quick test_peephole_truncates_dead_code;
      Alcotest.test_case "peephole keeps dynamic code" `Quick test_peephole_keeps_dynamic_code;
      Alcotest.test_case "peephole skips invalid programs" `Quick
        test_peephole_invalid_program_untouched;
      QCheck_alcotest.to_alcotest prop_peephole_preserves_verdict;
      QCheck_alcotest.to_alcotest prop_peephole_never_grows;
      QCheck_alcotest.to_alcotest prop_decode_never_raises;
      Alcotest.test_case "fieldmatch basics" `Quick test_fieldmatch_basics;
      Alcotest.test_case "fieldmatch masked" `Quick test_fieldmatch_masked;
      Alcotest.test_case "fieldmatch expressibility" `Quick test_fieldmatch_expressible;
      Alcotest.test_case "NIT false positives vs CSPF" `Quick test_fieldmatch_false_positives;
      Alcotest.test_case "pup echo ping" `Quick test_pup_echo_ping;
      Alcotest.test_case "pup echo no server" `Quick test_pup_echo_no_server;
      Alcotest.test_case "vmtp recovers from drops" `Quick test_vmtp_recovers_from_drops;
      Alcotest.test_case "write batch" `Quick test_write_batch_single_syscall;
    ] )
