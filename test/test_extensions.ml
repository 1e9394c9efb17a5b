(* Tests for the post-1987 extensions and baselines: the wire codec, the
   NIT-style single-field matcher, the Pup echo protocol, VMTP loss
   recovery, and write batching. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame

(* {1 Wire codec} *)

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
