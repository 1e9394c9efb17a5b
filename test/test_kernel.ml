open Pf_kernel
module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Process = Pf_sim.Process
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame

(* Two hosts on a 3Mb experimental Ethernet, free cost model unless timing
   is being asserted. *)
let mk_world ?(costs = Pf_sim.Costs.free) ?(rate = 3.) () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Exp3 ~rate_mbit:rate () in
  let alice = Host.create ~costs link ~name:"alice" ~addr:(Addr.exp 1) in
  let bob = Host.create ~costs link ~name:"bob" ~addr:(Addr.exp 2) in
  (eng, link, alice, bob)

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e)

let socket_filter ?(priority = 0) s =
  Pf_filter.Predicates.pup_dst_socket ~priority (Int32.of_int s)

(* {1 End-to-end write -> demux -> read} *)

let test_write_read_end_to_end () =
  let eng, _, alice, bob = mk_world () in
  let port_b = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port_b Pf_filter.Predicates.accept_all;
  let received = ref None in
  let _rx =
    Host.spawn bob ~name:"reader" (fun () ->
        match Pfdev.read port_b with
        | Some capture -> received := Some capture.Pfdev.packet
        | None -> ())
  in
  let frame = Testutil.pup_frame ~dst_byte:2 ~src_byte:1 () in
  let port_a = Pfdev.open_port (Host.pf alice) in
  let _tx = Host.spawn alice ~name:"writer" (fun () -> Pfdev.write port_a frame) in
  Engine.run eng;
  match !received with
  | Some packet ->
    (* "The entire packet, including the data-link layer header, is
       returned." *)
    Alcotest.(check bool) "whole frame delivered" true (Packet.equal frame packet)
  | None -> Alcotest.fail "nothing received"

let test_priority_order () =
  let eng, _, alice, bob = mk_world () in
  let pf = Host.pf bob in
  let low = Pfdev.open_port pf in
  let high = Pfdev.open_port pf in
  (* Both filters match the packet; priority decides. *)
  set_filter_exn low (socket_filter ~priority:1 35);
  set_filter_exn high (socket_filter ~priority:9 35);
  let winner = ref "" in
  let reader name port =
    ignore
      (Host.spawn bob ~name (fun () ->
           Pfdev.set_timeout port (Some 50_000);
           match Pfdev.read port with
           | Some _ -> winner := !winner ^ name
           | None -> ()))
  in
  reader "high" high;
  reader "low" low;
  let port_a = Pfdev.open_port (Host.pf alice) in
  let _tx =
    Host.spawn alice ~name:"writer" (fun () ->
        Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ()))
  in
  Engine.run eng;
  Alcotest.(check string) "only the high-priority port gets it" "high" !winner

let test_equal_priority_first_bound () =
  let eng, _, alice, bob = mk_world () in
  let pf = Host.pf bob in
  let first = Pfdev.open_port pf in
  let second = Pfdev.open_port pf in
  set_filter_exn first (socket_filter ~priority:5 35);
  set_filter_exn second (socket_filter ~priority:5 35);
  let got_first = ref 0 and got_second = ref 0 in
  ignore
    (Host.spawn bob ~name:"r1" (fun () ->
         Pfdev.set_timeout first (Some 50_000);
         match Pfdev.read first with Some _ -> incr got_first | None -> ()));
  ignore
    (Host.spawn bob ~name:"r2" (fun () ->
         Pfdev.set_timeout second (Some 50_000);
         match Pfdev.read second with Some _ -> incr got_second | None -> ()));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())));
  Engine.run eng;
  Alcotest.(check int) "first-opened wins ties" 1 !got_first;
  Alcotest.(check int) "second gets nothing" 0 !got_second

let test_copy_all () =
  let eng, _, alice, bob = mk_world () in
  let pf = Host.pf bob in
  let monitor = Pfdev.open_port pf in
  let app = Pfdev.open_port pf in
  set_filter_exn monitor (Pf_filter.Program.with_priority Pf_filter.Predicates.accept_all 200);
  Pfdev.set_copy_all monitor true;
  set_filter_exn app (socket_filter ~priority:5 35);
  let mon_got = ref 0 and app_got = ref 0 in
  ignore
    (Host.spawn bob ~name:"mon" (fun () ->
         Pfdev.set_timeout monitor (Some 50_000);
         while Pfdev.read monitor <> None do
           incr mon_got
         done));
  ignore
    (Host.spawn bob ~name:"app" (fun () ->
         Pfdev.set_timeout app (Some 50_000);
         while Pfdev.read app <> None do
           incr app_got
         done));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ());
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:99l ())));
  Engine.run eng;
  (* The monitor sees both packets; the app still gets its socket-35 packet
     ("without disturbing the processes being monitored"). *)
  Alcotest.(check int) "monitor saw both" 2 !mon_got;
  Alcotest.(check int) "app still got its packet" 1 !app_got

let test_queue_overflow_and_drop_count () =
  let eng, _, alice, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  Pfdev.set_queue_limit port 4;
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"flood" (fun () ->
         for _ = 1 to 10 do
           Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())
         done));
  Engine.run eng;
  (* No reader: only 4 packets fit. *)
  Alcotest.(check int) "queue holds limit" 4 (Pfdev.poll port);
  Alcotest.(check int) "overflows counted" 6 (Pf_sim.Stats.get (Host.stats bob) "pf.drop.overflow");
  (* dropped_before counts overflows that happened before a packet was
     queued: the first four were queued before any drop, so they carry 0;
     packets arriving after the overflow would carry 6. *)
  let seen_drops = ref (-1) in
  ignore
    (Host.spawn bob ~name:"late" (fun () ->
         match Pfdev.read port with
         | Some c -> seen_drops := c.Pfdev.dropped_before
         | None -> ()));
  ignore
    (Host.spawn alice ~name:"one-more" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())));
  Engine.run eng;
  Alcotest.(check int) "early capture reports no drops" 0 !seen_drops;
  (* Now there is room again; the new arrival records the 6 earlier drops. *)
  let late_drops = ref (-1) in
  ignore
    (Host.spawn bob ~name:"later" (fun () ->
         (* skip the three still queued from the flood *)
         ignore (Pfdev.read port);
         ignore (Pfdev.read port);
         ignore (Pfdev.read port);
         match Pfdev.read port with
         | Some c -> late_drops := c.Pfdev.dropped_before
         | None -> ()));
  Engine.run eng;
  Alcotest.(check int) "post-overflow capture reports drops" 6 !late_drops

let test_read_timeout () =
  let eng, _, _, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  Pfdev.set_timeout port (Some 1000);
  let result = ref (Some ()) in
  let t = ref 0 in
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         result := Option.map (fun _ -> ()) (Pfdev.read port);
         t := Engine.now eng));
  Engine.run eng;
  Alcotest.(check (option unit)) "timed out" None !result;
  Alcotest.(check int) "after 1ms" 1000 !t

let test_batch_read () =
  let eng, _, alice, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  let batches = ref [] in
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         (* Let the burst accumulate so one system call drains it. *)
         Process.pause 50_000;
         Pfdev.set_timeout port (Some 100_000);
         let rec go () =
           match Pfdev.read_batch port with
           | [] -> ()
           | captures ->
             batches := List.length captures :: !batches;
             go ()
         in
         go ()));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write_batch port_a
           (List.init 5 (fun _ -> Testutil.pup_frame ~dst_byte:2 ()))));
  Engine.run eng;
  Alcotest.(check int) "all five delivered" 5 (List.fold_left ( + ) 0 !batches);
  Alcotest.(check bool) "fewer syscalls than packets" true (List.length !batches < 5)

let test_select () =
  let eng, _, alice, bob = mk_world () in
  let pf = Host.pf bob in
  let p1 = Pfdev.open_port pf in
  let p2 = Pfdev.open_port pf in
  set_filter_exn p1 (socket_filter 35);
  set_filter_exn p2 (socket_filter 99);
  let ready = ref [] in
  ignore
    (Host.spawn bob ~name:"selector" (fun () ->
         match Pfdev.select ~timeout:100_000 [ p1; p2 ] with
         | [] -> ()
         | ports -> ready := List.map Pfdev.poll ports));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:99l ())));
  Engine.run eng;
  Alcotest.(check (list int)) "one port ready with one packet" [ 1 ] !ready

let test_select_timeout () =
  let eng, _, _, bob = mk_world () in
  let p1 = Pfdev.open_port (Host.pf bob) in
  set_filter_exn p1 Pf_filter.Predicates.accept_all;
  let out = ref [ p1 ] in
  ignore
    (Host.spawn bob ~name:"selector" (fun () -> out := Pfdev.select ~timeout:500 [ p1 ]));
  Engine.run eng;
  Alcotest.(check int) "empty on timeout" 0 (List.length !out)

let test_signal_callback () =
  let eng, _, alice, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  let fired = ref 0 in
  Pfdev.set_signal port (Some (fun () -> incr fired));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())));
  Engine.run eng;
  Alcotest.(check int) "signal fired" 1 !fired

let test_no_filter_no_delivery () =
  let eng, _, alice, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  (* No filter installed: port must match nothing. *)
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())));
  Engine.run eng;
  Alcotest.(check int) "nothing queued" 0 (Pfdev.poll port);
  Alcotest.(check int) "counted unmatched" 1
    (Pf_sim.Stats.get (Host.stats bob) "pf.drop.nomatch")

let test_status () =
  let _, _, _, bob = mk_world () in
  let s = Pfdev.status (Host.pf bob) in
  Alcotest.(check int) "header length" 4 s.Pfdev.header_length;
  Alcotest.(check int) "address length" 1 s.Pfdev.address_length;
  Alcotest.(check int) "mtu" 576 s.Pfdev.mtu;
  Alcotest.(check bool) "address" true (Addr.equal s.Pfdev.address (Addr.exp 2));
  Alcotest.(check bool) "broadcast" true (Addr.equal s.Pfdev.broadcast Addr.broadcast_exp)

let test_timestamps () =
  let eng, _, alice, bob = mk_world ~costs:Pf_sim.Costs.microvax_ii () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  Pfdev.set_timestamps port true;
  let stamp = ref None in
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         match Pfdev.read port with
         | Some c -> stamp := c.Pfdev.timestamp
         | None -> ()));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Process.pause 5_000;
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ())));
  Engine.run eng;
  match !stamp with
  | Some t -> Alcotest.(check bool) "timestamp after send time" true (t > 5_000)
  | None -> Alcotest.fail "no timestamp"

let test_set_filter_rejects_invalid () =
  let _, _, _, bob = mk_world () in
  let port = Pfdev.open_port (Host.pf bob) in
  let bad = Pf_filter.Program.v [ Pf_filter.Insn.make ~op:Pf_filter.Op.And Pf_filter.Action.Nopush ] in
  Alcotest.(check bool) "invalid filter refused" true
    (Result.is_error (Pfdev.set_filter port bad))

(* {1 Timing: the analytical model of §6.5.1/6.5.2} *)

let test_receive_path_cost () =
  (* One 128-byte packet, kernel demux, no batching: the paper's table 6-8
     says ~2.3 ms elapsed on a MicroVAX-II. Our primitives must land close
     (±20%): interrupt 0.9 + wakeup 0.2 + switch 0.4 + syscall 0.25 + copy
     0.625 = 2.375 ms. *)
  let eng, _, alice, bob = mk_world ~costs:Pf_sim.Costs.microvax_ii ~rate:10. () in
  let port = Pfdev.open_port (Host.pf bob) in
  set_filter_exn port Pf_filter.Predicates.accept_all;
  let t_send = ref 0 and t_recv = ref 0 in
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         ignore (Pfdev.read port);
         t_recv := Engine.now eng));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         (* 124-byte payload = 128-byte frame on Exp3 *)
         t_send := Engine.now eng;
         Pfdev.write port_a
           (Pf_net.Frame.encode Frame.Exp3 ~dst:(Addr.exp 2) ~src:(Addr.exp 1)
              ~ethertype:2
              (Packet.of_string (String.make 124 'x')))));
  Engine.run eng;
  let wire = 128 * 8 / 10 in
  let recv_elapsed = !t_recv - !t_send - wire in
  (* Subtract the sender-side cost (syscall+copy+send-path ≈ 1.9ms per
     table 6-1) to isolate the receive path. *)
  let send_cost = 250 + 500 + 125 + 1000 + 31 in
  let recv_only = recv_elapsed - send_cost - 50 (* link latency *) in
  Alcotest.(check bool)
    (Printf.sprintf "receive path %.2fms within 2.3ms ±25%%" (float_of_int recv_only /. 1000.))
    true
    (recv_only > 1725 && recv_only < 2875)

(* {1 Pipes and the user-level demultiplexer} *)

let test_pipe () =
  let eng, _, _, bob = mk_world () in
  let pipe = Pipe.create ~capacity:2 bob in
  let got = ref [] in
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         let rec go () =
           match Pipe.read pipe with
           | Some p ->
             got := Packet.to_string p :: !got;
             go ()
           | None -> ()
         in
         go ()));
  ignore
    (Host.spawn bob ~name:"writer" (fun () ->
         List.iter (fun s -> Pipe.write pipe (Packet.of_string s)) [ "a"; "b"; "c"; "d" ];
         Pipe.close pipe));
  Engine.run eng;
  Alcotest.(check (list string)) "fifo order" [ "a"; "b"; "c"; "d" ] (List.rev !got)

let test_pipe_blocking_write () =
  let eng, _, _, bob = mk_world () in
  let pipe = Pipe.create ~capacity:1 bob in
  let wrote_second = ref 0 in
  ignore
    (Host.spawn bob ~name:"writer" (fun () ->
         Pipe.write pipe (Packet.of_string "1");
         Pipe.write pipe (Packet.of_string "2");
         wrote_second := Engine.now eng));
  ignore
    (Host.spawn bob ~name:"reader" (fun () ->
         Process.pause 10_000;
         ignore (Pipe.read pipe);
         ignore (Pipe.read pipe)));
  Engine.run eng;
  Alcotest.(check bool) "second write blocked on full pipe" true (!wrote_second >= 10_000)

let test_userdemux_forwards () =
  let eng, _, alice, bob = mk_world () in
  (* Route on the Pup destination socket's low word (frame word 8). *)
  let route pkt =
    match Packet.word_opt pkt 8 with
    | Some 35 -> Some 0
    | Some 99 -> Some 1
    | Some _ | None -> None
  in
  let demux = Userdemux.start bob ~route ~clients:2 () in
  let got0 = ref 0 and got1 = ref 0 in
  let client i counter =
    ignore
      (Host.spawn bob ~name:(Printf.sprintf "client%d" i) (fun () ->
           let rec go () =
             match Pipe.read ~timeout:100_000 (Userdemux.client_pipe demux i) with
             | Some _ ->
               incr counter;
               go ()
             | None -> ()
           in
           go ()))
  in
  client 0 got0;
  client 1 got1;
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:35l ());
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:99l ());
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:35l ());
         Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:7l ())));
  Engine.run ~until:1_000_000 eng;
  Alcotest.(check int) "client 0 got socket-35 traffic" 2 !got0;
  Alcotest.(check int) "client 1 got socket-99 traffic" 1 !got1;
  Alcotest.(check int) "three forwarded" 3 (Userdemux.forwarded demux);
  Userdemux.stop demux;
  Engine.run eng

(* {1 The demux flow cache}

   Decisions are memoized keyed on the packet bytes at the union read set of
   the installed filters; every test here drives [Pfdev.demux] directly (it
   is the interrupt-level entry point, no process context needed). *)

let cache_frame ?(dst_socket = 35l) () =
  Testutil.pup_frame ~dst_byte:2 ~src_byte:1 ~dst_socket ()

let test_cache_warm_hit () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let hit_frame = cache_frame () in
  let miss_frame = cache_frame ~dst_socket:99l () in
  Alcotest.(check bool) "cold accept" true (Pfdev.demux pf hit_frame);
  Alcotest.(check bool) "warm accept" true (Pfdev.demux pf hit_frame);
  Alcotest.(check bool) "cold reject" false (Pfdev.demux pf miss_frame);
  (* Negative decisions are cached too: a repeated non-matching header
     pattern also skips filter evaluation. *)
  Alcotest.(check bool) "warm reject" false (Pfdev.demux pf miss_frame);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "two hits" 2 cs.Pfdev.hits;
  Alcotest.(check int) "two misses" 2 cs.Pfdev.misses;
  Alcotest.(check int) "two entries" 2 cs.Pfdev.entries;
  Alcotest.(check int) "hit path counts accepts" 2 (Pfdev.port_accepted port);
  Alcotest.(check int) "stats mirror the struct" 2
    (Pf_sim.Stats.get (Host.stats bob) "pf.cache.hit");
  Engine.run eng;
  Alcotest.(check int) "hit path still delivers" 2 (Pfdev.poll port)

let test_cache_hit_is_cheaper () =
  (* The whole point: with calibrated costs, a warm demux of the same header
     pattern must charge less interrupt CPU than the cold one. *)
  let eng, _, _, bob = mk_world ~costs:Pf_sim.Costs.microvax_ii () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let frame = cache_frame () in
  ignore (Pfdev.demux pf frame : bool);
  let cold = Pf_sim.Stats.get (Host.stats bob) "pf.demux_cpu_us" in
  ignore (Pfdev.demux pf frame : bool);
  let warm = Pf_sim.Stats.get (Host.stats bob) "pf.demux_cpu_us" - cold in
  Alcotest.(check bool)
    (Printf.sprintf "warm demux (%d us) cheaper than cold (%d us)" warm cold)
    true (warm < cold);
  Engine.run eng

let test_cache_invalidated_on_set_filter () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let frame = cache_frame () in
  Alcotest.(check bool) "accepted before the swap" true (Pfdev.demux pf frame);
  set_filter_exn port Pf_filter.Predicates.reject_all;
  Alcotest.(check bool) "no stale hit after set_filter" false (Pfdev.demux pf frame);
  Alcotest.(check int) "the probe missed" 0 (Pfdev.cache_stats pf).Pfdev.hits;
  Engine.run eng

let test_cache_invalidated_on_close_port () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let frame = cache_frame () in
  Alcotest.(check bool) "accepted while open" true (Pfdev.demux pf frame);
  Pfdev.close_port port;
  Alcotest.(check bool) "no stale delivery to a closed port" false (Pfdev.demux pf frame);
  Alcotest.(check int) "the probe missed" 0 (Pfdev.cache_stats pf).Pfdev.hits;
  Engine.run eng

let test_cache_invalidated_on_open_port () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let low = Pfdev.open_port pf in
  set_filter_exn low (socket_filter ~priority:1 35);
  let frame = cache_frame () in
  Alcotest.(check bool) "low wins alone" true (Pfdev.demux pf frame);
  let high = Pfdev.open_port pf in
  set_filter_exn high (socket_filter ~priority:9 35);
  Alcotest.(check bool) "still accepted" true (Pfdev.demux pf frame);
  Alcotest.(check int) "new high-priority port wins, not the cached one" 1
    (Pfdev.port_accepted high);
  Alcotest.(check int) "low got only the first" 1 (Pfdev.port_accepted low);
  Engine.run eng

let test_cache_invalidated_on_set_priority () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let a = Pfdev.open_port pf in
  let b = Pfdev.open_port pf in
  set_filter_exn a (socket_filter ~priority:9 35);
  set_filter_exn b (socket_filter ~priority:1 35);
  let frame = cache_frame () in
  Alcotest.(check bool) "accepted" true (Pfdev.demux pf frame);
  Alcotest.(check int) "a wins at first" 1 (Pfdev.port_accepted a);
  Pfdev.set_priority b 20;
  Alcotest.(check bool) "still accepted" true (Pfdev.demux pf frame);
  Alcotest.(check int) "b wins after set_priority, no stale hit" 1
    (Pfdev.port_accepted b);
  Engine.run eng

let test_cache_bypass_unbounded_read_set () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  (* Data-dependent Pushind (the IHL-following UDP matcher): the read set is
     Unbounded, so no key covers the verdict and the cache must stand aside. *)
  set_filter_exn port (Pf_filter.Predicates.udp_dst_port_any_ihl 53);
  (match (Option.get (Pfdev.port_analysis port)).Pf_filter.Analysis.read_set with
  | Pf_filter.Analysis.Unbounded -> ()
  | Pf_filter.Analysis.Exact _ ->
    Alcotest.fail "expected an unbounded read set for the any-IHL matcher");
  let frame = Testutil.ip_udp_frame ~dst_port:53 in
  Alcotest.(check bool) "accepted" true (Pfdev.demux pf frame);
  Alcotest.(check bool) "accepted again" true (Pfdev.demux pf frame);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "both demuxes bypassed" 2 cs.Pfdev.bypasses;
  Alcotest.(check int) "no hits" 0 cs.Pfdev.hits;
  Alcotest.(check int) "no misses" 0 cs.Pfdev.misses;
  Alcotest.(check int) "nothing stored" 0 cs.Pfdev.entries;
  Engine.run eng

let test_cache_capacity_eviction () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  Pfdev.set_cache_capacity pf 2;
  let f s = cache_frame ~dst_socket:s () in
  ignore (Pfdev.demux pf (f 1l) : bool);
  ignore (Pfdev.demux pf (f 2l) : bool);
  ignore (Pfdev.demux pf (f 3l) : bool);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "bounded at capacity" 2 cs.Pfdev.entries;
  Alcotest.(check int) "FIFO-evicted the oldest" 1 cs.Pfdev.evictions;
  (* The evicted (oldest) key misses again; the youngest still hits. *)
  ignore (Pfdev.demux pf (f 1l) : bool);
  ignore (Pfdev.demux pf (f 3l) : bool);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "evicted key missed" 4 cs.Pfdev.misses;
  Alcotest.(check int) "resident key hit" 1 cs.Pfdev.hits;
  Engine.run eng

let test_cache_disabled () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  Pfdev.set_cache_enabled pf false;
  let frame = cache_frame () in
  Alcotest.(check bool) "accepted" true (Pfdev.demux pf frame);
  Alcotest.(check bool) "accepted again" true (Pfdev.demux pf frame);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check bool) "reported disabled" false cs.Pfdev.enabled;
  Alcotest.(check int) "no hits" 0 cs.Pfdev.hits;
  Alcotest.(check int) "no misses" 0 cs.Pfdev.misses;
  Alcotest.(check int) "nothing stored" 0 cs.Pfdev.entries;
  Pfdev.set_cache_enabled pf true;
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  Alcotest.(check int) "works again once re-enabled" 1 (Pfdev.cache_stats pf).Pfdev.hits;
  Engine.run eng

let test_cache_invalidation_triggers_counted () =
  (* Every remaining configuration mutation must flush: each call bumps the
     invalidation counter (the correctness-critical ones are exercised
     end-to-end above and by the fuzz oracle). *)
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let bumps name f =
    let before = (Pfdev.cache_stats pf).Pfdev.invalidations in
    f ();
    Alcotest.(check bool) (name ^ " invalidates") true
      ((Pfdev.cache_stats pf).Pfdev.invalidations > before)
  in
  bumps "set_strategy" (fun () -> Pfdev.set_strategy pf `Dispatch);
  bumps "set_copy_all" (fun () -> Pfdev.set_copy_all port true);
  bumps "set_tap" (fun () -> Pfdev.set_tap port true);
  bumps "set_cost_limit" (fun () -> Pfdev.set_cost_limit pf (Some 10_000));
  bumps "set_cache_capacity" (fun () -> Pfdev.set_cache_capacity pf 8);
  Engine.run eng

(* {1 Removed engine tags} *)

let test_removed_engine_tags_rejected () =
  (* The setters still accept the removed tags' types but refuse them,
     naming the replacement, and leave the device as it was. *)
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let refused name ~replacement f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" name
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (name ^ " names " ^ replacement) true (contains msg replacement)
  in
  refused "`Decision_tree" ~replacement:"`Dispatch" (fun () ->
      Pfdev.set_strategy pf `Decision_tree);
  refused "`Raise_only" ~replacement:"`Regvm" (fun () ->
      Pfdev.set_compile_strategy pf `Raise_only);
  refused "`Regvm_super" ~replacement:"pftool superopt" (fun () ->
      Pfdev.set_compile_strategy pf `Regvm_super);
  Alcotest.(check bool) "compile strategy unchanged" true
    (Pfdev.compile_strategy pf = `Off);
  Alcotest.(check bool) "still demuxes" true (Pfdev.demux pf (cache_frame ()));
  Pfdev.set_strategy pf `Dispatch;
  Pfdev.set_compile_strategy pf `Regvm;
  set_filter_exn port (socket_filter 35);
  Alcotest.(check bool) "surviving engines install" true
    ((Option.get (Pfdev.port_engine_stats port)).Pfdev.engine = `Regvm);
  Alcotest.(check bool) "and demux" true (Pfdev.demux pf (cache_frame ()));
  Engine.run eng

(* {1 Queue-limit overflow accounting} *)

let test_dropped_before_on_next_read () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  Pfdev.set_queue_limit port 1;
  let frame = cache_frame () in
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  Engine.run eng;
  (* One queued, two overflowed. *)
  Alcotest.(check int) "port drop counter" 2 (Pfdev.port_dropped port);
  Alcotest.(check int) "stats overflow drops" 2
    (Pf_sim.Stats.get (Host.stats bob) "pf.drop.overflow");
  let c1 = ref None in
  ignore (Host.spawn bob ~name:"r1" (fun () -> c1 := Pfdev.read port));
  Engine.run eng;
  (match !c1 with
  | Some c ->
    (* The survivor was enqueued before anything overflowed. *)
    Alcotest.(check int) "queued before the drops" 0 c.Pfdev.dropped_before
  | None -> Alcotest.fail "first read returned nothing");
  ignore (Pfdev.demux pf frame : bool);
  Engine.run eng;
  let c2 = ref None in
  ignore (Host.spawn bob ~name:"r2" (fun () -> c2 := Pfdev.read port));
  Engine.run eng;
  match !c2 with
  | Some c ->
    (* §3.3's count is cumulative since the port opened — a read does not
       reset it. *)
    Alcotest.(check int) "next successful read reports both drops" 2 c.Pfdev.dropped_before;
    Alcotest.(check int) "not reset by the read" 2 (Pfdev.port_dropped port)
  | None -> Alcotest.fail "second read returned nothing"

let test_dropped_before_with_read_batch () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  Pfdev.set_queue_limit port 2;
  let frame = cache_frame () in
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  Engine.run eng;
  let batch = ref [] in
  ignore (Host.spawn bob ~name:"b1" (fun () -> batch := Pfdev.read_batch port));
  Engine.run eng;
  Alcotest.(check int) "batch returns the two survivors" 2 (List.length !batch);
  List.iter
    (fun (c : Pfdev.capture) ->
      Alcotest.(check int) "survivors predate the overflow" 0 c.Pfdev.dropped_before)
    !batch;
  ignore (Pfdev.demux pf frame : bool);
  Engine.run eng;
  let batch2 = ref [] in
  ignore (Host.spawn bob ~name:"b2" (fun () -> batch2 := Pfdev.read_batch port));
  Engine.run eng;
  match !batch2 with
  | [ c ] -> Alcotest.(check int) "later capture carries the drop count" 1 c.Pfdev.dropped_before
  | l -> Alcotest.failf "expected one capture, got %d" (List.length l)

let test_queue_limit_clamped () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  Pfdev.set_queue_limit port 0 (* clamps to 1: a port can always hold one *);
  let frame = cache_frame () in
  ignore (Pfdev.demux pf frame : bool);
  ignore (Pfdev.demux pf frame : bool);
  Engine.run eng;
  Alcotest.(check int) "one queued" 1 (Pfdev.poll port);
  Alcotest.(check int) "one dropped" 1 (Pfdev.port_dropped port);
  Engine.run eng

let suite =
  ( "kernel",
    [
      Alcotest.test_case "write/read end to end" `Quick test_write_read_end_to_end;
      Alcotest.test_case "priority order" `Quick test_priority_order;
      Alcotest.test_case "equal priority tie" `Quick test_equal_priority_first_bound;
      Alcotest.test_case "copy_all monitoring" `Quick test_copy_all;
      Alcotest.test_case "queue overflow + drop count" `Quick
        test_queue_overflow_and_drop_count;
      Alcotest.test_case "read timeout" `Quick test_read_timeout;
      Alcotest.test_case "batch read" `Quick test_batch_read;
      Alcotest.test_case "select" `Quick test_select;
      Alcotest.test_case "select timeout" `Quick test_select_timeout;
      Alcotest.test_case "signal callback" `Quick test_signal_callback;
      Alcotest.test_case "no filter, no delivery" `Quick test_no_filter_no_delivery;
      Alcotest.test_case "status ioctl" `Quick test_status;
      Alcotest.test_case "timestamps" `Quick test_timestamps;
      Alcotest.test_case "set_filter validates" `Quick test_set_filter_rejects_invalid;
      Alcotest.test_case "receive path cost (§6.5)" `Quick test_receive_path_cost;
      Alcotest.test_case "pipe fifo" `Quick test_pipe;
      Alcotest.test_case "pipe blocking write" `Quick test_pipe_blocking_write;
      Alcotest.test_case "user demux forwards" `Quick test_userdemux_forwards;
      Alcotest.test_case "flow cache: warm hits" `Quick test_cache_warm_hit;
      Alcotest.test_case "flow cache: hits are cheaper" `Quick test_cache_hit_is_cheaper;
      Alcotest.test_case "flow cache: set_filter invalidates" `Quick
        test_cache_invalidated_on_set_filter;
      Alcotest.test_case "flow cache: close_port invalidates" `Quick
        test_cache_invalidated_on_close_port;
      Alcotest.test_case "flow cache: open_port invalidates" `Quick
        test_cache_invalidated_on_open_port;
      Alcotest.test_case "flow cache: set_priority invalidates" `Quick
        test_cache_invalidated_on_set_priority;
      Alcotest.test_case "flow cache: unbounded read set bypasses" `Quick
        test_cache_bypass_unbounded_read_set;
      Alcotest.test_case "flow cache: capacity eviction" `Quick test_cache_capacity_eviction;
      Alcotest.test_case "flow cache: disable/enable" `Quick test_cache_disabled;
      Alcotest.test_case "flow cache: remaining invalidation triggers" `Quick
        test_cache_invalidation_triggers_counted;
      Alcotest.test_case "removed engine tags are refused" `Quick
        test_removed_engine_tags_rejected;
      Alcotest.test_case "queue limit: dropped_before on next read" `Quick
        test_dropped_before_on_next_read;
      Alcotest.test_case "queue limit: read_batch accounting" `Quick
        test_dropped_before_with_read_batch;
      Alcotest.test_case "queue limit: clamped to one" `Quick test_queue_limit_clamped;
    ] )
