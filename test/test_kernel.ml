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
  Alcotest.(check (list int)) "one port ready with one packet" [ 1 ] !ready;
  Alcotest.(check int) "the select counts its system call" 1
    (Pf_sim.Stats.get (Host.stats bob) "pf.syscalls")

let test_select_timeout () =
  let eng, _, _, bob = mk_world () in
  let p1 = Pfdev.open_port (Host.pf bob) in
  set_filter_exn p1 Pf_filter.Predicates.accept_all;
  let out = ref [ p1 ] in
  ignore
    (Host.spawn bob ~name:"selector" (fun () -> out := Pfdev.select ~timeout:500 [ p1 ]));
  Engine.run eng;
  Alcotest.(check int) "empty on timeout" 0 (List.length !out)

(* A select that returns, woken by another port or timed out, must take its
   watcher off every port it waited on: a stale one pins the selecting
   process's continuation and is walked by that port's next packet. *)
let test_select_leaves_no_watchers () =
  let eng, _, alice, bob = mk_world () in
  let pf = Host.pf bob in
  let p1 = Pfdev.open_port pf in
  let p2 = Pfdev.open_port pf in
  set_filter_exn p1 (socket_filter 35);
  set_filter_exn p2 (socket_filter 99);
  let rounds = 1000 in
  let read = ref 0 and timed_out = ref 0 in
  ignore
    (Host.spawn bob ~name:"selector" (fun () ->
         for _ = 1 to rounds do
           match Pfdev.select [ p1; p2 ] with
           | [] -> ()
           | _ :: _ -> if Pfdev.read p1 <> None then incr read
         done;
         for _ = 1 to rounds do
           if Pfdev.select ~timeout:100 [ p1; p2 ] = [] then incr timed_out
         done));
  let port_a = Pfdev.open_port (Host.pf alice) in
  ignore
    (Host.spawn alice ~name:"writer" (fun () ->
         for _ = 1 to rounds do
           Pfdev.write port_a (Testutil.pup_frame ~dst_byte:2 ~dst_socket:35l ());
           Process.pause 10_000
         done));
  Engine.run eng;
  Alcotest.(check int) "every round woken by p1 and read" rounds !read;
  Alcotest.(check int) "every later select timed out" rounds !timed_out;
  Alcotest.(check int) "no watcher left on p1" 0 (Pfdev.For_testing.pending_watchers p1);
  Alcotest.(check int) "no watcher left on p2" 0 (Pfdev.For_testing.pending_watchers p2)

(* The sequential walk allocates nothing, so a demux of a frame no filter
   accepts allocates nothing, at 8 ports as at 64. The cache is off, and
   fewer than 256 packets keep the busier-first reorder from running. *)
let test_demux_allocation_flat_in_filters () =
  let words_per_demux ports =
    let eng = Engine.create () in
    let costs = Pf_sim.Costs.microvax_ii in
    let stats = Pf_sim.Stats.create () in
    let pf =
      Pfdev.create eng (Pf_sim.Cpu.create costs) costs stats ~variant:Frame.Exp3
        ~address:(Addr.exp 2) ~send:ignore
    in
    Pfdev.set_cache_enabled pf false;
    for i = 1 to ports do
      set_filter_exn (Pfdev.open_port pf) (socket_filter (100 + i))
    done;
    let frame = Testutil.pup_frame ~dst_byte:2 ~dst_socket:35l () in
    let demuxes = 100 in
    ignore (Pfdev.demux pf frame : bool);
    let words =
      Testutil.minor_words (fun () ->
          for _ = 1 to demuxes do
            ignore (Pfdev.demux pf frame : bool)
          done)
    in
    Alcotest.(check int)
      (Printf.sprintf "%d ports: every filter tested, none accepted" ports)
      ((demuxes + 1) * ports)
      (Pf_sim.Stats.get stats "pf.filters_tested");
    Alcotest.(check int) "nothing accepted" 0 (Pf_sim.Stats.get stats "pf.accepted");
    words /. float_of_int demuxes
  in
  let at8 = words_per_demux 8 in
  let at64 = words_per_demux 64 in
  Alcotest.(check (float 0.)) "minor words per demux: 64 ports = 8 ports" at8 at64;
  Alcotest.(check (float 0.)) "minor words per demux" 0. at64

(* A cache hit writes the flow key into a reused buffer and probes with it
   in place, so it allocates nothing, at 2 key words as at 16. The filter
   reads its words and rejects the frame, so a hit delivers nothing. *)
let test_cache_hit_allocation_flat_in_key_width () =
  let words_per_hit width =
    let eng = Engine.create () in
    let costs = Pf_sim.Costs.microvax_ii in
    let stats = Pf_sim.Stats.create () in
    let pf =
      Pfdev.create eng (Pf_sim.Cpu.create costs) costs stats ~variant:Frame.Exp3
        ~address:(Addr.exp 2) ~send:ignore
    in
    let reads =
      Pf_filter.Expr.(
        compile (All (List.init width (fun i -> Bin (Eq, Word i, Lit (1000 + i))))))
    in
    set_filter_exn (Pfdev.open_port pf) reads;
    Alcotest.(check bool)
      (Printf.sprintf "%d key words" width)
      true
      (Pfdev.For_testing.flow_key pf = Pf_filter.Analysis.Exact (List.init width Fun.id));
    let frame = Pf_pkt.Packet.of_words (List.init 20 Fun.id) in
    let demuxes = 100 in
    ignore (Pfdev.demux pf frame : bool);
    let words =
      Testutil.minor_words (fun () ->
          for _ = 1 to demuxes do
            ignore (Pfdev.demux pf frame : bool)
          done)
    in
    Alcotest.(check int) (Printf.sprintf "%d key words: every demux hit" width) demuxes
      (Pfdev.cache_stats pf).Pfdev.hits;
    words /. float_of_int demuxes
  in
  let at2 = words_per_hit 2 in
  let at16 = words_per_hit 16 in
  Alcotest.(check (float 0.)) "minor words per cache hit: 16 key words = 2" at2 at16;
  Alcotest.(check (float 0.)) "minor words per cache hit" 0. at16

(* An accepted packet allocates what delivery keeps: the acceptor list (on
   a miss; a hit replays the cached one), the delivery event's closure, the
   capture and its queue cell. The accepting port is the last of 8, so the
   sequential walk tests them all. *)
let test_accepted_demux_allocation () =
  let words_per_delivery ~cache =
    let eng = Engine.create () in
    let costs = Pf_sim.Costs.microvax_ii in
    let stats = Pf_sim.Stats.create () in
    let pf =
      Pfdev.create eng (Pf_sim.Cpu.create costs) costs stats ~variant:Frame.Exp3
        ~address:(Addr.exp 2) ~send:ignore
    in
    Pfdev.set_cache_enabled pf cache;
    for i = 1 to 7 do
      set_filter_exn (Pfdev.open_port pf) (socket_filter (100 + i))
    done;
    let port = Pfdev.open_port pf in
    set_filter_exn port (socket_filter 35);
    Pfdev.set_queue_limit port 1000;
    let frame = Testutil.pup_frame ~dst_byte:2 ~dst_socket:35l () in
    let demuxes = 100 in
    ignore (Pfdev.demux pf frame : bool);
    Engine.run eng;
    let words =
      Testutil.minor_words (fun () ->
          for _ = 1 to demuxes do
            ignore (Pfdev.demux pf frame : bool);
            Engine.run eng
          done)
    in
    Alcotest.(check int) "every packet queued" (demuxes + 1) (Pfdev.poll port);
    Alcotest.(check int)
      (if cache then "every later demux hit" else "no cache")
      (if cache then demuxes else 0)
      (Pfdev.cache_stats pf).Pfdev.hits;
    words /. float_of_int demuxes
  in
  let sequential = words_per_delivery ~cache:false in
  let hit = words_per_delivery ~cache:true in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per sequential delivery <= 15" sequential)
    true (sequential <= 15.);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per cache-hit delivery <= 12" hit)
    true (hit <= 12.)

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
  Alcotest.(check (list int)) "the per-CPU view counts the same hits and misses"
    [ 2; 2 ]
    (List.concat_map
       (fun (c : Pfdev.smp_cpu_stats) -> [ c.Pfdev.cache_hits; c.Pfdev.cache_misses ])
       (Pfdev.smp_stats pf).Pfdev.per_cpu);
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
  (* One more distinct key than the cache holds; none of them matches. *)
  let capacity = (Pfdev.cache_stats pf).Pfdev.capacity in
  let f k = cache_frame ~dst_socket:(Int32.of_int (1000 + k)) () in
  for k = 1 to capacity + 1 do
    ignore (Pfdev.demux pf (f k) : bool)
  done;
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "bounded at capacity" capacity cs.Pfdev.entries;
  Alcotest.(check int) "FIFO-evicted the oldest" 1 cs.Pfdev.evictions;
  (* The evicted (oldest) key misses again; the youngest still hits. *)
  ignore (Pfdev.demux pf (f 1) : bool);
  ignore (Pfdev.demux pf (f (capacity + 1)) : bool);
  let cs = Pfdev.cache_stats pf in
  Alcotest.(check int) "evicted key missed" (capacity + 2) cs.Pfdev.misses;
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
     end-to-end above and by the fuzz oracle). The setters that apply to
     later installs only change no verdict, and flush nothing. *)
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  let invalidations () = (Pfdev.cache_stats pf).Pfdev.invalidations in
  let bumps name f =
    let before = invalidations () in
    f ();
    Alcotest.(check bool) (name ^ " invalidates") true (invalidations () > before)
  in
  let flushes_nothing name f =
    let before = invalidations () in
    f ();
    Alcotest.(check int) (name ^ " flushes nothing") before (invalidations ())
  in
  bumps "set_strategy" (fun () -> Pfdev.set_strategy pf `Dispatch);
  bumps "set_copy_all" (fun () -> Pfdev.set_copy_all port true);
  bumps "set_tap" (fun () -> Pfdev.set_tap port true);
  flushes_nothing "set_compile_strategy" (fun () -> Pfdev.set_compile_strategy pf `Regvm);
  flushes_nothing "set_certify" (fun () -> Pfdev.set_certify pf true);
  Engine.run eng

(* {1 One port-mutation path}

   Every port mutation leaves the port table, applies the change, re-enters
   and publishes, so the sanitizer sees the same protocol events from each,
   and an equal-priority port re-enters at its open-order place. *)

let test_san_sees_every_port_mutation () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus:2 link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  let san = Pf_sim.San.create ~ncpus:2 () in
  Host.attach_san h san;
  let pf = Host.pf h in
  let module Gen = Pf_monitor.Traffic.Gen in
  let gen = Gen.make ~seed:0x5EED ~flows:1 ~skew:Gen.Uniform () in
  let filter = Gen.filter (Gen.flow gen 0) in
  let port = Pfdev.open_port pf in
  set_filter_exn port filter;
  let frame = Gen.frame (Gen.flow gen 0) in
  let counts keys =
    let c = Pf_sim.San.counters san in
    List.map (fun k -> Option.value ~default:0 (List.assoc_opt ("pf.san." ^ k) c)) keys
  in
  let protocol = [ "publishes"; "invalidations"; "syncs"; "flushes" ] in
  (* Each mutation below is a full invalidation. CPU 0 writes the port
     table, publishes, and flushes its own cache (a cache write) at once.
     CPU 1 syncs and flushes when its next demux sees the generation moved;
     CPU 0, the writer, needs neither. *)
  let adds name f =
    let before = counts ("writes" :: protocol) in
    f ();
    Alcotest.(check (list int))
      (name ^ ": writes, publishes, invalidations, syncs, flushes added")
      [ 2; 1; 1; 0; 1 ]
      (List.map2 ( - ) (counts ("writes" :: protocol)) before);
    let before = counts protocol in
    ignore (Pfdev.demux pf ~cpu:0 frame : bool);
    ignore (Pfdev.demux pf ~cpu:1 frame : bool);
    Alcotest.(check (list int))
      (name ^ ": publishes, invalidations, syncs, flushes added by the demuxes")
      [ 0; 0; 1; 1 ]
      (List.map2 ( - ) (counts protocol) before)
  in
  adds "re-filter" (fun () -> set_filter_exn port filter);
  adds "set_priority" (fun () -> Pfdev.set_priority port 3);
  adds "set_copy_all" (fun () -> Pfdev.set_copy_all port true);
  adds "set_tap" (fun () -> Pfdev.set_tap port true);
  adds "set_strategy `Dispatch" (fun () -> Pfdev.set_strategy pf `Dispatch);
  adds "close_port" (fun () -> Pfdev.close_port port);
  Engine.run eng;
  Alcotest.(check int) "no reports" 0 (Pf_sim.San.report_count san)

(* A setter that changes nothing publishes nothing: no cache flush, and
   no sanitizer write, publication or sync. *)
let test_noop_setters_publish_nothing () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus:2 link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  let san = Pf_sim.San.create ~ncpus:2 () in
  Host.attach_san h san;
  let pf = Host.pf h in
  let module Gen = Pf_monitor.Traffic.Gen in
  let gen = Gen.make ~seed:0x5EED ~flows:1 ~skew:Gen.Uniform () in
  let port = Pfdev.open_port pf in
  set_filter_exn port (Gen.filter (Gen.flow gen 0));
  Pfdev.set_priority port 300;
  Pfdev.set_copy_all port true;
  let counts () =
    let c = Pf_sim.San.counters san in
    (Pfdev.cache_stats pf).Pfdev.invalidations
    :: List.map
         (fun k -> Option.value ~default:0 (List.assoc_opt ("pf.san." ^ k) c))
         [ "writes"; "publishes"; "syncs" ]
  in
  let adds_nothing name f =
    let before = counts () in
    f ();
    Alcotest.(check (list int))
      (name ^ ": invalidations, writes, publishes, syncs added")
      [ 0; 0; 0; 0 ]
      (List.map2 ( - ) (counts ()) before)
  in
  adds_nothing "set_priority to the clamped priority" (fun () -> Pfdev.set_priority port 255);
  adds_nothing "set_copy_all to the current flag" (fun () -> Pfdev.set_copy_all port true);
  adds_nothing "set_tap to the current flag" (fun () -> Pfdev.set_tap port false);
  adds_nothing "set_strategy `Sequential" (fun () -> Pfdev.set_strategy pf `Sequential);
  Pfdev.set_strategy pf `Dispatch;
  adds_nothing "set_strategy `Dispatch" (fun () -> Pfdev.set_strategy pf `Dispatch);
  Engine.run eng;
  Alcotest.(check int) "no reports" 0 (Pf_sim.San.report_count san)

(* {1 The flow cache bypasses itself where a hit cannot pay}

   On the MicroVAX-II model a probe and a hashed word cost the same in the
   automaton and in the cache. One exact group hashing every key word
   costs exactly a hit, so the cache is bypassed. A second group, a
   copy-all port in the residual walk, or a non-exact first entry in a
   slot makes classifying dearer than a hit, and probing resumes. *)

let test_cache_bypass_edge () =
  let eng, _, _, bob = mk_world ~costs:Pf_sim.Costs.microvax_ii () in
  let pf = Host.pf bob in
  Pfdev.set_strategy pf `Dispatch;
  let exact = Pfdev.open_port pf in
  set_filter_exn exact (socket_filter 35);
  let frame = cache_frame () in
  let probes_and_bypasses () =
    let cs = Pfdev.cache_stats pf in
    (cs.Pfdev.hits + cs.Pfdev.misses, cs.Pfdev.bypasses)
  in
  let check what ~probes =
    let before = probes_and_bypasses () in
    for _ = 1 to 2 do
      Alcotest.(check bool) (what ^ ": accepted") true (Pfdev.demux pf frame)
    done;
    let p, b = probes_and_bypasses () in
    Alcotest.(check (pair int int))
      (what ^ ": probes, bypasses added")
      (if probes then (2, 0) else (0, 2))
      (p - fst before, b - snd before)
  in
  check "one exact group" ~probes:false;
  let other = Pfdev.open_port pf in
  set_filter_exn other (Pf_filter.Predicates.pup_type_is 1);
  check "a second group" ~probes:true;
  Pfdev.close_port other;
  check "one exact group again" ~probes:false;
  Pfdev.set_copy_all exact true;
  check "a copy-all residual" ~probes:true;
  Pfdev.set_copy_all exact false;
  check "copy-all off" ~probes:false;
  (* The same guards as [exact], then a test no guard expresses, ranked
     first in the slot; it accepts the frame as well. *)
  let first = Pfdev.open_port pf in
  set_filter_exn first
    (Pf_filter.Expr.compile ~priority:1
       Pf_filter.Dsl.(
         word 8 =: lit 35 &&: (word 7 =: lit 0) &&: (word 1 =: lit 2) &&: (word 9 >: lit 0)));
  check "a non-exact slot head" ~probes:true;
  Engine.run eng

let test_mutation_reenters_at_open_order () =
  (* Three equal-priority ports whose filters all accept [shared]; only
     port 3's accepts [only3]. With the cache off every frame takes the
     walk, so 300 frames for port 3 trigger the busier-first reorder. *)
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  Pfdev.set_cache_enabled pf false;
  let p1 = Pfdev.open_port pf in
  let p2 = Pfdev.open_port pf in
  let p3 = Pfdev.open_port pf in
  set_filter_exn p1 (socket_filter 35);
  set_filter_exn p2 (socket_filter 35);
  set_filter_exn p3 Pf_filter.Predicates.accept_all;
  let shared = cache_frame () and only3 = cache_frame ~dst_socket:99l () in
  let winner () =
    let before = List.map Pfdev.port_accepted [ p1; p2; p3 ] in
    Alcotest.(check bool) "shared frame accepted" true (Pfdev.demux pf shared);
    match List.map2 ( - ) (List.map Pfdev.port_accepted [ p1; p2; p3 ]) before with
    | [ 1; 0; 0 ] -> 1
    | [ 0; 1; 0 ] -> 2
    | [ 0; 0; 1 ] -> 3
    | _ -> Alcotest.fail "the shared frame should have exactly one acceptor"
  in
  Alcotest.(check int) "open order first" 1 (winner ());
  for _ = 1 to 300 do
    ignore (Pfdev.demux pf only3 : bool)
  done;
  Alcotest.(check int) "busier-first reorder put port 3 first" 3 (winner ());
  Pfdev.set_tap p1 true;
  Alcotest.(check int) "set_tap re-entered port 1 at its open-order place" 1 (winner ());
  Engine.run eng

(* {1 The port table and the deferred compile}

   The port table is an array changed in place, and an install leaves the
   register-VM compilation and its certification to the port's first
   filter run or status query, so what a mutation allocates does not grow
   with the number of open ports. *)

module Gen = Pf_monitor.Traffic.Gen

(* A device on a free cost model with the cache off, so only the port
   count differs between two sizes. The [Dispatch] one compiles for the
   register VM and certifies. *)
let free_device ~dispatch =
  let eng = Engine.create () in
  let costs = Pf_sim.Costs.free in
  let stats = Pf_sim.Stats.create () in
  let pf =
    Pfdev.create eng (Pf_sim.Cpu.create costs) costs stats ~variant:Frame.Dix10
      ~address:(Addr.eth_host 2) ~send:ignore
  in
  Pfdev.set_cache_enabled pf false;
  if dispatch then begin
    Pfdev.set_strategy pf `Dispatch;
    Pfdev.set_compile_strategy pf `Regvm;
    Pfdev.set_certify pf true
  end;
  (eng, stats, pf)

let test_mutation_allocation_flat () =
  let mutations = 100 in
  let words_per_mutation ~dispatch ports =
    let _, _, pf = free_device ~dispatch in
    let gen = Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:0xF1A7 ~flows:ports ~skew:Gen.Uniform () in
    let programs = Array.init mutations (fun i -> Gen.filter (Gen.flow gen i)) in
    let open_ports =
      Array.init ports (fun i ->
          let p = Pfdev.open_port pf in
          set_filter_exn p (Gen.filter (Gen.flow gen i));
          p)
    in
    let mean f =
      Testutil.minor_words (fun () ->
          for k = 0 to mutations - 1 do
            f k
          done)
      /. float_of_int mutations
    in
    [
      ("set_filter", mean (fun k -> set_filter_exn open_ports.(k) programs.(k)));
      ("open_port + close_port", mean (fun _ -> Pfdev.close_port (Pfdev.open_port pf)));
      ("set_priority", mean (fun k -> Pfdev.set_priority open_ports.(k) 7));
      ("set_tap", mean (fun k -> Pfdev.set_tap open_ports.(ports / 2) (k mod 2 = 0)));
    ]
  in
  List.iter
    (fun dispatch ->
      let small = words_per_mutation ~dispatch 100 in
      let large = words_per_mutation ~dispatch 10_000 in
      List.iter2
        (fun (op, at100) (_, at10k) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s, %s: minor words at 10,000 ports = at 100"
               (if dispatch then "Dispatch/Regvm" else "Sequential/Off")
               op)
            at100 at10k)
        small large)
    [ false; true ]

let test_engines_compile_on_first_run () =
  let eng, stats, pf = free_device ~dispatch:true in
  let gen = Gen.make ~seed:0xC0DE ~flows:32 ~skew:Gen.Uniform () in
  let ports =
    Array.init 32 (fun i ->
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter (Gen.flow gen i));
        p)
  in
  let certifications () =
    List.map
      (fun k -> Pf_sim.Stats.get stats ("pf.certify." ^ k))
      [ "proved"; "refuted"; "unknown" ]
  in
  List.iter
    (fun flow ->
      Alcotest.(check bool) "accepted" true (Pfdev.demux pf (Gen.frame flow)))
    (Gen.sequence gen 200);
  Engine.run eng;
  Alcotest.(check int) "every demux won by an exact entry" 200
    (Pfdev.dispatch_stats pf).Pfdev.exact_accepts;
  Alcotest.(check (list int)) "proved, refuted, unknown: nothing certified" [ 0; 0; 0 ]
    (certifications ());
  (* A copy-all port joins the residual walk, which runs its filter. *)
  let port = ports.(5) in
  Pfdev.set_copy_all port true;
  Alcotest.(check bool) "accepted on the residual walk" true
    (Pfdev.demux pf (Gen.frame (Gen.flow gen 5)));
  Alcotest.(check (list int)) "certified once, on the first run" [ 1; 0; 0 ] (certifications ());
  Alcotest.(check bool) "certified" true
    (Pfdev.port_certification port = Some Pf_filter.Equiv.Certified);
  Alcotest.(check int) "one run" 1 (Pf_sim.Stats.get stats "pf.filters_tested");
  Alcotest.(check bool) "runs the register VM" true
    (Pf_sim.Stats.get stats "pf.regvm_insns" > 0
    && Pf_sim.Stats.get stats "pf.regvm_insns" = Pf_sim.Stats.get stats "pf.filter_insns");
  Alcotest.(check (list int)) "status queries certify nothing more" [ 1; 0; 0 ]
    (certifications ());
  (* An install takes the certify flag in force at the time. *)
  let late = ports.(6) in
  set_filter_exn late (Gen.filter (Gen.flow gen 6));
  Alcotest.(check (list int)) "re-installing an unforced port certifies nothing" [ 1; 0; 0 ]
    (certifications ());
  Pfdev.set_certify pf false;
  Alcotest.(check bool) "certified under the flag of its install" true
    (Pfdev.port_certification late = Some Pf_filter.Equiv.Certified);
  Alcotest.(check (list int)) "counted when carried out" [ 2; 0; 0 ] (certifications ());
  Engine.run eng

(* A reference model of the port table: a list in walk order.
   [model_enter] puts a port before the first one of lower priority, or of
   equal priority and larger id; [model_leave] filters it out; and every
   256th demux on the sequential walk stably sorts the list busier-first
   within a priority, before that packet's walk. *)
type model_port = {
  handle : Pfdev.port;
  id : int;
  mutable priority : int;
  mutable copy_all : bool;
  mutable tap : bool;
  mutable is_open : bool;
}

let model_enter table port =
  let rec ins = function
    | [] -> [ port ]
    | p :: _ as l
      when p.priority < port.priority || (p.priority = port.priority && p.id > port.id) ->
      port :: l
    | p :: rest -> p :: ins rest
  in
  ins table

let model_leave table port = List.filter (fun p -> p != port) table

let model_reorder table =
  List.stable_sort
    (fun a b ->
      match compare b.priority a.priority with
      | 0 -> compare (Pfdev.port_accepted b.handle) (Pfdev.port_accepted a.handle)
      | c -> c)
    table

let test_walk_order_model () =
  let moves = ref 0 in
  List.iter
    (fun seed ->
      let rng = Pf_sim.Rng.create seed in
      let eng, _, _, bob = mk_world () in
      let pf = Host.pf bob in
      Pfdev.set_cache_enabled pf false;
      let table = ref [] and ports = ref [||] and demuxed = ref 0 in
      (* [Pfdev]'s one mutation path, on the model. *)
      let mutate port change =
        if port.is_open then table := model_leave !table port;
        change ();
        if port.is_open then table := model_enter !table port
      in
      let sockets = [| 35; 36; 37 |] in
      let any_port () = Pf_sim.Rng.pick rng !ports in
      let step () =
        if Array.length !ports = 0 then 0 else Pf_sim.Rng.int rng 10
      in
      for i = 1 to 80 do
        (match step () with
        | 0 | 1 ->
          let port =
            {
              handle = Pfdev.open_port pf;
              id = Array.length !ports + 1;
              priority = 0;
              copy_all = false;
              tap = false;
              is_open = false;
            }
          in
          ports := Array.append !ports [| port |];
          mutate port (fun () -> port.is_open <- true)
        | 2 ->
          let port = any_port () in
          Pfdev.close_port port.handle;
          mutate port (fun () -> port.is_open <- false)
        | 3 | 4 ->
          let port = any_port () and priority = Pf_sim.Rng.int rng 3 in
          let program =
            if Pf_sim.Rng.int rng 4 = 0 then
              Pf_filter.Program.with_priority Pf_filter.Predicates.accept_all priority
            else socket_filter ~priority (Pf_sim.Rng.pick rng sockets)
          in
          set_filter_exn port.handle program;
          mutate port (fun () -> port.priority <- priority)
        | 5 ->
          let port = any_port () in
          let priority = Pf_sim.Rng.pick rng [| -1; 0; 1; 2; 300 |] in
          Pfdev.set_priority port.handle priority;
          let priority = max 0 (min 255 priority) in
          if priority <> port.priority then mutate port (fun () -> port.priority <- priority)
        | 6 ->
          let port = any_port () and flag = Pf_sim.Rng.bool rng 0.5 in
          Pfdev.set_copy_all port.handle flag;
          if flag <> port.copy_all then mutate port (fun () -> port.copy_all <- flag)
        | 7 ->
          let port = any_port () and flag = Pf_sim.Rng.bool rng 0.5 in
          Pfdev.set_tap port.handle flag;
          if flag <> port.tap then mutate port (fun () -> port.tap <- flag)
        | _ ->
          for _ = 1 to 100 + Pf_sim.Rng.int rng 300 do
            incr demuxed;
            if !demuxed >= 256 then begin
              demuxed := 0;
              let sorted = model_reorder !table in
              if not (List.equal ( == ) sorted !table) then incr moves;
              table := sorted
            end;
            let dst_socket = Int32.of_int (Pf_sim.Rng.pick rng sockets) in
            ignore (Pfdev.demux pf (cache_frame ~dst_socket ()) : bool)
          done;
          Engine.run eng);
        let id_of handle = (List.find (fun p -> p.handle == handle) (Array.to_list !ports)).id in
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d, step %d: walk order" seed i)
          (List.map (fun p -> p.id) !table)
          (List.map id_of (Pfdev.For_testing.walk_order pf))
      done)
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) (Printf.sprintf "%d busier-first reorders moved a port" !moves) true
    (!moves > 0)

(* A closed port leaves no slot of the port table, no cache entry and no
   event holding it: with the caller's handle dropped, nothing keeps it
   alive. The port accepts a frame first, so the flow cache stored it. *)
let closed_port_weak eng pf ~mid_table =
  let w = Weak.create 1 in
  let port = Pfdev.open_port pf in
  set_filter_exn port (socket_filter 35);
  if mid_table then set_filter_exn (Pfdev.open_port pf) (socket_filter 36);
  Alcotest.(check bool) "accepted" true (Pfdev.demux pf (cache_frame ()));
  Engine.run eng;
  Weak.set w 0 (Some port);
  Pfdev.close_port port;
  w
[@@inline never]

let test_closed_port_collected () =
  let eng, _, _, bob = mk_world () in
  let pf = Host.pf bob in
  let collected what w =
    Gc.full_major ();
    Alcotest.(check bool) (what ^ " is collected") false (Weak.check w 0)
  in
  collected "a port that emptied the table" (closed_port_weak eng pf ~mid_table:false);
  set_filter_exn (Pfdev.open_port pf) (socket_filter 34);
  collected "a port closed mid-table" (closed_port_weak eng pf ~mid_table:true);
  collected "a port closed in the last slot" (closed_port_weak eng pf ~mid_table:false);
  (* The device stays live throughout. *)
  Alcotest.(check int) "the other two ports stay open" 2 (Pfdev.active_ports pf)

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
  refused "`Regvm_super" ~replacement:"`Regvm" (fun () ->
      Pfdev.set_compile_strategy pf `Regvm_super);
  Alcotest.(check bool) "compile strategy unchanged" true
    (Pfdev.compile_strategy pf = `Off);
  Alcotest.(check bool) "still demuxes" true (Pfdev.demux pf (cache_frame ()));
  Pfdev.set_strategy pf `Dispatch;
  Pfdev.set_compile_strategy pf `Regvm;
  Pfdev.set_certify pf true;
  set_filter_exn port (socket_filter 35);
  Alcotest.(check bool) "surviving engines install: a register VM, proved" true
    (Pfdev.port_certification port = Some Pf_filter.Equiv.Certified);
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
      Alcotest.test_case "select leaves no watchers behind" `Quick
        test_select_leaves_no_watchers;
      Alcotest.test_case "demux allocation flat in filters tested" `Quick
        test_demux_allocation_flat_in_filters;
      Alcotest.test_case "cache-hit allocation flat in key width" `Quick
        test_cache_hit_allocation_flat_in_key_width;
      Alcotest.test_case "accepted demux allocates what delivery keeps" `Quick
        test_accepted_demux_allocation;
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
      Alcotest.test_case "pfsan sees every port mutation alike" `Quick
        test_san_sees_every_port_mutation;
      Alcotest.test_case "a mutation re-enters at open order" `Quick
        test_mutation_reenters_at_open_order;
      Alcotest.test_case "removed engine tags are refused" `Quick
        test_removed_engine_tags_rejected;
      Alcotest.test_case "queue limit: dropped_before on next read" `Quick
        test_dropped_before_on_next_read;
      Alcotest.test_case "queue limit: read_batch accounting" `Quick
        test_dropped_before_with_read_batch;
      Alcotest.test_case "queue limit: clamped to one" `Quick test_queue_limit_clamped;
      Alcotest.test_case "a setter that changes nothing publishes nothing" `Quick
        test_noop_setters_publish_nothing;
      Alcotest.test_case "flow cache: bypassed where a hit cannot pay" `Quick
        test_cache_bypass_edge;
      Alcotest.test_case "port mutations allocate flat in the port count" `Quick
        test_mutation_allocation_flat;
      Alcotest.test_case "engines compile on first run" `Quick
        test_engines_compile_on_first_run;
      Alcotest.test_case "walk order matches the list model" `Quick test_walk_order_model;
      Alcotest.test_case "a closed port can be collected" `Quick test_closed_port_collected;
    ] )
