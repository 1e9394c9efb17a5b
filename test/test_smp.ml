(* The N-CPU simulated kernel: receive-side steering, per-CPU flow
   caches, the delivery lock, and cross-CPU invalidation. *)

open Pf_kernel
module Engine = Pf_sim.Engine
module Smp = Pf_sim.Smp
module Stats = Pf_sim.Stats
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Gen = Pf_monitor.Traffic.Gen

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e)

(* One host on a 10Mb segment with [ncpus] receive CPUs (via the RSS
   path; [None] is the legacy single-CPU host). *)
let mk_host ?ncpus () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ?ncpus link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  (eng, h)

(* Install one port per generated flow (descending, as the benches do),
   drain the setup events, inject [k] drawn packets, run to completion. *)
let drive ?ncpus ~seed ~flows ~skew ~packets () =
  let eng, h = mk_host ?ncpus () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed ~flows ~skew () in
  for i = flows - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p packets
  done;
  Engine.run eng;
  List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen packets);
  Engine.run eng;
  (eng, h, pf)

(* {1 Determinism: same seed, byte-identical stats at 4 CPUs} *)

let test_determinism_4cpu () =
  let run () =
    let _, h, pf =
      drive ~ncpus:4 ~seed:0xD373 ~flows:24 ~skew:(Gen.Zipf 1.1) ~packets:600 ()
    in
    (Stats.pairs (Host.stats h), Pfdev.smp_stats pf)
  in
  let s1, smp1 = run () in
  let s2, smp2 = run () in
  Alcotest.(check (list (pair string int))) "device stats replay exactly" s1 s2;
  Alcotest.(check bool) "per-CPU stats replay exactly" true (smp1 = smp2);
  Alcotest.(check bool) "all four CPUs saw traffic" true
    (List.for_all
       (fun (c : Pfdev.smp_cpu_stats) -> c.Pfdev.packets > 0)
       smp1.Pfdev.per_cpu)

(* {1 Steering: same flow, same CPU} *)

let test_same_flow_same_cpu () =
  List.iter
    (fun seed ->
      let eng, h = mk_host ~ncpus:4 () in
      let pf = Host.pf h in
      let gen = Gen.make ~seed ~flows:32 ~skew:Gen.Uniform () in
      for i = 31 downto 0 do
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter (Gen.flow gen i));
        Pfdev.set_queue_limit p 10_000
      done;
      Engine.run eng;
      (* Every packet of one flow must hash to that flow's CPU — steering
         is a pure function of the flow's key bytes. *)
      List.iter
        (fun f ->
          let cpu = Pfdev.steer pf (Gen.frame f) in
          Alcotest.(check bool) "cpu in range" true
            (cpu >= 0 && cpu < Pfdev.ncpus pf);
          for _ = 1 to 3 do
            Alcotest.(check int) "steering is stable" cpu
              (Pfdev.steer pf (Gen.frame f))
          done)
        (Gen.flows gen);
      (* And the end-to-end path must agree: inject a mix, then check every
         packet landed on the CPU the hash names. *)
      let counts = Array.make 4 0 in
      List.iter
        (fun f ->
          let cpu = Pfdev.steer pf (Gen.frame f) in
          counts.(cpu) <- counts.(cpu) + 1;
          Host.inject h (Gen.frame f))
        (Gen.sequence gen 400);
      Engine.run eng;
      let smp = Pfdev.smp_stats pf in
      List.iter
        (fun (c : Pfdev.smp_cpu_stats) ->
          Alcotest.(check int)
            (Printf.sprintf "cpu %d demuxed exactly its steered share" c.Pfdev.cpu)
            counts.(c.Pfdev.cpu) c.Pfdev.packets)
        smp.Pfdev.per_cpu)
    [ 0xF10; 0xF11; 0xF12 ]

(* {1 Mutation invalidates every per-CPU cache} *)

let test_mutations_invalidate_all_cpus () =
  let ncpus = 4 in
  let mutate_with name mutate =
    let eng, h = mk_host ~ncpus () in
    let pf = Host.pf h in
    let gen = Gen.make ~seed:0xCAFE ~flows:8 ~skew:Gen.Uniform () in
    let ports =
      List.map
        (fun f ->
          let p = Pfdev.open_port pf in
          set_filter_exn p (Gen.filter f);
          Pfdev.set_queue_limit p 10_000;
          p)
        (Gen.flows gen)
    in
    Engine.run eng;
    (* Warm every CPU's private cache. *)
    List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen 200);
    Engine.run eng;
    let warm = Pfdev.cache_stats pf in
    Alcotest.(check bool) (name ^ ": caches warmed") true (warm.Pfdev.hits > 0);
    let inval0 = warm.Pfdev.invalidations in
    let ipis0 = Smp.total_ipis (Host.smp h) in
    mutate pf (List.hd ports) gen;
    Engine.run eng;
    let after = Pfdev.cache_stats pf in
    (* One device-level event flushes all [ncpus] private caches... *)
    Alcotest.(check int)
      (name ^ ": every per-CPU cache flushed")
      (inval0 + ncpus) after.Pfdev.invalidations;
    (* ...broadcast to the other CPUs as costed IPIs. *)
    Alcotest.(check int)
      (name ^ ": one IPI per remote CPU")
      (ipis0 + (ncpus - 1))
      (Smp.total_ipis (Host.smp h));
    (* No CPU answers from a stale entry afterwards: re-inject, recount. *)
    let misses0 = after.Pfdev.misses in
    List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen 8);
    Engine.run eng;
    Alcotest.(check bool)
      (name ^ ": first packet after mutation misses")
      true
      ((Pfdev.cache_stats pf).Pfdev.misses > misses0)
  in
  mutate_with "set_filter" (fun _ p gen ->
      set_filter_exn p (Gen.filter ~priority:1 (Gen.flow gen 0)));
  mutate_with "install" (fun _ p gen ->
      match Pfdev.install p (Gen.filter (Gen.flow gen 0)) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e));
  mutate_with "set_priority" (fun _ p _ -> Pfdev.set_priority p 9)

(* {1 1-CPU SMP parity with the legacy path} *)

let test_one_cpu_parity () =
  let run ncpus =
    let _, h, _ =
      drive ?ncpus ~seed:0x9A21 ~flows:16 ~skew:(Gen.Zipf 1.2) ~packets:500 ()
    in
    Stats.pairs (Host.stats h)
  in
  Alcotest.(check (list (pair string int)))
    "1-CPU SMP host reproduces the legacy host's counters exactly"
    (run None) (run (Some 1))

let test_no_smp_keys_on_one_cpu () =
  let _, h, _ =
    drive ~ncpus:1 ~seed:0x9A21 ~flows:16 ~skew:Gen.Uniform ~packets:300 ()
  in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "no %s on a single-CPU device" k)
        false
        (String.length k >= 7 && String.sub k 0 7 = "pf.smp."))
    (Stats.pairs (Host.stats h))

(* {1 The delivery lock contends under simultaneous arrivals} *)

let test_delivery_lock_contention () =
  (* Two flows steered to different CPUs, their packets injected at the
     same instant over and over: both CPUs finish classification together
     and collide on the shared delivery lock. *)
  let eng, h = mk_host ~ncpus:2 () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0x10CC ~flows:16 ~skew:Gen.Uniform () in
  List.iter
    (fun f ->
      let p = Pfdev.open_port pf in
      set_filter_exn p (Gen.filter f);
      Pfdev.set_queue_limit p 10_000)
    (Gen.flows gen);
  Engine.run eng;
  let on_cpu k =
    List.find (fun f -> Pfdev.steer pf (Gen.frame f) = k) (Gen.flows gen)
  in
  let f0 = on_cpu 0 and f1 = on_cpu 1 in
  (* Warm both private caches first so each round's classification costs
     the same on both CPUs — then paired arrivals finish classification at
     the same instant and collide on the lock every time. *)
  Host.inject h (Gen.frame f0);
  Host.inject h (Gen.frame f1);
  Engine.run eng;
  for _ = 1 to 50 do
    Host.inject h (Gen.frame f0);
    Host.inject h (Gen.frame f1);
    Engine.run eng
  done;
  let smp = Pfdev.smp_stats pf in
  Alcotest.(check int) "every delivery took the lock" 102
    smp.Pfdev.lock_acquisitions;
  Alcotest.(check bool) "simultaneous arrivals contended" true
    (smp.Pfdev.lock_contended >= 50);
  Alcotest.(check bool) "contended waits accumulated spin time" true
    (smp.Pfdev.lock_wait_total_us > 0)

(* {1 Per-CPU dispatch automata} *)

let test_per_cpu_dispatch () =
  let eng, h = mk_host ~ncpus:4 () in
  let pf = Host.pf h in
  Pfdev.set_strategy pf `Dispatch;
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:0xD15 ~flows:64 ~skew:Gen.Uniform ()
  in
  List.iter
    (fun f ->
      let p = Pfdev.open_port pf in
      set_filter_exn p (Gen.filter f);
      Pfdev.set_queue_limit p 10_000)
    (Gen.flows gen);
  Engine.run eng;
  Pfdev.set_cache_enabled pf false;
  let accepted = ref 0 in
  let seq = Gen.sequence gen 800 in
  List.iter (fun f -> Host.inject h (Gen.frame f)) seq;
  Engine.run eng;
  accepted := Stats.get (Host.stats h) "pf.accepted";
  Alcotest.(check int) "automaton classifies correctly on every CPU" 800 !accepted;
  let ds = Pfdev.dispatch_stats pf in
  Alcotest.(check int) "automaton classified every packet" 800
    ds.Pfdev.classifies;
  (* One lazy rebuild per CPU: each CPU owns a private automaton instance
     and compiles it on its own first packet. *)
  Alcotest.(check int) "one automaton rebuild per CPU" (Pfdev.ncpus pf)
    ds.Pfdev.rebuilds

(* {1 Readers on an SMP device: virtual time stays bounded} *)

let test_readers_latency_bounded () =
  (* A read_batch reader per port on a 2-CPU host, paced seeded traffic.
     The reader's spin on the delivery lock must start when CPU 0 is free
     to run it: counting CPU 0's interrupt backlog as spin as well as
     queueing behind it charges the backlog twice, and the error feeds
     back on itself until virtual time runs away. *)
  let eng, h = mk_host ~ncpus:2 () in
  let pf = Host.pf h in
  let flows = 6 and packets = 2_000 and gap = 2_000 in
  let gen = Gen.make ~seed:0x5EAD ~flows ~skew:(Gen.Zipf 1.2) () in
  let last_due = packets * gap in
  let dues = Array.init flows (fun _ -> Queue.create ()) in
  let reads = ref 0 and worst = ref 0 in
  List.iter
    (fun f ->
      let i = f.Gen.index in
      let p = Pfdev.open_port pf in
      set_filter_exn p (Gen.filter f);
      Pfdev.set_queue_limit p packets;
      Pfdev.set_timeout p (Some last_due);
      ignore
        (Host.spawn h ~name:(Printf.sprintf "reader%d" i) (fun () ->
             let rec loop () =
               match Pfdev.read_batch p with
               | [] -> ()
               | batch ->
                 List.iter
                   (fun _ ->
                     incr reads;
                     let due = Queue.pop dues.(i) in
                     worst := max !worst (Engine.now eng - due))
                   batch;
                 loop ()
             in
             loop ())))
    (Gen.flows gen);
  Engine.run ~until:0 eng;
  let t0 = Engine.now eng in
  List.iteri
    (fun k f ->
      let due = t0 + ((k + 1) * gap) in
      Engine.schedule eng ~at:due (fun () ->
          Queue.push due dues.(f.Gen.index);
          Host.inject h (Gen.frame f)))
    (Gen.sequence gen packets);
  Engine.run eng;
  Alcotest.(check int) "every packet read" packets !reads;
  Alcotest.(check bool)
    (Printf.sprintf "worst read latency %d us within the traffic span" !worst)
    true (!worst < last_due);
  Alcotest.(check bool)
    (Printf.sprintf "run ends at %d us, within 3x the last due time" (Engine.now eng))
    true
    (Engine.now eng - t0 < 3 * last_due)

(* {1 The generator's filters match exactly their own flows} *)

let test_gen_filters_exact () =
  let gen =
    Gen.make ~seed:0x6E6 ~flows:24 ~skew:Gen.Uniform ()
  in
  List.iter
    (fun f ->
      match Pf_filter.Validate.check (Gen.filter f) with
      | Error e ->
        Alcotest.failf "flow %d (%s): invalid filter: %a" f.Gen.index
          (Gen.proto_name f.Gen.proto) Pf_filter.Validate.pp_error e
      | Ok v ->
        List.iter
          (fun g ->
            let payload =
              match Frame.decode Frame.Dix10 (Gen.frame g) with
              | Some (_, p) -> p
              | None -> Alcotest.failf "flow %d: undecodable frame" g.Gen.index
            in
            ignore payload;
            Alcotest.(check bool)
              (Printf.sprintf "filter %d vs frame %d" f.Gen.index g.Gen.index)
              (f.Gen.index = g.Gen.index)
              (Pf_filter.Interp.accepts (Pf_filter.Validate.program v)
                 (Gen.frame g)))
          (Gen.flows gen))
    (Gen.flows gen)

let suite =
  ( "smp",
    [
      Alcotest.test_case "4-CPU run replays byte-identical" `Quick
        test_determinism_4cpu;
      Alcotest.test_case "same flow always steers to the same CPU" `Quick
        test_same_flow_same_cpu;
      Alcotest.test_case "mutations invalidate every per-CPU cache (+IPIs)" `Quick
        test_mutations_invalidate_all_cpus;
      Alcotest.test_case "1-CPU SMP matches the legacy path exactly" `Quick
        test_one_cpu_parity;
      Alcotest.test_case "no pf.smp.* keys on a single CPU" `Quick
        test_no_smp_keys_on_one_cpu;
      Alcotest.test_case "delivery lock contends under simultaneous arrivals"
        `Quick test_delivery_lock_contention;
      Alcotest.test_case "dispatch automaton instances are per-CPU" `Quick
        test_per_cpu_dispatch;
      Alcotest.test_case "readers on 2 CPUs: latency stays bounded" `Quick
        test_readers_latency_bounded;
      Alcotest.test_case "generator filters accept exactly their own flow" `Quick
        test_gen_filters_exact;
    ] )
