(* The N-CPU simulated kernel: receive-side steering, per-CPU flow
   caches, the delivery lock, and cross-CPU invalidation through the device
   generation. *)

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

(* {1 A full invalidation reaches every per-CPU cache, without an IPI}

   The mutating CPU flushes its own cache at once; every other CPU flushes
   its own when its next demux sees the device generation moved, before it
   probes. So the first packet after the mutation misses on every CPU. *)

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
    mutate pf (List.hd ports) gen;
    Engine.run eng;
    Alcotest.(check int)
      (name ^ ": the mutating CPU flushed at once")
      (inval0 + 1) (Pfdev.cache_stats pf).Pfdev.invalidations;
    let probes k =
      let c = List.nth (Pfdev.smp_stats pf).Pfdev.per_cpu k in
      (c.Pfdev.cache_hits, c.Pfdev.cache_misses)
    in
    for k = 0 to ncpus - 1 do
      let f =
        match List.find_opt (fun f -> Pfdev.steer pf (Gen.frame f) = k) (Gen.flows gen) with
        | Some f -> f
        | None -> Alcotest.failf "%s: no flow steers to cpu %d" name k
      in
      let hits, misses = probes k in
      Host.inject h (Gen.frame f);
      Engine.run eng;
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: cpu %d's first packet after the mutation misses" name k)
        (hits, misses + 1) (probes k)
    done;
    Alcotest.(check int)
      (name ^ ": every per-CPU cache flushed once")
      (inval0 + ncpus) (Pfdev.cache_stats pf).Pfdev.invalidations
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

(* {1 One home per count: the device records, not the host's Stats}

   The flow-cache, dispatch and SMP counts live in [cache_stats],
   [dispatch_stats] and [smp_stats] alone. A scenario that moves every one
   of them leaves no ["pf.cache."], ["pf.dispatch."] or ["pf.smp."] key in
   the host's stats, and the records hold the counts it implies. *)

let test_records_are_the_one_home () =
  List.iter
    (fun n ->
      let eng, h = mk_host ~ncpus:n () in
      let pf = Host.pf h in
      let msg what = Printf.sprintf "%d CPU(s): %s" n what in
      Pfdev.set_strategy pf `Dispatch;
      let gen = Gen.make ~seed:0x0E0E ~flows:2 ~skew:Gen.Uniform () in
      let open_flow i =
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter (Gen.flow gen i));
        p
      in
      let a = open_flow 0 and b = open_flow 1 in
      (* A copy-all port joins the residual walk: the automaton no longer
         decides every packet alone, so a cache hit pays. *)
      Pfdev.set_copy_all b true;
      Engine.run eng;
      let fa = Gen.frame (Gen.flow gen 0) and fb = Gen.frame (Gen.flow gen 1) in
      (* Flow a on CPU 0 and flow b on the last CPU, at one instant. *)
      let round () =
        Alcotest.(check bool) (msg "a accepted") true (Pfdev.demux pf ~cpu:0 fa);
        Alcotest.(check bool) (msg "b accepted") true (Pfdev.demux pf ~cpu:(n - 1) fb);
        Engine.run eng
      in
      round () (* two misses: a exact, b on the residual walk *);
      round () (* two hits, which cost the same: on two CPUs b's delivery spins *);
      Alcotest.(check bool) (msg "kernel-claimed: bypassed, tapped by none") false
        (Pfdev.demux pf ~cpu:0 ~kernel_claimed:true fa);
      (* Re-filtering a flushes CPU 0's cache at once and sends no IPI. *)
      set_filter_exn a (Gen.filter (Gen.flow gen 0));
      Engine.run eng;
      List.iter
        (fun (k, _) ->
          List.iter
            (fun prefix ->
              Alcotest.(check bool) (msg (k ^ " is not a " ^ prefix ^ "* key")) false
                (String.starts_with ~prefix k))
            [ "pf.cache."; "pf.dispatch."; "pf.smp." ])
        (Stats.pairs (Host.stats h));
      (* Seven publications: the strategy, two opens, two installs, the
         copy-all flag and the re-filter. All but the opens are full
         invalidations (each install widens the flow key), and CPU 0 flushed
         at each. The last CPU flushed once, when its first demux caught up,
         and still holds b's entry: it has not demuxed since the re-filter. *)
      let full = 5 in
      let cs = Pfdev.cache_stats pf in
      Alcotest.(check (list int)) (msg "cache: hits, misses, bypasses, invalidations, evictions, entries")
        [ 2; 2; 1; full + (n - 1); 0; n - 1 ]
        [ cs.Pfdev.hits; cs.Pfdev.misses; cs.Pfdev.bypasses; cs.Pfdev.invalidations;
          cs.Pfdev.evictions; cs.Pfdev.entries ];
      let ds = Pfdev.dispatch_stats pf in
      Alcotest.(check (list int))
        (msg "dispatch: rebuilds, updates, classifies, exact accepts, candidates, residual runs")
        [ 1; 4; 2; 1; 0; 1 ]
        [ ds.Pfdev.rebuilds; ds.Pfdev.updates; ds.Pfdev.classifies; ds.Pfdev.exact_accepts;
          ds.Pfdev.candidates_run; ds.Pfdev.residual_runs ];
      let ss = Pfdev.smp_stats pf in
      let lock_acquire = Pf_sim.Costs.microvax_ii.Pf_sim.Costs.lock_acquire in
      let deliveries, contended = if n = 1 then (0, 0) else (4, 1) in
      Alcotest.(check (list int)) (msg "lock: acquisitions, contended, spin")
        [ deliveries; contended; contended * lock_acquire ]
        [ ss.Pfdev.lock_acquisitions; ss.Pfdev.lock_contended; ss.Pfdev.lock_wait_total_us ];
      let per_cpu =
        List.map
          (fun (c : Pfdev.smp_cpu_stats) ->
            [ c.Pfdev.packets; c.Pfdev.cache_hits; c.Pfdev.cache_misses; c.Pfdev.lock_waits;
              c.Pfdev.lock_wait_us ])
          ss.Pfdev.per_cpu
      in
      Alcotest.(check (list (list int)))
        (msg "per CPU: packets, hits, misses, lock waits, spin")
        (if n = 1 then [ [ 5; 2; 2; 0; 0 ] ]
         else [ [ 3; 1; 1; 0; 0 ]; [ 2; 1; 1; 1; lock_acquire ] ])
        per_cpu;
      Alcotest.(check (list int)) (msg "host-scope counts: packets, accepted, filters tested")
        [ 5; 4; 1 ]
        (List.map (Stats.get (Host.stats h)) [ "pf.packets"; "pf.accepted"; "pf.filters_tested" ]))
    [ 1; 2 ]

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

(* {1 One dispatch automaton serves every CPU} *)

let test_shared_dispatch () =
  let eng, h = mk_host ~ncpus:4 () in
  let san = Pf_sim.San.create ~ncpus:4 () in
  Host.attach_san h san;
  let pf = Host.pf h in
  Pfdev.set_strategy pf `Dispatch;
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:0xD15 ~flows:64 ~skew:Gen.Uniform ()
  in
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
  Pfdev.set_cache_enabled pf false;
  let seq = Gen.sequence gen 400 in
  let inject () =
    List.iter (fun f -> Host.inject h (Gen.frame f)) seq;
    Engine.run eng
  in
  let busy_cpus () =
    List.length
      (List.filter
         (fun (c : Pfdev.smp_cpu_stats) -> c.Pfdev.packets > 0)
         (Pfdev.smp_stats pf).Pfdev.per_cpu)
  in
  inject ();
  Alcotest.(check int) "traffic reached every CPU" (Pfdev.ncpus pf) (busy_cpus ());
  let ds = Pfdev.dispatch_stats pf in
  Alcotest.(check int) "one build, by set_strategy" 1 ds.Pfdev.rebuilds;
  Alcotest.(check int) "one update per install" 64 ds.Pfdev.updates;
  (* Reinstalling a flow's own filter is an acceptor-changing mutation:
     it updates that port's entry in place, once for every CPU. *)
  set_filter_exn (List.hd ports) (Gen.filter (List.hd (Gen.flows gen)));
  inject ();
  let ds = Pfdev.dispatch_stats pf in
  Alcotest.(check int) "still one build after set_filter" 1 ds.Pfdev.rebuilds;
  Alcotest.(check int) "one more update after set_filter" 65 ds.Pfdev.updates;
  Alcotest.(check int) "automaton classified every packet" 800
    ds.Pfdev.classifies;
  Alcotest.(check int) "automaton classifies correctly on every CPU" 800
    (Stats.get (Host.stats h) "pf.accepted");
  Alcotest.(check int) "shared reads race-free under the sanitizer" 0
    (Pf_sim.San.report_count san)

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
  (* The reader's contended acquisitions count in CPU 0's row, as the
     demuxing CPUs' count in theirs. *)
  let smp = Pfdev.smp_stats pf in
  let sum f = List.fold_left (fun a c -> a + f c) 0 smp.Pfdev.per_cpu in
  Alcotest.(check bool) "readers contended" true (smp.Pfdev.lock_contended > 0);
  Alcotest.(check int) "per-CPU lock waits sum to the contended acquisitions"
    smp.Pfdev.lock_contended
    (sum (fun c -> c.Pfdev.lock_waits));
  Alcotest.(check int) "per-CPU spin sums to the total" smp.Pfdev.lock_wait_total_us
    (sum (fun c -> c.Pfdev.lock_wait_us));
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

(* {1 A closed port stays out of the port table}

   [set_filter] and [set_priority] on a closed port change that port's
   record only. Re-entering the table would over-count [active_ports] and
   widen the flow key with a filter no packet reaches, which can move flows
   to another CPU. No mutation of a closed port, closing it again included,
   flushes a cache. *)

let test_closed_port_stays_out () =
  let eng, h = mk_host ~ncpus:4 () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0xC105 ~flows:4 ~skew:Gen.Uniform () in
  let ports =
    List.map
      (fun f ->
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter f);
        p)
      (Gen.flows gen)
  in
  Engine.run eng;
  let closed = List.hd ports in
  Pfdev.close_port closed;
  Alcotest.(check int) "three ports after the close" 3 (Pfdev.active_ports pf);
  let key = Pfdev.For_testing.flow_key pf in
  let steering () = List.map (fun f -> Pfdev.steer pf (Gen.frame f)) (Gen.flows gen) in
  let cpus = steering () in
  let invalidations = (Pfdev.cache_stats pf).Pfdev.invalidations in
  let unchanged what =
    Alcotest.(check int) (what ^ ": still three ports") 3 (Pfdev.active_ports pf);
    Alcotest.(check bool) (what ^ ": flow key unchanged") true
      (Pfdev.For_testing.flow_key pf = key);
    Alcotest.(check (list int)) (what ^ ": every flow steers as before") cpus (steering ());
    Alcotest.(check int) (what ^ ": no cache flushed") invalidations
      (Pfdev.cache_stats pf).Pfdev.invalidations
  in
  set_filter_exn closed (Gen.filter ~priority:3 (Gen.flow gen 0));
  unchanged "set_filter on the closed port";
  Pfdev.set_priority closed 9;
  unchanged "set_priority on the closed port";
  Pfdev.set_copy_all closed true;
  unchanged "set_copy_all on the closed port";
  Pfdev.set_tap closed true;
  unchanged "set_tap on the closed port";
  Pfdev.close_port closed;
  unchanged "close_port on the closed port";
  Engine.run eng

(* {1 Steering hashes the key's bytes, without allocating}

   The flow key is written into a reused buffer; its hash must be that of
   the key encoded as a string — a presence byte plus the big-endian word
   per key offset, one zero byte per absent word — so the CPU a flow lands
   on depends on its key bytes alone. Random frames include truncated ones
   that lack some key words, and odd lengths. *)

let string_key offsets frame =
  String.concat ""
    (List.map
       (fun i ->
         match Pf_pkt.Packet.word_opt frame i with
         | Some w -> Printf.sprintf "\001%c%c" (Char.chr (w lsr 8)) (Char.chr (w land 0xff))
         | None -> "\000")
       offsets)

let test_steer_hash_parity () =
  let rng = Pf_fuzz.Gen.Rng.make 0x57EE in
  List.iter
    (fun ncpus ->
      let _, h = mk_host ~ncpus () in
      let pf = Host.pf h in
      let gen = Gen.make ~seed:(0xF00 + ncpus) ~flows:12 ~skew:Gen.Uniform () in
      List.iter (fun f -> set_filter_exn (Pfdev.open_port pf) (Gen.filter f)) (Gen.flows gen);
      let offsets =
        match Pfdev.For_testing.flow_key pf with
        | Pf_filter.Analysis.Exact offsets -> offsets
        | Pf_filter.Analysis.Unbounded -> Alcotest.fail "generator filters are bounded"
      in
      let top = 2 * (List.fold_left max 0 offsets + 2) in
      let frames =
        List.init 400 (fun _ ->
            Pf_pkt.Packet.of_string
              (String.init (Pf_fuzz.Gen.Rng.int rng top) (fun _ ->
                   Char.chr (Pf_fuzz.Gen.Rng.int rng 256))))
        @ List.map Gen.frame (Gen.flows gen)
      in
      Alcotest.(check bool) "some frames lack key words" true
        (List.exists (fun fr -> String.contains (string_key offsets fr) '\000') frames);
      List.iter
        (fun frame ->
          Alcotest.(check int)
            (Format.asprintf "%d CPUs: %a" ncpus Pf_pkt.Packet.pp frame)
            (Hashtbl.hash (string_key offsets frame) mod ncpus)
            (Pfdev.steer pf frame))
        frames;
      let frames = Array.of_list frames in
      let words =
        Testutil.minor_words (fun () ->
            for i = 0 to Array.length frames - 1 do
              ignore (Sys.opaque_identity (Pfdev.steer pf frames.(i)))
            done)
      in
      Alcotest.(check (float 0.)) (Printf.sprintf "%d CPUs: steer allocates nothing" ncpus)
        0. words)
    [ 2; 4; 8 ]

(* [Host.inject] charges the driver interrupt on the steered CPU and
   schedules the rest of the receive path: one closure over that CPU's
   completion function and the frame, 5 minor words. Steering and the
   event heap allocate nothing; a first round grows the heap. *)
let test_inject_allocation () =
  let eng, h = mk_host ~ncpus:4 () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0x1A7C ~flows:16 ~skew:Gen.Uniform () in
  List.iter (fun f -> set_filter_exn (Pfdev.open_port pf) (Gen.filter f)) (Gen.flows gen);
  Engine.run eng;
  let frames = Array.of_list (List.map Gen.frame (Gen.sequence gen 200)) in
  let inject_all () =
    for i = 0 to Array.length frames - 1 do
      Host.inject h frames.(i)
    done
  in
  inject_all ();
  Engine.run eng;
  let words = Testutil.minor_words inject_all in
  Engine.run eng;
  List.iter
    (fun (c : Pfdev.smp_cpu_stats) ->
      Alcotest.(check bool) (Printf.sprintf "cpu%d received frames" c.Pfdev.cpu) true
        (c.Pfdev.packets > 0))
    (Pfdev.smp_stats pf).Pfdev.per_cpu;
  let per_frame = words /. float_of_int (Array.length frames) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per injected frame <= 5" per_frame)
    true (per_frame <= 5.)

(* The whole receive of a frame no port accepts, from [Host.inject] to the
   end of [Engine.run], allocates only [inject]'s closure: the completion
   passes its CPU to [Pfdev.demux] as an option built once per CPU, and a
   warm cache hit on an empty acceptor list keeps nothing. *)
let test_rejected_receive_allocation () =
  let eng, h = mk_host ~ncpus:4 () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0x1A7C ~flows:17 ~skew:Gen.Uniform () in
  List.iter
    (fun f -> if f.Gen.index < 16 then set_filter_exn (Pfdev.open_port pf) (Gen.filter f))
    (Gen.flows gen);
  Engine.run eng;
  let frame = Gen.frame (Gen.flow gen 16) in
  let receive () =
    Host.inject h frame;
    Engine.run eng
  in
  receive ();
  let frames = 1_000 in
  let words =
    Testutil.minor_words (fun () ->
        for _ = 1 to frames do
          receive ()
        done)
  in
  Alcotest.(check int) "no port accepted" 0 (Stats.get (Host.stats h) "pf.accepted");
  Alcotest.(check int) "every later receive hit the cache" frames
    (Pfdev.cache_stats pf).Pfdev.hits;
  let per_frame = words /. float_of_int frames in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per rejected receive <= 5" per_frame)
    true (per_frame <= 5.)

(* {1 Scoped invalidation}

   A port change invalidates only the cached decisions it can alter: none
   for a port with no filter before and after, the entries naming a closed
   filtered port, the tail entries for an install in the walk's last slot,
   and every entry otherwise. A cached device, at 1 and at 4 CPUs with each
   frame steered as the NIC would, and an uncached 1-CPU twin take the same
   random stream of port changes, each followed by 12 frames from a pool of
   12, so most probes hit. After every frame, each port must have accepted
   as many frames as its twin. The sequential strategy reorders
   equal-priority ports busier-first every 256 classifications, and only
   the twin classifies every frame, so the sequential runs stay under 256
   frames. *)

let scoped_pool =
  Array.of_list
    (List.concat_map
       (fun dst_socket ->
         List.concat_map
           (fun ptype ->
             List.map
               (fun dst_byte -> Testutil.pup_frame ~dst_byte ~ptype ~dst_socket ())
               [ 1; 2 ])
           [ 1; 2 ])
       [ 35l; 36l; 37l ])

(* Socket filters read words 1, 7 and 8, type filters words 1 and 3, and
   accept-all nothing: once one of each is open, most installs and closes
   leave the flow key as it is. *)
let scoped_filter rng =
  let priority = Pf_sim.Rng.int rng 3 in
  match Pf_sim.Rng.int rng 6 with
  | 0 | 1 | 2 ->
    Pf_filter.Predicates.pup_dst_socket ~priority
      (Int32.of_int (35 + Pf_sim.Rng.int rng 3))
  | 3 | 4 -> Pf_filter.Predicates.pup_type_is ~priority (1 + Pf_sim.Rng.int rng 2)
  | _ -> Pf_filter.Program.with_priority Pf_filter.Predicates.accept_all priority

type twin_port = {
  cached : Pfdev.port;
  plain : Pfdev.port;
  mutable opened : bool;
  mutable filtered : bool;
}

let scoped_run ~strategy ~ncpus ~steps seed =
  let device ~ncpus ~cache =
    let eng = Engine.create () in
    let costs = Pf_sim.Costs.microvax_ii in
    let pf =
      Pfdev.create_smp eng (Smp.create ~ncpus costs) costs (Stats.create ())
        ~variant:Frame.Exp3 ~address:(Addr.exp 2) ~send:ignore
    in
    Pfdev.set_cache_enabled pf cache;
    Pfdev.set_strategy pf strategy;
    (eng, pf)
  in
  let eng, pf = device ~ncpus ~cache:true in
  let twin_eng, twin = device ~ncpus:1 ~cache:false in
  let rng = Pf_sim.Rng.create seed in
  let ports = ref [||] in
  let pick pred = List.filter pred (Array.to_list !ports) |> Array.of_list in
  let open_port () =
    let p =
      { cached = Pfdev.open_port pf; plain = Pfdev.open_port twin; opened = true; filtered = false }
    in
    ports := Array.append !ports [| p |];
    p
  in
  let install p =
    let program = scoped_filter rng in
    set_filter_exn p.cached program;
    set_filter_exn p.plain program;
    p.filtered <- true
  in
  let on_one pred f =
    match pick pred with
    | [||] -> "nothing to change"
    | candidates -> f (Pf_sim.Rng.pick rng candidates)
  in
  let both f p =
    f p.cached;
    f p.plain
  in
  for step = 1 to steps do
    let op =
      match Pf_sim.Rng.int rng 8 with
      | 0 ->
        ignore (open_port () : twin_port);
        "open"
      | 1 ->
        install (open_port ());
        "open and install"
      | 2 ->
        on_one (fun p -> p.opened && not p.filtered) (fun p ->
            install p;
            "install on an open unfiltered port")
      | 3 ->
        on_one (fun p -> p.opened && p.filtered) (fun p ->
            install p;
            "re-filter")
      | 4 ->
        on_one (fun p -> p.opened) (fun p ->
            both Pfdev.close_port p;
            p.opened <- false;
            "close")
      | 5 ->
        let priority = Pf_sim.Rng.int rng 3 in
        on_one (fun p -> p.opened) (fun p ->
            both (fun q -> Pfdev.set_priority q priority) p;
            "set_priority")
      | 6 ->
        let flag = Pf_sim.Rng.bool rng 0.5 in
        on_one (fun p -> p.opened) (fun p ->
            both (fun q -> Pfdev.set_copy_all q flag) p;
            "set_copy_all")
      | _ ->
        let flag = Pf_sim.Rng.bool rng 0.5 in
        on_one (fun p -> p.opened) (fun p ->
            both (fun q -> Pfdev.set_tap q flag) p;
            "set_tap")
    in
    for _ = 1 to 12 do
      let frame = Pf_sim.Rng.pick rng scoped_pool in
      let cpu = Pfdev.steer pf frame in
      let accepted = Pfdev.demux pf ~cpu frame in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, step %d (%s): accepted" seed step op)
        (Pfdev.demux twin frame) accepted;
      Array.iteri
        (fun i p ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d, step %d (%s): port %d accepted" seed step op i)
            (Pfdev.port_accepted p.plain) (Pfdev.port_accepted p.cached))
        !ports
    done;
    Engine.run eng;
    Engine.run twin_eng
  done;
  Pfdev.cache_stats pf

let test_scoped_invalidation_differential () =
  List.iter
    (fun (strategy, steps) ->
      List.iter
        (fun ncpus ->
          let hits = ref 0 and misses = ref 0 in
          List.iter
            (fun seed ->
              let cs = scoped_run ~strategy ~ncpus ~steps seed in
              hits := !hits + cs.Pfdev.hits;
              misses := !misses + cs.Pfdev.misses)
            [ 1; 2; 3; 4; 5; 6 ];
          Alcotest.(check bool)
            (Printf.sprintf "%d CPU(s), %d steps: most probes hit (%d hits, %d misses)" ncpus
               steps !hits !misses)
            true (!hits > !misses))
        [ 1; 4 ])
    [ (`Dispatch, 120); (`Sequential, 21) ]

(* A close invalidates only the decisions naming the closed port. CPU 0,
   which closes it, empties its own such entries at once; another CPU's
   entry stays until its next probe of that flow, which misses and
   classifies again, so the frame reaches no closed port. *)
let test_close_reaches_remote_entry () =
  let eng, h = mk_host ~ncpus:2 () in
  let pf = Host.pf h in
  let frame = Testutil.pup_frame ~dst_byte:2 () in
  let first = Pfdev.open_port pf and second = Pfdev.open_port pf in
  set_filter_exn first (Pf_filter.Predicates.pup_dst_socket ~priority:1 35l);
  set_filter_exn second (Pf_filter.Predicates.pup_dst_socket 35l);
  let probes () =
    let c = List.nth (Pfdev.smp_stats pf).Pfdev.per_cpu 1 in
    (c.Pfdev.cache_hits, c.Pfdev.cache_misses)
  in
  let accepted () = List.map Pfdev.port_accepted [ first; second ] in
  Alcotest.(check bool) "cpu 1 caches the first port's decision" true (Pfdev.demux pf ~cpu:1 frame);
  Alcotest.(check bool) "and hits it" true (Pfdev.demux pf ~cpu:1 frame);
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (probes ());
  Alcotest.(check (list int)) "the first port took both" [ 2; 0 ] (accepted ());
  let invalidations = (Pfdev.cache_stats pf).Pfdev.invalidations in
  Pfdev.close_port first;
  Alcotest.(check bool) "the flow key did not move" true
    (Pfdev.For_testing.flow_key pf = Pf_filter.Analysis.Exact [ 1; 7; 8 ]);
  Alcotest.(check bool) "still accepted" true (Pfdev.demux pf ~cpu:1 frame);
  Alcotest.(check (pair int int)) "the entry naming the closed port missed" (1, 2) (probes ());
  Alcotest.(check (list int)) "no frame reached the closed port" [ 2; 1 ] (accepted ());
  Alcotest.(check int) "no cache was flushed" invalidations
    (Pfdev.cache_stats pf).Pfdev.invalidations;
  Alcotest.(check bool) "accepted again" true (Pfdev.demux pf ~cpu:1 frame);
  Alcotest.(check (pair int int)) "the classified-again entry hits" (2, 2) (probes ());
  Alcotest.(check (list int)) "by the second port" [ 2; 2 ] (accepted ());
  Engine.run eng

let suite =
  ( "smp",
    [
      Alcotest.test_case "4-CPU run replays byte-identical" `Quick
        test_determinism_4cpu;
      Alcotest.test_case "same flow always steers to the same CPU" `Quick
        test_same_flow_same_cpu;
      Alcotest.test_case "mutations invalidate every per-CPU cache, without IPIs" `Quick
        test_mutations_invalidate_all_cpus;
      Alcotest.test_case "1-CPU SMP matches the legacy path exactly" `Quick
        test_one_cpu_parity;
      Alcotest.test_case "device records: one home per count" `Quick
        test_records_are_the_one_home;
      Alcotest.test_case "delivery lock contends under simultaneous arrivals"
        `Quick test_delivery_lock_contention;
      Alcotest.test_case "one automaton build serves every CPU" `Quick
        test_shared_dispatch;
      Alcotest.test_case "readers on 2 CPUs: latency stays bounded" `Quick
        test_readers_latency_bounded;
      Alcotest.test_case "generator filters accept exactly their own flow" `Quick
        test_gen_filters_exact;
      Alcotest.test_case "a closed port stays out of the port table" `Quick
        test_closed_port_stays_out;
      Alcotest.test_case "steer hashes the string-encoded key, allocation-free" `Quick
        test_steer_hash_parity;
      Alcotest.test_case "inject allocates one small closure per frame" `Quick
        test_inject_allocation;
      Alcotest.test_case "a rejected receive allocates only inject's closure" `Quick
        test_rejected_receive_allocation;
      Alcotest.test_case "scoped invalidation: cached devices deliver as an uncached twin"
        `Quick test_scoped_invalidation_differential;
      Alcotest.test_case "a close reaches a remote CPU's entry at its next probe" `Quick
        test_close_reaches_remote_entry;
    ] )
