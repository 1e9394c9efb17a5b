(* Every metric pfbench reports: the end-to-end set a user of the packet
   filter sees, and the per-layer set that says where the time went.

   Simulated numbers are rebuilt from the program's public counters
   (Stats, cache_stats, dispatch_stats, smp_stats, Cpu) times the pinned
   cost model, over the traffic phase only. Host numbers are read around
   public calls: around the whole traffic phase, around [Host.inject] in a
   traced repetition, or around one layer's call replayed on the run's own
   frames (a twin receiver for [Pfdev.demux]). *)

module Costs = Pf_sim.Costs
module Engine = Pf_sim.Engine
module Process = Pf_sim.Process
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module F = Pf_filter
module W = Workload

(* (name, unit) in report order. BENCHMARK.json names the same metrics;
   the smoke test checks the two agree. *)
let end_to_end =
  [
    ("sim_capacity_pps", "1/s");
    ("sim_deliver_p50_us", "us");
    ("sim_deliver_p99_us", "us");
    ("host_ns_per_pkt", "ns");
    ("host_alloc_bytes_per_pkt", "B");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("host.rx_sim_us_per_pkt", "us");
    ("host.inject_host_ns", "ns");
    ("steer.busiest_cpu_pkt_share", "ratio");
    ("steer.host_ns_per_call", "ns");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions_per_kpkt", "1/kpkt");
    ("cache.invalidations", "count");
    ("cache.sim_us_per_pkt", "us");
    ("dispatch.rebuilds", "count");
    ("dispatch.exact_accept_ratio", "ratio");
    ("dispatch.candidates_per_classify", "count");
    ("dispatch.build_host_ms", "ms");
    ("dispatch.classify_host_ns", "ns");
    ("classify.sim_us_per_pkt", "us");
    ("filter.filters_per_pkt", "count");
    ("filter.insns_per_pkt", "count");
    ("filter.sim_us_per_pkt", "us");
    ("filter.host_ns_per_insn", "ns");
    ("deliver.lock_wait_sim_us_per_pkt", "us");
    ("deliver.lock_contended_ratio", "ratio");
    ("deliver.wakeup_sim_us_per_pkt", "us");
    ("deliver.overflow_drops", "count");
    ("ipi.count", "count");
    ("ipi.sim_us_per_pkt", "us");
    ("read.copy_sim_us_per_pkt", "us");
    ("read.syscall_sim_us_per_pkt", "us");
    ("read.pkts_per_syscall", "count");
    ("read.ctx_switches_per_pkt", "count");
    ("read.sim_p50_us", "us");
    ("read.sim_p999_us", "us");
    ("read.host_ns_per_call", "ns");
    ("install.p50_host_us", "us");
    ("install.p99_host_us", "us");
    ("install.analyze_host_us", "us");
    ("install.compile_host_us", "us");
    ("install.certify_host_us", "us");
    ("demux.host_ns_per_pkt", "ns");
    ("sim_engine.events_per_pkt", "count");
    ("gc.minor_collections_per_kpkt", "1/kpkt");
    ("gc.major_collections", "count");
    ("ledger.residual_sim_us", "us");
    ("cpu.busiest_util", "ratio");
    ("trace.overhead_pct", "%");
  ]

let unit_of name = List.assoc name (end_to_end @ per_layer)
let fi = float_of_int

(* {1 Small statistics} *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

let latencies lat =
  let l = List.filter (fun x -> x >= 0) (Array.to_list lat) in
  let a = Array.of_list (List.map fi l) in
  Array.sort compare a;
  a

let ratio a b = if b = 0 then 0. else fi a /. fi b

(* {1 Simulated clock: the traffic phase, from counters} *)

let stat (r : Rep.t) key =
  let get l = Option.value ~default:0 (List.assoc_opt key l) in
  get r.after.stats - get r.before.stats

let busy (r : Rep.t) = Array.mapi (fun k b -> b - r.before.busy.(k)) r.after.busy
let elapsed (r : Rep.t) = max r.after.now r.after.busy_until - r.before.now
let offered (r : Rep.t) = Array.length r.deliver_lat
let delivered (r : Rep.t) = Array.fold_left (fun a l -> if l >= 0 then a + 1 else a) 0 r.deliver_lat
let ipis (r : Rep.t) = r.after.smp.Pfdev.ipis - r.before.smp.Pfdev.ipis

(* Where every simulated µs of CPU went. The top level closes exactly:
   Σ per-CPU busy = interrupt + demux + IPIs + copy-out + syscalls +
   context switches, and [residual] is what is left. Demux splits into the
   flow cache and delivery, both rebuilt from their counters, and
   [classify] — dispatch probes plus filter runs — which the public
   counters cannot split further; [filter] is its filter-run part. *)
type ledger = {
  interrupt : int;
  cache : int;
  deliver : int;
  lock_wait : int;
  wakeup : int;
  classify : int;
  filter : int;
  ipi : int;
  copy : int;
  syscalls : int;
  residual : int;
}

let ledger (inp : W.inputs) (r : Rep.t) =
  let c = Costs.microvax_ii in
  let d f = f r.after - f r.before in
  let hits = d (fun s -> s.Rep.cache.Pfdev.hits) and misses = d (fun s -> s.Rep.cache.Pfdev.misses) in
  (* the key the flow cache hashes: the union read set of the installed
     filters, which [Workload.check] proved exact *)
  let key_words =
    List.sort_uniq compare
      (List.concat_map
         (fun f ->
           match (F.Analysis.analyze (F.Validate.check_exn inp.programs.(f))).F.Analysis.read_set with
           | F.Analysis.Exact idxs -> idxs
           | F.Analysis.Unbounded -> [])
         (Array.to_list inp.initial))
  in
  (* every probe hashes the key; every miss stores its decision *)
  let cache =
    ((hits + misses) * (c.Costs.cache_probe + (List.length key_words * c.Costs.cache_hash_word)))
    + (misses * c.Costs.cache_probe)
  in
  let lock_wait = d (fun s -> s.Rep.smp.Pfdev.lock_wait_total_us) in
  let wakeup = stat r "pf.accepted" * c.Costs.wakeup in
  let deliver = lock_wait + (d (fun s -> s.Rep.smp.Pfdev.lock_acquisitions) * c.Costs.lock_acquire) + wakeup in
  let demux = stat r "pf.demux_cpu_us" in
  let filter =
    match inp.w.compile with
    | `Regvm ->
      (* automaton candidates run the stack program; residual-walk ports
         run their register-VM compilation *)
      let regvm_insns = stat r "pf.regvm_insns" in
      (d (fun s -> s.Rep.dispatch.Pfdev.candidates_run) * c.Costs.filter_apply)
      + ((stat r "pf.filter_insns" - regvm_insns) * c.Costs.filter_insn)
      + (d (fun s -> s.Rep.dispatch.Pfdev.residual_runs) * c.Costs.regvm_apply)
      + (regvm_insns * c.Costs.regvm_insn)
    | `Off ->
      (stat r "pf.filters_tested" * c.Costs.filter_apply) + (stat r "pf.filter_insns" * c.Costs.filter_insn)
  in
  let interrupt = stat r "host.interrupt_cpu_us" in
  let ipi = ipis r * (c.Costs.ipi_send + c.Costs.ipi_receive) in
  let copy = stat r "pf.copy_cpu_us" in
  let syscalls = stat r "pf.syscalls" * c.Costs.syscall in
  let ctx = (r.after.ctx - r.before.ctx) * c.Costs.context_switch in
  {
    interrupt;
    cache;
    deliver;
    lock_wait;
    wakeup;
    classify = demux - cache - deliver;
    filter;
    ipi;
    copy;
    syscalls;
    residual =
      Array.fold_left ( + ) 0 (busy r) - (interrupt + demux + ipi + copy + syscalls + ctx);
  }

(* Simulated-clock sanity: no CPU busier than the time that passed, no
   latency below zero. Each line is one violation. *)
let sanity (r : Rep.t) =
  let problems = ref [] in
  Array.iteri
    (fun k b ->
      if b > elapsed r then
        problems := Printf.sprintf "cpu%d busy %d us > elapsed %d us" k b (elapsed r) :: !problems)
    (busy r);
  let negative lat = Array.exists (fun l -> l < -1) lat in
  if negative r.deliver_lat || negative r.read_lat then problems := "negative latency" :: !problems;
  List.rev !problems

(* {1 End-to-end metrics} *)

(* The fastest of several host times. Every repetition (and every set-up
   sample) does identical work, and on a shared machine interference only
   ever slows one down — by up to half, for seconds at a time — so the
   fastest is the steadiest estimate of the program's own cost: across ten
   runs it moved half as much as the median of repetitions did. *)
let fastest xs = List.fold_left min infinity xs

(* [sim]: a repetition whose simulation is reported; [traffic_ns] and
   [alloc_bytes]: per measured repetition; [setups]: every set-up sample of
   the run (ns). [setup_s] is the median of its samples. *)
let end_to_end_values ~(sim : Rep.t) ~traffic_ns ~alloc_bytes ~setups =
  let n = fi (offered sim) in
  let dl = latencies sim.deliver_lat in
  [
    ("sim_capacity_pps", fi (delivered sim) *. 1e6 /. fi (Array.fold_left max 1 (busy sim)));
    ("sim_deliver_p50_us", percentile dl 0.5);
    ("sim_deliver_p99_us", percentile dl 0.99);
    ("host_ns_per_pkt", fastest traffic_ns /. n);
    ("host_alloc_bytes_per_pkt", median alloc_bytes /. n);
    ("setup_s", median setups /. 1e9);
  ]

(* Percentile [q] of one [set_filter] call, µs, from the fastest set-up
   sample ([installs]: per sample, its install times in ns). *)
let install_percentile installs q =
  fastest
    (List.map
       (fun batch ->
         let a = Array.of_list batch in
         Array.sort compare a;
         percentile a q /. 1e3)
       installs)

(* {1 Host-clock replays, one layer each} *)

let timed f =
  let h0 = Rep.now_ns () in
  let v = f () in
  (v, Rep.now_ns () -. h0)

let no_port _ _ _ = ()

(* [Pfdev.demux] and [Pfdev.steer] on a twin receiver set up the same way:
   the same frames and churn at the same simulated times, handed straight
   to the demultiplexer on the CPU steering picks. *)
let demux_replay (inp : W.inputs) =
  let world = Rep.setup inp ~on_install:ignore ~on_port:no_port in
  let pf = world.Rep.pf in
  let demux_ns = ref 0. in
  let send frame =
    let cpu = Pfdev.steer pf frame in
    let h0 = Rep.now_ns () in
    ignore (Pfdev.demux pf ~cpu frame : bool);
    demux_ns := !demux_ns +. (Rep.now_ns () -. h0)
  in
  Rep.drive inp world ~send ~on_install:ignore ~on_port:no_port;
  let n = Array.length inp.frames in
  let (), steer_ns =
    timed (fun () -> Array.iter (fun fr -> ignore (Pfdev.steer pf fr : int)) inp.frames)
  in
  (!demux_ns /. fi n, steer_ns /. fi n)

let validated (inp : W.inputs) = Array.map (fun f -> (F.Validate.check_exn inp.programs.(f), f)) inp.initial

(* [Dispatch.build] on the set-up port set (median of 5), then
   [Dispatch.classify] of every frame against it. *)
let dispatch_replay (inp : W.inputs) =
  let entries = Array.to_list (validated inp) in
  let builds = List.init 5 (fun _ -> snd (timed (fun () -> F.Dispatch.build entries))) in
  let d = F.Dispatch.build entries in
  let (), ns =
    timed (fun () -> Array.iter (fun fr -> ignore (F.Dispatch.classify d fr)) inp.frames)
  in
  (median builds /. 1e6, ns /. fi (Array.length inp.frames))

(* Every set-up filter, compiled for the workload's engine, run on a
   sample of frames: host ns per executed filter instruction. *)
let engine_replay (inp : W.inputs) =
  let vs = validated inp in
  let frames =
    Array.sub inp.frames 0 (min (Array.length inp.frames) (max 1 (2_000_000 / Array.length vs)))
  in
  let insns = ref 0 in
  let replay compile run =
    let es = Array.map (fun (v, _) -> compile v) vs in
    snd
      (timed (fun () ->
           Array.iter
             (fun fr -> Array.iter (fun e -> insns := !insns + snd (run e fr)) es)
             frames))
  in
  let ns =
    match inp.w.compile with
    | `Regvm -> replay F.Regvm.compile F.Regvm.run_counted
    | `Off -> replay F.Fast.compile F.Fast.run_counted
  in
  ns /. fi (max 1 !insns)

(* Install-time work per set-up filter, µs: analysis, compilation for the
   workload's engine, and (when the workload certifies) translation
   validation of the register IR. *)
let install_replay (inp : W.inputs) =
  let vs = Array.map fst (validated inp) in
  let per xs ns = ns /. 1e3 /. fi (Array.length xs) in
  let (), analyze = timed (fun () -> Array.iter (fun v -> ignore (F.Analysis.analyze v)) vs) in
  let compile, certify =
    match inp.w.compile with
    | `Regvm ->
      let rvms, compile = timed (fun () -> Array.map F.Regvm.compile vs) in
      let (), certify =
        if inp.w.certify then
          timed (fun () ->
              Array.iteri (fun i v -> ignore (F.Equiv.check_ir v (F.Regvm.ir rvms.(i)))) vs)
        else ((), 0.)
      in
      (compile, certify)
    | `Off ->
      (snd (timed (fun () -> Array.iter (fun v -> ignore (F.Fast.compile v)) vs)), 0.)
  in
  (per vs analyze, per vs compile, per vs certify)

(* [read_batch] on a one-port twin: a process fills the port with [batch]
   of the run's frames, lets them land, then times one [read_batch] — the
   call never blocks, so the time is the read path's own. *)
let read_replay (inp : W.inputs) ~batch ~calls =
  let world = Rep.create_world inp in
  let f = inp.initial.(0) in
  Rep.open_flow inp world ~on_install:ignore ~on_port:no_port f;
  let p = Option.get world.Rep.ports.(f) in
  let frames = Array.map (fun s -> inp.frames.(s)) inp.seqs_of_flow.(f) in
  let total = ref 0. in
  ignore
    (Host.spawn world.Rep.host ~name:"reader" (fun () ->
         for call = 0 to calls - 1 do
           for i = 0 to batch - 1 do
             let fr = frames.(((call * batch) + i) mod Array.length frames) in
             ignore (Pfdev.demux world.Rep.pf fr : bool)
           done;
           Process.pause 10_000_000;
           let got, ns = timed (fun () -> Pfdev.read_batch p) in
           if List.length got <> batch then failwith "read replay: short batch";
           total := !total +. ns
         done)
      : Process.t);
  Engine.run world.Rep.engine;
  !total /. fi calls

(* {1 Per-layer metrics} *)

(* From one traced repetition, its untraced siblings' median traffic time
   (for the tracing overhead), and the replays above. *)
let per_layer_values (inp : W.inputs) ~(traced : Rep.t) ~untraced_ns ~installs ~read_calls =
  let r = traced in
  let n = offered r in
  let per x = fi x /. fi n in
  let d f = f r.after - f r.before in
  let lg = ledger inp r in
  let cache f = d (fun s -> f s.Rep.cache) in
  let hits = cache (fun c -> c.Pfdev.hits) and misses = cache (fun c -> c.Pfdev.misses) in
  let disp f = d (fun s -> f s.Rep.dispatch) in
  let classifies = disp (fun s -> s.Pfdev.classifies) in
  let cpu_packets =
    List.map2
      (fun (a : Pfdev.smp_cpu_stats) (b : Pfdev.smp_cpu_stats) -> a.packets - b.packets)
      r.after.smp.per_cpu r.before.smp.per_cpu
  in
  let lock f = d (fun s -> f s.Rep.smp) in
  let demux_ns, steer_ns = demux_replay inp in
  let build_ms, classify_ns =
    if inp.w.strategy = `Dispatch then dispatch_replay inp else (0., 0.)
  in
  let analyze_us, compile_us, certify_us = install_replay inp in
  let syscalls = stat r "pf.syscalls" and reads = stat r "pf.reads.delivered" in
  let read_host_ns =
    if inp.w.readers then
      read_replay inp ~batch:(max 1 (int_of_float (Float.round (ratio reads syscalls)))) ~calls:read_calls
    else 0.
  in
  let rl = latencies r.read_lat in
  [
    ("host.rx_sim_us_per_pkt", per lg.interrupt);
    ("host.inject_host_ns", r.inject_ns /. fi n);
    ("steer.busiest_cpu_pkt_share", ratio (List.fold_left max 0 cpu_packets) (List.fold_left ( + ) 0 cpu_packets));
    ("steer.host_ns_per_call", steer_ns);
    ("cache.hit_ratio", ratio hits (hits + misses));
    ("cache.evictions_per_kpkt", 1000. *. per (cache (fun c -> c.Pfdev.evictions)));
    ("cache.invalidations", fi (cache (fun c -> c.Pfdev.invalidations)));
    ("cache.sim_us_per_pkt", per lg.cache);
    ("dispatch.rebuilds", fi (disp (fun s -> s.Pfdev.rebuilds)));
    ("dispatch.exact_accept_ratio", ratio (disp (fun s -> s.Pfdev.exact_accepts)) classifies);
    ("dispatch.candidates_per_classify", ratio (disp (fun s -> s.Pfdev.candidates_run)) classifies);
    ("dispatch.build_host_ms", build_ms);
    ("dispatch.classify_host_ns", classify_ns);
    ("classify.sim_us_per_pkt", per lg.classify);
    ("filter.filters_per_pkt", per (stat r "pf.filters_tested"));
    ("filter.insns_per_pkt", per (stat r "pf.filter_insns"));
    ("filter.sim_us_per_pkt", per lg.filter);
    ("filter.host_ns_per_insn", engine_replay inp);
    ("deliver.lock_wait_sim_us_per_pkt", per lg.lock_wait);
    ("deliver.lock_contended_ratio", ratio (lock (fun s -> s.Pfdev.lock_contended)) (lock (fun s -> s.Pfdev.lock_acquisitions)));
    ("deliver.wakeup_sim_us_per_pkt", per lg.wakeup);
    ("deliver.overflow_drops", fi (stat r "pf.drop.overflow"));
    ("ipi.count", fi (ipis r));
    ("ipi.sim_us_per_pkt", per lg.ipi);
    ("read.copy_sim_us_per_pkt", per lg.copy);
    ("read.syscall_sim_us_per_pkt", per lg.syscalls);
    ("read.pkts_per_syscall", ratio reads syscalls);
    ("read.ctx_switches_per_pkt", per (r.after.ctx - r.before.ctx));
    ("read.sim_p50_us", percentile rl 0.5);
    ("read.sim_p999_us", percentile rl 0.999);
    ("read.host_ns_per_call", read_host_ns);
    ("install.p50_host_us", install_percentile installs 0.5);
    ("install.p99_host_us", install_percentile installs 0.99);
    ("install.analyze_host_us", analyze_us);
    ("install.compile_host_us", compile_us);
    ("install.certify_host_us", certify_us);
    ("demux.host_ns_per_pkt", demux_ns);
    ("sim_engine.events_per_pkt", per (r.after.events - r.before.events));
    ("gc.minor_collections_per_kpkt", 1000. *. per r.minor_gcs);
    ("gc.major_collections", fi r.major_gcs);
    ("ledger.residual_sim_us", fi lg.residual);
    ("cpu.busiest_util", ratio (Array.fold_left max 0 (busy r)) (elapsed r));
    ("trace.overhead_pct", 100. *. (r.traffic_ns -. untraced_ns) /. untraced_ns);
  ]
