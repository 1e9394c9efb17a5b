module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Cpu = Pf_sim.Cpu
module Smp = Pf_sim.Smp
module San = Pf_sim.San
module Costs = Pf_sim.Costs
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Condition = Pf_sim.Condition
module Frame = Pf_net.Frame
module Addr = Pf_net.Addr

type capture = {
  packet : Packet.t;
  timestamp : Pf_sim.Time.t option;
  dropped_before : int;
}

type port = {
  dev : t;
  id : int;
  mutable filter : Pf_filter.Fast.t option;
  mutable regvm : Pf_filter.Regvm.t option;
      (* When set, the sequential walk runs this instead of [filter]; the
         stack compilation is kept alongside for admission and status. *)
  mutable engine_kind : [ `Stack | `Regvm ];
  mutable engine_applications : int;
  mutable engine_insns : int;
  mutable insns_source : int;
  mutable insns_compiled : int;
  mutable validated : Pf_filter.Validate.t option;
  mutable analysis : Pf_filter.Analysis.t option;
  mutable certification : Pf_filter.Equiv.certification option;
      (* translation-validation outcome of the install-time compilation;
         None when the device was not certifying at install time *)
  mutable priority : int;
  mutable timeout : Pf_sim.Time.t option;
  mutable queue_limit : int;
  queue : capture Queue.t;
  cond : unit Condition.t;
  mutable watchers : (unit -> bool) list; (* pending selects *)
  mutable copy_all : bool;
  mutable tap : bool;
  mutable timestamps : bool;
  mutable signal : (unit -> unit) option;
  mutable is_open : bool;
  mutable dropped : int;
  mutable accepted : int;
}

and t = {
  engine : Engine.t;
  smp : Smp.t; (* CPU 0 is the boot CPU; demux runs on the steered CPU *)
  costs : Costs.t;
  stats : Stats.t;
  variant : Frame.variant;
  address : Addr.t;
  send : Packet.t -> unit;
  mutable ports : port list; (* sorted: priority desc, then id asc *)
  mutable next_id : int;
  mutable demuxed_since_reorder : int;
  mutable strategy : [ `Sequential | `Dispatch ];
  mutable compile_strategy : [ `Off | `Regvm ];
  mutable certify : bool; (* translation-validate install-time compilation *)
  dispatch : dispatch_state array; (* one private automaton per CPU *)
  mutable dispatch_rebuilds : int;
  mutable dispatch_classifies : int;
  mutable dispatch_exact_accepts : int;
  mutable dispatch_candidates : int;
  mutable dispatch_residual_runs : int;
  mutable cost_limit : int option; (* admission bound on a filter's cost_bound *)
  mutable cache_enabled : bool;
  mutable cache_capacity : int;
  mutable key_state : key_state; (* shared: derived from the filter set *)
  caches : flow_cache array; (* one private, contention-free cache per CPU *)
  delivery_lock : Smp.lock; (* shared port queues; only taken when ncpus > 1 *)
  smp_packets : int array; (* demuxed packets per CPU *)
  smp_lock_waits : int array; (* contended delivery-lock acquisitions per CPU *)
  smp_lock_wait_us : int array; (* spin time per CPU *)
  mutable san : san_handles option; (* concurrency sanitizer, when attached *)
}

(* The sanitizer's view of this device: every shared object registered with
   its locking discipline. Absent (the default), instrumentation is dead
   code with zero cost — which is what keeps every legacy counter and the
   1-CPU parity gate byte-identical. *)
and san_handles = {
  checker : San.t;
  res_queue : San.resource; (* shared port queues, guarded by delivery_lock *)
  res_table : San.resource; (* the port/filter table, published by IPI *)
  res_cache : San.resource array; (* per-CPU private flow caches *)
  res_dispatch : San.resource array; (* per-CPU private dispatch automata *)
  res_statword : San.resource array; (* per-CPU demux counters *)
}

(* The cross-filter dispatch automaton ({!Pf_filter.Dispatch}), rebuilt
   lazily on first use after any acceptor-changing mutation — exactly the
   flow cache's invalidation set, so [invalidate_cache] marks it dirty.
   Each CPU owns its own instance: rebuilds are private, classification
   touches no cross-CPU state. *)
and dispatch_state =
  | Dispatch_dirty
  | Dispatch_built of port Pf_filter.Dispatch.t

(* The demultiplexing flow cache: a bounded table from the packet bytes at
   the installed filters' union read set to the list of accepting ports.
   Soundness rests on {!Pf_filter.Analysis.t.read_set}: two packets that
   agree on every read-set word (including which of those words exist) get
   the same verdict from every installed filter, so the cached acceptor
   list is exactly what the ordered walk (or the dispatch automaton) would
   have produced — as long as the filter set, priorities, and walk order have
   not changed since the entry was stored, which is what the invalidation
   paths guarantee. On an SMP device there is one cache per CPU — receive
   steering sends every packet of a flow to the same CPU, so the caches
   shard the flow space with no cross-CPU traffic — and every invalidation
   flushes all of them (costed as an IPI broadcast). *)
and flow_cache = {
  table : (string, port list) Hashtbl.t;
  fifo : string Queue.t; (* insertion order, for capacity eviction *)
  mutable generation : int; (* bumped by every invalidation *)
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

and key_state =
  | Dirty (* filter set changed: recompute before the next lookup *)
  | Unusable (* some installed filter's read set is unbounded *)
  | Offsets of int array (* sorted union read set of the installed filters *)

let fresh_cache () =
  {
    table = Hashtbl.create 64;
    fifo = Queue.create ();
    generation = 0;
    hits = 0;
    misses = 0;
    bypasses = 0;
    invalidations = 0;
    evictions = 0;
  }

let create_smp engine smp costs stats ~variant ~address ~send =
  let n = Smp.ncpus smp in
  {
    engine;
    smp;
    costs;
    stats;
    variant;
    address;
    send;
    ports = [];
    next_id = 0;
    demuxed_since_reorder = 0;
    strategy = `Sequential;
    compile_strategy = `Off;
    certify = false;
    dispatch = Array.make n Dispatch_dirty;
    dispatch_rebuilds = 0;
    dispatch_classifies = 0;
    dispatch_exact_accepts = 0;
    dispatch_candidates = 0;
    dispatch_residual_runs = 0;
    cost_limit = None;
    cache_enabled = true;
    cache_capacity = 256;
    key_state = Dirty;
    caches = Array.init n (fun _ -> fresh_cache ());
    delivery_lock = Smp.Lock.create ~name:"delivery_lock" smp;
    smp_packets = Array.make n 0;
    smp_lock_waits = Array.make n 0;
    smp_lock_wait_us = Array.make n 0;
    san = None;
  }

let create engine cpu costs stats ~variant ~address ~send =
  create_smp engine (Smp.of_cpus engine costs [| cpu |]) costs stats ~variant ~address ~send

let ncpus t = Smp.ncpus t.smp
let smp t = t.smp

module For_testing = struct
  (* When set, [install]/[set_filter] leave the flow cache alone — the
     "forgot to invalidate" kernel bug. The differential suite flips this to
     prove the cold/warm/disabled demux oracle catches stale entries; never
     set it outside tests. *)
  let skip_install_invalidation = ref false

  (* When set, invalidations flush only the mutating CPU's flow cache and
     skip the IPI broadcast — the SMP variant of the same bug: a kernel
     that forgot the other CPUs exist. Remote caches keep answering from
     entries stored under the old filter set. The differential suite flips
     this to prove the oracle catches stale remote decisions. *)
  let skip_remote_invalidation = ref false

  (* When set, the demux delivery path inserts into the shared port queues
     without taking the delivery lock — the skip-lock-around-queue-insert
     bug. The lock is pure cost accounting to the differential oracle
     (verdicts never change), so only the concurrency sanitizer can catch
     this one: the delivery queue's candidate lockset goes empty as soon as
     two CPUs both deliver. *)
  let skip_delivery_lock = ref false
end

let san t = Option.map (fun h -> h.checker) t.san

(* Declare the device's shared objects, their disciplines, and every access
   site to a sanitizer, and start instrumenting. The declarations double as
   the static lint's input: `pftool sanlint` checks them against each
   other and the lock-order DAG without running any traffic. *)
let attach_san t san =
  if San.ncpus san <> Smp.ncpus t.smp then
    invalid_arg "Pfdev.attach_san: sanitizer and device disagree on ncpus";
  Smp.set_san t.smp san;
  let n = Smp.ncpus t.smp in
  San.declare_lock san (Smp.Lock.name t.delivery_lock);
  let res_queue =
    San.register san ~name:"pfdev.delivery_queue"
      ~discipline:(San.Guarded_by (Smp.Lock.name t.delivery_lock))
  in
  let res_table =
    San.register san ~name:"pfdev.port_table" ~discipline:San.Ipi_published
  in
  let res_cache =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.flow_cache.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let res_dispatch =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.dispatch.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let res_statword =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.smp_stats.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let lock = Smp.Lock.name t.delivery_lock in
  San.declare_site san ~site:"Pfdev.demux:deliver" ~ctx:San.Any_cpu
    ~locks:[ lock ] ~rw:`Write res_queue;
  San.declare_site san ~site:"Pfdev.locked_dequeue" ~ctx:San.Boot
    ~locks:[ lock ] ~rw:`Write res_queue;
  San.declare_site san ~site:"Pfdev.demux:classify" ~ctx:San.Any_cpu ~locks:[]
    ~rw:`Read res_table;
  San.declare_site san ~site:"Pfdev.install" ~ctx:San.Boot ~locks:[]
    ~rw:`Write res_table;
  San.declare_site san ~site:"Pfdev.maybe_reorder" ~ctx:San.Any_cpu ~locks:[]
    ~rw:`Write res_table;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:cache" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_cache;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.invalidate_cache:flush"
        ~ctx:(San.On_cpu k) ~locks:[] ~rw:`Write r)
    res_cache;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:dispatch" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_dispatch;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:counters" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_statword;
  t.san <-
    Some { checker = san; res_queue; res_table; res_cache; res_dispatch; res_statword }

(* A real mutation of the port table, for the sanitizer's happens-before
   tracking. (Distinct from [invalidate_cache], which also covers
   mutations of cache {e policy} that touch no table state.) *)
let san_table_write ?(cpu = 0) t =
  match t.san with
  | Some h -> San.write h.checker ~cpu h.res_table
  | None -> ()

let invalidate_cache ?(cpu = 0) t =
  (* An acceptor-changing mutation: tell the protocol checker a new
     configuration epoch begins now, before any CPU syncs to it. *)
  (match t.san with Some h -> San.publish h.checker ~cpu h.res_table | None -> ());
  (* The dispatch automaton is sound under exactly the invariants the flow
     cache is, so the two share one invalidation set. *)
  let flush_one k =
    t.dispatch.(k) <- Dispatch_dirty;
    let c = t.caches.(k) in
    c.generation <- c.generation + 1;
    if Hashtbl.length c.table > 0 then begin
      Hashtbl.reset c.table;
      Queue.clear c.fifo
    end;
    c.invalidations <- c.invalidations + 1;
    match t.san with
    | Some h ->
      (* The flush runs in CPU [k]'s logical context (its shootdown
         handler); observing it is what syncs [k] to the new epoch. *)
      San.write h.checker ~cpu:k h.res_cache.(k);
      San.write h.checker ~cpu:k h.res_dispatch.(k);
      San.sync h.checker ~cpu:k h.res_table
    | None -> ()
  in
  if !For_testing.skip_remote_invalidation then flush_one cpu
  else begin
    t.key_state <- Dirty;
    for k = 0 to Smp.ncpus t.smp - 1 do
      flush_one k
    done;
    (* Remote caches are flushed by a costed interprocessor broadcast: the
       mutating CPU pays one ipi_send per peer, each peer one ipi_receive.
       (The flush itself is done synchronously above — the simulation's
       demux events are already serialized by the engine, so no packet can
       race the shootdown; only the cost is modeled.) *)
    if Smp.ncpus t.smp > 1 then begin
      Stats.incr ~by:(Smp.ncpus t.smp - 1) t.stats "pf.smp.ipi";
      Smp.ipi_broadcast t.smp ~src:cpu (fun _ -> ())
    end
  end;
  Stats.incr t.stats "pf.cache.invalidation"

(* Stable order: decreasing priority, then open order — maintained at
   mutation time ([insert_port]/[reprioritize]), not by re-sorting on the
   demux path. The occasional busier-first reordering of equal-priority
   filters (section 3.2) happens in [maybe_reorder]. *)
let insert_port t port =
  let rec ins = function
    | [] -> [ port ]
    | p :: _ as l when p.priority < port.priority || (p.priority = port.priority && p.id > port.id)
      -> port :: l
    | p :: rest -> p :: ins rest
  in
  t.ports <- ins t.ports

let reprioritize t port priority =
  t.ports <- List.filter (fun p -> p.id <> port.id) t.ports;
  port.priority <- priority;
  insert_port t port

let maybe_reorder ?cpu t =
  t.demuxed_since_reorder <- t.demuxed_since_reorder + 1;
  if t.demuxed_since_reorder >= 256 then begin
    t.demuxed_since_reorder <- 0;
    let before = List.map (fun p -> p.id) t.ports in
    t.ports <-
      List.stable_sort
        (fun a b ->
          match compare b.priority a.priority with
          | 0 -> compare b.accepted a.accepted (* busier first *)
          | c -> c)
        t.ports;
    (* Reordering equal-priority overlapping filters can change which port
       wins a packet, so any cached decision taken under the old order is
       stale. *)
    if List.map (fun p -> p.id) t.ports <> before then begin
      san_table_write ?cpu t;
      invalidate_cache ?cpu t
    end
  end

(* Charge CPU when called from process context; plain setup code (before the
   simulation starts) runs free. *)
let charge cost = if Process.running () && cost > 0 then Process.use_cpu cost

let open_port t =
  t.next_id <- t.next_id + 1;
  let port =
    {
      dev = t;
      id = t.next_id;
      filter = None;
      regvm = None;
      engine_kind = `Stack;
      engine_applications = 0;
      engine_insns = 0;
      insns_source = 0;
      insns_compiled = 0;
      validated = None;
      analysis = None;
      certification = None;
      priority = 0;
      timeout = None;
      queue_limit = 32;
      queue = Queue.create ();
      cond = Condition.create ();
      watchers = [];
      copy_all = false;
      tap = false;
      timestamps = false;
      signal = None;
      is_open = true;
      dropped = 0;
      accepted = 0;
    }
  in
  insert_port t port;
  san_table_write t;
  invalidate_cache t;
  port

let close_port port =
  port.is_open <- false;
  port.dev.ports <- List.filter (fun p -> p.id <> port.id) port.dev.ports;
  san_table_write port.dev;
  invalidate_cache port.dev;
  (* Wake any blocked readers; they will notice the port is closed. *)
  ignore (Condition.broadcast port.cond () : int)

type install_error =
  | Invalid of Pf_filter.Validate.error
  | Cost_limit_exceeded of { bound : int; limit : int }

let pp_install_error ppf = function
  | Invalid e -> Pf_filter.Validate.pp_error ppf e
  | Cost_limit_exceeded { bound; limit } ->
    Format.fprintf ppf
      "filter cost bound %d exceeds the device admission limit %d" bound limit

let set_cost_limit t limit =
  t.cost_limit <- limit;
  invalidate_cache t

(* Installation = validation + abstract interpretation. The analysis result
   is recorded on the port: its cost bound gates admission (a filter the
   device provably cannot afford per packet is refused up front, not
   throttled later), and its verdict/relations feed the status surface. *)
let install port program =
  match Pf_filter.Validate.check program with
  | Error e -> Error (Invalid e)
  | Ok validated -> (
    let t = port.dev in
    (* Compile according to the device strategy. [`Regvm] additionally
       compiles the optimized IR for direct register execution on the
       sequential walk; the stack compilation is kept for admission and the
       status surface. *)
    let fast = Pf_filter.Fast.compile validated in
    let regvm, certification =
      match t.compile_strategy with
      | `Off ->
        (* identity compilation: trivially meaning-preserving *)
        (None, if t.certify then Some Pf_filter.Equiv.Certified else None)
      | `Regvm -> (
        let rvm = Pf_filter.Regvm.compile validated in
        let certification =
          if t.certify then
            Some
              (Pf_filter.Equiv.certification_of_report
                 (Pf_filter.Equiv.check_ir validated (Pf_filter.Regvm.ir rvm)))
          else None
        in
        match certification with
        | Some (Pf_filter.Equiv.Refuted _) ->
          (* A refuted IR compilation never runs: keep the checked stack
             engine for this port and surface the witness. *)
          (None, certification)
        | _ -> (Some rvm, certification))
    in
    let kind, compiled_insns =
      match regvm with
      | None -> (`Stack, Pf_filter.Program.insn_count program)
      | Some rvm -> (`Regvm, Pf_filter.Ir.instr_count (Pf_filter.Regvm.ir rvm))
    in
    (match certification with
    | None -> ()
    | Some Pf_filter.Equiv.Certified -> Stats.incr t.stats "pf.certify.proved"
    | Some (Pf_filter.Equiv.Refuted _) ->
      Stats.incr t.stats "pf.certify.refuted"
    | Some (Pf_filter.Equiv.Uncertified _) ->
      Stats.incr t.stats "pf.certify.unknown");
    (* Admission and the status surface use the analysis of the installed
       stack program. *)
    let analysis = Pf_filter.Fast.analysis fast in
    match t.cost_limit with
    | Some limit when analysis.Pf_filter.Analysis.cost_bound > limit ->
      Error
        (Cost_limit_exceeded
           { bound = analysis.Pf_filter.Analysis.cost_bound; limit })
    | _ ->
      (* "at a cost comparable to that of receiving a packet" (§3.1) *)
      charge (t.costs.Costs.syscall + Costs.copy_cost t.costs ~bytes:(2 * Pf_filter.Program.code_words program) + t.costs.Costs.recv_interrupt);
      port.filter <- Some fast;
      port.regvm <- regvm;
      port.engine_kind <- kind;
      port.engine_applications <- 0;
      port.engine_insns <- 0;
      port.insns_source <- Pf_filter.Program.insn_count program;
      port.insns_compiled <- compiled_insns;
      port.validated <- Some (Pf_filter.Fast.validated fast);
      port.analysis <- Some analysis;
      port.certification <- certification;
      reprioritize t port (Pf_filter.Program.priority program);
      san_table_write t;
      if not !For_testing.skip_install_invalidation then invalidate_cache t
      else begin
        (* The buggy kernel still mutated the acceptor set — the protocol
           checker must learn the epoch advanced even though no CPU will
           ever sync to it. That is precisely what lets Pfsan flag this
           mutant from the trace alone. *)
        match t.san with
        | Some h -> San.publish h.checker ~cpu:0 h.res_table
        | None -> ()
      end;
      Ok analysis)

let set_filter port program =
  match install port program with Ok _ -> Ok () | Error _ as e -> e

let port_analysis port = port.analysis
let port_certification port = port.certification
let port_id port = port.id
let port_accepted port = port.accepted
let port_dropped port = port.dropped

let set_priority port priority =
  reprioritize port.dev port priority;
  san_table_write port.dev;
  invalidate_cache port.dev

(* The public tag sets are wider than the engines that remain: the removed
   tags are refused, naming their replacement, before anything changes. *)
let set_strategy t strategy =
  t.strategy <-
    (match strategy with
    | (`Sequential | `Dispatch) as s -> s
    | `Decision_tree ->
      invalid_arg "Pfdev.set_strategy: `Decision_tree was removed; use `Dispatch");
  invalidate_cache t

(* The compile strategy applies to future installs only: already-installed
   filters keep the engine they were compiled with (like a real driver,
   where recompiling under the caller's feet would need locking). Verdicts
   are engine-independent, so cached decisions stay sound; we still flush
   defensively since per-port cost accounting changes. *)
let set_compile_strategy t strategy =
  let strategy =
    match strategy with
    | (`Off | `Regvm) as s -> s
    | `Raise_only ->
      invalid_arg
        "Pfdev.set_compile_strategy: `Raise_only was removed; use `Off or `Regvm"
    | `Regvm_super ->
      invalid_arg
        "Pfdev.set_compile_strategy: `Regvm_super was removed; use `Regvm \
         (pftool superopt runs the superoptimizer offline)"
  in
  if t.compile_strategy <> strategy then begin
    t.compile_strategy <- strategy;
    invalidate_cache t
  end

let compile_strategy t = t.compile_strategy

let set_certify t certify = t.certify <- certify
let certify t = t.certify

type engine_stats = {
  engine : [ `Stack | `Regvm ];
  applications : int;
  insns_executed : int;
  insns_source : int;
  insns_compiled : int;
}

let port_engine_stats port =
  match port.filter with
  | None -> None
  | Some _ ->
    Some
      {
        engine = port.engine_kind;
        applications = port.engine_applications;
        insns_executed = port.engine_insns;
        insns_source = port.insns_source;
        insns_compiled = port.insns_compiled;
      }

let set_timeout port timeout = port.timeout <- timeout
let set_queue_limit port n = port.queue_limit <- max 1 n
let set_copy_all port flag =
  port.copy_all <- flag;
  invalidate_cache port.dev
let set_tap port flag =
  port.tap <- flag;
  invalidate_cache port.dev
let set_timestamps port flag = port.timestamps <- flag
let set_signal port cb = port.signal <- cb

(* {1 Flow-cache control and observability} *)

let set_cache_enabled t flag =
  if t.cache_enabled <> flag then begin
    t.cache_enabled <- flag;
    invalidate_cache t
  end

let set_cache_capacity t n =
  t.cache_capacity <- max 1 n;
  invalidate_cache t

type cache_stats = {
  enabled : bool;
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  bypasses : int;
  invalidations : int;
  evictions : int;
}

(* Aggregated over every CPU's private cache. [capacity] is per CPU;
   [invalidations] counts flush events per cache, so at N CPUs each
   device-level invalidation contributes N (and at one CPU this is exactly
   the legacy count). *)
let cache_stats t =
  let entries = ref 0
  and hits = ref 0
  and misses = ref 0
  and bypasses = ref 0
  and invalidations = ref 0
  and evictions = ref 0 in
  Array.iter
    (fun c ->
      entries := !entries + Hashtbl.length c.table;
      hits := !hits + c.hits;
      misses := !misses + c.misses;
      bypasses := !bypasses + c.bypasses;
      invalidations := !invalidations + c.invalidations;
      evictions := !evictions + c.evictions)
    t.caches;
  {
    enabled = t.cache_enabled;
    entries = !entries;
    capacity = t.cache_capacity;
    hits = !hits;
    misses = !misses;
    bypasses = !bypasses;
    invalidations = !invalidations;
    evictions = !evictions;
  }

type dispatch_stats = {
  rebuilds : int;
  classifies : int;
  exact_accepts : int;
  candidates_run : int;
  residual_runs : int;
}

let dispatch_stats t =
  {
    rebuilds = t.dispatch_rebuilds;
    classifies = t.dispatch_classifies;
    exact_accepts = t.dispatch_exact_accepts;
    candidates_run = t.dispatch_candidates;
    residual_runs = t.dispatch_residual_runs;
  }

let pp_dispatch_stats ppf s =
  Format.fprintf ppf
    "dispatch: %d rebuilds, %d classifies, %d exact accepts, %d candidates run, %d residual runs"
    s.rebuilds s.classifies s.exact_accepts s.candidates_run s.residual_runs

let pp_cache_stats ppf s =
  Format.fprintf ppf
    "flow cache: %s, %d/%d entries, %d hits / %d misses / %d bypasses, %d invalidations, %d evictions"
    (if s.enabled then "enabled" else "disabled")
    s.entries s.capacity s.hits s.misses s.bypasses s.invalidations s.evictions

(* {1 Kernel side} *)

let enqueue port capture =
  if Queue.length port.queue >= port.queue_limit then begin
    port.dropped <- port.dropped + 1;
    Stats.incr port.dev.stats "pf.drop.overflow"
  end
  else begin
    Queue.push capture port.queue;
    ignore (Condition.signal port.cond () : bool);
    (match port.signal with Some f -> f () | None -> ());
    match port.watchers with
    | [] -> ()
    | watchers ->
      port.watchers <- [];
      List.iter (fun deliver -> ignore (deliver () : bool)) watchers
  end

(* The whole-port-set dispatch automaton. Copy-all and tap ports are
   excluded from indexing (their multi-delivery cannot be expressed by a
   first-match winner) and fall to the rank-ordered residual walk, which
   [demux] merges with the automaton winner by rank. *)
let dispatch_of t cpu =
  match t.dispatch.(cpu) with
  | Dispatch_built d -> d
  | Dispatch_dirty ->
    let entries =
      List.filter_map
        (fun p ->
          match p.validated with
          | Some v when p.is_open -> Some (v, p)
          | Some _ | None -> None)
        t.ports
    in
    let d =
      Pf_filter.Dispatch.build
        ~indexable:(fun p -> (not p.copy_all) && not p.tap)
        entries
    in
    t.dispatch.(cpu) <- Dispatch_built d;
    t.dispatch_rebuilds <- t.dispatch_rebuilds + 1;
    Stats.incr t.stats "pf.dispatch.rebuild";
    d

(* Recompute the union read set of every installed filter. A port with no
   filter accepts nothing and reads nothing, so it does not constrain the
   key; any filter with an unbounded read set makes the cache unusable
   until the next invalidation changes the filter set. *)
let refresh_key_state t =
  let rec union acc = function
    | [] -> t.key_state <- Offsets (Array.of_list (List.sort_uniq compare acc))
    | p :: rest -> (
      match p.analysis with
      | None -> union acc rest
      | Some a -> (
        match a.Pf_filter.Analysis.read_set with
        | Pf_filter.Analysis.Unbounded -> t.key_state <- Unusable
        | Pf_filter.Analysis.Exact idxs -> union (idxs @ acc) rest))
  in
  union [] t.ports

(* The cache key: for each union-read-set offset, a presence marker plus the
   big-endian word bytes — absence is part of the key because a too-short
   packet faults (rejecting) where a longer one reads a value. *)
let cache_key offsets frame =
  let buf = Buffer.create (3 * Array.length offsets) in
  Array.iter
    (fun i ->
      match Packet.word_opt frame i with
      | Some w ->
        Buffer.add_char buf '\001';
        Buffer.add_char buf (Char.chr (w lsr 8));
        Buffer.add_char buf (Char.chr (w land 0xff))
      | None -> Buffer.add_char buf '\000')
    offsets;
  Buffer.contents buf

(* Receive-side steering: hash the packet bytes at the union read set — the
   same bytes the flow cache keys on — to pick the receive CPU. Two packets
   of one flow agree on every read-set word, so they always steer to the
   same CPU, and each CPU's flow cache and dispatch automaton stay private
   to its shard of the flow space. When the key is unusable (some installed
   filter's read set is unbounded) or empty, everything lands on CPU 0.
   Steering charges no CPU time: it models the NIC's receive hashing
   hardware, not kernel work. *)
let steer t frame =
  let n = Smp.ncpus t.smp in
  if n = 1 then 0
  else begin
    if t.key_state = Dirty then refresh_key_state t;
    match t.key_state with
    | Dirty -> assert false
    | Unusable -> 0
    | Offsets [||] -> 0
    | Offsets offsets -> Hashtbl.hash (cache_key offsets frame) mod n
  end

type smp_cpu_stats = {
  cpu : int;
  packets : int;
  cache_hits : int;
  cache_misses : int;
  lock_waits : int;
  lock_wait_us : int;
  ipis_sent : int;
  ipis_received : int;
  busy_us : int;
  idle_us : int;
}

type smp_stats = {
  ncpus : int;
  per_cpu : smp_cpu_stats list;
  lock_acquisitions : int;
  lock_contended : int;
  lock_wait_total_us : int;
  ipis : int;
}

let smp_stats (t : t) =
  let now = Engine.now t.engine in
  let per_cpu =
    List.init (Smp.ncpus t.smp) (fun k ->
        let c = t.caches.(k) in
        let cpu_k = Smp.cpu t.smp k in
        {
          cpu = k;
          packets = t.smp_packets.(k);
          cache_hits = c.hits;
          cache_misses = c.misses;
          lock_waits = t.smp_lock_waits.(k);
          lock_wait_us = t.smp_lock_wait_us.(k);
          ipis_sent = Smp.ipis_sent t.smp k;
          ipis_received = Smp.ipis_received t.smp k;
          busy_us = Cpu.busy_time cpu_k;
          idle_us = Cpu.idle_since cpu_k ~start:0 ~now;
        })
  in
  {
    ncpus = Smp.ncpus t.smp;
    per_cpu;
    lock_acquisitions = Smp.Lock.acquisitions t.delivery_lock;
    lock_contended = Smp.Lock.contended t.delivery_lock;
    lock_wait_total_us = Smp.Lock.wait_time t.delivery_lock;
    ipis = Smp.total_ipis t.smp;
  }

let pp_smp_cpu_stats ppf s =
  Format.fprintf ppf
    "cpu%d: %d packets, %d hits / %d misses, %d lock waits (%d us), %d/%d ipis sent/recv, %d us busy / %d us idle"
    s.cpu s.packets s.cache_hits s.cache_misses s.lock_waits s.lock_wait_us
    s.ipis_sent s.ipis_received s.busy_us s.idle_us

let pp_smp_stats ppf s =
  Format.fprintf ppf
    "smp: %d cpus, %d lock acquisitions (%d contended, %d us spinning), %d ipis"
    s.ncpus s.lock_acquisitions s.lock_contended s.lock_wait_total_us s.ipis;
  List.iter (fun c -> Format.fprintf ppf "@\n  %a" pp_smp_cpu_stats c) s.per_cpu

let demux t ?(cpu = 0) ?(kernel_claimed = false) frame =
  let costs = t.costs in
  let n = Smp.ncpus t.smp in
  if cpu < 0 || cpu >= n then invalid_arg "Pfdev.demux: no such CPU";
  Stats.incr t.stats "pf.packets";
  t.smp_packets.(cpu) <- t.smp_packets.(cpu) + 1;
  if n > 1 then Stats.incr t.stats (Printf.sprintf "pf.smp.cpu%d.packets" cpu);
  let arrival = Engine.now t.engine in
  let cpu_cost = ref 0 in
  let c = t.caches.(cpu) in
  (* Sanitizer instrumentation. Each instrumented access is a real shadow
     bookkeeping step on the demuxing CPU, charged at [san_access] — that
     charge is what `bench smp --san` measures as overhead. Without an
     attached sanitizer every branch below is dead and free. *)
  (match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_statword.(cpu);
    San.read h.checker ~cpu h.res_table;
    cpu_cost := !cpu_cost + (2 * costs.Costs.san_access)
  | None -> ());
  (* Probe this CPU's flow cache before any filter interpretation.
     Kernel-claimed packets bypass it: they see a different port subset
     (taps only), so caching their decisions under the same key would be
     unsound. *)
  let probe =
    if not t.cache_enabled then `Off
    else if kernel_claimed then begin
      c.bypasses <- c.bypasses + 1;
      Stats.incr t.stats "pf.cache.bypass";
      `Off
    end
    else begin
      if t.key_state = Dirty then refresh_key_state t;
      match t.key_state with
      | Dirty -> assert false
      | Unusable ->
        c.bypasses <- c.bypasses + 1;
        Stats.incr t.stats "pf.cache.bypass";
        `Off
      | Offsets offsets -> (
        let key = cache_key offsets frame in
        cpu_cost :=
          !cpu_cost + costs.Costs.cache_probe
          + (Array.length offsets * costs.Costs.cache_hash_word);
        (match t.san with
        | Some h ->
          San.read h.checker ~cpu h.res_cache.(cpu);
          cpu_cost := !cpu_cost + costs.Costs.san_access
        | None -> ());
        match Hashtbl.find_opt c.table key with
        | Some acceptors ->
          (match t.san with
          | Some h -> San.note_hit h.checker ~cpu h.res_cache.(cpu) ~key
          | None -> ());
          `Hit acceptors
        | None -> `Miss (key, c.generation))
    end
  in
  let acceptors =
    match probe with
    | `Hit acceptors ->
      c.hits <- c.hits + 1;
      Stats.incr t.stats "pf.cache.hit";
      List.iter
        (fun port ->
          port.accepted <- port.accepted + 1;
          if port.timestamps then cpu_cost := !cpu_cost + costs.Costs.timestamp)
        acceptors;
      acceptors
    | (`Miss _ | `Off) as probe ->
      (* Busier-first reordering only matters (and only makes sense) for the
         sequential strategy; the automaton is keyed on guards, not
         position. *)
      if t.strategy = `Sequential then maybe_reorder ~cpu t;
      let acceptors = ref [] in
      let run_port_filter port =
        Stats.incr t.stats "pf.filters_tested";
        let ok, insns =
          match port.regvm with
          | Some rvm ->
            cpu_cost := !cpu_cost + costs.Costs.regvm_apply;
            let ok, insns = Pf_filter.Regvm.run_counted rvm frame in
            cpu_cost := !cpu_cost + (insns * costs.Costs.regvm_insn);
            Stats.incr ~by:insns t.stats "pf.regvm_insns";
            (ok, insns)
          | None ->
            let filter = Option.get port.filter in
            cpu_cost := !cpu_cost + costs.Costs.filter_apply;
            let ok, insns = Pf_filter.Fast.run_counted filter frame in
            cpu_cost := !cpu_cost + (insns * costs.Costs.filter_insn);
            (ok, insns)
        in
        Stats.incr ~by:insns t.stats "pf.filter_insns";
        port.engine_applications <- port.engine_applications + 1;
        port.engine_insns <- port.engine_insns + insns;
        ok
      in
      let accept port =
        port.accepted <- port.accepted + 1;
        if port.timestamps then cpu_cost := !cpu_cost + costs.Costs.timestamp;
        acceptors := port :: !acceptors
      in
      let rec apply = function
        | [] -> ()
        | port :: rest ->
          if (not port.is_open) || port.filter = None || (kernel_claimed && not port.tap)
          then apply rest
          else if run_port_filter port then begin
            accept port;
            (* Stop unless this filter asked for copies to lower priorities. *)
            if port.copy_all then apply rest
          end
          else apply rest
      in
      if t.strategy = `Dispatch && not kernel_claimed then begin
        (* Automaton classification, then the residual walk merged by rank:
           walk residual ports of lower rank than the automaton winner (a
           residual may outrank it, or be copy-all and accept additionally);
           once every remaining residual ranks past the winner, the winner —
           always non-copy-all — takes the packet and stops the walk, exactly
           where the sequential walk would have stopped. *)
        let d = dispatch_of t cpu in
        (match t.san with
        | Some h ->
          San.read h.checker ~cpu h.res_dispatch.(cpu);
          cpu_cost := !cpu_cost + costs.Costs.san_access
        | None -> ());
        t.dispatch_classifies <- t.dispatch_classifies + 1;
        Stats.incr t.stats "pf.dispatch.classify";
        let winner, dstats =
          Pf_filter.Dispatch.classify
            ~on_run:(fun port ~insns ->
              Stats.incr t.stats "pf.filters_tested";
              Stats.incr ~by:insns t.stats "pf.filter_insns";
              port.engine_applications <- port.engine_applications + 1;
              port.engine_insns <- port.engine_insns + insns)
            d frame
        in
        cpu_cost :=
          !cpu_cost
          + (dstats.Pf_filter.Dispatch.probes * costs.Costs.dispatch_probe)
          + (dstats.Pf_filter.Dispatch.hash_words * costs.Costs.dispatch_hash_word)
          + (dstats.Pf_filter.Dispatch.candidates_run * costs.Costs.filter_apply)
          + (dstats.Pf_filter.Dispatch.insns * costs.Costs.filter_insn);
        t.dispatch_exact_accepts <-
          t.dispatch_exact_accepts + dstats.Pf_filter.Dispatch.exact_accepts;
        t.dispatch_candidates <-
          t.dispatch_candidates + dstats.Pf_filter.Dispatch.candidates_run;
        if dstats.Pf_filter.Dispatch.exact_accepts > 0 then
          Stats.incr t.stats "pf.dispatch.exact_accept";
        let winner_rank = match winner with Some (r, _) -> r | None -> max_int in
        let deliver_winner () =
          match winner with Some (_, port) -> accept port | None -> ()
        in
        let rec walk = function
          | [] -> deliver_winner ()
          | (rank, port) :: rest ->
            if rank > winner_rank then deliver_winner ()
            else if (not port.is_open) || port.filter = None then walk rest
            else begin
              t.dispatch_residual_runs <- t.dispatch_residual_runs + 1;
              Stats.incr t.stats "pf.dispatch.residual_run";
              if run_port_filter port then begin
                accept port;
                if port.copy_all then walk rest
              end
              else walk rest
            end
        in
        walk (Pf_filter.Dispatch.residuals d)
      end
      else apply t.ports;
      let acceptors = List.rev !acceptors in
      (match probe with
      | `Miss (key, generation) when generation = c.generation ->
        (* Store the decision unless something (e.g. a busier-first reorder
           during this very walk) invalidated the cache after the key was
           computed under the old read set. *)
        c.misses <- c.misses + 1;
        Stats.incr t.stats "pf.cache.miss";
        cpu_cost := !cpu_cost + costs.Costs.cache_probe (* insert *);
        if Hashtbl.length c.table >= t.cache_capacity then (
          match Queue.take_opt c.fifo with
          | Some victim ->
            Hashtbl.remove c.table victim;
            c.evictions <- c.evictions + 1;
            Stats.incr t.stats "pf.cache.eviction"
          | None -> ());
        Hashtbl.replace c.table key acceptors;
        Queue.push key c.fifo;
        (match t.san with
        | Some h ->
          San.write h.checker ~cpu h.res_cache.(cpu);
          San.note_store h.checker ~cpu h.res_cache.(cpu) ~key;
          cpu_cost := !cpu_cost + costs.Costs.san_access
        | None -> ())
      | `Miss _ ->
        c.misses <- c.misses + 1;
        Stats.incr t.stats "pf.cache.miss"
      | `Off -> ());
      acceptors
  in
  let accepted = acceptors <> [] in
  if accepted then Stats.incr t.stats "pf.accepted"
  else if not kernel_claimed then Stats.incr t.stats "pf.drop.nomatch";
  (* The filter interpretation and bookkeeping happen at interrupt level;
     delivery (queueing + reader wakeup) completes when that CPU work
     retires. On an SMP device delivery mutates shared port queues, so it
     runs under the costed delivery spinlock; classification itself touches
     only this CPU's private cache and automaton and needs no lock. The
     split into two interrupt-owner runs is cost-neutral on one CPU (no
     context switch is ever charged between them), which is what keeps the
     single-CPU SMP path byte-identical to the legacy accounting. *)
  let wake = if accepted then costs.Costs.wakeup else 0 in
  let cpu_exec = Smp.cpu t.smp cpu in
  let classify_done =
    Cpu.run cpu_exec ~owner:`Interrupt ~start:arrival ~cost:!cpu_cost
  in
  let finish =
    if not accepted then classify_done
    else begin
      let deliver_cost = ref wake in
      let san_queue_write () =
        match t.san with
        | Some h ->
          San.write h.checker ~cpu h.res_queue;
          deliver_cost := !deliver_cost + costs.Costs.san_access
        | None -> ()
      in
      if n > 1 then
        if !For_testing.skip_delivery_lock then
          (* The seeded bug: the shared-queue insert runs bare. Verdicts
             and queue contents are identical (the engine serializes demux
             events), so only the sanitizer's lockset can see this. *)
          san_queue_write ()
        else begin
          (* The lock covers only the queue insert (the [lock_acquire]
             charge); the scheduler wakeup runs after release — holding a
             spinlock across a wakeup would serialize the whole complex. *)
          let wait =
            Smp.Lock.acquire ~cpu t.delivery_lock ~start:classify_done ~hold:0
          in
          deliver_cost := !deliver_cost + wait + costs.Costs.lock_acquire;
          Stats.incr t.stats "pf.smp.lock_acquire";
          if wait > 0 then begin
            t.smp_lock_waits.(cpu) <- t.smp_lock_waits.(cpu) + 1;
            t.smp_lock_wait_us.(cpu) <- t.smp_lock_wait_us.(cpu) + wait;
            Stats.incr t.stats "pf.smp.lock_contended";
            Stats.incr ~by:wait t.stats "pf.smp.lock_wait_us"
          end;
          san_queue_write ();
          Smp.Lock.release t.delivery_lock ~cpu
        end
      else
        (* Single CPU: the legacy lock-free delivery. The instrumented
           write keeps the queue resource in the sanitizer's Exclusive
           state, so a 1-CPU campaign can never report on it. *)
        san_queue_write ();
      cpu_cost := !cpu_cost + !deliver_cost;
      Cpu.run cpu_exec ~owner:`Interrupt ~start:classify_done ~cost:!deliver_cost
    end
  in
  Stats.incr ~by:!cpu_cost t.stats "pf.demux_cpu_us";
  if accepted then
    Engine.schedule t.engine ~at:finish (fun () ->
        List.iter
          (fun port ->
            let timestamp = if port.timestamps then Some arrival else None in
            enqueue port { packet = frame; timestamp; dropped_before = port.dropped })
          acceptors);
  accepted

(* {1 User side} *)

let copy_out_cost port bytes = Costs.copy_cost port.dev.costs ~bytes

(* User-side dequeue. On a multi-CPU device the port queues are shared with
   every demuxing CPU, so the reading process (on the boot CPU) takes the
   delivery lock around the dequeue; the single-CPU device keeps the legacy
   lock-free path and its exact cost accounting. *)
let locked_dequeue port =
  let t = port.dev in
  if Smp.ncpus t.smp > 1 then begin
    (* The spin starts when the reader can run, not at [now]: CPU 0's
       interrupt backlog is charged by [Process.use_cpu] queueing behind it,
       so counting it as spin too would charge it twice. *)
    let start = max (Engine.now t.engine) (Cpu.busy_until (Smp.cpu t.smp 0)) in
    let wait = Smp.Lock.acquire ~cpu:0 t.delivery_lock ~start ~hold:0 in
    Process.use_cpu (wait + t.costs.Costs.lock_acquire);
    Stats.incr t.stats "pf.smp.lock_acquire";
    let capture = Queue.take_opt port.queue in
    (match t.san with
    | Some h -> San.write h.checker ~cpu:0 h.res_queue
    | None -> ());
    Smp.Lock.release t.delivery_lock ~cpu:0;
    capture
  end
  else Queue.take_opt port.queue

let rec read_blocking port =
  match locked_dequeue port with
  | Some capture ->
    let copy = copy_out_cost port (Packet.length capture.packet) in
    Process.use_cpu copy;
    Stats.incr ~by:copy port.dev.stats "pf.copy_cpu_us";
    Stats.incr port.dev.stats "pf.reads.delivered";
    Some capture
  | None ->
    if not port.is_open then None
    else begin
      match Condition.await ?timeout:port.timeout port.cond with
      | Some () -> read_blocking port
      | None -> None (* "the read call terminates and reports an error" *)
    end

let read port =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.incr port.dev.stats "pf.syscalls";
  read_blocking port

(* Copy out exactly the packets that were pending when the system call ran —
   not a live tail of later arrivals, which could otherwise keep a busy
   reader inside one read forever. *)
let rec drain port acc remaining =
  if remaining = 0 then List.rev acc
  else begin
    match locked_dequeue port with
    | Some capture ->
      let copy = copy_out_cost port (Packet.length capture.packet) in
      Process.use_cpu copy;
      Stats.incr ~by:copy port.dev.stats "pf.copy_cpu_us";
      Stats.incr port.dev.stats "pf.reads.delivered";
      drain port (capture :: acc) (remaining - 1)
    | None -> List.rev acc
  end

let rec read_batch_blocking port =
  let pending = Queue.length port.queue in
  if pending > 0 then drain port [] pending
  else if not port.is_open then []
  else begin
    match Condition.await ?timeout:port.timeout port.cond with
    | Some () -> read_batch_blocking port
    | None -> []
  end

let read_batch port =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.incr port.dev.stats "pf.syscalls";
  read_batch_blocking port

let write_one port frame =
  let t = port.dev in
  let bytes = Packet.length frame in
  Process.use_cpu
    (Costs.copy_cost t.costs ~bytes
    + t.costs.Costs.send_path
    + (t.costs.Costs.send_per_kbyte * bytes / 1024));
  Stats.incr t.stats "pf.writes";
  t.send frame

let write port frame =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.incr port.dev.stats "pf.syscalls";
  write_one port frame

let write_batch port frames =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.incr port.dev.stats "pf.syscalls";
  List.iter (write_one port) frames

let poll port = Queue.length port.queue

let select ?timeout ports =
  (match ports with
  | [] -> invalid_arg "Pfdev.select: no ports"
  | port :: _ -> Process.use_cpu port.dev.costs.Costs.syscall);
  let ready () = List.filter (fun p -> not (Queue.is_empty p.queue)) ports in
  match ready () with
  | _ :: _ as r -> r
  | [] -> (
    let wait =
      Process.suspend ?timeout (fun deliver ->
          List.iter (fun p -> p.watchers <- deliver :: p.watchers) ports)
    in
    match wait with Some () -> ready () | None -> [])

(* {1 Status} *)

type status = {
  variant : Frame.variant;
  header_length : int;
  address_length : int;
  mtu : int;
  address : Addr.t;
  broadcast : Addr.t;
}

let status (t : t) =
  {
    variant = t.variant;
    header_length = Frame.header_length t.variant;
    address_length = (match t.variant with Frame.Exp3 -> 1 | Frame.Dix10 -> 6);
    mtu = Frame.max_payload t.variant;
    address = t.address;
    broadcast =
      (match t.variant with
      | Frame.Exp3 -> Addr.broadcast_exp
      | Frame.Dix10 -> Addr.broadcast_eth);
  }

let active_ports t = List.length (List.filter (fun p -> p.filter <> None) t.ports)

(* Installed-filter relations, the pseudodevice's analysis status surface:
   which filters can never both accept (safe to reorder within a priority),
   and which ports are dead weight because a higher-priority filter already
   accepts everything they would (and, not being copy-all, consumes it). *)

let filtered_ports t =
  List.filter_map
    (fun p ->
      match p.validated with
      | Some v when p.is_open -> Some (p, v)
      | Some _ | None -> None)
    t.ports

let filter_relations t =
  let rec pairs = function
    | [] -> []
    | (p, v) :: rest ->
      List.map (fun (q, w) -> (p.id, q.id, Pf_filter.Analysis.relate v w)) rest
      @ pairs rest
  in
  pairs (filtered_ports t)

let shadowed_ports t =
  let active = filtered_ports t in
  List.filter_map
    (fun (p, v) ->
      let shadow =
        List.find_opt
          (fun (q, w) ->
            q.priority > p.priority
            && (not q.copy_all)
            &&
            match Pf_filter.Analysis.relate w v with
            | Pf_filter.Analysis.Subsumes | Pf_filter.Analysis.Equivalent -> true
            | _ -> false)
          active
      in
      Option.map (fun (q, _) -> (p, q)) shadow)
    active
