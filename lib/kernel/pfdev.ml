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

(* Handles on every counter the receive, read and write paths bump in the
   host's [Stats] (per packet, per filter run, per read or write), resolved
   once when the device is created: those paths neither hash a counter name
   nor allocate. The flow-cache, dispatch and SMP counts have their one home
   in this device's records ([cache_stats], [dispatch_stats], [smp_stats]),
   not in [Stats], which a host shares across its interfaces. [Stats.incr]
   by name stays on the cold path: certification. *)
module Counters = struct
  type t = {
    packets : Stats.counter;
    filters_tested : Stats.counter;
    filter_insns : Stats.counter;
    regvm_insns : Stats.counter;
    accepted : Stats.counter;
    drop_nomatch : Stats.counter;
    drop_overflow : Stats.counter;
    demux_cpu_us : Stats.counter;
    copy_cpu_us : Stats.counter;
    reads_delivered : Stats.counter;
    syscalls : Stats.counter;
    writes : Stats.counter;
  }

  let resolve stats =
    let c = Stats.counter stats in
    {
      packets = c "pf.packets";
      filters_tested = c "pf.filters_tested";
      filter_insns = c "pf.filter_insns";
      regvm_insns = c "pf.regvm_insns";
      accepted = c "pf.accepted";
      drop_nomatch = c "pf.drop.nomatch";
      drop_overflow = c "pf.drop.overflow";
      demux_cpu_us = c "pf.demux_cpu_us";
      copy_cpu_us = c "pf.copy_cpu_us";
      reads_delivered = c "pf.reads.delivered";
      syscalls = c "pf.syscalls";
      writes = c "pf.writes";
    }
end

type capture = {
  packet : Packet.t;
  timestamp : Pf_sim.Time.t option;
  dropped_before : int;
}

type port = {
  dev : t;
  id : int;
  mutable filter : Pf_filter.Fast.t option;
      (* the installed program's stack compilation, which also holds its
         analysis *)
  mutable compiled : (Pf_filter.Regvm.t option * Pf_filter.Equiv.certification option) Lazy.t;
      (* [compile]'s engine, which the walks run instead of [filter] when
         set, and certification outcome (None under [`Off] or when not
         certifying) *)
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
  ctr : Counters.t;
  variant : Frame.variant;
  address : Addr.t;
  send : Packet.t -> unit;
  mutable walk : port array;
      (* the open ports in [0, count), in walk order: priority desc, then id
         asc, until a busier-first reorder; only [enter], [leave] and
         [sort_walk] write it *)
  mutable ranks : int array; (* [ranks.(i)] is [rank_of walk.(i)] *)
  mutable count : int;
  open_at : int array; (* open ports per priority *)
  top_id : int array; (* per priority, a bound on the open ports' ids *)
  mutable next_id : int;
  mutable demuxed_since_reorder : int;
  mutable compile_strategy : [ `Off | `Regvm ];
  mutable certify : bool; (* translation-validate install-time compilation *)
  mutable dispatch : port Pf_filter.Dispatch.t option;
      (* present exactly under the [`Dispatch] strategy *)
  mutable dispatch_rebuilds : int;
  mutable dispatch_updates : int;
  mutable dispatch_classifies : int;
  mutable dispatch_exact_accepts : int;
  mutable dispatch_candidates : int;
  mutable dispatch_residual_runs : int;
  mutable demux_cost : Pf_sim.Time.t;
      (* the CPU charge of the packet being demuxed: [demux] runs to
         completion inside one engine event and never re-enters itself *)
  mutable demux_timestamped : bool; (* whether an acceptor of that packet took a timestamp *)
  mutable cache_enabled : bool;
  mutable cache_pays : bool;
      (* whether a hit could be cheaper than classifying; set by [publish] *)
  mutable generation : int;
      (* bumped by every publication: each CPU compares its cache's against
         it at the start of its demux ([catch_up]) *)
  mutable invalidated : int;
      (* the generation of the latest full invalidation: a CPU whose cache
         predates it flushes when it catches up *)
  mutable tail_generation : int; (* bumped by an install in the walk's last slot *)
  key : flow_key; (* shared: maintained with the port table *)
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
  res_table : San.resource; (* the port/filter table, published by generation *)
  res_cache : San.resource array; (* per-CPU private flow caches *)
  res_statword : San.resource array; (* per-CPU demux counters *)
}

(* The demultiplexing flow cache: a bounded table from the packet bytes at
   the installed filters' union read set to the list of accepting ports.
   Soundness rests on {!Pf_filter.Analysis.t.read_set}: two packets that
   agree on every read-set word (including which of those words exist) get
   the same verdict from every installed filter, so the cached acceptor
   list is exactly what the ordered walk (or the dispatch automaton) would
   have produced — as long as no port-table change since the entry was
   stored could alter it, which is what the invalidation scopes guarantee
   ([mutate]). On an SMP device there is one cache per CPU — receive
   steering sends every packet of a flow to the same CPU, so the caches
   shard the flow space with no cross-CPU traffic — and a full
   invalidation reaches the other CPUs through the device generation,
   which each checks at the start of its own demux: no interprocessor
   interrupt is sent. *)
and flow_cache = {
  buckets : entry array;
      (* chains of entries by their key's hash ([chain]): an entry is its
         own chain node, so a hit reaches the acceptors with no load beyond
         the chain walk *)
  mutable size : int; (* entries stored *)
  fifo : entry Queue.t; (* every stored entry, oldest first, for capacity eviction *)
  mutable synced : int; (* the device generation this CPU caught up to *)
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

(* A cached decision. An entry whose walk ran off the end of the port table
   (no acceptor, or a copy-all last one) is a tail entry: an install in the
   walk's last slot could add an acceptor to it. *)
and entry = {
  key_bytes : Bytes.t; (* a copy of the key it was stored under *)
  mutable acceptors : port list; (* in walk order *)
  mutable tail : int;
      (* a tail entry's tail generation at its store; [stopped] for an entry
         whose walk stopped at an acceptor; [emptied] once a close on this
         CPU took its acceptors out *)
  mutable next : entry; (* the next of its chain; [no_entry] ends it *)
}

(* The flow key: the union read set of the filters in the port table,
   counted per word as ports enter and leave the table ([enter], [leave]).
   A packet is keyed by writing its words into a scratch buffer, so keying
   allocates nothing. *)
and flow_key = {
  mutable readers : int array;
      (* by word index: ports whose filter reads it; grown to the highest
         word a filter has read *)
  mutable unbounded : int; (* ports whose filter's read set is Unbounded *)
  mutable offsets : int array; (* the words with a reader, ascending *)
  mutable scratch : Bytes.t array;
      (* [scratch.(p)]: the key of a packet holding the first [p] offsets —
         a presence byte and the big-endian word for each of them, then one
         zero byte per absent offset; every byte but the words is fixed *)
}

(* Entries per CPU's cache; a miss stored beyond it evicts the oldest. *)
let cache_capacity = 256

(* The [tail] of an entry that is not a tail entry, and of one a close
   emptied; tail generations count up from 0. *)
let stopped = -1
let emptied = -2

(* Chains per CPU's cache: a power of two, twice the capacity. *)
let cache_buckets = 512

(* The end of every chain, and what a probe that finds nothing returns; it
   is never stored or written. *)
let rec no_entry = { key_bytes = Bytes.empty; acceptors = []; tail = emptied; next = no_entry }

let fresh_cache () =
  {
    buckets = Array.make cache_buckets no_entry;
    size = 0;
    fifo = Queue.create ();
    synced = 0;
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
    ctr = Counters.resolve stats;
    variant;
    address;
    send;
    walk = [||];
    ranks = [||];
    count = 0;
    open_at = Array.make 256 0;
    top_id = Array.make 256 0;
    next_id = 0;
    demuxed_since_reorder = 0;
    compile_strategy = `Off;
    certify = false;
    dispatch = None;
    dispatch_rebuilds = 0;
    dispatch_updates = 0;
    dispatch_classifies = 0;
    dispatch_exact_accepts = 0;
    dispatch_candidates = 0;
    dispatch_residual_runs = 0;
    demux_cost = 0;
    demux_timestamped = false;
    cache_enabled = true;
    cache_pays = true;
    generation = 0;
    invalidated = 0;
    tail_generation = 0;
    key = { readers = [||]; unbounded = 0; offsets = [||]; scratch = [| Bytes.empty |] };
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
  (* When set, every port mutation (open, close, install, priority,
     copy-all, tap) still publishes but invalidates nothing: no generation
     mark, no tail bump, no local purge — the "forgot to invalidate" kernel
     bug. The differential suite flips this to prove the cold/warm/disabled
     demux oracle catches stale entries; never set it outside tests. *)
  let skip_install_invalidation = ref false

  (* When set, a full invalidation flushes the mutating CPU's flow cache,
     but the device generation does not advance, so no other CPU catches up
     — the SMP variant of the same bug: a kernel that forgot the other CPUs
     exist. Remote caches keep answering from entries stored under the old
     filter set. The differential suite flips this to prove the oracle
     catches stale remote decisions. *)
  let skip_remote_invalidation = ref false

  (* When set, the demux delivery path inserts into the shared port queues
     without taking the delivery lock — the skip-lock-around-queue-insert
     bug. The lock is pure cost accounting to the differential oracle
     (verdicts never change), so only the concurrency sanitizer can catch
     this one: the delivery queue's candidate lockset goes empty as soon as
     two CPUs both deliver. *)
  let skip_delivery_lock = ref false

  let pending_watchers port = List.length port.watchers

  let flow_key t =
    if t.key.unbounded > 0 then Pf_filter.Analysis.Unbounded
    else Pf_filter.Analysis.Exact (Array.to_list t.key.offsets)

  let walk_order t = List.init t.count (Array.get t.walk)
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
  San.declare_site san ~site:"Pfdev.demux:dispatch" ~ctx:San.Any_cpu ~locks:[]
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
      San.declare_site san ~site:"Pfdev.demux:counters" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_statword;
  t.san <-
    Some { checker = san; res_queue; res_table; res_cache; res_statword }

(* A hit costs a probe and the key's hashed words. While the automaton
   decides every packet alone for no more than that, a hit saves nothing
   and a miss adds a store. *)
let cache_pays t =
  match Option.bind t.dispatch Pf_filter.Dispatch.decisive with
  | None -> true
  | Some (groups, words) ->
    let c = t.costs in
    (groups * c.Costs.dispatch_probe) + (words * c.Costs.dispatch_hash_word)
    > c.Costs.cache_probe + (Array.length t.key.offsets * c.Costs.cache_hash_word)

(* {1 Invalidation}

   A port-table change alters only some cached decisions ([mutate] decides
   which, once):
   - [Unchanged]: none. A port with no filter accepts nothing, reads
     nothing, and is no automaton entry.
   - [Closed port]: the decisions naming the port. A hit whose acceptors
     are not all open is a miss, and the closing CPU empties its own such
     entries at once, so none of them holds the port.
   - [Tail]: the tail entries, through the tail generation. An install in
     the walk's last slot is reached only by walks that ran off the end.
   - [Full]: all of them. The mutating CPU flushes its own cache at once,
     and every other CPU flushes its own when its next demux sees the
     generation moved: no interprocessor interrupt is sent, and no CPU
     answers from an older entry. *)

type scope = Unchanged | Closed of port | Tail | Full

let flush t ~cpu c =
  if c.size > 0 then begin
    Array.fill c.buckets 0 cache_buckets no_entry;
    c.size <- 0;
    Queue.clear c.fifo
  end;
  c.invalidations <- c.invalidations + 1;
  match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_cache.(cpu);
    San.flush h.checker ~cpu h.res_cache.(cpu)
  | None -> ()

(* Bring CPU [cpu] up to the device generation: sync to the latest
   publication, and flush if a full invalidation came after its last catch
   up. Runs at the start of the CPU's demux, before its table read, and
   before it publishes itself. *)
let catch_up t ~cpu c =
  if c.synced <> t.generation then begin
    (match t.san with Some h -> San.sync h.checker ~cpu h.res_table | None -> ());
    if c.synced < t.invalidated then flush t ~cpu c;
    c.synced <- t.generation
  end

(* Take a closed port out of this CPU's cached decisions: an entry naming it
   keeps its key and FIFO place, holds no port, and misses at its next
   probe. *)
let empty_entries c port =
  Queue.iter
    (fun e ->
      if List.memq port e.acceptors then begin
        e.acceptors <- [];
        e.tail <- emptied
      end)
    c.fifo

(* The one place a change to the port table, the flow key, the dispatch
   automaton or the cache switch becomes visible: the sanitizer records the
   table write and its publication, the change invalidates what [scope]
   names, the generation moves, and whether the cache can pay is decided
   again. The two seeded bugs act here. Under [skip_install_invalidation]
   nothing is invalidated; the checker still learns of a full
   invalidation, which no CPU will flush for, and that lets Pfsan flag the
   mutant from the trace alone. Under [skip_remote_invalidation] the
   generation stays, so only the mutating CPU flushes. *)
let publish ?(cpu = 0) t scope =
  let c = t.caches.(cpu) in
  catch_up t ~cpu c;
  t.cache_pays <- cache_pays t;
  (match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_table;
    San.publish h.checker ~cpu h.res_table
  | None -> ());
  let invalidating = not !For_testing.skip_install_invalidation in
  let full =
    match scope with
    | Unchanged -> false
    | Closed port ->
      if invalidating then empty_entries c port;
      false
    | Tail ->
      if invalidating then t.tail_generation <- t.tail_generation + 1;
      false
    | Full ->
      (match t.san with Some h -> San.invalidate h.checker ~cpu h.res_table | None -> ());
      if invalidating then flush t ~cpu c;
      invalidating
  in
  if not !For_testing.skip_remote_invalidation then begin
    t.generation <- t.generation + 1;
    if full then t.invalidated <- t.generation
  end;
  c.synced <- t.generation

(* {1 The flow key}

   A port with no filter accepts nothing and reads nothing, so it does not
   constrain the key; while any filter's read set is unbounded, the key is
   unusable. The sorted offsets and their scratch buffers are rebuilt only
   when a word gains its first reader or loses its last. *)

let key_count k ~by = function
  | Pf_filter.Analysis.Unbounded -> k.unbounded <- k.unbounded + by
  | Pf_filter.Analysis.Exact words ->
    let top = List.fold_left max (-1) words in
    if top >= Array.length k.readers then
      k.readers <- Array.append k.readers (Array.make (top + 1 - Array.length k.readers) 0);
    let changed =
      List.fold_left
        (fun changed w ->
          let before = k.readers.(w) in
          k.readers.(w) <- before + by;
          changed || before = 0 || before + by = 0)
        false words
    in
    if changed then begin
      let offsets = ref [] in
      for w = Array.length k.readers - 1 downto 0 do
        if k.readers.(w) > 0 then offsets := w :: !offsets
      done;
      let n = List.length !offsets in
      k.offsets <- Array.of_list !offsets;
      k.scratch <-
        Array.init (n + 1) (fun p ->
            let key = Bytes.make (n + (2 * p)) '\000' in
            for i = 0 to p - 1 do
              Bytes.set key (3 * i) '\001'
            done;
            key)
    end

(* The key of [frame] — for each offset, a presence byte plus the
   big-endian word, or one zero byte when the word is absent, since a
   too-short packet faults (rejecting) where a longer one reads a value —
   written into the scratch buffer for its length, which is returned and
   stays valid until the next call. The offsets ascend, so the words the
   frame holds are a prefix of them. *)
let fill_key k frame =
  let offsets = k.offsets and words = Packet.word_count frame in
  let p = ref 0 in
  while !p < Array.length offsets && offsets.(!p) < words do
    incr p
  done;
  let key = k.scratch.(!p) in
  for i = 0 to !p - 1 do
    Bytes.set_uint16_be key ((3 * i) + 1) (Packet.word frame offsets.(i))
  done;
  key

(* {1 The port table}

   A port is in the table exactly while it is open, its filter's read set
   counts in the flow key for as long, and it is in the dispatch automaton
   exactly while it is also filtered. [enter] and [leave] are the only
   functions that change any of the three for one port, and [mutate] is
   the only caller of either. The table is an array in walk order, sorted
   by decreasing priority, then open order, at mutation time, not by
   re-sorting on the demux path; the occasional busier-first reordering of
   equal-priority filters (section 3.2) happens in [maybe_reorder]. Like a
   rule joining or leaving a kernel's filter table, a mutation moves slots
   and allocates nothing that grows with the number of open ports.

   The automaton ({!Pf_filter.Dispatch}) ranks a port by its place in that
   order: priorities lie in 0..255, so priority and open order fit one int.
   Copy-all and tap ports are excluded from indexing (their multi-delivery
   cannot be expressed by a first-match winner) and fall to the
   rank-ordered residual walk, which [demux] merges with the automaton
   winner by rank. One instance serves every CPU, which only read it. *)

let rank_of port = ((255 - port.priority) lsl 32) lor port.id

let dispatch_add d port f =
  Pf_filter.Dispatch.add d ~rank:(rank_of port)
    ~indexable:((not port.copy_all) && not port.tap)
    f port

let read_set f = (Pf_filter.Fast.analysis f).Pf_filter.Analysis.read_set

(* Whether [port] sorts after every open port: none has a lower priority,
   and none of its priority a larger id. *)
let sorts_last t port =
  let p = port.priority in
  port.id > t.top_id.(p)
  &&
  let q = ref 0 in
  while !q < p && t.open_at.(!q) = 0 do
    incr q
  done;
  !q = p

(* An equal-priority port goes before the first one opened after it, that
   is, before the first port of higher rank. A port that sorts after every
   open one (a fresh port, or one just opened and now installed) is
   appended without a scan. The walk's slots grow by doubling; a slot past
   the last open port repeats an open one. *)
let enter t port =
  let n = t.count and p = port.priority and r = rank_of port in
  if n = Array.length t.walk then begin
    t.walk <- Array.append t.walk (Array.make (max 8 n) port);
    t.ranks <- Array.append t.ranks (Array.make (max 8 n) 0)
  end;
  let ranks = t.ranks in
  let i = ref 0 in
  if sorts_last t port then i := n
  else
    while !i < n && ranks.(!i) < r do
      incr i
    done;
  let i = !i in
  Array.blit t.walk i t.walk (i + 1) (n - i);
  (* A typed int loop: [Array.blit] would pay the write barrier per slot. *)
  for j = n downto i + 1 do
    ranks.(j) <- ranks.(j - 1)
  done;
  t.walk.(i) <- port;
  ranks.(i) <- r;
  t.count <- n + 1;
  t.open_at.(p) <- t.open_at.(p) + 1;
  if port.id > t.top_id.(p) then t.top_id.(p) <- port.id;
  match port.filter with
  | None -> ()
  | Some f ->
    key_count t.key ~by:1 (read_set f);
    Option.iter (fun d -> dispatch_add d port f) t.dispatch

(* The inverse of [enter]: it must run before the port's filter, priority
   or flags change. The scan runs from the end, where a port just opened
   sits. *)
let leave t port =
  let n = t.count - 1 and p = port.priority and r = rank_of port in
  let ranks = t.ranks in
  let i = ref n in
  while ranks.(!i) <> r do
    decr i
  done;
  let i = !i in
  Array.blit t.walk (i + 1) t.walk i (n - i);
  for j = i to n - 1 do
    ranks.(j) <- ranks.(j + 1)
  done;
  t.count <- n;
  (* The vacated slot must not keep the closed port reachable. *)
  if n > 0 then t.walk.(n) <- t.walk.(0)
  else begin
    t.walk <- [||];
    t.ranks <- [||]
  end;
  t.open_at.(p) <- t.open_at.(p) - 1;
  (* Ids are unique, so the others of this priority have lower ones. *)
  if port.id = t.top_id.(p) then t.top_id.(p) <- port.id - 1;
  match port.filter with
  | None -> ()
  | Some f ->
    key_count t.key ~by:(-1) (read_set f);
    Option.iter (fun d -> Pf_filter.Dispatch.remove d ~rank:(rank_of port)) t.dispatch

(* A stable insertion sort of the walk by [cmp], in place; whether any
   port moved. The walk stays nearly sorted between sorts, so few do. *)
let sort_walk t cmp =
  let moved = ref false in
  for i = 1 to t.count - 1 do
    let port = t.walk.(i) and r = t.ranks.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && cmp t.walk.(!j) port > 0 do
      t.walk.(!j + 1) <- t.walk.(!j);
      t.ranks.(!j + 1) <- t.ranks.(!j);
      decr j
    done;
    if !j + 1 < i then begin
      moved := true;
      t.walk.(!j + 1) <- port;
      t.ranks.(!j + 1) <- r
    end
  done;
  !moved

let busier_first a b =
  match compare b.priority a.priority with 0 -> compare b.accepted a.accepted | c -> c

let rank_order a b = compare (rank_of a) (rank_of b)

let maybe_reorder ~cpu t =
  t.demuxed_since_reorder <- t.demuxed_since_reorder + 1;
  if t.demuxed_since_reorder >= 256 then begin
    t.demuxed_since_reorder <- 0;
    (* Reordering equal-priority overlapping filters can change which port
       wins a packet, so any cached decision taken under the old order is
       stale. *)
    if sort_walk t busier_first then publish ~cpu t Full
  end

(* The one way a port changes (the open, close and ioctl calls of
   section 4): an open port leaves the table, [change] runs, the port
   re-enters if it is open afterwards, and the change is published with the
   scope of what it can alter. So an equal-priority port re-enters at its
   open-order place, even after a busier-first reorder moved it. A port
   closed before and after changes only its record. *)
let mutate port change =
  let t = port.dev in
  let was_open = port.is_open and was_filtered = port.filter <> None in
  (* [key_count] replaces the offsets only when a word gains its first
     reader or loses its last. *)
  let offsets = t.key.offsets and unbounded = t.key.unbounded in
  if was_open then leave t port;
  change ();
  if port.is_open then enter t port;
  if was_open || port.is_open then begin
    (* No call removes a filter, so a filtered port had an automaton entry
       before the change, has one after it, or both. *)
    if t.dispatch <> None && port.filter <> None then
      t.dispatch_updates <- t.dispatch_updates + 1;
    publish t
      (if t.key.offsets != offsets || t.key.unbounded <> unbounded then Full
       else if (not was_filtered) && port.filter = None then Unchanged
       else if not port.is_open then Closed port
       else if (not was_open) || was_filtered then Full
       else if t.walk.(t.count - 1) == port then Tail
       else Full)
  end

(* Charge CPU when called from process context; plain setup code (before the
   simulation starts) runs free. *)
let charge cost = if Process.running () && cost > 0 then Process.use_cpu cost

(* The engine and certification of a port with no compilation to run or
   certify. *)
let uncompiled = Lazy.from_val (None, None)

let open_port t =
  t.next_id <- t.next_id + 1;
  let port =
    {
      dev = t;
      id = t.next_id;
      filter = None;
      compiled = uncompiled;
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
      is_open = false;
      dropped = 0;
      accepted = 0;
    }
  in
  mutate port (fun () -> port.is_open <- true);
  port

(* On a closed port this does nothing: no reader waits on one. *)
let close_port port =
  mutate port (fun () -> port.is_open <- false);
  (* Wake any blocked readers; they will notice the port is closed. *)
  ignore (Condition.broadcast port.cond () : int)

type install_error = Invalid of Pf_filter.Validate.error

let pp_install_error ppf (Invalid e) = Pf_filter.Validate.pp_error ppf e

(* A filter's walk engine and translation-validation outcome under the
   compile strategy and certify flag in force now, built when first forced:
   by a walk's first run of the filter or a status query. An exact
   automaton entry never runs its program, so it never compiles. [`Off]
   runs the installed program itself, which leaves nothing to build or
   certify. [`Regvm] compiles the optimized IR for direct register
   execution on the walks. Only a proved compilation runs: a refuted or
   inconclusive one leaves the port on the checked stack engine, and the
   outcome (a witness, or why the check fell short) is kept. A
   certification is counted when it is carried out. *)
let compile t validated =
  let stats = t.stats and certify = t.certify in
  match t.compile_strategy with
  | `Off -> uncompiled
  | `Regvm ->
    lazy
      (let rvm = Pf_filter.Regvm.compile validated in
       if not certify then (Some rvm, None)
       else
         match
           Pf_filter.Equiv.certification_of_report
             (Pf_filter.Equiv.check_ir validated (Pf_filter.Regvm.ir rvm))
         with
         | Pf_filter.Equiv.Certified as c ->
           Stats.incr stats "pf.certify.proved";
           (Some rvm, Some c)
         | Pf_filter.Equiv.Refuted _ as c ->
           Stats.incr stats "pf.certify.refuted";
           (None, Some c)
         | Pf_filter.Equiv.Uncertified _ as c ->
           Stats.incr stats "pf.certify.unknown";
           (None, Some c))

(* Installation = validation + abstract interpretation; the analysis is
   recorded on the port for the status surface, and the walk engine is
   left to [compile]. *)
let install port program =
  match Pf_filter.Validate.check program with
  | Error e -> Error (Invalid e)
  | Ok validated ->
    let t = port.dev in
    (* The stack compilation serves the automaton and the status surface,
       and runs on the walks unless [compile] builds a register engine. *)
    let fast = Pf_filter.Fast.compile validated in
    let compiled = compile t validated in
    (* "at a cost comparable to that of receiving a packet" (§3.1) *)
    charge (t.costs.Costs.syscall + Costs.copy_cost t.costs ~bytes:(2 * Pf_filter.Program.code_words program) + t.costs.Costs.recv_interrupt);
    mutate port (fun () ->
        port.filter <- Some fast;
        port.compiled <- compiled;
        port.priority <- Pf_filter.Program.priority program);
    Ok (Pf_filter.Fast.analysis fast)

let set_filter port program =
  match install port program with Ok _ -> Ok () | Error _ as e -> e

let port_analysis port = Option.map Pf_filter.Fast.analysis port.filter
let port_certification port = snd (Lazy.force port.compiled)
let port_accepted port = port.accepted
let port_dropped port = port.dropped

(* A setter that changes nothing returns before [mutate] or [publish],
   which would publish a port-table write and invalidate. *)
let set_priority port priority =
  let priority = max 0 (min 255 priority) in
  if priority <> port.priority then mutate port (fun () -> port.priority <- priority)

(* The public tag sets are wider than the engines that remain: the removed
   tags are refused, naming their replacement, before anything changes. *)
let set_strategy t strategy =
  match (strategy, t.dispatch) with
  | `Sequential, None | `Dispatch, Some _ -> ()
  | `Decision_tree, _ ->
    invalid_arg "Pfdev.set_strategy: `Decision_tree was removed; use `Dispatch"
  | `Sequential, Some _ ->
    t.dispatch <- None;
    publish t Full
  | `Dispatch, None ->
    (* The one full build. Busier-first reordering may have permuted the
       walk; put it back in rank order first. *)
    ignore (sort_walk t rank_order : bool);
    let d = Pf_filter.Dispatch.create () in
    Array.iter (fun p -> Option.iter (dispatch_add d p) p.filter) (Array.sub t.walk 0 t.count);
    t.dispatch <- Some d;
    t.dispatch_rebuilds <- t.dispatch_rebuilds + 1;
    publish t Full

(* The compile strategy applies to future installs only: already-installed
   filters keep the engine they were compiled with (like a real driver,
   where recompiling under the caller's feet would need locking). So no
   verdict changes, and nothing is published. *)
let set_compile_strategy t strategy =
  t.compile_strategy <-
    (match strategy with
    | (`Off | `Regvm) as s -> s
    | `Raise_only ->
      invalid_arg
        "Pfdev.set_compile_strategy: `Raise_only was removed; use `Off or `Regvm"
    | `Regvm_super ->
      invalid_arg
        "Pfdev.set_compile_strategy: `Regvm_super was removed; use `Regvm \
         (its pipeline makes the early exits)")

let compile_strategy t = t.compile_strategy

let set_certify t certify = t.certify <- certify
let certify t = t.certify

let set_timeout port timeout = port.timeout <- timeout
let set_queue_limit port n = port.queue_limit <- max 1 n
let set_copy_all port flag = if flag <> port.copy_all then mutate port (fun () -> port.copy_all <- flag)
let set_tap port flag = if flag <> port.tap then mutate port (fun () -> port.tap <- flag)
let set_timestamps port flag = port.timestamps <- flag
let set_signal port cb = port.signal <- cb

(* {1 Flow-cache control and observability} *)

let set_cache_enabled t flag =
  if t.cache_enabled <> flag then begin
    t.cache_enabled <- flag;
    publish t Full
  end

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
   [invalidations] counts flushes per cache: a full invalidation adds one
   at once, for the mutating CPU, and one for each other CPU as its next
   demux catches up. *)
let cache_stats t =
  let entries = ref 0
  and hits = ref 0
  and misses = ref 0
  and bypasses = ref 0
  and invalidations = ref 0
  and evictions = ref 0 in
  Array.iter
    (fun c ->
      entries := !entries + c.size;
      hits := !hits + c.hits;
      misses := !misses + c.misses;
      bypasses := !bypasses + c.bypasses;
      invalidations := !invalidations + c.invalidations;
      evictions := !evictions + c.evictions)
    t.caches;
  {
    enabled = t.cache_enabled;
    entries = !entries;
    capacity = cache_capacity;
    hits = !hits;
    misses = !misses;
    bypasses = !bypasses;
    invalidations = !invalidations;
    evictions = !evictions;
  }

type dispatch_stats = {
  rebuilds : int;
  updates : int;
  classifies : int;
  exact_accepts : int;
  candidates_run : int;
  residual_runs : int;
}

let dispatch_stats t =
  {
    rebuilds = t.dispatch_rebuilds;
    updates = t.dispatch_updates;
    classifies = t.dispatch_classifies;
    exact_accepts = t.dispatch_exact_accepts;
    candidates_run = t.dispatch_candidates;
    residual_runs = t.dispatch_residual_runs;
  }

let pp_cache_stats ppf s =
  Format.fprintf ppf
    "flow cache: %s, %d/%d entries, %d hits / %d misses / %d bypasses, %d invalidations, %d evictions"
    (if s.enabled then "enabled" else "disabled")
    s.entries s.capacity s.hits s.misses s.bypasses s.invalidations s.evictions

(* {1 Kernel side} *)

let enqueue port capture =
  if Queue.length port.queue >= port.queue_limit then begin
    port.dropped <- port.dropped + 1;
    Stats.bump port.dev.ctr.drop_overflow
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

(* Receive-side steering: hash the packet bytes at the union read set — the
   same bytes the flow cache keys on — to pick the receive CPU. Two packets
   of one flow agree on every read-set word, so they always steer to the
   same CPU, and each CPU's flow cache stays private to its shard of the
   flow space. When the key is unusable (some installed
   filter's read set is unbounded) or empty, everything lands on CPU 0.
   Steering charges no CPU time: it models the NIC's receive hashing
   hardware, not kernel work. It allocates nothing. *)
let steer t frame =
  let n = Smp.ncpus t.smp in
  if n = 1 || t.key.unbounded > 0 || Array.length t.key.offsets = 0 then 0
  else Hashtbl.hash (fill_key t.key frame) mod n

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

(* {1 Demultiplexing}

   The walks and the delivery below are top-level functions, and the CPU
   charge accumulates in [t.demux_cost], so a demux allocates only what
   delivery keeps: the acceptor list, the delivery event's closure, and
   each acceptor's capture and queue cell. *)

let add_cost t cost = t.demux_cost <- t.demux_cost + cost

(* Count one filter run of [port]'s, on a walk or inside the automaton. *)
let count_run port ~insns =
  let ctr = port.dev.ctr in
  Stats.bump ctr.filters_tested;
  Stats.add ctr.filter_insns insns

(* Boxed once: [~on_run:count_run] would box it per classify. *)
let on_candidate_run = Some count_run

(* One filter run on a walk. Allocates nothing once the port's engine is
   built (its first run builds it): the walk's work must not grow the heap
   with the number of filters tested. *)
let run_port_filter t port frame =
  let costs = t.costs in
  let r =
    match fst (Lazy.force port.compiled) with
    | Some rvm ->
      let r = Pf_filter.Regvm.eval rvm frame in
      let insns = Pf_filter.Op.packed_insns r in
      add_cost t (costs.Costs.regvm_apply + (insns * costs.Costs.regvm_insn));
      Stats.add t.ctr.regvm_insns insns;
      r
    | None ->
      let r = Pf_filter.Fast.eval (Option.get port.filter) frame in
      add_cost t
        (costs.Costs.filter_apply + (Pf_filter.Op.packed_insns r * costs.Costs.filter_insn));
      r
  in
  count_run port ~insns:(Pf_filter.Op.packed_insns r);
  Pf_filter.Op.packed_accepts r

let accept t port =
  port.accepted <- port.accepted + 1;
  if port.timestamps then begin
    add_cost t t.costs.Costs.timestamp;
    t.demux_timestamped <- true
  end

(* A cache hit replays its acceptors: each counts as having accepted. *)
let rec accept_all t = function
  | [] -> ()
  | port :: rest ->
    accept t port;
    accept_all t rest

(* The figure 4-1 loop over the port table from slot [i]: the acceptors,
   in walk order. *)
let rec walk_ports t frame ~kernel_claimed i =
  if i >= t.count then []
  else
    let port = t.walk.(i) in
    if port.filter = None || (kernel_claimed && not port.tap) then
      walk_ports t frame ~kernel_claimed (i + 1)
    else if run_port_filter t port frame then begin
      accept t port;
      (* Stop unless this filter asked for copies to lower priorities. *)
      port :: (if port.copy_all then walk_ports t frame ~kernel_claimed (i + 1) else [])
    end
    else walk_ports t frame ~kernel_claimed (i + 1)

(* The residual walk, merged by rank with the automaton's [winner]: walk
   residual ports of lower rank than the winner (a residual may outrank it,
   or be copy-all and accept additionally); once every remaining residual
   ranks past the winner, the winner — always non-copy-all — takes the
   packet and stops the walk, exactly where the sequential walk would have
   stopped. *)
let rec merge_residuals t frame winner ~winner_rank = function
  | (rank, port) :: rest when rank <= winner_rank ->
    t.dispatch_residual_runs <- t.dispatch_residual_runs + 1;
    if run_port_filter t port frame then begin
      accept t port;
      port :: (if port.copy_all then merge_residuals t frame winner ~winner_rank rest else [])
    end
    else merge_residuals t frame winner ~winner_rank rest
  | _ -> (
    match winner with
    | Some (_, port) ->
      accept t port;
      [ port ]
    | None -> [])

(* The acceptors of a frame the flow cache did not answer. *)
let classify t ~cpu ~kernel_claimed frame =
  let costs = t.costs in
  match t.dispatch with
  | Some d when not kernel_claimed ->
    (* Automaton classification, then the residual walk merged by rank. *)
    (match t.san with
    | Some h ->
      San.read h.checker ~cpu h.res_table;
      add_cost t costs.Costs.san_access
    | None -> ());
    t.dispatch_classifies <- t.dispatch_classifies + 1;
    let winner = Pf_filter.Dispatch.classify ?on_run:on_candidate_run d frame in
    let s = Pf_filter.Dispatch.stats d in
    add_cost t
      ((s.Pf_filter.Dispatch.probes * costs.Costs.dispatch_probe)
      + (s.Pf_filter.Dispatch.hash_words * costs.Costs.dispatch_hash_word)
      + (s.Pf_filter.Dispatch.candidates_run * costs.Costs.filter_apply)
      + (s.Pf_filter.Dispatch.insns * costs.Costs.filter_insn));
    t.dispatch_exact_accepts <- t.dispatch_exact_accepts + s.Pf_filter.Dispatch.exact_accepts;
    t.dispatch_candidates <- t.dispatch_candidates + s.Pf_filter.Dispatch.candidates_run;
    let winner_rank = match winner with Some (r, _) -> r | None -> max_int in
    merge_residuals t frame winner ~winner_rank (Pf_filter.Dispatch.residuals d)
  | Some _ -> walk_ports t frame ~kernel_claimed 0
  | None ->
    (* Busier-first reordering only matters (and only makes sense) for the
       sequential strategy; the automaton is keyed on guards, not
       position. *)
    maybe_reorder ~cpu t;
    walk_ports t frame ~kernel_claimed 0

(* Whether a walk that accepted [acceptors] ran off the end of the table. *)
let rec runs_off = function
  | [] -> true
  | [ port ] -> port.copy_all
  | _ :: rest -> runs_off rest

let rec all_open = function [] -> true | port :: rest -> port.is_open && all_open rest

(* Whether a hit on [e] may answer: no install in the last slot since a
   tail entry's store, and no close of an acceptor. *)
let current t e = (e.tail = stopped || e.tail = t.tail_generation) && all_open e.acceptors

(* Record a missed frame's acceptors in [e]. *)
let fill t ~cpu e key acceptors =
  add_cost t t.costs.Costs.cache_probe (* insert *);
  e.acceptors <- acceptors;
  e.tail <- (if runs_off acceptors then t.tail_generation else stopped);
  match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_cache.(cpu);
    San.note_store h.checker ~cpu h.res_cache.(cpu) ~key:(Bytes.to_string key);
    add_cost t t.costs.Costs.san_access
  | None -> ()

(* The chain of a key. [Hashtbl.hash] of bytes is that of the string with
   the same contents, and hashes the reused key buffer in place. *)
let chain key = Hashtbl.hash key land (cache_buckets - 1)

(* The entry stored under [key] from [e] on in its chain, or [no_entry].
   Allocates nothing. *)
let rec find_in e key =
  if e == no_entry || Bytes.equal e.key_bytes key then e else find_in e.next key

(* Take the oldest entry out of its chain. *)
let evict c =
  let victim = Queue.take c.fifo in
  let i = chain victim.key_bytes in
  if c.buckets.(i) == victim then c.buckets.(i) <- victim.next
  else begin
    let e = ref c.buckets.(i) in
    while !e.next != victim do
      e := !e.next
    done;
    !e.next <- victim.next
  end;
  c.size <- c.size - 1;
  c.evictions <- c.evictions + 1

(* Remember a missed frame's acceptors under a copy of its key. *)
let store t ~cpu c key acceptors =
  if c.size >= cache_capacity then evict c;
  let i = chain key in
  let e = { key_bytes = Bytes.copy key; acceptors = []; tail = stopped; next = c.buckets.(i) } in
  c.buckets.(i) <- e;
  c.size <- c.size + 1;
  Queue.push e c.fifo;
  fill t ~cpu e key acceptors

let san_queue_write t ~cpu =
  match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_queue;
    t.costs.Costs.san_access
  | None -> 0

(* A contended delivery-lock acquisition, in [cpu]'s row of [smp_stats]. *)
let count_lock_wait t ~cpu wait =
  if wait > 0 then begin
    t.smp_lock_waits.(cpu) <- t.smp_lock_waits.(cpu) + 1;
    t.smp_lock_wait_us.(cpu) <- t.smp_lock_wait_us.(cpu) + wait
  end

(* The CPU cost of inserting into the port queues, begun at
   [classify_done]. On an SMP device the queues are shared, so the insert
   runs under the costed delivery spinlock. The lock covers only the insert
   (the [lock_acquire] charge); the scheduler wakeup runs after release —
   holding a spinlock across a wakeup would serialize the whole complex. *)
let queue_insert_cost t ~cpu ~classify_done =
  if Smp.ncpus t.smp = 1 || !For_testing.skip_delivery_lock then
    (* Single CPU: the legacy lock-free delivery. The instrumented write
       keeps the queue resource in the sanitizer's Exclusive state, so a
       1-CPU campaign can never report on it. With the seeded bug on, the
       shared-queue insert runs bare: verdicts and queue contents are
       identical (the engine serializes demux events), so only the
       sanitizer's lockset can see it. *)
    san_queue_write t ~cpu
  else begin
    let wait = Smp.Lock.acquire ~cpu t.delivery_lock ~start:classify_done ~hold:0 in
    count_lock_wait t ~cpu wait;
    let san = san_queue_write t ~cpu in
    Smp.Lock.release t.delivery_lock ~cpu;
    wait + t.costs.Costs.lock_acquire + san
  end

(* The arrival a delivery passes when no acceptor took a timestamp at the
   demux: its event then keeps only the frame and the acceptors. *)
let untimed = -1

(* The delivery event: queue the frame on every acceptor, in order. *)
let rec deliver arrival frame = function
  | [] -> ()
  | port :: rest ->
    let timestamp = if port.timestamps && arrival <> untimed then Some arrival else None in
    enqueue port { packet = frame; timestamp; dropped_before = port.dropped };
    deliver arrival frame rest

let demux t ?(cpu = 0) ?(kernel_claimed = false) frame =
  let costs = t.costs in
  let n = Smp.ncpus t.smp in
  if cpu < 0 || cpu >= n then invalid_arg "Pfdev.demux: no such CPU";
  let ctr = t.ctr in
  Stats.bump ctr.packets;
  t.smp_packets.(cpu) <- t.smp_packets.(cpu) + 1;
  let arrival = Engine.now t.engine in
  t.demux_cost <- 0;
  t.demux_timestamped <- false;
  let c = t.caches.(cpu) in
  catch_up t ~cpu c;
  (* Sanitizer instrumentation. Each instrumented access is a real shadow
     bookkeeping step on the demuxing CPU, charged at [san_access] — that
     charge is what `bench smp --san` measures as overhead. Without an
     attached sanitizer every branch below is dead and free. *)
  (match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_statword.(cpu);
    San.read h.checker ~cpu h.res_table;
    add_cost t (2 * costs.Costs.san_access)
  | None -> ());
  (* Probe this CPU's flow cache before any filter interpretation.
     Kernel-claimed packets bypass it: they see a different port subset
     (taps only), so caching their decisions under the same key would be
     unsound. So does every packet while a hit cannot pay ([cache_pays]).
     The key is the device's reused buffer, intact until the store because
     the simulator serializes demux events. *)
  let probing =
    t.cache_enabled && (not kernel_claimed) && t.key.unbounded = 0 && t.cache_pays
  in
  if t.cache_enabled && not probing then c.bypasses <- c.bypasses + 1;
  let acceptors =
    if not probing then classify t ~cpu ~kernel_claimed frame
    else begin
      let key = fill_key t.key frame in
      let synced = c.synced in
      add_cost t
        (costs.Costs.cache_probe + (Array.length t.key.offsets * costs.Costs.cache_hash_word));
      (match t.san with
      | Some h ->
        San.read h.checker ~cpu h.res_cache.(cpu);
        add_cost t costs.Costs.san_access
      | None -> ());
      (* A store is skipped when something (e.g. a busier-first reorder
         during this very walk) flushed the cache after the probe. *)
      let e = find_in c.buckets.(chain key) key in
      if e != no_entry && current t e then begin
        (match t.san with
        | Some h ->
          San.note_hit h.checker ~cpu h.res_cache.(cpu) ~key:(Bytes.to_string key)
        | None -> ());
        c.hits <- c.hits + 1;
        accept_all t e.acceptors;
        e.acceptors
      end
      else begin
        let acceptors = classify t ~cpu ~kernel_claimed frame in
        c.misses <- c.misses + 1;
        if synced = c.synced then
          if e == no_entry then store t ~cpu c key acceptors else fill t ~cpu e key acceptors;
        acceptors
      end
    end
  in
  let accepted = acceptors <> [] in
  if accepted then Stats.bump ctr.accepted
  else if not kernel_claimed then Stats.bump ctr.drop_nomatch;
  (* The filter interpretation and bookkeeping happen at interrupt level;
     delivery (queueing + reader wakeup) completes when that CPU work
     retires. Classification touches only this CPU's private cache and the
     read-only shared automaton, and needs no lock. The split into two
     interrupt-owner runs is cost-neutral on one CPU (no context switch is
     ever charged between them), which is what keeps the single-CPU SMP
     path byte-identical to the legacy accounting. *)
  let cpu_exec = Smp.cpu t.smp cpu in
  let classify_done =
    Cpu.run cpu_exec ~owner:`Interrupt ~start:arrival ~cost:t.demux_cost
  in
  if accepted then begin
    let deliver_cost = costs.Costs.wakeup + queue_insert_cost t ~cpu ~classify_done in
    add_cost t deliver_cost;
    let finish = Cpu.run cpu_exec ~owner:`Interrupt ~start:classify_done ~cost:deliver_cost in
    if t.demux_timestamped then
      Engine.schedule t.engine ~at:finish (fun () -> deliver arrival frame acceptors)
    else Engine.schedule t.engine ~at:finish (fun () -> deliver untimed frame acceptors)
  end;
  Stats.add ctr.demux_cpu_us t.demux_cost;
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
    count_lock_wait t ~cpu:0 wait;
    Process.use_cpu (wait + t.costs.Costs.lock_acquire);
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
    Stats.add port.dev.ctr.copy_cpu_us copy;
    Stats.bump port.dev.ctr.reads_delivered;
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
  Stats.bump port.dev.ctr.syscalls;
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
      Stats.add port.dev.ctr.copy_cpu_us copy;
      Stats.bump port.dev.ctr.reads_delivered;
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
  Stats.bump port.dev.ctr.syscalls;
  read_batch_blocking port

let write_one port frame =
  let t = port.dev in
  let bytes = Packet.length frame in
  Process.use_cpu
    (Costs.copy_cost t.costs ~bytes
    + t.costs.Costs.send_path
    + (t.costs.Costs.send_per_kbyte * bytes / 1024));
  Stats.bump t.ctr.writes;
  t.send frame

let write port frame =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.bump port.dev.ctr.syscalls;
  write_one port frame

let write_batch port frames =
  Process.use_cpu port.dev.costs.Costs.syscall;
  Stats.bump port.dev.ctr.syscalls;
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
    let watcher = ref (fun () -> false) in
    let wait =
      Process.suspend ?timeout (fun deliver ->
          watcher := deliver;
          List.iter (fun p -> p.watchers <- deliver :: p.watchers) ports)
    in
    (* Woken or timed out, this select is over: take its watcher off every
       port it waited on. Only the port that fired has cleared its list, and
       a stale watcher would keep this process's continuation alive and be
       walked by that port's next packet. *)
    List.iter
      (fun p -> p.watchers <- List.filter (fun w -> w != !watcher) p.watchers)
      ports;
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

let active_ports t =
  Array.fold_left (fun n p -> if p.filter <> None then n + 1 else n) 0 (Array.sub t.walk 0 t.count)
