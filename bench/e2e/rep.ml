(* One repetition of a workload: set up a fresh simulated receiver, drive
   the seeded traffic through the full receive path (Host.inject -> NIC
   steering -> flow cache -> dispatch / filter engine -> delivery lock and
   queue -> wakeup -> read_batch copy-out), then check every delivered
   packet. The program under test is only ever called through its public
   interface; host time is read around those calls. *)

module Engine = Pf_sim.Engine
module Cpu = Pf_sim.Cpu
module Smp = Pf_sim.Smp
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module W = Workload

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type world = {
  engine : Engine.t;
  host : Host.t;
  pf : Pfdev.t;
  ports : Pfdev.port option array;  (** per flow; closed ports stay here *)
  mutable t0 : int;  (** simulated time the traffic phase starts *)
}

let create_world (inp : W.inputs) =
  let w = inp.w in
  let engine = Engine.create () in
  let link = Pf_net.Link.create engine Pf_net.Frame.Dix10 ~rate_mbit:10. () in
  let host =
    Host.create ?ncpus:w.ncpus link ~name:"receiver" ~addr:(Pf_net.Addr.eth_host 2)
  in
  let pf = Host.pf host in
  Pfdev.set_cache_enabled pf w.cache;
  Pfdev.set_strategy pf (w.strategy :> [ `Sequential | `Decision_tree | `Dispatch ]);
  Pfdev.set_compile_strategy pf (w.compile :> [ `Off | `Raise_only | `Regvm | `Regvm_super ]);
  Pfdev.set_certify pf w.certify;
  { engine; host; pf; ports = Array.make (Array.length inp.flows) None; t0 = 0 }

(* Open a port for flow [f] and install its filter; [on_install] gets the
   host time of the [set_filter] call, [on_port] may instrument the port. *)
let open_flow (inp : W.inputs) world ~on_install ~on_port f =
  let p = Pfdev.open_port world.pf in
  Pfdev.set_queue_limit p (Array.length inp.frames + 1);
  let h0 = now_ns () in
  let r = Pfdev.set_filter p inp.programs.(f) in
  on_install (now_ns () -. h0);
  (match r with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "flow %d: %a" f Pfdev.pp_install_error e));
  world.ports.(f) <- Some p;
  on_port world f p

(* Set-up ends with every CPU's lazy dispatch automaton built (one demux of
   a frame nobody accepts per CPU) and every set-up event drained: install
   IPIs left queued would otherwise land in the traffic phase. *)
let setup inp ~on_install ~on_port =
  let world = create_world inp in
  Array.iter (open_flow inp world ~on_install ~on_port) inp.W.initial;
  for k = 0 to Host.ncpus world.host - 1 do
    ignore (Pfdev.demux world.pf ~cpu:k inp.W.unmatched : bool)
  done;
  Engine.run world.engine;
  let smp = Host.smp world.host in
  let t0 = ref (Engine.now world.engine) in
  for k = 0 to Smp.ncpus smp - 1 do
    t0 := max !t0 (Cpu.busy_until (Smp.cpu smp k))
  done;
  Engine.run ~until:!t0 world.engine;
  world.t0 <- !t0;
  world

(* Schedule the traffic (and the churn it carries) on the engine and run it
   to completion. [send] hands one frame to the receiver. *)
let drive (inp : W.inputs) world ~send ~on_install ~on_port =
  let n = Array.length inp.frames in
  let churns = inp.churns in
  let next_churn = ref 0 in
  let rec inject s () =
    while !next_churn < Array.length churns && churns.(!next_churn).W.at = s do
      let c = churns.(!next_churn) in
      incr next_churn;
      open_flow inp world ~on_install ~on_port c.W.fresh;
      let retired = Option.get world.ports.(c.W.retired) in
      Engine.schedule world.engine
        ~at:(Engine.now world.engine + W.grace_us)
        (fun () -> Pfdev.close_port retired)
    done;
    send inp.frames.(s);
    if s + 1 < n then
      Engine.schedule world.engine ~at:(world.t0 + inp.due.(s + 1)) (inject (s + 1))
  in
  Engine.schedule world.engine ~at:(world.t0 + inp.due.(0)) (inject 0);
  Engine.run world.engine

(* Counters of the program under test, read through its public surface. *)
type snapshot = {
  stats : (string * int) list;
  cache : Pfdev.cache_stats;
  dispatch : Pfdev.dispatch_stats;
  smp : Pfdev.smp_stats;
  busy : int array;  (** per CPU *)
  busy_until : int;  (** latest CPU *)
  ctx : int;  (** context switches, all CPUs *)
  events : int;
  now : int;
}

let snapshot world =
  let smp = Host.smp world.host in
  let cpus = Array.init (Smp.ncpus smp) (Smp.cpu smp) in
  {
    stats = Stats.pairs (Host.stats world.host);
    cache = Pfdev.cache_stats world.pf;
    dispatch = Pfdev.dispatch_stats world.pf;
    smp = Pfdev.smp_stats world.pf;
    busy = Array.map Cpu.busy_time cpus;
    busy_until = Array.fold_left (fun a c -> max a (Cpu.busy_until c)) 0 cpus;
    ctx = Array.fold_left (fun a c -> a + Cpu.context_switches c) 0 cpus;
    events = Engine.events_processed world.engine;
    now = Engine.now world.engine;
  }

type t = {
  setup_ns : float;
  traffic_ns : float;
  alloc_bytes : float;
  minor_gcs : int;
  major_gcs : int;
  deliver_lat : int array;  (** per packet: due -> port-queue insert, µs; -1 if never *)
  read_lat : int array;  (** per packet: due -> [read_batch] returns; -1 if never *)
  correct : int;  (** packets read back from their own flow's port, in order *)
  wrong : int;  (** packets read back from any other port, or out of order *)
  before : snapshot;  (** when the traffic phase starts *)
  after : snapshot;  (** when it ends *)
  inject_ns : float;  (** host time inside [Host.inject], traced reps only *)
}

(* Every repetition of one seed must simulate exactly the same thing. *)
let same_sim a b =
  a.deliver_lat = b.deliver_lat && a.read_lat = b.read_lat && a.before = b.before
  && a.after = b.after

(* Check one packet read back from flow [f]'s port: its stamp must name a
   packet of flow [f] after the last one read ([!cursor] indexes the
   flow's packets), normally the very next; any skipped were lost. Packets
   of a flow all steer to one CPU and retire in order, which is what lets
   the delivery hook attribute each queue insert to a sequence number
   without reading the packet. *)
let check_read (inp : W.inputs) f cursor (c : Pfdev.capture) ~ok ~bad =
  let s = W.seq_of c.Pfdev.packet in
  let seqs = inp.seqs_of_flow.(f) in
  let rec find i =
    if i >= Array.length seqs || seqs.(i) > s then None
    else if seqs.(i) = s then Some i
    else find (i + 1)
  in
  match find !cursor with
  | Some i when c.Pfdev.packet == inp.frames.(s) ->
    cursor := i + 1;
    ok s
  | Some _ | None -> bad ()

(* Read back what is still queued once the traffic phase is over: the
   SMP workloads run no readers (see README.md), so this is where their
   deliveries are checked. Runs after the traffic snapshot; its cost is in
   no metric. *)
let drain (inp : W.inputs) world ~ok ~bad =
  ignore
    (Host.spawn world.host ~name:"verify" (fun () ->
         Array.iteri
           (fun f port ->
             match port with
             | Some p when Pfdev.poll p > 0 ->
               let cursor = ref 0 in
               List.iter (check_read inp f cursor ~ok ~bad) (Pfdev.read_batch p)
             | Some _ | None -> ())
           world.ports)
      : Process.t);
  Engine.run world.engine

(* What a repetition records while the program runs. *)
type recorder = {
  deliver_lat : int array;
  read_lat : int array;
  installs : float list ref;
  correct : int ref;
  wrong : int ref;
}

let recorder (inp : W.inputs) =
  let n = Array.length inp.frames in
  {
    deliver_lat = Array.make n (-1);
    read_lat = Array.make n (-1);
    installs = ref [];
    correct = ref 0;
    wrong = ref 0;
  }

let record_install rc ns = rc.installs := ns :: !(rc.installs)

(* The recording hooks on each port: a signal that stamps the queue-insert
   latency (the signal charges no simulated time), and on workloads with
   readers a [read_batch] loop. *)
let record_port (inp : W.inputs) rc world f p =
  let seqs = inp.seqs_of_flow.(f) in
  let delivered = ref 0 in
  Pfdev.set_signal p
    (Some
       (fun () ->
         (if !delivered < Array.length seqs then
            let s = seqs.(!delivered) in
            rc.deliver_lat.(s) <- Engine.now world.engine - (world.t0 + inp.due.(s)));
         incr delivered));
  if inp.w.readers then begin
    let cursor = ref 0 in
    let ok s =
      incr rc.correct;
      rc.read_lat.(s) <- Engine.now world.engine - (world.t0 + inp.due.(s))
    in
    let bad () = incr rc.wrong in
    ignore
      (Host.spawn world.host ~name:"reader" (fun () ->
           let rec loop () =
             match Pfdev.read_batch p with
             | [] -> ()
             | caps ->
               List.iter (check_read inp f cursor ~ok ~bad) caps;
               loop ()
           in
           loop ())
        : Process.t)
  end

let recorded_setup inp rc =
  setup inp ~on_install:(record_install rc) ~on_port:(record_port inp rc)

let run ?(trace = false) (inp : W.inputs) =
  let rc = recorder inp in
  Gc.full_major ();
  let h0 = now_ns () in
  let world = recorded_setup inp rc in
  let setup_ns = now_ns () -. h0 in
  let before = snapshot world in
  let inject_ns = ref 0. in
  let send =
    if trace then (fun frame ->
      let a = now_ns () in
      Host.inject world.host frame;
      inject_ns := !inject_ns +. (now_ns () -. a))
    else Host.inject world.host
  in
  let gc0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let h1 = now_ns () in
  drive inp world ~send ~on_install:(record_install rc) ~on_port:(record_port inp rc);
  let h2 = now_ns () in
  let a1 = Gc.allocated_bytes () in
  let gc1 = Gc.quick_stat () in
  let after = snapshot world in
  if not inp.w.readers then
    drain inp world ~ok:(fun _ -> incr rc.correct) ~bad:(fun () -> incr rc.wrong);
  {
    setup_ns;
    traffic_ns = h2 -. h1;
    alloc_bytes = a1 -. a0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    deliver_lat = rc.deliver_lat;
    read_lat = rc.read_lat;
    correct = !(rc.correct);
    wrong = !(rc.wrong);
    before;
    after;
    inject_ns = !inject_ns;
  }

(* [k] set-ups back to back, on their own: one set-up sample (mean ns per
   set-up over the batch) and every install they timed. Batching keeps a
   sub-millisecond set-up from being a measurement of cold caches. *)
let setup_batch inp ~k =
  let rc = recorder inp in
  Gc.full_major ();
  let h0 = now_ns () in
  for _ = 1 to k do
    ignore (recorded_setup inp rc : world)
  done;
  ((now_ns () -. h0) /. float_of_int k, !(rc.installs))
