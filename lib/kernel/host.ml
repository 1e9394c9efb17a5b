module Engine = Pf_sim.Engine
module Cpu = Pf_sim.Cpu
module Smp = Pf_sim.Smp
module San = Pf_sim.San
module Costs = Pf_sim.Costs
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process

(* Handles on the per-packet host counters, resolved once at creation (see
   [Pfdev.Counters]). *)
type counters = {
  inject : Stats.counter;
  rx : Stats.counter;
  interrupt_cpu_us : Stats.counter;
  rx_unclaimed : Stats.counter;
  rx_kernel_proto : Stats.counter;
  tx_kernel : Stats.counter;
}

type t = {
  name : string;
  engine : Engine.t;
  smp : Smp.t; (* CPU 0 is the boot CPU: processes and kernel protocols *)
  steered : bool; (* NIC receive-side steering (the [?ncpus] path) *)
  costs : Costs.t;
  stats : Stats.t;
  ctr : counters;
  nic : Pf_net.Nic.t;
  pf : Pfdev.t;
  mutable completions : (Pf_pkt.Packet.t -> unit) array;
      (* the primary interface's, per CPU ([wire_rx]) *)
  mutable extra_interfaces : (Pf_net.Nic.t * Pfdev.t) list; (* beyond the primary *)
  mutable protocols : (int * (Pf_pkt.Packet.t -> unit)) list;
  mutable san_protocols : (San.t * San.resource) option;
      (* the protocol-dispatch table as a sanitized shared resource *)
}

let name t = t.name
let engine t = t.engine
let cpu t = Smp.cpu t.smp 0
let smp t = t.smp
let ncpus t = Smp.ncpus t.smp
let costs t = t.costs
let stats t = t.stats
let nic t = t.nic
let addr t = Pf_net.Nic.addr t.nic
let pf t = t.pf

(* One receive path per interface: driver interrupt (on the receive CPU the
   NIC steered the frame to; CPU 0 without steering), then the type-field
   dispatch between host-wide kernel protocols and that interface's packet
   filter unit. Kernel-resident protocol handlers charge their own work via
   [in_kernel], which runs on the boot CPU — only the interrupt half of the
   receive path scales across CPUs, as in real kernels before per-CPU
   protocol processing. *)

(* The half that runs once the driver interrupt retires. [on_cpu] is
   [Some cpu_id], boxed once per CPU by [wire_rx]: passing [~cpu:cpu_id] to
   [Pfdev.demux] would box it for every frame. *)
let complete t nic pf ~cpu:cpu_id ~on_cpu frame =
  (* The type-field dispatch reads the host-wide protocol table on the
     receive CPU; the demux-side instrumentation carries the modeled cost,
     this read only feeds the checker. *)
  (match t.san_protocols with
  | Some (san, res) -> San.read san ~cpu:cpu_id res
  | None -> ());
  let kernel_handler =
    match t.protocols with
    | [] -> None
    | protocols ->
      let variant = Pf_net.Nic.variant nic in
      if Pf_pkt.Packet.length frame < Pf_net.Frame.header_length variant then None
      else
        List.assoc_opt
          (Pf_pkt.Packet.word frame (Pf_net.Frame.type_word_index variant))
          protocols
  in
  match kernel_handler with
  | Some handler ->
    Stats.bump t.ctr.rx_kernel_proto;
    ignore (Pfdev.demux pf ?cpu:on_cpu ~kernel_claimed:true frame : bool);
    handler frame
  | None -> if not (Pfdev.demux pf ?cpu:on_cpu frame) then Stats.bump t.ctr.rx_unclaimed

(* [completions] holds one [complete] per CPU, built by [wire_rx], so the
   event a frame schedules closes over that function and the frame alone. *)
let rx t completions ~cpu:cpu_id frame =
  Stats.bump t.ctr.rx;
  Stats.add t.ctr.interrupt_cpu_us t.costs.Costs.recv_interrupt;
  let finish =
    Cpu.run (Smp.cpu t.smp cpu_id) ~owner:`Interrupt ~start:(Engine.now t.engine)
      ~cost:t.costs.Costs.recv_interrupt
  in
  let complete = completions.(cpu_id) in
  Engine.schedule t.engine ~at:finish (fun () -> complete frame)

(* Wire an interface's receive side, and return its per-CPU completions.
   With steering, the NIC's receive hashing ({!Pfdev.steer}: the
   flow-cache key bytes modulo the CPU count) picks the queue, and queues
   map to CPUs one-to-one — same flow, same CPU, so each CPU's flow cache
   stays private and warm. *)
let wire_rx t nic pf =
  let completions =
    Array.init (Smp.ncpus t.smp) (fun cpu -> complete t nic pf ~cpu ~on_cpu:(Some cpu))
  in
  if t.steered then
    Pf_net.Nic.set_rss nic ~hash:(Pfdev.steer pf) ~rx:(fun ~queue frame ->
        rx t completions ~cpu:queue frame)
  else Pf_net.Nic.set_rx nic (rx t completions ~cpu:0);
  completions

let create ?(costs = Costs.microvax_ii) ?ncpus link ~name ~addr =
  let engine = Pf_net.Link.engine link in
  let smp, steered =
    match ncpus with
    | None -> (Smp.create ~ncpus:1 engine costs, false)
    | Some n -> (Smp.create ~ncpus:n engine costs, true)
  in
  let stats = Stats.create () in
  let nic = Pf_net.Nic.create link ~addr in
  let pf =
    Pfdev.create_smp engine smp costs stats ~variant:(Pf_net.Link.variant link)
      ~address:addr
      ~send:(fun frame -> Pf_net.Nic.send_frame nic frame)
  in
  let t =
    {
      name;
      engine;
      smp;
      steered;
      costs;
      stats;
      ctr =
        {
          inject = Stats.counter stats "host.inject";
          rx = Stats.counter stats "host.rx";
          interrupt_cpu_us = Stats.counter stats "host.interrupt_cpu_us";
          rx_unclaimed = Stats.counter stats "host.rx.unclaimed";
          rx_kernel_proto = Stats.counter stats "host.rx.kernel_proto";
          tx_kernel = Stats.counter stats "host.tx.kernel";
        };
      nic;
      pf;
      completions = [||];
      extra_interfaces = [];
      protocols = [];
      san_protocols = None;
    }
  in
  t.completions <- wire_rx t nic pf;
  t

(* Attach a concurrency sanitizer to the whole host: the primary packet
   filter device registers its shared objects ({!Pfdev.attach_san}, which
   also wires {!Smp.set_san} so lock and IPI edges flow in), and the
   host-wide protocol-dispatch table joins the registry as an
   IPI-published resource written only by boot-CPU configuration. *)
let attach_san t san =
  Pfdev.attach_san t.pf san;
  let res =
    San.register san ~name:"host.protocols" ~discipline:San.Ipi_published
  in
  San.declare_site san ~site:"Host.register_protocol" ~ctx:San.Boot ~locks:[]
    ~rw:`Write res;
  San.declare_site san ~site:"Host.rx:dispatch" ~ctx:San.Any_cpu ~locks:[]
    ~rw:`Read res;
  t.san_protocols <- Some (san, res)

let san t = Pfdev.san t.pf

let add_interface t link ~addr =
  let nic = Pf_net.Nic.create link ~addr in
  let pf =
    Pfdev.create_smp t.engine t.smp t.costs t.stats
      ~variant:(Pf_net.Link.variant link) ~address:addr
      ~send:(fun frame -> Pf_net.Nic.send_frame nic frame)
  in
  ignore (wire_rx t nic pf : (Pf_pkt.Packet.t -> unit) array);
  t.extra_interfaces <- t.extra_interfaces @ [ (nic, pf) ];
  (nic, pf)

(* Drive the primary interface's receive path directly, bypassing link
   arbitration and serialization — a packet source faster than any simulated
   wire, for scaling experiments where the link would otherwise be the
   bottleneck. Steering still applies. *)
let inject t frame =
  Stats.bump t.ctr.inject;
  let cpu_id = if t.steered then Pfdev.steer t.pf frame else 0 in
  rx t t.completions ~cpu:cpu_id frame

let interfaces t = (t.nic, t.pf) :: t.extra_interfaces
let join_multicast t group = Pf_net.Nic.join_multicast t.nic group

let spawn t ~name body = Process.spawn t.engine (cpu t) ~name body

(* Registration is a boot-CPU configuration action; in a real kernel it
   completes (with the table write globally visible) before any frame of
   the new type can be dispatched. Model that visibility barrier as
   explicit publication edges to every CPU — without them, a remote
   receive CPU's table read would look unordered after the write. *)
let san_protocols_write t =
  match t.san_protocols with
  | None -> ()
  | Some (san, res) ->
    San.write san ~cpu:0 res;
    for k = 1 to Smp.ncpus t.smp - 1 do
      let m = San.ipi_send san ~src:0 in
      San.ipi_receive san ~dst:k m
    done

let register_protocol t ~ethertype handler =
  t.protocols <- (ethertype, handler) :: List.remove_assoc ethertype t.protocols;
  san_protocols_write t

let unregister_protocol t ~ethertype =
  t.protocols <- List.remove_assoc ethertype t.protocols;
  san_protocols_write t

let in_kernel t ~cost k =
  let finish = Cpu.run (cpu t) ~owner:`Interrupt ~start:(Engine.now t.engine) ~cost in
  Engine.schedule t.engine ~at:finish k

let kernel_send t ~cost frame =
  in_kernel t ~cost (fun () ->
      Stats.bump t.ctr.tx_kernel;
      Pf_net.Nic.send_frame t.nic frame)

let set_promiscuous t flag = Pf_net.Nic.set_promiscuous t.nic flag
