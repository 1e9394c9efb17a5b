(** A simulated host: one CPU, one network interface, a kernel.

    The kernel's receive path (figure 3-3): the interface interrupt charges
    device-driver time, then the frame goes to the kernel-resident protocol
    registered for its type field, if any — IP, ARP, kernel VMTP — and
    otherwise (or additionally, for tap ports) to the packet filter. Both
    worlds coexist, "without affecting [each other's] performance" (§6). *)

type t

val create :
  ?costs:Pf_sim.Costs.t ->
  ?ncpus:int ->
  Pf_net.Link.t ->
  name:string ->
  addr:Pf_net.Addr.t ->
  t
(** Attaches a fresh NIC to the link and installs the kernel receive
    handler. [costs] defaults to {!Pf_sim.Costs.microvax_ii}.

    [ncpus] selects the SMP receive path: the NIC steers each arriving
    frame to one of [ncpus] CPUs by hashing the flow-cache key bytes
    ({!Pfdev.steer}), and the whole receive half — driver interrupt plus
    packet filter demultiplexing — runs on that CPU against its private
    flow cache. Omitted (the default), the host is the legacy single-CPU
    machine: one CPU, single-queue NIC, no steering. [~ncpus:1] takes the
    steering code path on one CPU and is cost-for-cost identical to the
    default (the SMP accounting gate in [bench smp] checks exactly this).
    Processes and kernel-resident protocol work always run on CPU 0. *)

val name : t -> string
val engine : t -> Pf_sim.Engine.t

val cpu : t -> Pf_sim.Cpu.t
(** CPU 0, the boot CPU. *)

val smp : t -> Pf_sim.Smp.t
val ncpus : t -> int
val costs : t -> Pf_sim.Costs.t
val stats : t -> Pf_sim.Stats.t
val nic : t -> Pf_net.Nic.t
(** The primary interface. *)

val addr : t -> Pf_net.Addr.t
val pf : t -> Pfdev.t
(** The packet filter device of the primary interface (like ULTRIX's
    /dev/pf0: one pseudodevice unit per interface). *)

val attach_san : t -> Pf_sim.San.t -> unit
(** Attach a concurrency sanitizer to the host: the primary device's
    shared objects ({!Pfdev.attach_san}) plus the host-wide
    protocol-dispatch table, which each registration publishes from the
    boot CPU and every CPU syncs to. The sanitizer must have been created
    with the host's CPU count. Attach before traffic; attaching never
    changes verdicts, event order, or any legacy counter. *)

val san : t -> Pf_sim.San.t option

val add_interface : t -> Pf_net.Link.t -> addr:Pf_net.Addr.t -> Pf_net.Nic.t * Pfdev.t
(** Attach another interface (a gateway machine sits on two networks); it
    gets its own packet filter unit, like /dev/pf1. Kernel protocol
    handlers are host-wide and see frames from every interface. *)

val interfaces : t -> (Pf_net.Nic.t * Pfdev.t) list
(** All interfaces, primary first. *)

val join_multicast : t -> Pf_net.Addr.t -> unit
(** Subscribe the primary interface to an Ethernet multicast group. *)

val inject : t -> Pf_pkt.Packet.t -> unit
(** Hand a frame straight to the primary interface's receive path — no link
    arbitration or wire serialization, but full receive-side costs (driver
    interrupt, demultiplexing, delivery) and, on an SMP host, full receive
    steering. For load generators that must exceed any simulated wire rate
    (the CPU-scaling experiments). *)

val spawn : t -> name:string -> (unit -> unit) -> Pf_sim.Process.t
(** Start a user process on this host. *)

val register_protocol : t -> ethertype:int -> (Pf_pkt.Packet.t -> unit) -> unit
(** Install a kernel-resident protocol handler for a type field value. The
    handler runs in kernel (interrupt) context after device-driver costs are
    charged; it should charge its own protocol-processing costs via
    {!in_kernel}. Packets it receives are "claimed": ordinary packet filter
    ports no longer see them, tap ports still do. *)

val unregister_protocol : t -> ethertype:int -> unit

val in_kernel : t -> cost:Pf_sim.Time.t -> (unit -> unit) -> unit
(** [in_kernel t ~cost k] charges kernel CPU time at interrupt level and runs
    [k] when that work retires. For kernel-resident protocol modules. *)

val kernel_send : t -> cost:Pf_sim.Time.t -> Pf_pkt.Packet.t -> unit
(** Transmit a frame from kernel context after charging [cost] (protocol +
    driver send path). *)

val set_promiscuous : t -> bool -> unit
(** Put the interface in promiscuous mode (network monitoring, §5.4). *)
