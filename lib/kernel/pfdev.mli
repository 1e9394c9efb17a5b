(** The packet filter pseudodevice (section 4).

    A character-special-device driver layered above the network interface
    driver. Each open {e port} carries a user-installed filter; received
    frames are checked against each filter in order of decreasing priority
    until one accepts (figure 4-1), then queued on the accepting port for a
    later [read]. Reads block with an optional timeout, return whole frames
    including the data-link header, and can return all queued packets in one
    batch. Writes transmit a complete pre-framed packet.

    All user-facing calls ([read], [read_batch], [write], [select],
    [set_filter]) must run inside a simulated process and charge the
    appropriate system-call, copy, and context-switch costs; the kernel-side
    [demux] runs in interrupt context. *)

type t
type port

val create :
  Pf_sim.Engine.t ->
  Pf_sim.Cpu.t ->
  Pf_sim.Costs.t ->
  Pf_sim.Stats.t ->
  variant:Pf_net.Frame.variant ->
  address:Pf_net.Addr.t ->
  send:(Pf_pkt.Packet.t -> unit) ->
  t
(** Single-CPU device (wraps the CPU in a one-CPU {!Pf_sim.Smp.t});
    cost-for-cost identical to every pre-SMP release. *)

val create_smp :
  Pf_sim.Engine.t ->
  Pf_sim.Smp.t ->
  Pf_sim.Costs.t ->
  Pf_sim.Stats.t ->
  variant:Pf_net.Frame.variant ->
  address:Pf_net.Addr.t ->
  send:(Pf_pkt.Packet.t -> unit) ->
  t
(** Device on an SMP complex: one private flow cache and dispatch automaton
    per CPU, a costed spinlock around shared-queue delivery, and costed IPI
    broadcasts on every invalidation — all inert at one CPU. *)

val ncpus : t -> int
val smp : t -> Pf_sim.Smp.t

val attach_san : t -> Pf_sim.San.t -> unit
(** Attach a concurrency sanitizer ({!Pf_sim.San}): registers the device's
    shared objects with their locking disciplines (the delivery queue
    guarded by the delivery lock, the port table published by invalidation
    IPIs, the per-CPU flow caches / dispatch automata / counters private to
    their CPU), declares every access site for the static lint, and starts
    routing each shared-state access through the checker. Each instrumented
    access charges {!Pf_sim.Costs.t.san_access} to the demuxing CPU; with
    no sanitizer attached the instrumentation is dead code with zero cost
    and zero allocation, so all legacy accounting is byte-identical.
    Raises [Invalid_argument] if the sanitizer's CPU count differs from the
    device's. *)

val san : t -> Pf_sim.San.t option

(** {1 Port lifecycle and control (the open/close/ioctl surface)} *)

val open_port : t -> port
(** A fresh port with the empty (reject-nothing… accept-everything) filter
    {e not} yet installed: a port with no filter matches nothing. *)

val close_port : port -> unit

type install_error =
  | Invalid of Pf_filter.Validate.error
  | Cost_limit_exceeded of { bound : int; limit : int }
      (** The filter's worst-case {!Pf_filter.Analysis.t.cost_bound} exceeds
          the device's admission limit ({!set_cost_limit}). *)

val pp_install_error : Format.formatter -> install_error -> unit

val install : port -> Pf_filter.Program.t -> (Pf_filter.Analysis.t, install_error) result
(** Validates ahead of time (section 7), runs the installation-time abstract
    interpretation ({!Pf_filter.Analysis}), applies cost-bound admission
    control, and installs; charges a cost "comparable to that of receiving a
    packet" (section 3.1). Returns the recorded analysis. *)

val set_filter : port -> Pf_filter.Program.t -> (unit, install_error) result
(** [install] without the analysis result. *)

val set_cost_limit : t -> int option -> unit
(** Admission control: refuse filters whose worst-case cost bound (abstract
    cycles per packet) exceeds the limit. Default [None] (no limit); does not
    re-examine already-installed filters. *)

val port_analysis : port -> Pf_filter.Analysis.t option
(** Analysis of the installed filter, recorded at installation time. *)

val port_certification : port -> Pf_filter.Equiv.certification option
(** Translation-validation outcome of the install-time compilation,
    recorded when the device was certifying ({!set_certify}) — [None]
    otherwise. [Refuted] means the optimized form was {e rejected} and the
    port runs a fallback engine; the witness packet is kept for
    diagnosis. *)

val port_id : port -> int
(** Stable identifier, for correlating {!filter_relations} output. *)

val port_accepted : port -> int
(** Packets this port's filter has accepted (before queue-overflow drops). *)

val port_dropped : port -> int
(** Packets dropped on this port by queue overflow (§3.3). *)

val set_priority : port -> int -> unit
(** Re-rank the port without reinstalling its filter; the priority normally
    comes from the installed program's header ({!install}). *)

(** {2 Engine configuration}

    Two demultiplexing strategies × two compile strategies: four kernel
    engine configurations. The setters still accept the tags of the
    engines removed from the kernel, and refuse them with
    [Invalid_argument]; the tag sets narrow once the benchmark harness
    stops naming them. *)

val set_strategy : t -> [ `Sequential | `Decision_tree | `Dispatch ] -> unit
(** Demultiplexing strategy. [`Sequential] (the default) applies filters in
    priority order, figure 4-1. [`Dispatch] compiles the whole port set
    into the cross-filter dispatch automaton ({!Pf_filter.Dispatch}):
    classification cost grows with the number of guard-signature
    {e groups}, not the number of ports. Copy-all and tap ports join the
    residual walk, which is merged with the automaton winner by walk rank,
    so delivered-port sets are identical to the sequential walk (the fuzz
    oracle and [test_dispatch] enforce this). The automaton is rebuilt
    lazily after exactly the mutations that flush the flow cache.
    Kernel-claimed packets bypass the automaton (taps-only delivery is a
    different port subset) and take the sequential walk.

    [`Decision_tree] raises [Invalid_argument] and leaves the device
    unchanged: use [`Dispatch]. Section 7's decision tree remains a
    library module ({!Pf_filter.Decision}). *)

val set_compile_strategy :
  t -> [ `Off | `Raise_only | `Regvm | `Regvm_super ] -> unit
(** How {!install} compiles filters:

    - [`Off] (the default): interpret the stack program as installed — the
      paper-faithful configuration; every existing experiment is unchanged.
    - [`Regvm]: execute the {!Pf_filter.Regopt}-optimized register IR
      directly ({!Pf_filter.Regvm}) on the sequential walk, charged at the
      register-VM cost model ({!Pf_sim.Costs.t.regvm_insn}). The dispatch
      automaton runs its candidates on the stack compilation.

    [`Raise_only] and [`Regvm_super] raise [Invalid_argument] and leave the
    device unchanged: use [`Off] or [`Regvm]. The stochastic superoptimizer
    runs offline ([pftool superopt], {!Pf_filter.Regvm.compile_super}).

    Applies to filters installed {e after} the call; already-installed
    ports keep their engine. Verdicts are engine-independent (the fuzz
    oracle cross-checks all of them), so demultiplexing decisions do not
    change — only their simulated cost. *)

val compile_strategy : t -> [ `Off | `Regvm ]

val set_certify : t -> bool -> unit
(** When enabled, {!install} translation-validates whatever the compile
    strategy produced against the installed program
    ({!Pf_filter.Equiv}): a proof increments the device stat
    ["pf.certify.proved"], a confirmed counterexample increments
    ["pf.certify.refuted"] {e and} makes the port fall back to the checked
    stack engine (a refuted [`Regvm] compilation never runs), and an
    inconclusive check increments ["pf.certify.unknown"] and keeps the
    optimized form. Under [`Off] the installed program is its own
    compilation and certifies trivially. The outcome is recorded on the
    port ({!port_certification}). Applies to installs {e after} the call.
    Default: off. *)

val certify : t -> bool

type engine_stats = {
  engine : [ `Stack | `Regvm ];  (** how this port was compiled *)
  applications : int;
      (** filter applications: sequential-walk runs and dispatch-automaton
          candidate or residual runs *)
  insns_executed : int;
      (** instructions executed by those applications: IR instructions when
          a [`Regvm] port runs on the walk, stack instructions otherwise *)
  insns_source : int;  (** instructions in the program as installed *)
  insns_compiled : int;
      (** instructions actually run per worst-case application: the
          source's for [`Stack], the optimized IR's for [`Regvm] *)
}

val port_engine_stats : port -> engine_stats option
(** Per-port compiled-engine counters; [None] while no filter is
    installed. Reset by each {!install}. *)

val set_timeout : port -> Pf_sim.Time.t option -> unit
(** Default [None]: block indefinitely. *)

val set_queue_limit : port -> int -> unit
(** Maximum queued packets before overflow drops; default 32. *)

val set_copy_all : port -> bool -> unit
(** Deliver packets this port accepts to lower-priority filters as well
    (monitoring, multicast-style delivery; section 3.2). *)

val set_tap : port -> bool -> unit
(** See even the packets claimed by kernel-resident protocols (with
    [set_copy_all] this is what a network monitor uses). *)

val set_timestamps : port -> bool -> unit
(** Mark each received packet with the arrival time (costs a [microtime]
    call, section 7). *)

val set_signal : port -> (unit -> unit) option -> unit
(** Interrupt-like notification on packet arrival (the "signal" facility of
    section 3.3); runs in kernel context at enqueue time. *)

(** {1 Data transfer} *)

type capture = {
  packet : Pf_pkt.Packet.t;
  timestamp : Pf_sim.Time.t option;
  dropped_before : int;  (** overflow drops on this port so far (§3.3) *)
}

val read : port -> capture option
(** Blocking read of one packet; [None] when the port timeout expires. *)

val read_batch : port -> capture list
(** Blocking read of {e all} queued packets in one system call (§3's
    batching); [[]] on timeout. *)

val write : port -> Pf_pkt.Packet.t -> unit
(** Queue a complete frame for transmission; "control returns to the user
    once the packet is queued" (§3). Unreliable, like the data link. *)

val write_batch : port -> Pf_pkt.Packet.t list -> unit
(** The write-batching option contemplated in section 7: several packets in
    one system call. *)

val poll : port -> int
(** Queued-packet count, without blocking or cost (select's helper). *)

val select : ?timeout:Pf_sim.Time.t -> port list -> port list
(** Block until at least one port has queued packets; returns the ready
    subset, [[]] on timeout. *)

(** {1 Kernel interface} *)

val demux : t -> ?cpu:int -> ?kernel_claimed:bool -> Pf_pkt.Packet.t -> bool
(** Apply the filters (figure 4-1) and queue on accepting ports; to be called
    at interrupt level by the host after charging device-driver costs.
    [kernel_claimed] marks packets consumed by kernel-resident protocols:
    only tap ports see those. Returns whether any port accepted.

    [cpu] (default 0) is the CPU the interrupt runs on — normally the one
    {!steer} picked. Classification uses that CPU's private flow cache and
    dispatch automaton; delivery to the shared port queues takes the costed
    delivery spinlock when the device has more than one CPU.

    A demultiplexing {e flow cache} fronts the filter walk: decisions are
    memoized in a bounded table keyed on the packet bytes at the union
    {!Pf_filter.Analysis.t.read_set} of the installed filters, so a repeated
    header pattern costs one hash probe instead of a filter interpretation.
    The cache is transparently flushed by every mutation that could change a
    decision ({!open_port}, {!close_port}, {!install}/{!set_filter},
    {!set_priority}, {!set_strategy}, {!set_copy_all}, {!set_tap},
    {!set_cost_limit}, and busier-first reorders that change the walk order)
    and bypassed for kernel-claimed packets or when any installed filter's
    read set is [Unbounded]. *)

(** {1 Flow-cache control and observability} *)

val set_cache_enabled : t -> bool -> unit
(** Default [true]. Disabling flushes the cache; every packet then takes the
    full filter walk (the paper-faithful configuration for reproducing the
    section 6.5 tables). *)

val set_cache_capacity : t -> int -> unit
(** Bounded size (entries), FIFO eviction beyond it; default 256, clamped to
    at least 1. Changing it flushes the cache. *)

type cache_stats = {
  enabled : bool;
  entries : int;  (** currently cached decisions *)
  capacity : int;
  hits : int;
  misses : int;
  bypasses : int;  (** kernel-claimed packets + unbounded-read-set periods *)
  invalidations : int;  (** full flushes from configuration changes *)
  evictions : int;  (** capacity-pressure FIFO evictions *)
}

val cache_stats : t -> cache_stats
val pp_cache_stats : Format.formatter -> cache_stats -> unit
(** One-line summary, as shown by [pftool] and [pfmon]. *)

(** {1 Dispatch-automaton observability} *)

type dispatch_stats = {
  rebuilds : int;  (** lazy automaton rebuilds after an invalidation *)
  classifies : int;  (** packets classified through the automaton *)
  exact_accepts : int;
      (** classifications won by an exact entry: slot match, zero filter
          instructions interpreted *)
  candidates_run : int;  (** same-slot candidate programs interpreted *)
  residual_runs : int;  (** residual-walk filter applications *)
}

val dispatch_stats : t -> dispatch_stats
(** Counters since device creation (also mirrored as ["pf.dispatch.*"]
    device stats); all zero unless the [`Dispatch] strategy has run. *)

val pp_dispatch_stats : Format.formatter -> dispatch_stats -> unit

(** {1 SMP: receive steering and per-CPU observability} *)

val steer : t -> Pf_pkt.Packet.t -> int
(** The receive CPU for a frame: a hash of the packet bytes at the union
    read set of the installed filters — the flow-cache key — modulo the CPU
    count, so every packet of one flow lands on the same CPU. Returns 0 on
    a single-CPU device, when the read set is unbounded, or when no filter
    constrains any word. Free of simulated cost (NIC hashing hardware); the
    host wires this into {!Pf_net.Nic.set_rss}. *)

type smp_cpu_stats = {
  cpu : int;
  packets : int;  (** frames demultiplexed on this CPU *)
  cache_hits : int;  (** this CPU's private flow cache *)
  cache_misses : int;
  lock_waits : int;  (** contended delivery-lock acquisitions *)
  lock_wait_us : int;  (** virtual time spent spinning *)
  ipis_sent : int;
  ipis_received : int;
  busy_us : int;
  idle_us : int;
}

type smp_stats = {
  ncpus : int;
  per_cpu : smp_cpu_stats list;  (** ascending CPU id *)
  lock_acquisitions : int;  (** delivery lock, all CPUs *)
  lock_contended : int;
  lock_wait_total_us : int;
  ipis : int;  (** total interprocessor interrupts (invalidation broadcasts) *)
}

val smp_stats : t -> smp_stats
(** Per-CPU counters (also mirrored as ["pf.smp.*"] device stats when the
    device has more than one CPU). Meaningful but degenerate on a
    single-CPU device: one row, no locks, no IPIs. *)

val pp_smp_stats : Format.formatter -> smp_stats -> unit

(** {1 Status (section 3.3)} *)

type status = {
  variant : Pf_net.Frame.variant;
  header_length : int;
  address_length : int;
  mtu : int;
  address : Pf_net.Addr.t;
  broadcast : Pf_net.Addr.t;
}

val status : t -> status
val active_ports : t -> int

val filter_relations : t -> (int * int * Pf_filter.Analysis.relation) list
(** Pairwise {!Pf_filter.Analysis.relate} over every open port with an
    installed filter, as [(port_id_a, port_id_b, relate a b)] — the
    subsumption/disjointness map the pseudodevice surfaces to operators. *)

val shadowed_ports : t -> (port * port) list
(** [(shadowed, by)] pairs: [shadowed]'s filter is proven subsumed by (or
    equivalent to) a strictly-higher-priority port's filter that is not
    copy-all, so [shadowed] can never receive a packet — almost certainly a
    configuration mistake. *)

(** {1 Test hooks} *)

module For_testing : sig
  val skip_install_invalidation : bool ref
  (** When set, {!install}/{!set_filter} leave the flow cache alone — the
      "forgot to invalidate" kernel bug. The differential suite flips this
      to prove the cold/warm/disabled demux oracle catches stale entries;
      never set it outside tests. *)

  val skip_remote_invalidation : bool ref
  (** When set, invalidations flush only the mutating CPU's flow cache and
      skip the IPI broadcast — the SMP variant of the same bug: a kernel
      that forgot the other CPUs exist, leaving remote caches answering
      from entries stored under the old filter set. Flipped by the
      differential suite to prove the oracle catches stale remote
      decisions; never set it outside tests. *)

  val skip_delivery_lock : bool ref
  (** When set, {!demux} inserts into the shared port queues without taking
      the delivery lock. Verdicts and queue contents never change (the
      simulator serializes demux events), so the differential oracle is
      blind to this one — it exists to prove the concurrency sanitizer's
      lockset checker catches it. Never set it outside tests. *)
end
