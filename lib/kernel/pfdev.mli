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
(** Device on an SMP complex: one private flow cache per CPU, one dispatch
    automaton shared read-only by every CPU, a costed spinlock around
    shared-queue delivery — inert at one CPU — and a device generation
    that carries every port-table change to the other CPUs, each of which
    checks it at the start of its own demux. No interprocessor interrupt
    is sent. *)

val ncpus : t -> int
val smp : t -> Pf_sim.Smp.t

val attach_san : t -> Pf_sim.San.t -> unit
(** Attach a concurrency sanitizer ({!Pf_sim.San}): registers the device's
    shared objects with their locking disciplines (the delivery queue
    guarded by the delivery lock, the port table published through the
    device generation — each CPU syncs to the latest write at the start of
    its next demux, and the shared dispatch automaton is updated with the
    table and read under the same discipline — and the per-CPU flow caches
    and counters private to their CPU), declares every access site for the
    static lint, and starts
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
(** Take the port out of the port table, the flow key and the dispatch
    automaton, invalidate the cached decisions naming it, and wake its
    blocked readers. Closing a port that is already closed does nothing.

    Every port mutation ({!open_port}, [close_port], {!install},
    {!set_priority}, {!set_copy_all}, {!set_tap}) follows one rule. An
    open port leaves the port table, the flow key and the dispatch
    automaton; the change is applied; the port re-enters all three if it
    is open afterwards, at its place in priority-then-open order; and the
    change is published: the sanitizer sees one port-table write, the
    device generation moves, and each other CPU syncs to it at the start
    of its next demux. On a closed port only the port's record changes. A
    setter that changes nothing returns at once, and publishes nothing.

    The change invalidates only the flow-cache decisions it can alter,
    decided from the port's state before and after and from the flow key
    before and after:
    - a change to a port with no filter before and after ({!open_port},
      closing an unfiltered port, or its priority or flags) invalidates
      nothing: such a port accepts nothing and reads nothing;
    - closing a filtered port invalidates only the decisions naming it: a
      hit whose acceptors are not all open is a miss, classified and
      stored again, and the closing CPU empties its own such entries at
      once, so no entry on that CPU holds the port;
    - an install on an open port with no filter that lands in the walk's
      last slot invalidates only the decisions whose walk ran off the end
      (no acceptor, or a copy-all last one), through a tail generation
      each such entry records;
    - anything else, a change to the flow key included, is a full
      invalidation: the mutating CPU flushes its own cache at once, and
      every other CPU flushes its own when its next demux sees the
      generation moved. *)

type install_error = Invalid of Pf_filter.Validate.error

val pp_install_error : Format.formatter -> install_error -> unit

val install : port -> Pf_filter.Program.t -> (Pf_filter.Analysis.t, install_error) result
(** Validates ahead of time (section 7), runs the installation-time abstract
    interpretation ({!Pf_filter.Analysis}), and installs the filter with
    the priority in the program's header; charges a cost "comparable to
    that of receiving a packet" (section 3.1). Returns the recorded
    analysis. An invalid program is refused with [Invalid], and the port
    keeps its old filter. The engine the compile strategy and certify flag
    in force now call for is built, and certified, at the port's first
    filter run on a walk or its first {!port_certification}: a port whose
    automaton entry is exact never compiles. An install on an open port
    with no filter that lands in the walk's last slot and leaves the flow
    key as it was invalidates only the cached decisions whose walk ran off
    the end; any other install on an open port is a full invalidation
    ({!close_port}). *)

val set_filter : port -> Pf_filter.Program.t -> (unit, install_error) result
(** [install] without the analysis result. *)

val port_analysis : port -> Pf_filter.Analysis.t option
(** Analysis of the installed filter, recorded at installation time. *)

val port_certification : port -> Pf_filter.Equiv.certification option
(** Translation-validation outcome of the port's compilation, when the
    device was certifying ({!set_certify}) and compiling for [`Regvm] at
    install — [None] otherwise;
    builds the engine if it is not yet built ({!install}). [Refuted] and
    [Uncertified] mean the optimized form was {e rejected} and the port
    runs the checked stack engine; the witness packet, or why the check
    fell short, is kept for diagnosis. *)

val port_accepted : port -> int
(** Packets this port's filter has accepted (before queue-overflow drops). *)

val port_dropped : port -> int
(** Packets dropped on this port by queue overflow (§3.3). *)

val set_priority : port -> int -> unit
(** Re-rank the port without reinstalling its filter; the priority normally
    comes from the installed program's header ({!install}), and is clamped
    to that header's range, 0..255. On a closed port only the recorded
    priority changes. *)

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
    oracle and [test_dispatch] enforce this). Ports are ranked by their
    own priority, then open order — the walk order. Selecting
    [`Dispatch] builds the automaton once, from the filters each port
    compiled at install; from then on every port mutation ({!install},
    {!close_port}, {!set_priority}, {!set_copy_all}, {!set_tap}) updates
    that port's entry in place, and one instance serves every CPU.
    [`Sequential] drops it. Kernel-claimed packets bypass the automaton
    (taps-only delivery is a different port subset) and take the
    sequential walk. Selecting the current strategy does nothing.

    [`Decision_tree] raises [Invalid_argument] and leaves the device
    unchanged: use [`Dispatch], which is also section 7's decision
    table. *)

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
    device unchanged: use [`Off] or [`Regvm]. [`Regvm]'s pipeline makes the
    early exits the superoptimizer behind [`Regvm_super] used to find
    offline ({!Pf_filter.Regopt}).

    Applies to filters installed {e after} the call; already-installed
    ports keep their engine, built or not ({!install}). So no
    demultiplexing decision changes, and no cache is flushed. Verdicts are
    engine-independent (the fuzz oracle cross-checks all of them): a later
    install changes only the simulated cost. *)

val compile_strategy : t -> [ `Off | `Regvm ]

val set_certify : t -> bool -> unit
(** When enabled, whatever the compile strategy produces for a filter
    installed later is translation-validated against the installed program
    ({!Pf_filter.Equiv}) when it is built ({!install}), and counted then:
    a proof increments the device stat ["pf.certify.proved"], a confirmed
    counterexample increments ["pf.certify.refuted"] {e and} makes the
    port fall back to the checked stack engine (a refuted [`Regvm]
    compilation never runs), and an inconclusive check (a budget ran out,
    or a path pair stayed undecided) increments ["pf.certify.unknown"] and
    falls back the same way: only a proved compilation runs. Under [`Off]
    the installed program runs as it is: nothing is compiled, so nothing
    is certified or counted. The outcome is recorded on the port
    ({!port_certification}). Applies to installs {e after} the call,
    whenever their engine is built. Default: off. *)

val certify : t -> bool

val set_timeout : port -> Pf_sim.Time.t option -> unit
(** Default [None]: block indefinitely. *)

val set_queue_limit : port -> int -> unit
(** Maximum queued packets before overflow drops; default 32. *)

val set_copy_all : port -> bool -> unit
(** Deliver packets this port accepts to lower-priority filters as well
    (monitoring, multicast-style delivery; section 3.2). Like every port
    mutation ({!close_port}), this re-enters the port at its
    priority-then-open-order place, so it undoes a busier-first reorder's
    move of this port until the next reorder. On a closed port only the
    recorded flag changes: no cache is flushed. *)

val set_tap : port -> bool -> unit
(** See even the packets claimed by kernel-resident protocols (with
    [set_copy_all] this is what a network monitor uses). Re-enters the
    port as {!set_copy_all} does. On a closed port only the recorded flag
    changes: no cache is flushed. *)

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
    the shared dispatch automaton; delivery to the shared port queues takes the costed
    delivery spinlock when the device has more than one CPU.

    A demultiplexing {e flow cache} fronts the filter walk: decisions are
    memoized in a bounded table keyed on the packet bytes at the union
    {!Pf_filter.Analysis.t.read_set} of the installed filters, so a repeated
    header pattern costs one hash probe instead of a filter interpretation.
    That union is maintained as ports enter and leave the port table
    ({!open_port}, {!install}, {!close_port}), and a probe writes the key
    into a reused buffer. The cache — only the cache; the dispatch
    automaton and the key are updated by the mutation itself — is
    invalidated by every mutation that could change a decision, in the
    scope that mutation can alter (the port mutations of {!close_port}),
    and flushed whole by {!set_strategy}, {!set_cache_enabled}, and
    busier-first reorders that change the walk order. It is bypassed for
    kernel-claimed packets or when any installed
    filter's read set is [Unbounded], or while a hit cannot be cheaper than
    classifying: the automaton decides every packet alone
    ({!Pf_filter.Dispatch.decisive}) for no more than a probe and the key's
    hashed words. {!set_compile_strategy} and
    {!set_certify} apply to later installs only, and flush nothing.

    The demux first brings its CPU up to the device generation: it syncs
    to the latest port-table write and, if a full invalidation came since
    its last demux, flushes its own cache.

    On the host, a demux of a frame no port accepts allocates nothing, on
    the sequential walk or a cache hit. An accepted frame allocates what
    delivery keeps: the acceptor list (on a miss; a hit replays the cached
    one, and a miss also stores its key), the delivery event's closure
    (over the arrival time too only when an acceptor takes timestamps),
    and each acceptor's capture and queue cell — 15 minor words for one
    acceptor on the sequential walk, 12 on a cache hit. *)

(** {1 Flow-cache control and observability} *)

val set_cache_enabled : t -> bool -> unit
(** Default [true]. A change is a full invalidation ({!close_port});
    disabled, every packet takes the full filter walk (the paper-faithful
    configuration for reproducing the section 6.5 tables). *)

type cache_stats = {
  enabled : bool;
  entries : int;
      (** stored decisions, counting those a CPU will flush at its next
          demux or classify again at their next probe *)
  capacity : int;  (** entries per CPU's cache (256), FIFO eviction beyond *)
  hits : int;
  misses : int;
  bypasses : int;
      (** kernel-claimed packets, unbounded-read-set periods, and packets
          the automaton classifies for no more than a hit would cost *)
  invalidations : int;
      (** per-CPU flushes from full invalidations: one at once on the
          mutating CPU, and one on each other CPU at its next demux *)
  evictions : int;  (** capacity-pressure FIFO evictions *)
}

val cache_stats : t -> cache_stats
(** Summed over every CPU's cache since device creation, and kept here
    only: the device stats hold no copy. *)

val pp_cache_stats : Format.formatter -> cache_stats -> unit
(** One-line summary, as shown by [pftool] and [pfmon]. *)

(** {1 Dispatch-automaton observability} *)

type dispatch_stats = {
  rebuilds : int;  (** full builds: one per [set_strategy t `Dispatch] *)
  updates : int;
      (** port mutations applied to the automaton in place: installs,
          closes, and priority, copy-all and tap changes of a port with a
          filter *)
  classifies : int;  (** packets classified through the automaton *)
  exact_accepts : int;
      (** classifications won by an exact entry: slot match, zero filter
          instructions interpreted *)
  candidates_run : int;  (** same-slot candidate programs interpreted *)
  residual_runs : int;  (** residual-walk filter applications *)
}

val dispatch_stats : t -> dispatch_stats
(** Counters since device creation, kept here only: the device stats
    hold no copy. All zero unless the [`Dispatch] strategy was set. *)

(** {1 SMP: receive steering and per-CPU observability} *)

val steer : t -> Pf_pkt.Packet.t -> int
(** The receive CPU for a frame: a hash of the packet bytes at the union
    read set of the installed filters — the flow-cache key — modulo the CPU
    count, so every packet of one flow lands on the same CPU. Returns 0 on
    a single-CPU device, when the read set is unbounded, or when no filter
    constrains any word. Free of simulated cost (NIC hashing hardware) and
    allocation-free: the key is written into a reused buffer and hashed in
    place, with the hash of the same bytes as a string. The host wires this
    into {!Pf_net.Nic.set_rss}. *)

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
  ipis : int;
      (** interprocessor interrupts on the complex; the device sends none,
          so this reads 0 unless something else does *)
}

val smp_stats : t -> smp_stats
(** Per-CPU counters since device creation, kept here only: the device
    stats hold no copy. A reader's contended delivery-lock acquisitions
    count in CPU 0's row, where readers run, so the rows' [lock_waits] and
    [lock_wait_us] sum to [lock_contended] and [lock_wait_total_us].
    Meaningful but degenerate on a single-CPU device: one row, no locks,
    no IPIs. *)

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

(** {1 Test hooks} *)

module For_testing : sig
  val skip_install_invalidation : bool ref
  (** When set, every port mutation ({!close_port} lists them) still
      publishes its port-table write but invalidates nothing: no full
      invalidation is marked, no tail generation moves, and the closing
      CPU empties no entry — the "forgot to invalidate" kernel bug; the
      name is the one [pftool] and [pffuzz] use. The differential suite
      flips this to prove the cold/warm/disabled demux oracle catches
      stale entries; never set it outside tests. *)

  val skip_remote_invalidation : bool ref
  (** When set, a full invalidation flushes the mutating CPU's flow cache,
      but the device generation does not advance, so no other CPU catches
      up — the SMP variant of the same bug: a kernel that forgot the other
      CPUs exist, leaving remote caches answering from entries stored
      under the old filter set, and remote demuxes reading the port table
      without syncing to its latest write. The flag is read only while a
      mutation publishes. Flipped by the differential suite, around one
      mutation, to prove the oracle catches stale remote decisions; never
      set it outside tests. *)

  val skip_delivery_lock : bool ref
  (** When set, {!demux} inserts into the shared port queues without taking
      the delivery lock. Verdicts and queue contents never change (the
      simulator serializes demux events), so the differential oracle is
      blind to this one — it exists to prove the concurrency sanitizer's
      lockset checker catches it. Never set it outside tests. *)

  val pending_watchers : port -> int
  (** The {!select} calls still registered on this port. A select that has
      returned, woken or timed out, leaves none behind. *)

  val flow_key : t -> Pf_filter.Analysis.read_set
  (** The maintained flow key: the union read set of the open ports'
      filters, [Unbounded] while any of them is. *)

  val walk_order : t -> port list
  (** The open ports in the order the sequential walk tries them. *)
end
