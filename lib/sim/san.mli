(** Pfsan: a lockset + happens-before concurrency sanitizer for the
    simulated SMP kernel.

    The deterministic simulator drives the checker: kernel code declares
    every shared object in a {e resource registry} together with its
    locking discipline, then routes each access through {!read}/{!write}.
    The checker maintains Eraser-style candidate locksets per resource and
    per-CPU vector clocks advanced by lock acquire/release and IPI edges,
    and reports:

    - an access to a [Guarded_by] resource whose candidate lockset
      intersection goes empty once the resource is shared ({e lockset
      violation});
    - an access to a [Cpu_private] resource from any CPU but its owner;
    - a read of an [Ipi_published] resource that is not happens-after the
      latest conflicting write ({e missing synchronization edge});
    - a flow-cache hit served from an entry that predates the last full
      invalidation, on a CPU that has not flushed since ({e stale hit} —
      the cache-coherence protocol checker);
    - lock misuse funneled from the lock model itself (double release,
      release by non-owner, reentrant acquire).

    Everything here is bookkeeping over the virtual execution: attaching a
    sanitizer never changes verdicts or event order. The simulated cost of
    instrumentation is charged by the kernel ({!Costs.t.san_access} per
    instrumented access), so `bench smp` can measure the modeled overhead.

    What Pfsan can and cannot prove: the simulator serializes all events on
    one OS thread, so no physical data race ever corrupts state — Pfsan
    checks the {e discipline} (would this access have been safe on real
    silicon?) from the trace alone. The protocol it checks is the one the
    kernel's generation number implements: every write of the published
    configuration is a publication each CPU syncs to before its next read
    of it, and a full invalidation makes every older cache entry stale on
    each CPU until that CPU flushes. What it verifies is that no CPU reads
    the configuration before syncing to its latest write, and none serves a
    hit from an entry stored before the latest full invalidation. *)

type t

type resource

(** How a registered shared object is allowed to be accessed. *)
type discipline =
  | Guarded_by of string
      (** every access once shared must hold the named lock *)
  | Cpu_private of int  (** only the owning CPU may touch it *)
  | Ipi_published
      (** written by one CPU, published to the others by IPI or {!sync}
          edges; reads must be happens-after the latest write *)

val create : ?stats:Stats.t -> ncpus:int -> unit -> t
(** A fresh checker for an [ncpus]-CPU complex. When [stats] is given,
    every counter is mirrored there under ["pf.san.*"] keys (the surface
    [pfmon] and [pftool smp --san] print). *)

val ncpus : t -> int

(** {1 The shared-resource registry} *)

val register : t -> name:string -> discipline:discipline -> resource
val resource_name : resource -> string
val registry : t -> (string * discipline) list
(** Registration order. *)

val pp_discipline : Format.formatter -> discipline -> unit

(** {1 Instrumented accesses} *)

val read : t -> cpu:int -> resource -> unit
val write : t -> cpu:int -> resource -> unit

(** {1 Synchronization edges} *)

val lock_acquired : t -> cpu:int -> string -> unit
(** The CPU now holds the named lock: joins the acquirer's vector clock
    with the lock's release clock and adds the lock to the CPU's held
    set. Driven by {!Smp.Lock.acquire}. *)

val lock_released : t -> cpu:int -> string -> unit

type msg
(** A happens-before token carried by an in-flight IPI. *)

val ipi_send : t -> src:int -> msg
val ipi_receive : t -> dst:int -> msg -> unit

val lock_misuse : t -> cpu:int -> lock:string -> kind:string -> unit
(** Funnel for the lock model's own misuse detection (double release,
    release by non-owner, reentrant acquire). *)

(** {1 The cache-coherence protocol checker}

    One coherence domain per checker: the device's acceptor configuration
    (its port table). Publication and invalidation are separate events.
    [publish] is a write of the configuration, which every CPU must [sync]
    to before it reads the configuration again; a read that is not
    happens-after the latest write is reported as unordered ({!read}).
    [invalidate] is a full invalidation: it starts a new epoch, and every
    cache entry stored before it is stale until its CPU [flush]es.
    [note_store] and [note_hit] shadow the per-CPU flow caches. A hit on
    an entry stored under an older epoch — possible only when a full
    invalidation never reached that CPU's cache — is reported as a stale
    hit naming the invalidating CPU, the serving CPU, and the missing
    invalidation edge. Invalidations narrower than a full one are the
    kernel's to get right: the checker does not see them. *)

val publish : t -> cpu:int -> resource -> unit
val sync : t -> cpu:int -> resource -> unit
val invalidate : t -> cpu:int -> resource -> unit
val flush : t -> cpu:int -> resource -> unit
val note_store : t -> cpu:int -> resource -> key:string -> unit
val note_hit : t -> cpu:int -> resource -> key:string -> unit

(** {1 Reports} *)

type kind =
  | Lockset_violation
  | Cpu_private_violation
  | Unordered_access
  | Stale_cache_hit
  | Lock_misuse

type report = {
  kind : kind;
  resource : string;
  cpus : int list;  (** involved CPUs: prior/owner first, violator last *)
  missing : string;  (** the missing lock or synchronization edge *)
  detail : string;
  occurrences : int;  (** identical violations are deduplicated *)
}

val reports : t -> report list
(** Unique reports in first-occurrence order. *)

val report_count : t -> int
(** Total violations observed (before deduplication). *)

val kind_name : kind -> string
val pp_report : Format.formatter -> report -> unit
val pp : Format.formatter -> t -> unit
(** Counter summary plus every report. *)

val counters : t -> (string * int) list
(** The ["pf.san.*"] counter set (sorted by key), independent of whether a
    {!Stats.t} was attached. *)

(** {1 Static lock-discipline lint}

    Kernel code additionally declares its {e access sites} — where in the
    source each resource is touched, under which locks (in acquisition
    order), from which CPU context — and, optionally, an intended
    lock-order DAG. {!Lint.run} walks those declarations against the
    registry without running any traffic. *)

type ctx = Boot | On_cpu of int | Any_cpu

val declare_lock : t -> string -> unit
val declare_lock_order : t -> before:string -> after:string -> unit
(** An intended ordering edge: [before] may be held while acquiring
    [after], never the reverse. *)

val declare_site :
  t ->
  site:string ->
  ctx:ctx ->
  locks:string list ->
  rw:[ `Read | `Write ] ->
  resource ->
  unit

module Lint : sig
  type finding = {
    kind : [ `Undeclared_sharing | `Inconsistent_guard | `Lock_order_inversion ];
    subject : string;  (** the resource or lock cycle at fault *)
    detail : string;
  }

  val run : t -> finding list
  val kind_name : finding -> string
  val pp_finding : Format.formatter -> finding -> unit
end
