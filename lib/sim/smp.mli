(** An SMP complex: N {!Cpu.t}s sharing one discrete-event {!Engine}, with
    the two cross-CPU cost primitives a multiprocessor kernel pays for —
    costed spinlocks and costed interprocessor interrupts.

    The single-CPU complex ([ncpus = 1]) is cost-identical to a bare
    {!Cpu.t}: no locks are ever contended, no IPIs ever sent, so every
    single-processor simulation keeps its exact legacy accounting.

    Determinism: all cross-CPU scheduling here iterates CPUs in ascending
    id order, so the engine's (time, sequence) order coincides with a
    (time, CPU id, sequence) tie-break and repeated runs are bit-identical. *)

type t

val create : ?ncpus:int -> Engine.t -> Costs.t -> t
(** Fresh CPUs; [ncpus] defaults to 1. *)

val of_cpus : Engine.t -> Costs.t -> Cpu.t array -> t
(** Wrap existing CPUs (the compatibility path for code that built its own
    {!Cpu.t}). *)

val ncpus : t -> int
val costs : t -> Costs.t
val engine : t -> Engine.t

val cpu : t -> int -> Cpu.t
(** CPU by id, [0 .. ncpus-1]. CPU 0 is the boot CPU: user processes and
    kernel-resident protocol work run there. *)

val ipi : t -> src:int -> dst:int -> (unit -> unit) -> unit
(** Post an interprocessor interrupt: charges {!Costs.t.ipi_send} on [src]
    now, then after {!Costs.t.ipi_latency} charges {!Costs.t.ipi_receive}
    on [dst] and runs the callback when that interrupt work retires. *)

val ipi_broadcast : t -> src:int -> (int -> unit) -> unit
(** One {!ipi} to every CPU except [src], in ascending id order. *)

val ipis_sent : t -> int -> int
val ipis_received : t -> int -> int
val total_ipis : t -> int

val set_san : t -> San.t -> unit
(** Attach a concurrency sanitizer: every subsequent {!ipi} carries a
    happens-before token from sender to receiver, and every
    {!Lock.acquire}/{!Lock.release} advances the acquiring CPU's vector
    clock. Attaching never changes costs, event order, or counters. *)

val san : t -> San.t option

(** A costed spinlock: models the virtual time a CPU burns spinning on a
    lock word another CPU holds. The simulation is single-threaded, so the
    lock serializes nothing for real — it only accounts contention.

    The lock model additionally tracks {e logical} ownership (which CPU
    holds the lock between acquire and release) purely for misuse
    detection: reentrant acquire, double release, and release by a
    non-owner are recorded in {!misuses} and reported to an attached
    {!San.t}, without ever perturbing the time accounting. *)
module Lock : sig
  type lock

  type misuse =
    | Reentrant_acquire of int  (** acquiring CPU already held the lock *)
    | Double_release of int  (** released while nobody held it *)
    | Release_by_non_owner of { cpu : int; owner : int }

  val create : ?name:string -> t -> lock
  (** [name] (default ["lock"]) identifies the lock in sanitizer reports
      and lockset tracking. *)

  val name : lock -> string

  val acquire : lock -> cpu:int -> start:Time.t -> hold:Time.t -> Time.t
  (** [acquire l ~cpu ~start ~hold] acquires at virtual time [start],
      holding the lock for [Costs.lock_acquire + hold] once granted.
      Returns the {e wait}: how long the acquiring CPU spun before the
      grant (0 when uncontended). The caller charges
      [wait + Costs.lock_acquire + hold] to its own CPU — the spin burns
      the acquirer's cycles. [cpu] is the acquiring CPU, used only for
      ownership tracking and sanitizer edges. *)

  val release : lock -> cpu:int -> unit
  (** Logical release by [cpu]. Purely bookkeeping — the virtual-time hold
      was already fixed by {!acquire}'s [hold] — but it closes the
      ownership window, checks for double release / release by non-owner,
      and emits the sanitizer's release edge. *)

  val acquisitions : lock -> int
  val contended : lock -> int
  (** Acquisitions that had to spin. *)

  val wait_time : lock -> Time.t
  (** Total virtual time spent spinning. *)

  val misuses : lock -> misuse list
  (** Detected misuses in detection order. *)

  val misuse_name : misuse -> string
  val pp_misuse : Format.formatter -> misuse -> unit
end

type lock = Lock.lock
