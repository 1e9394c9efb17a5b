(** Simulated processes.

    A process is an OCaml function run as a coroutine over the event engine
    (via effect handlers), so protocol code reads sequentially — "write; read
    with timeout; retry if necessary", exactly the paradigm of section 3 —
    while the engine interleaves processes in virtual time.

    A process advances the clock only through {!use_cpu} (which serializes on
    the host {!Cpu.t} and pays context-switch charges), {!pause} (wall time
    without CPU), and {!suspend} (blocking). All three must be called from
    inside a process body; calling them elsewhere raises
    [Effect.Unhandled]. *)

type t

val spawn : Engine.t -> Cpu.t -> name:string -> (unit -> unit) -> t
(** The body starts at the current virtual time. An exception escaping the
    body is re-raised out of [Engine.run]. *)

val id : t -> int
val name : t -> string
val state : t -> [ `Runnable | `Blocked | `Dead ]

val self : unit -> t
(** The currently running process. Raises [Failure] outside any process. *)

val running : unit -> bool
(** Whether the caller is inside a process body (setup code run from the
    main program is not; it skips CPU charging). *)

(** {1 Operations (inside a process body)} *)

val use_cpu : Time.t -> unit
(** Consume CPU time on the host CPU (queueing behind other work and paying a
    context switch if another process ran since).

    On the host, one wake-up allocates one closure (the event that resumes
    the process) plus what the effect itself needs: a [use_cpu] round trip
    is 12 minor words on OCaml 5.1. *)

val pause : Time.t -> unit
(** Let virtual time pass without using the CPU. *)

val suspend : ?timeout:Time.t -> (('a -> bool) -> unit) -> 'a option
(** [suspend ?timeout register] blocks the caller. [register] is applied
    immediately to a [deliver] function; a later call [deliver v] — from any
    event or process — wakes the caller with [Some v] and returns [true] if
    this delivery won the race ([false] if the process was already woken or
    timed out, in which case the caller should offer [v] elsewhere).
    When [timeout] expires first the caller wakes with [None]. *)

val join : t -> unit
(** Block until the given process terminates (immediately if it has). *)
