(** The discrete-event engine: a priority queue of timed callbacks.

    Events scheduled for the same instant run in scheduling order
    (a monotone sequence number breaks ties), which keeps every simulation
    deterministic. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current virtual time; 0 before the first event runs. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] at virtual time [at]. Scheduling in the past
    (including [at = now] from within an event) runs [f] at the current time,
    after already-queued same-time events. Allocates nothing beyond [f]
    itself (save when the queue doubles), and the queue drops [f] once it
    has run. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit

val run : ?until:Time.t -> t -> unit
(** Processes events until the queue is empty, or until the next event is
    later than [until] (that event stays queued and [now] advances to
    [until]). *)

val pending : t -> int
val events_processed : t -> int
