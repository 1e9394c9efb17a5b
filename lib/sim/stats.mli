(** Named counters for instrumenting simulations.

    Counters are created on first use; [get] of an untouched counter is 0.
    Used for the bookkeeping the paper reports: packets handled, context
    switches, system calls, filter instructions interpreted, bytes copied,
    queue-overflow drops. *)

type t

val create : unit -> t

(** {1 Handles}

    A handle is the counter's own cell in the table, resolved once by name:
    bumping it writes that cell, with no hashing and no allocation. The
    kernel's receive, read and write paths hold handles on every counter
    they bump per packet, per filter run, per lock acquisition, per read or
    per write.

    A handle changes nothing observable by itself. A counter is listed by
    {!pairs} and {!pp} only once it has been bumped, even by 0, since its
    creation or the last {!reset}; a handle that was taken but never bumped
    reads 0 through {!get} and is not listed. Handles and {!incr} of the
    same name count into the same counter. *)

type counter

val counter : t -> string -> counter
(** The handle on the named counter, creating it (unlisted, at 0) if new. *)

val bump : counter -> unit
(** Add 1. *)

val add : counter -> int -> unit
(** Add [n]; [add c 0] lists the counter, as [incr ~by:0] does. *)

(** {1 By name} *)

val incr : ?by:int -> t -> string -> unit
(** Hashes the name on every call: for cold paths (install, invalidation,
    configuration, protocol bookkeeping). Hot paths hold a {!counter}. *)

val get : t -> string -> int

val reset : t -> unit
(** Zero every counter and unlist it. Counters are reset in place, so
    handles taken before stay valid and count again when bumped. *)

val pairs : t -> (string * int) list
(** The bumped counters, sorted by name. *)

val pp : Format.formatter -> t -> unit
