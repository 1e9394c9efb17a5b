(** Condition variables for simulated processes.

    The kernel blocks readers on these (a packet arrival signals the port's
    condition; the read syscall's timeout maps to [await ~timeout]). *)

type 'a t

val create : unit -> 'a t

val await : ?timeout:Time.t -> 'a t -> 'a option
(** Block the calling process until {!signal}/{!broadcast} delivers a value,
    or the timeout expires ([None]). Must be called inside a process. A
    waiter whose timeout expires leaves the condition at once; the other
    waiters keep their order. *)

val signal : 'a t -> 'a -> bool
(** Wake the longest-waiting live waiter; [false] if nobody was waiting (the
    caller keeps the value, e.g. leaves the packet queued). *)

val broadcast : 'a t -> 'a -> int
(** Wake every live waiter; returns how many were woken. *)

val has_waiters : 'a t -> bool
(** Whether some process is blocked in {!await}. *)
