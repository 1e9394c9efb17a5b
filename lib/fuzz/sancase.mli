(** Sanitizer-driven concurrency fuzzing.

    Each case builds a fresh SMP host with a {!Pf_sim.San} checker
    attached, drives a seeded traffic scenario that includes an
    acceptor-changing reconfiguration mid-stream, and uses {e the
    sanitizer's reports as the oracle} — no differential comparison is
    involved. On the unmodified kernel every case must end with zero
    reports (a report is a sanitizer false positive or a real kernel bug:
    either way a failure). With a seeded concurrency mutant enabled, the
    sanitizer is expected to catch it; each catch is shrunk to a minimal
    scenario (fewest CPUs, flows, packets) whose surviving report names
    the resource, the CPUs, and the missing synchronization edge. *)

type mutant =
  | Skip_remote_invalidation
      (** invalidations flush only the mutating CPU ({!Pfdev.For_testing}) *)
  | Skip_install_invalidation
      (** installs skip cache invalidation entirely *)
  | Skip_delivery_lock
      (** shared-queue inserts skip the delivery lock *)

val mutant_name : mutant -> string
val mutant_of_string : string -> mutant option
val all_mutants : mutant list

type case = {
  index : int;
  ncpus : int;  (** drawn from [{1, 2, 4, 8}] *)
  flows : int;
  packets : int;  (** injected twice: before and after the reconfiguration *)
  tseed : int;  (** the traffic generator's seed *)
}

val case : seed:int -> index:int -> case
(** Pure function of [(seed, index)], like every fuzz case. *)

val scenario :
  ?mutant:mutant ->
  ?san:Pf_sim.San.t ->
  zipf:float ->
  reinstall:bool ->
  case ->
  Pf_kernel.Pfdev.t
(** The steered receive scenario behind {!run_scenario} and the [pftool
    smp] and [pftool san] commands: a fresh host with [ncpus] CPUs, one
    port per flow of a seeded Zipf([zipf]) mix (the case's [index] is not
    used), and the drawn sequence injected. [san], when given, is attached
    before any traffic. With [reinstall], the first flow's filter is then
    reinstalled at priority 1 (the acceptor-changing mutation) and the
    sequence injected again. Returns the host's device. The mutant flag,
    when given, is set for the whole scenario and restored afterwards
    (exception-safe). *)

val run_scenario : ?mutant:mutant -> case -> Pf_sim.San.report list
(** {!scenario} over a Zipf(1.1) mix with a fresh sanitizer and the
    reinstall: the sanitizer's reports. *)

type failure = {
  index : int;
  case : case;
  reports : Pf_sim.San.report list;
  shrunk : case;
  shrunk_reports : Pf_sim.San.report list;  (** the minimal witness *)
  repro : string;
}

type stats = {
  seed : int;
  mutant : mutant option;
  cases : int;
  reported_cases : int;  (** cases on which the sanitizer reported *)
  failures : failure list;
}

val repro_command : ?mutant:mutant -> seed:int -> index:int -> unit -> string

val shrink : keep:(case -> bool) -> case -> case
(** Greedy fix-point minimization over CPUs, flows, and packets. *)

val run :
  ?max_failures:int ->
  ?should_stop:(unit -> bool) ->
  ?progress:(int -> unit) ->
  ?mutant:mutant ->
  seed:int ->
  iters:int ->
  unit ->
  stats
(** On the clean kernel ([?mutant] absent) a failure is any case with
    reports; with a mutant, a failure records the catch — both are shrunk.
    Campaign semantics match {!Runner.run}: stop at [max_failures]. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_stats : Format.formatter -> stats -> unit
