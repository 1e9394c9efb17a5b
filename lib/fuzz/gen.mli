(** Generators for the differential fuzzer.

    Everything is derived from a splittable, seeded PRNG: a fuzz case is a
    pure function of [(seed, index)], which is what makes one-line
    reproduction commands possible (see {!Runner.repro_command}). *)

(** SplitMix64. Deterministic across platforms and OCaml versions. *)
module Rng : sig
  type t

  val make : int -> t
  val derive : seed:int -> index:int -> t
  (** The stream for one fuzz case; independent of any other index. *)

  val split : t -> t * t
  val int : t -> int -> int
  (** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

  val bool : t -> bool
  val chance : t -> int -> bool
  (** [chance t pct] is true [pct]% of the time. *)

  val choose : t -> 'a list -> 'a
end

val packet : Rng.t -> Pf_pkt.Packet.t * string
(** A random packet and a label describing its shape. Frames are drawn from
    the real {!Pf_proto} encoders (Pup on the 3Mb Ethernet, IPv4/UDP and
    IPv4/TCP on the 10Mb Ethernet) plus raw word soup, then optionally
    mutated: random trailers, truncations (including to odd byte lengths),
    and single-word flips. *)

val program : Rng.t -> Pf_pkt.Packet.t -> Pf_filter.Program.t
(** A validator-accepted program by construction, biased toward the packet it
    will run against: literals are often drawn from the packet's own words so
    equality guards pass, and leading [pushword/CAND] guard chains, some
    masked by a constant [AND] or [RSH], exercise the dispatch automaton's
    indexed paths. *)

val malformed : Rng.t -> Pf_pkt.Packet.t -> Pf_filter.Program.t
(** A program the validator must reject, one defect per
    {!Pf_filter.Validate.error} constructor. *)

type kind = [ `Valid | `Malformed ]

type case = {
  index : int;
  program : Pf_filter.Program.t;
  packet : Pf_pkt.Packet.t;
  kind : kind;
  shape : string;
}

val case : seed:int -> index:int -> case
(** The [index]th case of campaign [seed]; pure and reproducible. *)
