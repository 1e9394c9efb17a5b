(** Traffic aggregation for monitor reports: per-protocol packet and byte
    counts, size distribution, top talkers — the "elaborate programs to
    analyze the trace data" section 5.4 advertises. *)

type t

val create : Pf_net.Frame.variant -> t
val add : t -> Pf_pkt.Packet.t -> unit
val add_trace : t -> Capture.record list -> unit
val packets : t -> int
val bytes : t -> int

val by_protocol : t -> (string * (int * int)) list
(** Protocol tag → (packets, bytes), sorted by descending packet count. *)

val by_talker : t -> (string * int) list
(** Source address → packets sent, sorted by descending count. *)

val report : Format.formatter -> t -> unit

(** Seeded, replayable synthetic traffic: a fixed multi-flow mix (protocol
    blend, per-flow demultiplexing selectors) with a skew distribution over
    the flows and a deterministic draw stream. The shared load source of
    [bench cache], [bench dispatch], and [bench smp]: same arguments, same
    seed ⇒ byte-identical frames in the same order. *)
module Gen : sig
  type proto = Pup | Udp | Tcp | Vmtp

  val proto_name : proto -> string

  type skew =
    | Uniform
    | Zipf of float
        (** Flow [i] drawn with weight [1/(i+1)^s]: flow 0 hottest. *)
    | Hot of { hot : int; fraction : float }
        (** The first [hot] flows share [fraction] of the traffic equally;
            the rest share the remainder (the 90/10 mixes of the cache and
            dispatch experiments). *)

  type flow = {
    index : int;
    proto : proto;
    src : Pf_net.Addr.t;
    dst : Pf_net.Addr.t;  (** always station 2, the bench receiver *)
    selector : int;
        (** proto-specific demux key: Pup socket, UDP/TCP destination port,
            VMTP entity — disjoint across flows *)
    frame : Pf_pkt.Packet.t;  (** the flow's (fixed-size) wire frame *)
  }

  type t

  val make :
    ?blend:(proto * float) list ->
    ?frame_bytes:int ->
    seed:int ->
    flows:int ->
    skew:skew ->
    unit ->
    t
  (** [blend] weights the protocol assignment across flows (default
      4:3:2:1 Pup:UDP:TCP:VMTP); [frame_bytes] (default 128) is the total
      frame size. Flow attributes and the draw stream use independent
      streams derived from [seed], so drawing never perturbs the mix. *)

  val flow_count : t -> int
  val flow : t -> int -> flow
  val flows : t -> flow list
  val frame : flow -> Pf_pkt.Packet.t

  val filter : ?priority:int -> flow -> Pf_filter.Program.t
  (** The program a receiver would install for exactly this flow: it
      accepts the flow's frames and no other flow's (selectors are
      disjoint). *)

  val draw : t -> flow
  (** Next flow from the seeded, skew-weighted stream (advances it). *)

  val sequence : t -> int -> flow list
  (** [sequence t k] draws [k] flows (advances the stream [k] times). *)
end
