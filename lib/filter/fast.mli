(** Checkless interpreter for validated filters.

    Runs a {!Validate.t} with no per-step stack or (for constant offsets)
    packet bounds checks — the speedup section 7 of the paper predicts from
    hoisting those checks to installation time. Packet length is compared
    once against the program's statically known maximum word offset.

    Semantically identical to {!Interp.run} with [`Paper] semantics on every
    packet; the property tests assert this. *)

type t

val compile : Validate.t -> t
(** Also runs {!Analysis.analyze}; its proven access bound lets runs on
    long-enough packets skip the [Pushind] dynamic check too. *)

val program : t -> Program.t
val priority : t -> int

val analysis : t -> Analysis.t
(** The installation-time analysis computed by {!compile}. *)

val runs_checkless : t -> Pf_pkt.Packet.t -> bool
(** True when a run on this packet performs {e zero} dynamic checks — the
    packet meets {!Analysis.t.safe_packet_words}, covering constant-offset
    and indirect accesses alike. *)

val eval : t -> Pf_pkt.Packet.t -> int
(** One run, allocating nothing: the verdict and the number of instructions
    executed, packed as {!Op.packed} (read them back with
    {!Op.packed_accepts} and {!Op.packed_insns}). The kernel's demux walks
    and {!Dispatch.classify} call this. *)

val run : t -> Pf_pkt.Packet.t -> bool
(** The verdict of {!eval}. *)

val run_counted : t -> Pf_pkt.Packet.t -> bool * int
(** {!eval} decoded: the verdict and the number of instructions executed,
    for the simulator's CPU cost accounting. *)
