(** Canned filter programs.

    Includes the paper's two worked examples (figures 3-8 and 3-9),
    hand-assembled to the exact instruction sequences printed in the paper,
    and the filters the example protocol implementations install. Word
    offsets follow the packet layouts of {!Pf_net.Frame}: on the 3 Mbit/s
    experimental Ethernet the data-link header is words 0-1 and the Pup
    header starts at word 2 (figure 3-7); on the 10 Mbit/s Ethernet the
    header is words 0-6 with the type in word 6. *)

val fig_3_8 : Program.t
(** "Accepts all Pup packets with Pup Types between 1 and 100" — priority 10,
    length 12 code words, plain AND combination. *)

val fig_3_9 : Program.t
(** "Accepts Pup packets with a Pup DstSocket field of 35", testing the
    socket before the type so the short-circuit CAND usually exits on the
    first comparison — priority 10, length 8 code words. *)

val accept_all : Program.t
(** The zero-length filter (network monitors; table 6-10's length-0 row). *)

val reject_all : Program.t

(** {1 3 Mbit/s experimental Ethernet (Pup)} *)

val pup_type_is : ?priority:int -> int -> Program.t
(** Packet type PUP and the given PupType byte. *)

val pup_dst_socket : ?priority:int -> int32 -> Program.t
(** Short-circuit filter on the 32-bit Pup destination socket, in the style
    of figure 3-9 (socket tested first, then packet type). *)

val pup_dst_port : ?priority:int -> host:int -> int32 -> Program.t
(** Destination host byte and socket — what a Pup endpoint installs. *)

val pup_dst_port_10mb : ?priority:int -> host:int -> int32 -> Program.t
(** The {!pup_dst_port} predicate for Pup carried on the 10 Mbit/s Ethernet
    (ethertype 0x0200, 14-byte header): same fields, offsets shifted by five
    words — the §6.4 measurements ran Pup/BSP over the 10 Mb net. *)

(** {1 10 Mbit/s Ethernet} *)

val ethertype_is : ?priority:int -> int -> Program.t

val udp_dst_port : ?priority:int -> int -> Program.t
(** IP/UDP with the given destination port, assuming the 20-byte
    option-less IP header — the fixed-offset limitation section 7 calls out. *)

val udp_dst_port_any_ihl : ?priority:int -> int -> Program.t
(** The same predicate computed with the section 7 extensions (indirect push
    plus arithmetic), correct for any IP header length. *)

val vmtp_dst_entity : ?priority:int -> int32 -> Program.t
(** VMTP packets whose 32-bit destination entity matches — what both a VMTP
    server and a VMTP client (for its responses) install. *)

val rarp_reply_for : ?priority:int -> string -> Program.t
(** RARP replies whose target hardware address is the given 6-byte MAC. *)

val rarp_request : ?priority:int -> unit -> Program.t
(** RARP requests (what a RARP server listens for). *)

val synthetic : length:int -> accept:bool -> Program.t
(** A filter of exactly [length] instructions (for table 6-10's sweep):
    [length]-1 no-ops followed by a constant verdict; [length] = 0 gives the
    empty (accept-all) program regardless of [accept]. *)

(** {1 Naive "blender" variants}

    The same predicates compiled with {!Expr.compile}[~short_circuit:false]:
    every term evaluated and glued with plain [AND], the figure 3-8 style.
    {!Regopt}'s early-exit pass turns each back into its short-circuit
    twin's shape, so in the register VM each costs what its twin costs. *)

val naive_udp_dst_port : ?priority:int -> int -> Program.t
val naive_pup_dst_port : ?priority:int -> host:int -> int32 -> Program.t
val naive_pup_dst_port_10mb : ?priority:int -> host:int -> int32 -> Program.t
val naive_vmtp_dst_entity : ?priority:int -> int32 -> Program.t
val naive_rarp_reply_for : ?priority:int -> string -> Program.t

val builtins : (string * Program.t) list
(** The named builtin corpus: the paper's figures, every filter the example
    protocol implementations install, and the naive blender variants — what
    [pftool lint/ir/dispatch --builtin] check in CI and the bench gates
    sweep. *)
