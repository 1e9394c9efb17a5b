let i ?(op = Op.Nop) action = Insn.make ~op action

(* Figure 3-8, instruction for instruction. *)
let fig_3_8 =
  Program.v ~priority:10
    [ i (Action.Pushword 1);
      i ~op:Op.Eq (Action.Pushlit 2); (* packet type == PUP *)
      i (Action.Pushword 3);
      i ~op:Op.And Action.Push00ff; (* mask low byte *)
      i ~op:Op.Gt Action.Pushzero; (* PupType > 0 *)
      i (Action.Pushword 3);
      i ~op:Op.And Action.Push00ff; (* mask low byte *)
      i ~op:Op.Le (Action.Pushlit 100); (* PupType <= 100 *)
      i ~op:Op.And Action.Nopush; (* 0 < PupType <= 100 *)
      i ~op:Op.And Action.Nopush (* && packet type == PUP *)
    ]

(* Figure 3-9: DstSocket checked first, short-circuiting out on mismatch. *)
let fig_3_9 =
  Program.v ~priority:10
    [ i (Action.Pushword 8);
      i ~op:Op.Cand (Action.Pushlit 35); (* low word of socket == 35 *)
      i (Action.Pushword 7);
      i ~op:Op.Cand Action.Pushzero; (* high word of socket == 0 *)
      i (Action.Pushword 1);
      i ~op:Op.Eq (Action.Pushlit 2) (* packet type == Pup *)
    ]

let accept_all = Program.empty ()
let reject_all = Program.v [ i Action.Pushzero ]

open Dsl

(* 3 Mbit/s experimental Ethernet: word 0 is dst|src bytes, word 1 the type
   (Pup = 2), and the Pup header of figure 3-7 occupies words 2-11. *)

let exp3_is_pup = word 1 =: lit 2
let pup_type = low_byte (word 3)
let pup_dst_host = low_byte (word 6)

let split32 v =
  (Int32.to_int (Int32.shift_right_logical v 16) land 0xffff, Int32.to_int v land 0xffff)

let pup_type_is ?(priority = 0) t =
  Expr.compile ~priority (exp3_is_pup &&: (pup_type =: lit t))

let pup_dst_socket ?(priority = 0) socket =
  let hi, lo = split32 socket in
  (* Socket before type, like figure 3-9: "in most packets the DstSocket is
     likely not to match and so the short-circuit operation will exit
     immediately." *)
  Expr.compile ~priority (word 8 =: lit lo &&: (word 7 =: lit hi) &&: exp3_is_pup)

let pup_dst_port_expr ~host socket =
  let hi, lo = split32 socket in
  word 8 =: lit lo
  &&: (word 7 =: lit hi)
  &&: (pup_dst_host =: lit host)
  &&: exp3_is_pup

let pup_dst_port ?(priority = 0) ~host socket =
  Expr.compile ~priority (pup_dst_port_expr ~host socket)

let pup_dst_port_10mb_expr ~host socket =
  (* Same Pup fields as [pup_dst_port] but behind a 14-byte header: the Pup
     header starts at frame word 7, so every figure 3-7 offset shifts by 5;
     the type test becomes ethertype 0x0200 at word 6. *)
  let hi, lo = split32 socket in
  word 13 =: lit lo
  &&: (word 12 =: lit hi)
  &&: (low_byte (word 11) =: lit host)
  &&: (word 6 =: lit 0x0200)

let pup_dst_port_10mb ?(priority = 0) ~host socket =
  Expr.compile ~priority (pup_dst_port_10mb_expr ~host socket)

(* 10 Mbit/s Ethernet: dst words 0-2, src words 3-5, type word 6, payload
   from word 7. *)

let ethertype_is ?(priority = 0) ty = Expr.compile ~priority (word 6 =: lit ty)

let ip_base = 7 (* first word of the IP header *)

let udp_dst_port_expr port =
  word 18 =: lit port
  &&: (word 6 =: lit 0x0800)
  &&: (high_byte (word ip_base) =: lit 0x45) (* IPv4, 20-byte header *)
  &&: (low_byte (word (ip_base + 4)) =: lit 17) (* protocol == UDP *)

let udp_dst_port ?(priority = 0) port = Expr.compile ~priority (udp_dst_port_expr port)

let udp_dst_port_any_ihl ?(priority = 0) port =
  (* Section 7 extensions: compute the UDP header offset from the IHL
     nibble. dst port word = ip_base + 2*ihl + 1. *)
  let ihl = (word ip_base >>: 8) &: lit 0x0f in
  let dst_port_index = (ihl *: lit 2) +: lit (ip_base + 1) in
  Expr.compile ~priority
    (word 6 =: lit 0x0800
    &&: (low_byte (word (ip_base + 4)) =: lit 17)
    &&: (ind dst_port_index =: lit port))

(* VMTP (our simulated encapsulation, ethertype 0x0700): dst entity words
   7-8, src entity 9-10, kind|flags 11, transaction 12, length 13. *)

let vmtp_dst_entity_expr entity =
  let hi, lo = split32 entity in
  word 8 =: lit lo &&: (word 7 =: lit hi) &&: (word 6 =: lit 0x0700)

let vmtp_dst_entity ?(priority = 0) entity =
  Expr.compile ~priority (vmtp_dst_entity_expr entity)

(* RARP (RFC 903) over 10 Mbit/s Ethernet, ethertype 0x8035: oper is word
   10; the target hardware address occupies words 16-18. *)

let rarp_op_is op = word 6 =: lit 0x8035 &&: (word 10 =: lit op)

let rarp_reply_for_expr mac =
  if String.length mac <> 6 then invalid_arg "Predicates.rarp_reply_for: want 6-byte MAC";
  let w k = (Char.code mac.[2 * k] lsl 8) lor Char.code mac.[(2 * k) + 1] in
  rarp_op_is 4
  &&: (word 16 =: lit (w 0))
  &&: (word 17 =: lit (w 1))
  &&: (word 18 =: lit (w 2))

let rarp_reply_for ?(priority = 0) mac = Expr.compile ~priority (rarp_reply_for_expr mac)

let rarp_request ?(priority = 0) () = Expr.compile ~priority (rarp_op_is 3)

(* {1 Naive "blender" variants}

   The same predicates compiled without short-circuiting: every term is
   evaluated and the results are glued with plain [AND], exactly the
   figure 3-8 style the paper itself starts from. Real filter libraries
   produce this shape whenever the author writes the figure 3-8 idiom by
   hand; Regopt's early-exit pass recovers the short-circuit exits. *)

let naive ?(priority = 0) expr = Expr.compile ~priority ~short_circuit:false expr

let naive_udp_dst_port ?priority port = naive ?priority (udp_dst_port_expr port)

let naive_pup_dst_port ?priority ~host socket =
  naive ?priority (pup_dst_port_expr ~host socket)

let naive_pup_dst_port_10mb ?priority ~host socket =
  naive ?priority (pup_dst_port_10mb_expr ~host socket)

let naive_vmtp_dst_entity ?priority entity =
  naive ?priority (vmtp_dst_entity_expr entity)

let naive_rarp_reply_for ?priority mac = naive ?priority (rarp_reply_for_expr mac)

let synthetic ~length ~accept =
  if length <= 0 then accept_all
  else begin
    let nops = List.init (length - 1) (fun _ -> i Action.Nopush) in
    Program.v (nops @ [ i (if accept then Action.Pushone else Action.Pushzero) ])
  end

(* The filters the examples and protocol libraries install, plus the paper's
   two figures and the naive blender variants — the corpus `pftool lint
   --builtin` checks in CI and every bench gate sweeps. *)
let builtins =
  [ ("fig-3-8", fig_3_8);
    ("fig-3-9", fig_3_9);
    ("accept-all (network monitor)", accept_all);
    ("pup-type-is-1", pup_type_is 1);
    ("pup-dst-socket-35", pup_dst_socket 35l);
    ("pup-dst-port", pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", pup_dst_port_10mb ~host:2 35l);
    ("ethertype-ip", ethertype_is 0x0800);
    ("udp-dst-port-53", udp_dst_port 53);
    ("udp-dst-port-any-ihl-53", udp_dst_port_any_ihl 53);
    ("vmtp-dst-entity", vmtp_dst_entity 0x1234l);
    ("rarp-request", rarp_request ());
    ("rarp-reply-for", rarp_reply_for "\x08\x00\x2b\x01\x02\x03");
    ("synthetic-accept-5", synthetic ~length:5 ~accept:true);
    ("naive-udp-dst-port-53", naive_udp_dst_port 53);
    ("naive-pup-dst-port", naive_pup_dst_port ~host:2 35l);
    ("naive-pup-dst-port-10mb", naive_pup_dst_port_10mb ~host:2 35l);
    ("naive-vmtp-dst-entity", naive_vmtp_dst_entity 0x1234l);
    ("naive-rarp-reply-for", naive_rarp_reply_for "\x08\x00\x2b\x01\x02\x03")
  ]
