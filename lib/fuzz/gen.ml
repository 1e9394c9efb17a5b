module Packet = Pf_pkt.Packet
module Builder = Pf_pkt.Builder
open Pf_filter

(* A splittable SplitMix64 stream: every fuzz case is derived purely from
   (campaign seed, case index), so any failure is reproducible from those two
   integers alone — no generator state survives between cases. *)
module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let make seed = { state = mix (Int64.of_int seed) }

  let derive ~seed ~index =
    { state = mix (Int64.add (mix (Int64.of_int seed)) (Int64.mul golden (Int64.of_int (index + 1)))) }

  let split t =
    let s1 = next t in
    let s2 = next t in
    ({ state = s1 }, { state = s2 })

  let int t n =
    if n <= 0 then invalid_arg "Gen.Rng.int: bound must be positive";
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))

  let bool t = Int64.logand (next t) 1L = 1L
  let chance t pct = int t 100 < pct

  let choose t = function
    | [] -> invalid_arg "Gen.Rng.choose: empty list"
    | xs -> List.nth xs (int t (List.length xs))
end

(* {1 Packet generation}

   Realistic frames come from the real protocol encoders so that generated
   filters with header-shaped guards actually match them; raw word soup keeps
   the engines honest on arbitrary input. Mutations (trailers, truncations,
   word flips) push packets off the well-formed path the way a hostile or
   broken network would. *)

let random_words rng n = List.init n (fun _ -> Rng.int rng 0x10000)

let gen_pup rng =
  let module Pup = Pf_proto.Pup in
  let port () =
    Pup.port ~net:(Rng.int rng 256) ~host:(Rng.int rng 256)
      (Int32.of_int (Rng.int rng 0x10000))
  in
  (* Bias the destination socket toward figure 3-9's well-known value 35 so
     the paper's own predicates sometimes accept. *)
  let dst =
    if Rng.chance rng 50 then Pup.port ~net:0 ~host:(Rng.int rng 8) 35l else port ()
  in
  let ptype = if Rng.chance rng 50 then 1 + Rng.int rng 100 else Rng.int rng 256 in
  let data = Packet.of_words (random_words rng (Rng.int rng 16)) in
  let pup =
    Pup.v
      ~transport_control:(Rng.int rng 16)
      ~ptype
      ~id:(Int32.of_int (Rng.int rng 0x10000))
      ~dst ~src:(port ()) data
  in
  let b = Builder.create () in
  (* 3Mb experimental Ethernet framing: 1-byte dst | 1-byte src, 16-bit type
     (Pup = 2), as in figure 3-7. *)
  Builder.add_byte b (Rng.int rng 256);
  Builder.add_byte b (Rng.int rng 256);
  Builder.add_word b (if Rng.chance rng 70 then 2 else Rng.int rng 0x10000);
  Builder.add_packet b (Pup.encode ~checksum:(Rng.bool rng) pup);
  Builder.to_packet b

let ether10_header rng b ~ethertype =
  for _ = 1 to 6 do Builder.add_byte b (Rng.int rng 256) done;
  for _ = 1 to 6 do Builder.add_byte b (Rng.int rng 256) done;
  Builder.add_word b ethertype

let gen_ip rng ~protocol ~l4 =
  let module Ipv4 = Pf_proto.Ipv4 in
  let addr rng = Int32.of_int (Rng.int rng 0x1000000) in
  let ip =
    Ipv4.v ~tos:(Rng.int rng 256) ~ttl:(1 + Rng.int rng 255) ~protocol
      ~src:(addr rng) ~dst:(addr rng) l4
  in
  let b = Builder.create () in
  ether10_header rng b ~ethertype:(if Rng.chance rng 75 then 0x0800 else Rng.int rng 0x10000);
  Builder.add_packet b (Ipv4.encode ip);
  Builder.to_packet b

let well_known_port rng =
  if Rng.chance rng 50 then Rng.choose rng [ 7; 23; 25; 53; 69; 513; 1234 ]
  else Rng.int rng 0x10000

let gen_udp rng =
  let b = Builder.create () in
  let payload_len = Rng.int rng 24 in
  Builder.add_word b (well_known_port rng) (* src port *);
  Builder.add_word b (well_known_port rng) (* dst port *);
  Builder.add_word b (8 + payload_len);
  Builder.add_word b (Rng.int rng 0x10000) (* checksum: uncomputed is fine *);
  Builder.add_packet b (Packet.of_words (random_words rng ((payload_len + 1) / 2)));
  gen_ip rng ~protocol:Pf_proto.Ipv4.proto_udp ~l4:(Builder.to_packet b)

let gen_tcp rng =
  let b = Builder.create () in
  Builder.add_word b (well_known_port rng);
  Builder.add_word b (well_known_port rng);
  Builder.add_word32 b (Int32.of_int (Rng.int rng 0x40000000));
  Builder.add_word32 b (Int32.of_int (Rng.int rng 0x40000000));
  Builder.add_word b ((5 lsl 12) lor Rng.int rng 64) (* data offset | flags *);
  Builder.add_word b (Rng.int rng 0x10000) (* window *);
  Builder.add_word b (Rng.int rng 0x10000) (* checksum *);
  Builder.add_word b 0 (* urgent *);
  Builder.add_packet b (Packet.of_words (random_words rng (Rng.int rng 12)));
  gen_ip rng ~protocol:Pf_proto.Ipv4.proto_tcp ~l4:(Builder.to_packet b)

let gen_raw rng = Packet.of_words (random_words rng (Rng.int rng 25))

let mutate rng pkt =
  let len = Packet.length pkt in
  match Rng.int rng 10 with
  | 0 | 1 ->
    (* Random trailer: garbage past the declared protocol payload. *)
    let extra = 1 + Rng.int rng 8 in
    (Packet.concat [ pkt; Packet.of_string (String.init extra (fun _ -> Char.chr (Rng.int rng 256))) ],
     `Trailer)
  | 2 | 3 when len > 0 ->
    (* Truncation: cut anywhere, including mid-word (odd byte lengths). *)
    (Packet.sub pkt ~pos:0 ~len:(Rng.int rng len), `Truncated)
  | 4 when len >= 2 ->
    (* Word flip: corrupt one 16-bit word in place. *)
    let w = Rng.int rng (len / 2) in
    let b = Packet.to_bytes pkt in
    Bytes.set_uint16_be b (2 * w) (Bytes.get_uint16_be b (2 * w) lxor (1 + Rng.int rng 0xffff));
    (Packet.of_bytes b, `Word_flip)
  | _ -> (pkt, `Pristine)

let packet rng =
  let base, shape =
    match Rng.int rng 100 with
    | n when n < 35 -> (gen_pup rng, "pup")
    | n when n < 55 -> (gen_udp rng, "ip-udp")
    | n when n < 70 -> (gen_tcp rng, "ip-tcp")
    | _ -> (gen_raw rng, "raw")
  in
  let pkt, how = mutate rng base in
  let suffix =
    match how with
    | `Pristine -> ""
    | `Trailer -> "+trailer"
    | `Truncated -> "+trunc"
    | `Word_flip -> "+flip"
  in
  (pkt, shape ^ suffix)

(* {1 Program generation}

   Valid programs are built with the exact static discipline [Validate.check]
   enforces (tracked depth, encodable word offsets, bounded code size), so
   every one of them exercises the compiled engines. Literals are biased
   toward words of the packet the program will run against — otherwise random
   equality guards almost never pass and the accept paths go untested. *)

let literal rng pkt =
  let words = Packet.word_count pkt in
  if words > 0 && Rng.chance rng 40 then Packet.word pkt (Rng.int rng (min words 16))
  else
    match Rng.int rng 5 with
    | 0 -> Rng.int rng 4
    | 1 -> Rng.choose rng [ 0xffff; 0xff00; 0x00ff; 0x8000; 0x0800; 2; 35 ]
    | _ -> Rng.int rng 0x10000

let const_action rng v =
  (* Mostly use the dedicated one-word pushes for special constants, but keep
     an occasional plain Pushlit of the same value to exercise the codec. *)
  match v land 0xffff with
  | 0 when Rng.chance rng 80 -> Action.Pushzero
  | 1 when Rng.chance rng 80 -> Action.Pushone
  | 0xffff when Rng.chance rng 80 -> Action.Pushffff
  | 0xff00 when Rng.chance rng 80 -> Action.Pushff00
  | 0x00ff when Rng.chance rng 80 -> Action.Push00ff
  | v -> Action.Pushlit v

let word_offset rng pkt =
  let words = Packet.word_count pkt in
  if words > 0 && Rng.chance rng 70 then Rng.int rng (min words 20) else Rng.int rng 20

let all_ops =
  [ Op.Eq; Op.Neq; Op.Lt; Op.Le; Op.Gt; Op.Ge; Op.And; Op.Or; Op.Xor;
    Op.Cor; Op.Cand; Op.Cnor; Op.Cnand; Op.Add; Op.Sub; Op.Mul; Op.Div;
    Op.Mod; Op.Lsh; Op.Rsh ]

let program rng pkt =
  let insns = ref [] in
  let depth = ref 0 in
  let emit insn = insns := insn :: !insns in
  (* Leading guard chain: the [pushword+i] [const | CAND] idiom the run-time
     compiler emits and the dispatch automaton indexes on, sometimes with a
     mask between the two: [push00ff and] ([low_byte]), [pushlit m and], or
     [pushlit k rsh] ([high_byte] at k = 8). The masked value usually fits
     the mask. Masks are drawn from a side stream seeded from [rng]'s state
     without advancing it, so the main stream's draws, and so every case
     without a masked guard, do not depend on them. *)
  let side = { Rng.state = Rng.mix (Int64.lognot rng.Rng.state) } in
  let guards = Rng.int rng 3 in
  for _ = 1 to guards do
    if !depth + 2 <= Interp.stack_size then begin
      let i = word_offset rng pkt in
      let c =
        if Packet.word_count pkt > i && Rng.chance rng 60 then Packet.word pkt i
        else literal rng pkt
      in
      emit (Insn.make (Action.Pushword i));
      let fit fitted = if Rng.chance side 80 then fitted else c in
      let c =
        match Rng.int side 8 with
        | 0 ->
          emit (Insn.make ~op:Op.And Action.Push00ff);
          fit (c land 0x00ff)
        | 1 ->
          let m = Rng.int side 0x10000 in
          emit (Insn.make ~op:Op.And (Action.Pushlit m));
          fit (c land m)
        | 2 ->
          let k = if Rng.bool side then 8 else Rng.int side 16 in
          emit (Insn.make ~op:Op.Rsh (Action.Pushlit k));
          fit (c lsr k)
        | _ -> c
      in
      emit (Insn.make ~op:Op.Cand (const_action rng c));
      incr depth
    end
  done;
  (* Random body with exact depth tracking. *)
  let steps = Rng.int rng 18 in
  for _ = 1 to steps do
    let action =
      match Rng.int rng 10 with
      | 0 -> Action.Nopush
      | 1 | 2 when !depth < Interp.stack_size -> Action.Pushword (word_offset rng pkt)
      | 3 when !depth >= 1 -> Action.Pushind
      | _ when !depth < Interp.stack_size -> const_action rng (literal rng pkt)
      | _ -> Action.Nopush
    in
    if Action.pushes action then incr depth;
    let op =
      if !depth >= 2 && Rng.chance rng 55 then Rng.choose rng all_ops else Op.Nop
    in
    if op <> Op.Nop then decr depth;
    emit (Insn.make ~op action)
  done;
  (* Optional trailing equality guard (figure 3-8's shape). *)
  if Rng.chance rng 30 && !depth + 2 <= Interp.stack_size then begin
    emit (Insn.make (Action.Pushword (word_offset rng pkt)));
    emit (Insn.make ~op:Op.Eq (const_action rng (literal rng pkt)))
  end;
  Program.v ~priority:(Rng.int rng 256) (List.rev !insns)

(* Deliberately malformed programs: one per [Validate.error] constructor.
   These must be rejected by the validator; the checked interpreter still has
   to survive them. *)
let malformed rng pkt =
  let base = program rng pkt in
  let insns = Program.insns base in
  let priority = Program.priority base in
  match Rng.int rng 4 with
  | 0 ->
    (* Static underflow: an operator at depth zero. *)
    Program.v ~priority (Insn.make ~op:(Rng.choose rng all_ops) Action.Nopush :: insns)
  | 1 ->
    (* Static overflow: one more push than the stack holds. *)
    Program.v ~priority
      (List.init (Interp.stack_size + 1) (fun _ -> Insn.make Action.Pushzero) @ insns)
  | 2 ->
    (* Too long: Pushlit costs two code words, so 128 of them overflow the
       255-word limit before the depth check can even matter. *)
    Program.v ~priority (List.init 128 (fun i -> Insn.make (Action.Pushlit i)))
  | _ ->
    (* Word offset that does not fit the 10-bit action field. *)
    Program.v ~priority
      (Insn.make (Action.Pushword (Action.max_word_index + 1 + Rng.int rng 512)) :: insns)

type kind = [ `Valid | `Malformed ]

type case = {
  index : int;
  program : Program.t;
  packet : Packet.t;
  kind : kind;
  shape : string;
}

let case ~seed ~index =
  let rng = Rng.derive ~seed ~index in
  let pkt, shape = packet rng in
  let kind = if Rng.chance rng 85 then `Valid else `Malformed in
  let program = match kind with `Valid -> program rng pkt | `Malformed -> malformed rng pkt in
  { index; program; packet = pkt; kind; shape }
