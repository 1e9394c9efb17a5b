(* Quickstart: write a filter three ways, run it on a packet.

   This is the paper's figure 3-9 — "accept Pup packets with a destination
   socket of 35" — written (1) instruction by instruction, (2) through the
   run-time compiler (the Dsl/Expr "library procedure" of §3.1), and
   (3) loaded from its wire encoding, then evaluated by the checked
   interpreter, the validated fast interpreter, and the register VM, which
   runs the filter as optimized register code compiled at install time.

   Run with:  dune exec examples/quickstart.exe *)

open Pf_filter
module Packet = Pf_pkt.Packet

(* A hand-built 3Mb-Ethernet Pup frame (figure 3-7 layout): destination
   socket 35, PupType 1. *)
let packet_for_socket socket =
  Packet.of_words
    [
      0x0102 (* EtherDst | EtherSrc *);
      2 (* EtherType: Pup *);
      22 (* PupLength *);
      0x0001 (* HopCount | PupType *);
      0; 0 (* Pup identifier *);
      0x0003 (* DstNet | DstHost *);
      (Int32.to_int socket lsr 16) land 0xffff (* DstSocket high *);
      Int32.to_int socket land 0xffff (* DstSocket low *);
      0x0002 (* SrcNet | SrcHost *);
      0; 7 (* SrcSocket *);
      0 (* checksum (none) *);
    ]

let () =
  (* 1. Instruction by instruction, exactly as printed in figure 3-9. *)
  let by_hand =
    Program.v ~priority:10
      [
        Insn.make (Action.Pushword 8);
        Insn.make ~op:Op.Cand (Action.Pushlit 35); (* low word of socket == 35 *)
        Insn.make (Action.Pushword 7);
        Insn.make ~op:Op.Cand Action.Pushzero; (* high word of socket == 0 *)
        Insn.make (Action.Pushword 1);
        Insn.make ~op:Op.Eq (Action.Pushlit 2); (* packet type == Pup *)
      ]
  in
  (* 2. Through the run-time compiler. *)
  let compiled =
    let open Dsl in
    Expr.compile ~priority:10
      (word 8 =: lit 35 &&: (word 7 =: lit 0) &&: (word 1 =: lit 2))
  in
  (* 3. From the wire encoding (priority, length, code words — the
     struct enfilter layout). *)
  let from_wire =
    match Program.decode (Program.encode by_hand) with
    | Ok p -> p
    | Error e -> failwith (Format.asprintf "%a" Program.pp_decode_error e)
  in

  Format.printf "The figure 3-9 filter, disassembled:@.%a@.@." Program.pp by_hand;
  Format.printf "Wire encoding: %s@.@."
    (String.concat " " (List.map (Printf.sprintf "%04x") (Program.encode by_hand)));

  let matching = packet_for_socket 35l in
  let other = packet_for_socket 36l in

  (* The three evaluation strategies agree; the fast ones need ahead-of-time
     validation (§7). *)
  let validated = Validate.check_exn compiled in
  let fast = Fast.compile validated in
  let regvm = Regvm.compile validated in
  List.iter
    (fun (name, packet) ->
      Format.printf "%s:@." name;
      let outcome = Interp.run by_hand packet in
      Format.printf "  hand-written, checked interpreter: %b (%d insns executed)@."
        outcome.Interp.accept outcome.Interp.insns_executed;
      Format.printf "  compiled, fast interpreter:        %b@." (Fast.run fast packet);
      Format.printf "  compiled, register VM:             %b@." (Regvm.run regvm packet);
      Format.printf "  decoded from wire:                 %b@.@."
        (Interp.accepts from_wire packet))
    [ ("packet for socket 35", matching); ("packet for socket 36", other) ];

  Format.printf
    "Note the short-circuit exit: the socket-36 packet is rejected after 2@.\
     instructions — \"in most packets the DstSocket is likely not to match and@.\
     so the short-circuit operation will exit immediately\" (§3.1).@."
