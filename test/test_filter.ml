open Pf_filter
module Packet = Pf_pkt.Packet

(* {1 Encoding roundtrips} *)

let test_op_codes () =
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "op %s roundtrips" (Op.name op))
        true
        (Op.of_code (Op.code op) = Some op && Op.of_name (Op.name op) = Some op))
    Op.all;
  Alcotest.(check (option reject)) "code 14 unused" None
    (Option.map (fun _ -> ()) (Op.of_code 14));
  Alcotest.(check (option reject)) "code 63 unused" None
    (Option.map (fun _ -> ()) (Op.of_code 63))

let test_action_codes () =
  let actions =
    [ Action.Nopush; Action.Pushlit 0; Action.Pushzero; Action.Pushone; Action.Pushffff;
      Action.Pushff00; Action.Push00ff; Action.Pushind; Action.Pushword 0;
      Action.Pushword 42; Action.Pushword Action.max_word_index ]
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "action %s roundtrips" (Action.name a))
        true
        (Action.of_code (Action.code a) = Some a))
    actions;
  Alcotest.(check (option reject)) "code 8 unused" None
    (Option.map (fun _ -> ()) (Action.of_code 8))

let test_insn_wire () =
  let i = Insn.make ~op:Op.Cand (Action.Pushlit 35) in
  Alcotest.(check (list int)) "pushlit|cand 35 encodes to two words"
    [ (10 lsl 10) lor 1; 35 ] (Insn.encode i);
  (match Insn.decode (Insn.encode i) with
  | Ok (i', []) -> Alcotest.(check bool) "decode back" true (Insn.equal i i')
  | Ok _ | Error _ -> Alcotest.fail "decode failed");
  match Insn.decode [ (10 lsl 10) lor 1 ] with
  | Error Insn.Truncated_literal -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected truncated literal"

let test_insn_text () =
  let cases =
    [ "pushword+8"; "pushlit cand 35"; "pushzero cand"; "pushword+1 eq"; "nop";
      "and"; "pushlit 100"; "pushind add" ]
  in
  List.iter
    (fun s ->
      match Insn.of_string s with
      | Ok i -> Alcotest.(check string) ("text roundtrip " ^ s) s (Insn.to_string i)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    cases;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Insn.of_string "pushwibble"))

let test_program_wire () =
  let p = Predicates.fig_3_9 in
  Alcotest.(check int) "fig 3-9 length 8 code words" 8 (Program.code_words p);
  Alcotest.(check int) "fig 3-9 priority 10" 10 (Program.priority p);
  let words = Program.encode p in
  Alcotest.(check int) "header priority" 10 (List.nth words 0);
  Alcotest.(check int) "header length" 8 (List.nth words 1);
  match Program.decode words with
  | Ok p' -> Alcotest.(check bool) "decode = original" true (Program.equal p p')
  | Error e -> Alcotest.fail (Format.asprintf "%a" Program.pp_decode_error e)

let test_program_wire_errors () =
  Alcotest.(check bool) "missing header" true
    (match Program.decode [ 1 ] with Error Program.Missing_header -> true | _ -> false);
  Alcotest.(check bool) "length mismatch" true
    (match Program.decode [ 0; 5; 1; 2 ] with
    | Error (Program.Length_mismatch _) -> true
    | _ -> false)

let test_program_text () =
  let p = Predicates.fig_3_8 in
  match Program.of_string (Program.to_string p) with
  | Ok p' -> Alcotest.(check bool) "text roundtrip" true (Program.equal p p')
  | Error e -> Alcotest.fail e

let test_program_text_comments () =
  match Program.of_string "# a filter\npriority 3\npushword+1 # type word\npushlit eq 2\n" with
  | Ok p ->
    Alcotest.(check int) "priority" 3 (Program.priority p);
    Alcotest.(check int) "insns" 2 (Program.insn_count p)
  | Error e -> Alcotest.fail e

(* {1 The paper's example filters (figures 3-8 and 3-9)} *)

let accepts p frame = Interp.accepts p frame

let test_fig_3_8 () =
  let frame ptype etype = Testutil.pup_frame ~ptype ~etype () in
  Alcotest.(check bool) "accepts PupType 1" true (accepts Predicates.fig_3_8 (frame 1 2));
  Alcotest.(check bool) "accepts PupType 100" true
    (accepts Predicates.fig_3_8 (frame 100 2));
  Alcotest.(check bool) "rejects PupType 0" false (accepts Predicates.fig_3_8 (frame 0 2));
  Alcotest.(check bool) "rejects PupType 101" false
    (accepts Predicates.fig_3_8 (frame 101 2));
  Alcotest.(check bool) "rejects non-Pup ethertype" false
    (accepts Predicates.fig_3_8 (frame 50 3));
  (* The HopCount (high byte of word 3) must not disturb the type test. *)
  let hop_frame =
    Testutil.pup_frame ~ptype:50 () |> Packet.to_bytes
    |> fun b ->
    Bytes.set_uint8 b 6 7;
    Packet.of_bytes b
  in
  Alcotest.(check bool) "masks out HopCount" true (accepts Predicates.fig_3_8 hop_frame)

let test_fig_3_9 () =
  let outcome frame = Interp.run Predicates.fig_3_9 frame in
  let good = Testutil.pup_frame ~dst_socket:35l () in
  let bad_socket = Testutil.pup_frame ~dst_socket:36l () in
  let bad_type = Testutil.pup_frame ~dst_socket:35l ~etype:9 () in
  Alcotest.(check bool) "accepts socket 35" true (outcome good).Interp.accept;
  Alcotest.(check bool) "rejects socket 36" false (outcome bad_socket).Interp.accept;
  (* The whole point of short-circuit operators: a socket mismatch exits
     after the first CAND, i.e. 2 instructions. *)
  Alcotest.(check int) "socket mismatch exits after 2 insns" 2
    (outcome bad_socket).Interp.insns_executed;
  Alcotest.(check int) "full match runs all 6 insns" 6 (outcome good).Interp.insns_executed;
  Alcotest.(check bool) "rejects wrong type" false (outcome bad_type).Interp.accept;
  (* High socket word mismatch exits after 4. *)
  let high_socket = Testutil.pup_frame ~dst_socket:0x10023l () in
  Alcotest.(check int) "high-word mismatch exits after 4" 4
    (outcome high_socket).Interp.insns_executed

(* {1 Interpreter semantics and errors} *)

let run_insns ?semantics insns packet = Interp.run ?semantics (Program.v insns) packet

let test_empty_accepts () =
  Alcotest.(check bool) "empty filter accepts" true
    (accepts (Program.empty ()) (Packet.of_string ""));
  Alcotest.(check bool) "reject_all rejects" false
    (accepts Predicates.reject_all (Testutil.pup_frame ()))

let test_underflow () =
  let o = run_insns [ Insn.make ~op:Op.And Action.Nopush ] (Testutil.pup_frame ()) in
  Alcotest.(check bool) "underflow rejects" false o.Interp.accept;
  Alcotest.(check bool) "underflow reported" true
    (match o.Interp.error with Some (Interp.Stack_underflow _) -> true | _ -> false)

let test_overflow () =
  let pushes = List.init (Interp.stack_size + 1) (fun _ -> Insn.make Action.Pushone) in
  let o = run_insns pushes (Testutil.pup_frame ()) in
  Alcotest.(check bool) "overflow rejects" false o.Interp.accept;
  Alcotest.(check bool) "overflow reported" true
    (match o.Interp.error with Some (Interp.Stack_overflow _) -> true | _ -> false)

let test_bad_offset () =
  let o = run_insns [ Insn.make (Action.Pushword 500) ] (Testutil.pup_frame ()) in
  Alcotest.(check bool) "out-of-packet push rejects" false o.Interp.accept;
  Alcotest.(check bool) "offset error reported" true
    (match o.Interp.error with Some (Interp.Bad_word_offset _) -> true | _ -> false)

let test_div_by_zero () =
  let insns = [ Insn.make Action.Pushone; Insn.make ~op:Op.Div Action.Pushzero ] in
  let o = run_insns insns (Testutil.pup_frame ()) in
  Alcotest.(check bool) "div by zero rejects" false o.Interp.accept;
  Alcotest.(check bool) "fault reported" true
    (match o.Interp.error with Some (Interp.Division_by_zero _) -> true | _ -> false)

let test_short_circuit_early_accept_short_packet () =
  (* A COR that fires before an out-of-range push must accept, in all three
     engines (the subtlety Fast handles with its per-push fallback, and the
     register VM with a Tcond ahead of the load). *)
  let insns =
    [ Insn.make (Action.Pushword 0);
      Insn.make ~op:Op.Cor (Action.Pushlit 0xAABB);
      Insn.make (Action.Pushword 100);
    ]
  in
  let p = Program.v insns in
  let packet = Packet.of_words [ 0xAABB; 0 ] in
  Alcotest.(check bool) "interp accepts" true (Interp.accepts p packet);
  let v = Validate.check_exn p in
  Alcotest.(check bool) "fast accepts" true (Fast.run (Fast.compile v) packet);
  Alcotest.(check bool) "regvm accepts" true (Regvm.run (Regvm.compile v) packet)

let test_bsd_semantics () =
  (* Figures 3-8/3-9 mean the same under both published short-circuit
     semantics. *)
  List.iter
    (fun frame ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "paper = bsd" (Interp.accepts ~semantics:`Paper p frame)
            (Interp.accepts ~semantics:`Bsd p frame))
        [ Predicates.fig_3_8; Predicates.fig_3_9 ])
    [ Testutil.pup_frame (); Testutil.pup_frame ~dst_socket:36l ();
      Testutil.pup_frame ~ptype:0 (); Testutil.pup_frame ~etype:5 () ]

let test_arith_extensions () =
  (* (3 + 4) * 2 = 14; 14 lsr 1 = 7; 7 == 7 *)
  let insns =
    [ Insn.make (Action.Pushlit 3);
      Insn.make ~op:Op.Add (Action.Pushlit 4);
      Insn.make ~op:Op.Mul (Action.Pushlit 2);
      Insn.make ~op:Op.Rsh Action.Pushone;
      Insn.make ~op:Op.Eq (Action.Pushlit 7);
    ]
  in
  let o = run_insns insns (Packet.of_string "") in
  Alcotest.(check bool) "arithmetic chain" true o.Interp.accept

let test_pushind () =
  (* packet words: [2; 7; 9]; pushind of word0 (=2) pushes word2 (=9). *)
  let packet = Packet.of_words [ 2; 7; 9 ] in
  let insns =
    [ Insn.make (Action.Pushword 0);
      Insn.make Action.Pushind;
      Insn.make ~op:Op.Eq (Action.Pushlit 9);
    ]
  in
  Alcotest.(check bool) "indirect push" true (run_insns insns packet).Interp.accept;
  (* Index beyond the packet rejects. *)
  let oob = Packet.of_words [ 5; 0 ] in
  let o = run_insns insns oob in
  Alcotest.(check bool) "indirect oob rejects" false o.Interp.accept

(* {1 Validation} *)

let test_validate_catches_underflow () =
  let p = Program.v [ Insn.make ~op:Op.And Action.Pushone ] in
  Alcotest.(check bool) "static underflow" true
    (match Validate.check p with Error (Validate.Static_underflow _) -> true | _ -> false)

let test_validate_min_words () =
  let v = Validate.check_exn Predicates.fig_3_9 in
  Alcotest.(check int) "min packet words = 9" 9 v.Validate.min_packet_words;
  Alcotest.(check bool) "no extensions" false v.Validate.has_indirect

let test_validate_too_long () =
  let insns = List.init 130 (fun _ -> Insn.make (Action.Pushlit 1)) in
  Alcotest.(check bool) "260 code words too long" true
    (match Validate.check (Program.v insns) with
    | Error (Validate.Program_too_long _) -> true
    | _ -> false)

let test_validate_all_errors_minimal () =
  (* One minimal program per error constructor, with the exact payload each
     carries. Program_too_long: 128 Pushlits are 256 code words, one over the
     255 limit. *)
  (match Validate.check (Program.v (List.init 128 (fun _ -> Insn.make (Action.Pushlit 1)))) with
  | Error (Validate.Program_too_long { code_words }) ->
    Alcotest.(check int) "too_long code words" 256 code_words
  | _ -> Alcotest.fail "expected Program_too_long");
  (* Static_underflow: an operator needing two words finds an empty stack. *)
  (match Validate.check (Program.v [ Insn.make ~op:Op.Eq Action.Nopush ]) with
  | Error (Validate.Static_underflow { pc; depth }) ->
    Alcotest.(check (pair int int)) "underflow at pc 0, depth 0" (0, 0) (pc, depth)
  | _ -> Alcotest.fail "expected Static_underflow");
  (* Static_overflow: one push more than the 32-word stack holds. *)
  (match
     Validate.check
       (Program.v (List.init (Interp.stack_size + 1) (fun _ -> Insn.make Action.Pushzero)))
   with
  | Error (Validate.Static_overflow { pc }) ->
    Alcotest.(check int) "overflow at the 33rd push" Interp.stack_size pc
  | _ -> Alcotest.fail "expected Static_overflow");
  (* Word_offset_unencodable: the first offset past the 10-bit action field. *)
  (match
     Validate.check (Program.v [ Insn.make (Action.Pushword (Action.max_word_index + 1)) ])
   with
  | Error (Validate.Word_offset_unencodable { pc; index }) ->
    Alcotest.(check (pair int int)) "unencodable offset" (0, Action.max_word_index + 1)
      (pc, index)
  | _ -> Alcotest.fail "expected Word_offset_unencodable")

(* {1 Allocation-free runs}

   Per-filter work on the demux path must not allocate: a run's verdict and
   instruction count come back packed in one int. The mix reaches every exit
   of both engines: completion (accepting and rejecting), short-circuit
   exits, and faults on packets too short for the program. *)

let engine_packet_mix =
  let rng = Pf_sim.Rng.create 11 in
  let udp = Testutil.ip_udp_frame ~dst_port:53 in
  [
    Packet.of_string "";
    Packet.of_words [ 0x0102 ];
    Testutil.pup_frame ();
    Testutil.pup_frame ~ptype:2 ~dst_socket:36l ();
    Testutil.pup_frame ~etype:0x0800 ();
    udp;
    Testutil.ip_udp_frame ~dst_port:54;
    Packet.sub udp ~pos:0 ~len:20;
    Packet.of_words (List.init 40 (fun _ -> Pf_sim.Rng.int rng 0x10000));
  ]

let test_engines_allocate_nothing () =
  let runs = 50 in
  let exits = Hashtbl.create 4 in
  List.iter
    (fun (name, program) ->
      let v = Validate.check_exn program in
      let fast = Fast.compile v and rvm = Regvm.compile v in
      List.iter
        (fun packet ->
          let reference = Interp.run program packet in
          let exit =
            match reference.Interp.error with
            | Some _ -> `Fault
            | None when reference.Interp.insns_executed < Program.insn_count program ->
              `Short_circuit
            | None -> if reference.Interp.accept then `Accept else `Reject
          in
          Hashtbl.replace exits exit ();
          let check what run =
            let words =
              Testutil.minor_words (fun () ->
                  for _ = 1 to runs do
                    ignore (Sys.opaque_identity (run ()))
                  done)
            in
            Alcotest.(check (float 0.))
              (Format.asprintf "%s: %s on %a" name what Packet.pp packet)
              0. words
          in
          check "Fast.run" (fun () -> Bool.to_int (Fast.run fast packet));
          check "Fast.eval" (fun () -> Fast.eval fast packet);
          check "Regvm.eval" (fun () -> Regvm.eval rvm packet))
        engine_packet_mix)
    Predicates.builtins;
  List.iter
    (fun (exit, what) ->
      Alcotest.(check bool) ("the mix reaches a " ^ what) true (Hashtbl.mem exits exit))
    [ (`Fault, "fault exit"); (`Short_circuit, "short-circuit exit");
      (`Accept, "completed accept"); (`Reject, "completed reject") ]

(* {1 Equivalence properties: interp = fast} *)

let arb_program_packet = Testutil.arb_program_packet

let prop_fast_equals_interp =
  QCheck.Test.make ~name:"fast interpreter = checked interpreter" ~count:1000
    arb_program_packet
    (fun (insns, packet) ->
      let p = Program.v insns in
      match Validate.check p with
      | Error _ -> QCheck.assume_fail ()
      | Ok v ->
        let checked = Interp.run p packet in
        let fast_accept, fast_count = Fast.run_counted (Fast.compile v) packet in
        checked.Interp.accept = fast_accept
        && checked.Interp.insns_executed = fast_count)

let prop_program_wire_roundtrip =
  QCheck.Test.make ~name:"program encode/decode roundtrip" ~count:500
    arb_program_packet
    (fun (insns, _) ->
      let p = Program.v ~priority:7 insns in
      match Program.decode (Program.encode p) with
      | Ok p' -> Program.equal p p'
      | Error _ -> false)

let prop_program_text_roundtrip =
  QCheck.Test.make ~name:"program text roundtrip" ~count:300 arb_program_packet
    (fun (insns, _) ->
      let p = Program.v ~priority:3 insns in
      match Program.of_string (Program.to_string p) with
      | Ok p' -> Program.equal p p'
      | Error _ -> false)

let prop_validated_never_faults_on_stack =
  QCheck.Test.make ~name:"validated programs never fault on stack bounds" ~count:1000
    arb_program_packet
    (fun (insns, packet) ->
      let p = Program.v insns in
      match Validate.check p with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> (
        match (Interp.run p packet).Interp.error with
        | Some (Interp.Stack_underflow _ | Interp.Stack_overflow _) -> false
        | Some (Interp.Bad_word_offset _ | Interp.Division_by_zero _) | None -> true))

let suite =
  ( "filter",
    [
      Alcotest.test_case "op codes" `Quick test_op_codes;
      Alcotest.test_case "action codes" `Quick test_action_codes;
      Alcotest.test_case "insn wire format" `Quick test_insn_wire;
      Alcotest.test_case "insn text format" `Quick test_insn_text;
      Alcotest.test_case "program wire format" `Quick test_program_wire;
      Alcotest.test_case "program wire errors" `Quick test_program_wire_errors;
      Alcotest.test_case "program text format" `Quick test_program_text;
      Alcotest.test_case "program text comments" `Quick test_program_text_comments;
      Alcotest.test_case "figure 3-8" `Quick test_fig_3_8;
      Alcotest.test_case "figure 3-9 short circuits" `Quick test_fig_3_9;
      Alcotest.test_case "empty filter accepts" `Quick test_empty_accepts;
      Alcotest.test_case "stack underflow" `Quick test_underflow;
      Alcotest.test_case "stack overflow" `Quick test_overflow;
      Alcotest.test_case "bad word offset" `Quick test_bad_offset;
      Alcotest.test_case "division by zero" `Quick test_div_by_zero;
      Alcotest.test_case "short circuit before oob" `Quick
        test_short_circuit_early_accept_short_packet;
      Alcotest.test_case "bsd semantics agree on figures" `Quick test_bsd_semantics;
      Alcotest.test_case "arithmetic extensions" `Quick test_arith_extensions;
      Alcotest.test_case "indirect push" `Quick test_pushind;
      Alcotest.test_case "validate underflow" `Quick test_validate_catches_underflow;
      Alcotest.test_case "validate min words" `Quick test_validate_min_words;
      Alcotest.test_case "validate length" `Quick test_validate_too_long;
      Alcotest.test_case "validate all four errors, minimally" `Quick
        test_validate_all_errors_minimal;
      Alcotest.test_case "engine runs allocate nothing" `Quick
        test_engines_allocate_nothing;
      QCheck_alcotest.to_alcotest prop_fast_equals_interp;
      QCheck_alcotest.to_alcotest prop_program_wire_roundtrip;
      QCheck_alcotest.to_alcotest prop_program_text_roundtrip;
      QCheck_alcotest.to_alcotest prop_validated_never_faults_on_stack;
    ] )
