(* Table-driven semantics of the core language: every operator against
   known operand pairs (the figure 3-6 tables, literally), plus properties
   of the interpreters. *)

open Pf_filter
module Packet = Pf_pkt.Packet

(* {1 Figure 3-6's operator tables, row by row} *)

(* Check the exact result word: run [push t2; push t1 | op; push expected
   | eq] on an empty packet — it accepts iff the operator produced exactly
   [expected]. *)
let check_value name op ~t2 ~t1 expected =
  let o =
    Interp.run
      (Program.v
         [ Insn.make (Action.Pushlit t2);
           Insn.make ~op (Action.Pushlit t1);
           Insn.make ~op:Op.Eq (Action.Pushlit expected);
         ])
      (Packet.of_string "")
  in
  Alcotest.(check bool) (name ^ " no error") true (o.Interp.error = None);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d %s %d = %d" name t2 (Op.name op) t1 expected)
    true o.Interp.accept

let test_comparison_table () =
  (* R := TRUE if T2 <op> T1 — note the operand order from the paper. *)
  List.iter
    (fun (op, t2, t1, expected) -> check_value "cmp" op ~t2 ~t1 expected)
    [
      (Op.Eq, 5, 5, 1); (Op.Eq, 5, 6, 0);
      (Op.Neq, 5, 6, 1); (Op.Neq, 5, 5, 0);
      (Op.Lt, 4, 5, 1); (Op.Lt, 5, 5, 0); (Op.Lt, 6, 5, 0);
      (Op.Le, 5, 5, 1); (Op.Le, 4, 5, 1); (Op.Le, 6, 5, 0);
      (Op.Gt, 6, 5, 1); (Op.Gt, 5, 5, 0); (Op.Gt, 4, 5, 0);
      (Op.Ge, 5, 5, 1); (Op.Ge, 6, 5, 1); (Op.Ge, 4, 5, 0);
    ]

let test_bitwise_table () =
  List.iter
    (fun (op, t2, t1, expected) -> check_value "bits" op ~t2 ~t1 expected)
    [
      (Op.And, 0xff00, 0x0ff0, 0x0f00);
      (Op.And, 0xff00, 0x00ff, 0);
      (Op.Or, 0xf000, 0x000f, 0xf00f);
      (Op.Xor, 0xffff, 0x00ff, 0xff00);
      (Op.Xor, 0xaaaa, 0xaaaa, 0);
    ]

let test_arithmetic_table () =
  List.iter
    (fun (op, t2, t1, expected) -> check_value "arith" op ~t2 ~t1 expected)
    [
      (Op.Add, 7, 8, 15);
      (Op.Add, 0xffff, 1, 0) (* 16-bit wrap *);
      (Op.Sub, 8, 7, 1);
      (Op.Sub, 0, 1, 0xffff) (* wrap below zero *);
      (Op.Mul, 300, 300, 90000 land 0xffff);
      (Op.Div, 100, 7, 14);
      (Op.Mod, 100, 7, 2);
      (Op.Lsh, 1, 15, 0x8000);
      (Op.Lsh, 0xffff, 4, 0xfff0);
      (Op.Rsh, 0x8000, 15, 1);
    ]

let test_short_circuit_table () =
  (* The paper's table: COR/CNAND return TRUE, CAND/CNOR return FALSE;
     COR/CNOR fire on equality, CAND/CNAND on inequality. *)
  let outcome op ~t2 ~t1 =
    let o =
      Interp.run
        (Program.v
           [ Insn.make (Action.Pushlit t2);
             Insn.make ~op (Action.Pushlit t1);
             (* a poison pill: proves whether the program terminated early *)
             Insn.make Action.Pushzero ])
        (Packet.of_string "")
    in
    (o.Interp.accept, o.Interp.insns_executed)
  in
  Alcotest.(check (pair bool int)) "COR equal: exit TRUE" (true, 2)
    (outcome Op.Cor ~t2:5 ~t1:5);
  Alcotest.(check (pair bool int)) "COR unequal: continue" (false, 3)
    (outcome Op.Cor ~t2:5 ~t1:6);
  Alcotest.(check (pair bool int)) "CAND unequal: exit FALSE" (false, 2)
    (outcome Op.Cand ~t2:5 ~t1:6);
  Alcotest.(check (pair bool int)) "CAND equal: continue" (false, 3)
    (outcome Op.Cand ~t2:5 ~t1:5);
  Alcotest.(check (pair bool int)) "CNOR equal: exit FALSE" (false, 2)
    (outcome Op.Cnor ~t2:5 ~t1:5);
  Alcotest.(check (pair bool int)) "CNOR unequal: continue" (false, 3)
    (outcome Op.Cnor ~t2:5 ~t1:6);
  Alcotest.(check (pair bool int)) "CNAND unequal: exit TRUE" (true, 2)
    (outcome Op.Cnand ~t2:5 ~t1:6);
  Alcotest.(check (pair bool int)) "CNAND equal: continue" (false, 3)
    (outcome Op.Cnand ~t2:5 ~t1:5)

let test_push_actions_table () =
  List.iter
    (fun (action, expected) ->
      let o =
        Interp.run
          (Program.v [ Insn.make action; Insn.make ~op:Op.Eq (Action.Pushlit expected) ])
          (Packet.of_string "")
      in
      Alcotest.(check bool) (Action.name action) true o.Interp.accept)
    [
      (Action.Pushzero, 0); (Action.Pushone, 1); (Action.Pushffff, 0xffff);
      (Action.Pushff00, 0xff00); (Action.Push00ff, 0x00ff); (Action.Pushlit 1234, 1234);
    ]

(* {1 Properties of the interpreters} *)

let prop_bsd_equals_paper_without_shortcircuit =
  QCheck.Test.make ~name:"`Bsd = `Paper when no short-circuit op" ~count:500
    Testutil.arb_program_packet
    (fun (insns, packet) ->
      let sc (i : Insn.t) = Op.is_short_circuit i.Insn.op in
      QCheck.assume (not (List.exists sc insns));
      let p = Program.v insns in
      Interp.accepts ~semantics:`Paper p packet = Interp.accepts ~semantics:`Bsd p packet)

let prop_fast_scratch_reuse_safe =
  (* The fast interpreter reuses one scratch stack; interleaving runs of two
     different compiled filters must not cross-contaminate. *)
  QCheck.Test.make ~name:"fast interpreter scratch isolation" ~count:300
    Testutil.arb_program_packet
    (fun (insns, packet) ->
      let p1 = Program.v insns in
      match (Validate.check p1, Validate.check Predicates.fig_3_9) with
      | Ok v1, Ok v2 ->
        let f1 = Fast.compile v1 and f2 = Fast.compile v2 in
        let a = Fast.run f1 packet in
        let _ = Fast.run f2 (Testutil.pup_frame ()) in
        let b = Fast.run f1 packet in
        a = b
      | _ -> false)

(* {1 The documented `Paper vs `Bsd short-circuit divergence, pinned}

   When a short-circuit operator does {e not} terminate the program, `Paper
   pushes its result word and `Bsd pushes nothing (see Interp). Three
   distinct observable consequences exist; one regression program pins
   each. *)

let run_both insns =
  let p = Program.v insns in
  (Interp.run ~semantics:`Paper p (Packet.of_string ""),
   Interp.run ~semantics:`Bsd p (Packet.of_string ""))

let test_bsd_divergence_leftover_word () =
  (* Class 1: the pushed result buries an older word; the verdicts read
     different stack tops. *)
  let paper, bsd =
    run_both
      [ Insn.make Action.Pushzero;
        Insn.make (Action.Pushlit 5);
        Insn.make ~op:Op.Cand (Action.Pushlit 5) (* equal: continues *) ]
  in
  Alcotest.(check bool) "`Paper reads the CAND result (1): accept" true paper.Interp.accept;
  Alcotest.(check bool) "`Bsd reads the buried zero: reject" false bsd.Interp.accept

let test_bsd_divergence_empty_stack () =
  (* Class 2: `Bsd drains the stack entirely, hitting the empty-stack-accepts
     rule where `Paper leaves a zero on top. *)
  let paper, bsd =
    run_both
      [ Insn.make (Action.Pushlit 5);
        Insn.make ~op:Op.Cnor (Action.Pushlit 6) (* unequal: continues *) ]
  in
  Alcotest.(check bool) "`Paper leaves 0: reject" false paper.Interp.accept;
  Alcotest.(check bool) "`Bsd leaves nothing: empty stack accepts" true bsd.Interp.accept

let test_bsd_divergence_underflow () =
  (* Class 3: a later operator relies on the word `Paper pushed; under `Bsd
     it underflows at run time and rejects with an error. *)
  let paper, bsd =
    run_both
      [ Insn.make (Action.Pushlit 5);
        Insn.make ~op:Op.Cand (Action.Pushlit 5) (* equal: continues *);
        Insn.make ~op:Op.And Action.Pushone ]
  in
  Alcotest.(check bool) "`Paper: 1 AND 1 accepts" true paper.Interp.accept;
  Alcotest.(check bool) "`Bsd underflows" true
    (match bsd.Interp.error with Some (Interp.Stack_underflow _) -> true | _ -> false);
  Alcotest.(check bool) "`Bsd rejects" false bsd.Interp.accept

let test_empty_program_edge_cases () =
  let empty = Program.empty () in
  Alcotest.(check bool) "empty accepts empty packet" true
    (Interp.accepts empty (Packet.of_string ""));
  let v = Validate.check_exn empty in
  Alcotest.(check int) "needs no packet words" 0 v.Validate.min_packet_words;
  Alcotest.(check bool) "fast agrees" true (Fast.run (Fast.compile v) (Packet.of_string ""));
  Alcotest.(check bool) "regvm agrees" true
    (Regvm.run (Regvm.compile v) (Packet.of_string ""));
  (* The dispatch automaton leaves accept-all to the residual walk. *)
  Alcotest.(check (list (pair int string))) "accept-all is residual" [ (0, "all") ]
    (Dispatch.residuals (Dispatch.build [ (v, "all") ]));
  Alcotest.(check (option string)) "residual walk matches accept-all" (Some "all")
    (fst (Testutil.dispatch_first_match [ (v, "all") ] (Packet.of_string "")))

let test_nop_insn_is_identity () =
  (* {nopush, nop} between any two instructions changes nothing. *)
  let base = Predicates.fig_3_8 in
  let padded =
    Program.v ~priority:(Program.priority base)
      (List.concat_map (fun i -> [ Insn.make Action.Nopush; i ]) (Program.insns base))
  in
  List.iter
    (fun frame ->
      Alcotest.(check bool) "same verdict with nops" (Interp.accepts base frame)
        (Interp.accepts padded frame))
    [ Testutil.pup_frame (); Testutil.pup_frame ~ptype:0 (); Testutil.pup_frame ~etype:7 () ]

let suite =
  ( "semantics",
    [
      Alcotest.test_case "comparison operators (fig 3-6)" `Quick test_comparison_table;
      Alcotest.test_case "bitwise operators (fig 3-6)" `Quick test_bitwise_table;
      Alcotest.test_case "arithmetic extensions" `Quick test_arithmetic_table;
      Alcotest.test_case "short-circuit table (fig 3-6)" `Quick test_short_circuit_table;
      Alcotest.test_case "push actions (fig 3-6)" `Quick test_push_actions_table;
      QCheck_alcotest.to_alcotest prop_bsd_equals_paper_without_shortcircuit;
      Alcotest.test_case "`Bsd divergence: leftover word" `Quick
        test_bsd_divergence_leftover_word;
      Alcotest.test_case "`Bsd divergence: empty-stack accept" `Quick
        test_bsd_divergence_empty_stack;
      Alcotest.test_case "`Bsd divergence: run-time underflow" `Quick
        test_bsd_divergence_underflow;
      QCheck_alcotest.to_alcotest prop_fast_scratch_reuse_safe;
      Alcotest.test_case "empty program edges" `Quick test_empty_program_edge_cases;
      Alcotest.test_case "nop is identity" `Quick test_nop_insn_is_identity;
    ] )
