open Pf_filter
open Pf_filter.Dsl
module Packet = Pf_pkt.Packet

(* {1 The run-time filter compiler (Expr/Dsl)} *)

let fig_3_8_expr =
  let pup_type = low_byte (word 3) in
  word 1 =: lit 2 &&: (pup_type >: lit 0) &&: (pup_type <=: lit 100)

let fig_3_9_expr =
  word 8 =: lit 35 &&: (word 7 =: lit 0) &&: (word 1 =: lit 2)

let test_expr_matches_hand_written () =
  let frames =
    [ Testutil.pup_frame (); Testutil.pup_frame ~ptype:0 (); Testutil.pup_frame ~ptype:100 ();
      Testutil.pup_frame ~ptype:101 (); Testutil.pup_frame ~etype:7 ();
      Testutil.pup_frame ~dst_socket:36l (); Testutil.pup_frame ~dst_socket:35l () ]
  in
  List.iter
    (fun frame ->
      Alcotest.(check bool) "expr fig3-8 = hand fig3-8"
        (Interp.accepts Predicates.fig_3_8 frame)
        (Interp.accepts (Expr.compile fig_3_8_expr) frame);
      Alcotest.(check bool) "expr fig3-9 = hand fig3-9"
        (Interp.accepts Predicates.fig_3_9 frame)
        (Interp.accepts (Expr.compile fig_3_9_expr) frame))
    frames

let test_short_circuit_compilation_shape () =
  (* The compiler should produce CAND chains for equality conjunctions, so a
     mismatch on the first test exits after two instructions, like fig 3-9. *)
  let p = Expr.compile fig_3_9_expr in
  let o = Interp.run p (Testutil.pup_frame ~dst_socket:36l ()) in
  Alcotest.(check int) "first-test mismatch exits after 2 insns" 2 o.Interp.insns_executed;
  (* And the whole program is as compact as the hand-written one. *)
  Alcotest.(check int) "same code size as figure 3-9" (Program.code_words Predicates.fig_3_9)
    (Program.code_words p)

let test_plain_compilation () =
  let p = Expr.compile ~short_circuit:false fig_3_9_expr in
  let o = Interp.run p (Testutil.pup_frame ~dst_socket:36l ()) in
  Alcotest.(check bool) "plain rejects too" false o.Interp.accept;
  Alcotest.(check int) "plain runs the whole program"
    (Program.insn_count p) o.Interp.insns_executed

let test_special_constants () =
  (* lit 0 / 1 / ffff / ff00 / 00ff use the dedicated push actions — no
     literal words in the encoding. *)
  let e = word 0 =: lit 0xff00 &&: (word 1 =: lit 0xffff) &&: (word 2 =: lit 0) in
  let p = Expr.compile e in
  Alcotest.(check int) "no literal words" (Program.insn_count p) (Program.code_words p)

let test_not_compiles () =
  let e = not_ (word 1 =: lit 2) in
  let p = Expr.compile e in
  Alcotest.(check bool) "not(pup) rejects pup" false
    (Interp.accepts p (Testutil.pup_frame ~etype:2 ()));
  Alcotest.(check bool) "not(pup) accepts others" true
    (Interp.accepts p (Testutil.pup_frame ~etype:3 ()))

let test_simplify () =
  let e = lit 3 +: lit 4 =: lit 7 in
  Alcotest.(check bool) "constant folds to true" true (Expr.simplify e = Expr.Lit 1);
  let e2 = all [ word 1 =: lit 2; lit 1 ] in
  Alcotest.(check bool) "drops true conjunct" true
    (Expr.simplify e2 = Expr.Bin (Expr.Eq, Expr.Word 1, Expr.Lit 2));
  let e3 = all [ word 1 =: lit 2; lit 0 ] in
  Alcotest.(check bool) "false absorbs" true (Expr.simplify e3 = Expr.Lit 0);
  let e4 = any [ lit 5; word 1 =: lit 2 ] in
  Alcotest.(check bool) "true absorbs disjunction" true (Expr.simplify e4 = Expr.Lit 1)

let test_nested_connectives () =
  (* Inner Any inside All must not short-circuit the whole program. *)
  let e = (word 0 =: lit 1 ||: (word 0 =: lit 2)) &&: (word 1 =: lit 3) in
  let p = Expr.compile e in
  let yes = Packet.of_words [ 2; 3 ] in
  let no = Packet.of_words [ 2; 4 ] in
  let no2 = Packet.of_words [ 5; 3 ] in
  Alcotest.(check bool) "matches (2,3)" true (Interp.accepts p yes);
  Alcotest.(check bool) "rejects (2,4)" false (Interp.accepts p no);
  Alcotest.(check bool) "rejects (5,3)" false (Interp.accepts p no2)

let test_udp_any_ihl_predicate () =
  (* Build a 10Mb frame carrying IP with options (IHL=7) + UDP to port 53,
     and check the extension-based filter finds the port while the
     fixed-offset filter (documented 1987 limitation) does not. *)
  let mk_ip_frame ~ihl ~dst_port =
    let b = Pf_pkt.Builder.create () in
    (* ethernet *)
    Pf_pkt.Builder.add_string b (String.make 6 '\x01');
    Pf_pkt.Builder.add_string b (String.make 6 '\x02');
    Pf_pkt.Builder.add_word b 0x0800;
    (* ip header *)
    Pf_pkt.Builder.add_byte b ((4 lsl 4) lor ihl);
    Pf_pkt.Builder.add_byte b 0;
    Pf_pkt.Builder.add_word b ((ihl * 4) + 8);
    Pf_pkt.Builder.add_word b 0;
    Pf_pkt.Builder.add_word b 0;
    Pf_pkt.Builder.add_byte b 30;
    Pf_pkt.Builder.add_byte b 17;
    Pf_pkt.Builder.add_word b 0;
    Pf_pkt.Builder.add_word32 b 0x0a000001l;
    Pf_pkt.Builder.add_word32 b 0x0a000002l;
    for _ = 1 to (ihl - 5) * 4 do
      Pf_pkt.Builder.add_byte b 0
    done;
    (* udp *)
    Pf_pkt.Builder.add_word b 1234;
    Pf_pkt.Builder.add_word b dst_port;
    Pf_pkt.Builder.add_word b 8;
    Pf_pkt.Builder.add_word b 0;
    Pf_pkt.Builder.to_packet b
  in
  let flexible = Predicates.udp_dst_port_any_ihl 53 in
  let fixed = Predicates.udp_dst_port 53 in
  Alcotest.(check bool) "flexible finds port w/ options" true
    (Interp.accepts flexible (mk_ip_frame ~ihl:7 ~dst_port:53));
  Alcotest.(check bool) "flexible: no false positive" false
    (Interp.accepts flexible (mk_ip_frame ~ihl:7 ~dst_port:54));
  Alcotest.(check bool) "flexible works w/o options too" true
    (Interp.accepts flexible (mk_ip_frame ~ihl:5 ~dst_port:53));
  Alcotest.(check bool) "fixed-offset works w/o options" true
    (Interp.accepts fixed (mk_ip_frame ~ihl:5 ~dst_port:53));
  Alcotest.(check bool) "fixed-offset misses w/ options (the 1987 limitation)" false
    (Interp.accepts fixed (mk_ip_frame ~ihl:7 ~dst_port:53));
  Alcotest.(check bool) "flexible filter needs the extensions" true
    (Program.uses_extensions flexible)

(* {1 Property: eval = compiled, both modes, on covering packets} *)

let gen_expr =
  QCheck.Gen.(
    let leaf =
      oneof
        [ map (fun v -> Expr.Lit (v land 0xffff)) (int_bound 0xffff);
          map (fun n -> Expr.Word n) (int_bound 11) ]
    in
    let binop =
      oneofl
        [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Band; Expr.Bor;
          Expr.Bxor; Expr.Add; Expr.Sub; Expr.Mul; Expr.Lsh; Expr.Rsh ]
    in
    let rec node depth =
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (4, map3 (fun op a b -> Expr.Bin (op, a, b)) binop (node (depth - 1)) (node (depth - 1)));
            (1, map (fun e -> Expr.Not e) (node (depth - 1)));
            (2, map (fun es -> Expr.All es) (list_size (int_range 1 3) (node (depth - 1))));
            (2, map (fun es -> Expr.Any es) (list_size (int_range 1 3) (node (depth - 1))));
          ]
    in
    node 3)

let gen_covering_packet =
  QCheck.Gen.(list_repeat 12 (int_bound 0xffff) >>= fun ws -> return (Packet.of_words ws))

let arb_expr_packet =
  QCheck.make
    ~print:(fun (e, p) -> Format.asprintf "%a on %a" Expr.pp e Packet.pp p)
    QCheck.Gen.(pair gen_expr gen_covering_packet)

let prop_eval_equals_compiled =
  QCheck.Test.make ~name:"expr eval = compiled program (short-circuit)" ~count:1000
    arb_expr_packet
    (fun (e, packet) ->
      let compiled = Expr.compile e in
      match Validate.check compiled with
      | Error _ -> QCheck.assume_fail () (* too deep for the 32-word stack *)
      | Ok _ -> Expr.matches e packet = Interp.accepts compiled packet)

let prop_eval_equals_plain_compiled =
  QCheck.Test.make ~name:"expr eval = compiled program (plain)" ~count:1000
    arb_expr_packet
    (fun (e, packet) ->
      let compiled = Expr.compile ~short_circuit:false e in
      match Validate.check compiled with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> Expr.matches e packet = Interp.accepts compiled packet)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves eval" ~count:1000 arb_expr_packet
    (fun (e, packet) -> Expr.eval e packet = Expr.eval (Expr.simplify e) packet)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" Expr.pp) gen_expr)
    (fun e ->
      let once = Expr.simplify e in
      Expr.simplify once = once)

(* {1 The dispatch automaton (§7 "decision table")} *)

let test_guard_chain () =
  let chain p = fst (Analysis.guards p) in
  Alcotest.(check (list (triple int int int))) "fig 3-9 guards"
    [ (8, 0xffff, 35); (7, 0xffff, 0); (1, 0xffff, 2) ]
    (chain Predicates.fig_3_9);
  Alcotest.(check (list (triple int int int))) "fig 3-8 has no full guard chain" []
    (chain Predicates.fig_3_8);
  Alcotest.(check (list (triple int int int))) "empty program no guards" []
    (chain Predicates.accept_all)

let test_dispatch_matches_sequential () =
  (* 20 Pup-socket filters plus one low-priority catch-all, versus the
     sequential priority-ordered loop. *)
  let filters =
    List.init 20 (fun i ->
        (Validate.check_exn (Predicates.pup_dst_socket ~priority:5 (Int32.of_int (30 + i))), i))
    @ [ (Validate.check_exn (Program.with_priority Predicates.fig_3_8 1), 999) ]
  in
  let first_match = Testutil.dispatch_first_match filters in
  let sequential packet =
    (* priority desc, stable *)
    let sorted =
      List.stable_sort
        (fun (va, _) (vb, _) ->
          compare
            (Program.priority (Validate.program vb))
            (Program.priority (Validate.program va)))
        filters
    in
    List.find_map
      (fun (v, tag) -> if Fast.run (Fast.compile v) packet then Some tag else None)
      sorted
  in
  let packets =
    List.init 40 (fun i ->
        Testutil.pup_frame ~dst_socket:(Int32.of_int (25 + i)) ~ptype:((i mod 120) + 1) ())
    @ [ Testutil.pup_frame ~etype:9 (); Packet.of_string "xx" ]
  in
  List.iter
    (fun packet ->
      Alcotest.(check (option int)) "dispatch = sequential" (sequential packet)
        (fst (first_match packet)))
    packets

let test_dispatch_saves_interpretation () =
  let filters =
    List.init 20 (fun i ->
        (Validate.check_exn (Predicates.pup_dst_socket (Int32.of_int (100 + i))), i))
  in
  let packet = Testutil.pup_frame ~dst_socket:119l () in
  let _, dispatch_insns = Testutil.dispatch_first_match filters packet in
  let seq_insns =
    List.fold_left
      (fun (found, acc) (v, _) ->
        if found then (found, acc)
        else begin
          let ok, n = Fast.run_counted (Fast.compile v) packet in
          (ok, acc + n)
        end)
      (false, 0) filters
    |> snd
  in
  Alcotest.(check bool)
    (Printf.sprintf "automaton interprets less (%d < %d)" dispatch_insns seq_insns)
    true (dispatch_insns < seq_insns)

let prop_dispatch_equals_sequential =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 12) (pair (int_bound 50) (int_bound 3)))
        (int_bound 60))
  in
  QCheck.Test.make ~name:"dispatch automaton = sequential priority order" ~count:300
    (QCheck.make gen)
    (fun (specs, sock) ->
      let filters =
        List.mapi
          (fun i (socket, prio) ->
            (Validate.check_exn (Predicates.pup_dst_socket ~priority:prio (Int32.of_int socket)), i))
          specs
      in
      let packet = Testutil.pup_frame ~dst_socket:(Int32.of_int sock) () in
      let sorted =
        List.stable_sort
          (fun (va, _) (vb, _) ->
            compare
              (Program.priority (Validate.program vb))
              (Program.priority (Validate.program va)))
          filters
      in
      let sequential =
        List.find_map
          (fun (v, tag) -> if Fast.run (Fast.compile v) packet then Some tag else None)
          sorted
      in
      fst (Testutil.dispatch_first_match filters packet) = sequential)

let suite =
  ( "expr+decision",
    [
      Alcotest.test_case "expr = hand-written figures" `Quick test_expr_matches_hand_written;
      Alcotest.test_case "short-circuit compilation shape" `Quick
        test_short_circuit_compilation_shape;
      Alcotest.test_case "plain compilation" `Quick test_plain_compilation;
      Alcotest.test_case "special constants" `Quick test_special_constants;
      Alcotest.test_case "not" `Quick test_not_compiles;
      Alcotest.test_case "simplify" `Quick test_simplify;
      Alcotest.test_case "nested connectives" `Quick test_nested_connectives;
      Alcotest.test_case "variable IHL predicate (§7)" `Quick test_udp_any_ihl_predicate;
      QCheck_alcotest.to_alcotest prop_eval_equals_compiled;
      QCheck_alcotest.to_alcotest prop_eval_equals_plain_compiled;
      QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
      QCheck_alcotest.to_alcotest prop_simplify_idempotent;
      Alcotest.test_case "guard chains" `Quick test_guard_chain;
      Alcotest.test_case "dispatch = sequential" `Quick test_dispatch_matches_sequential;
      Alcotest.test_case "dispatch saves interpretation" `Quick
        test_dispatch_saves_interpretation;
      QCheck_alcotest.to_alcotest prop_dispatch_equals_sequential;
    ] )
