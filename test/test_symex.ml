(* The symbolic path engine and the translation-validation layer on top of
   it: path enumeration agrees with the interpreter packet by packet,
   [Equiv] proves the shipped optimizer rewrites and refutes a seeded
   miscompilation with a confirmed, engine-checked witness, and the
   sharpened relation lets [Decision] reorder guard chains that
   [Analysis.relate] alone cannot separate. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen
module Oracle = Pf_fuzz.Oracle
module Runner = Pf_fuzz.Runner
module Shrink = Pf_fuzz.Shrink
module Pfdev = Pf_kernel.Pfdev
module Host = Pf_kernel.Host

let i ?(op = Op.Nop) action = Insn.make ~op action

let validate_exn p =
  match Validate.check p with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

let relation = Alcotest.testable Analysis.pp_relation ( = )

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let builtins =
  [
    ("fig-3-8", Predicates.fig_3_8);
    ("fig-3-9", Predicates.fig_3_9);
    ("accept-all", Predicates.accept_all);
    ("reject-all", Predicates.reject_all);
    ("pup-type-is-1", Predicates.pup_type_is 1);
    ("pup-dst-socket-35", Predicates.pup_dst_socket 35l);
    ("pup-dst-port", Predicates.pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", Predicates.pup_dst_port_10mb ~host:2 35l);
    ("ethertype-ip", Predicates.ethertype_is 0x0800);
    ("udp-dst-port-53", Predicates.udp_dst_port 53);
    ("udp-dst-port-any-ihl-53", Predicates.udp_dst_port_any_ihl 53);
    ("vmtp-dst-entity", Predicates.vmtp_dst_entity 0x1234l);
    ("rarp-request", Predicates.rarp_request ());
    ("rarp-reply-for", Predicates.rarp_reply_for "\x08\x00\x2b\x01\x02\x03");
    ("synthetic-accept-5", Predicates.synthetic ~length:5 ~accept:true);
  ]

(* {1 Symbolic execution agrees with the interpreter} *)

(* The paths of a completed run partition the packets: exactly one path is
   satisfied, and its verdict is the interpreter's. An incomplete run may
   miss the packet's path but must never claim a wrong verdict or two
   paths at once. *)
let check_against_interp name program packet =
  let v = validate_exn program in
  let ctx = Symex.Ctx.create () in
  let outcome = Symex.run ctx v in
  let reference = Interp.accepts ~semantics:`Paper program packet in
  let satisfied =
    List.filter (fun p -> Symex.satisfies p.Symex.cond packet)
      outcome.Symex.paths
  in
  match satisfied with
  | [ p ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: path verdict matches interp" name)
        reference p.Symex.accept
  | [] ->
      if outcome.Symex.complete then
        Alcotest.failf "%s: complete run but no path matches %a" name
          Packet.pp_hex packet
  | _ ->
      Alcotest.failf "%s: %d paths claim %a (paths must be exclusive)" name
        (List.length satisfied) Packet.pp_hex packet

let test_symex_matches_interp_builtins () =
  let rng = Gen.Rng.make 0x5E11 in
  List.iter
    (fun (name, program) ->
      for _ = 1 to 100 do
        let packet, _ = Gen.packet rng in
        check_against_interp name program packet
      done;
      (* short packets stress the length atoms *)
      for len = 0 to 12 do
        check_against_interp name program
          (Packet.of_words (List.init len (fun i -> i * 257)))
      done)
    builtins

let test_symex_matches_interp_tricky () =
  (* division forks, word-vs-word equality, indirect pushes, and the
     nonzero-top completion rule *)
  let progs =
    [
      ( "div by word",
        Program.v
          [
            i (Action.Pushword 0);
            i ~op:Op.Div (Action.Pushword 1);
            i ~op:Op.Gt (Action.Pushlit 3);
          ] );
      ( "mod by word",
        Program.v
          [ i (Action.Pushword 2); i ~op:Op.Mod (Action.Pushword 0) ] );
      ( "word pair",
        Program.v
          [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushword 3) ] );
      ( "indirect",
        Program.v
          [
            i (Action.Pushword 0);
            i ~op:Op.And (Action.Pushlit 7);
            i Action.Pushind;
            i ~op:Op.Eq (Action.Pushlit 9);
          ] );
      ( "arith verdict",
        Program.v
          [ i (Action.Pushword 0); i ~op:Op.Add (Action.Pushword 1) ] );
      ( "masked range",
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Push00ff;
            i ~op:Op.Gt (Action.Pushlit 0);
          ] );
    ]
  in
  let rng = Gen.Rng.make 0x7A7A in
  List.iter
    (fun (name, program) ->
      for _ = 1 to 200 do
        let packet, _ = Gen.packet rng in
        check_against_interp name program packet
      done;
      for len = 0 to 6 do
        check_against_interp name program
          (Packet.of_words (List.init len (fun i -> i)))
      done)
    progs

let test_budget_degrades_to_incomplete () =
  (* every instruction forks: 2^n paths blow any small budget *)
  let program =
    Program.v
      (List.concat_map
         (fun n ->
           [ i (Action.Pushword (2 * n)); i ~op:Op.Cand (Action.Pushword ((2 * n) + 1)) ])
         (List.init 10 (fun n -> n))
      @ [ i ~op:Op.Eq (Action.Pushlit 1) ])
  in
  let v = validate_exn program in
  let ctx = Symex.Ctx.create () in
  let outcome = Symex.run ~budget:4 ctx v in
  Alcotest.(check bool) "incomplete" false outcome.Symex.complete;
  Alcotest.(check bool) "some paths survive" true (outcome.Symex.paths <> []);
  (* prefix paths are still genuine: any satisfied path predicts interp *)
  let rng = Gen.Rng.make 0xB06 in
  for _ = 1 to 100 do
    let packet, _ = Gen.packet rng in
    List.iter
      (fun p ->
        if Symex.satisfies p.Symex.cond packet then
          Alcotest.(check bool) "prefix path verdict"
            (Interp.accepts ~semantics:`Paper program packet)
            p.Symex.accept)
      outcome.Symex.paths
  done;
  (* and the budget obstruction is reported in so many words *)
  let r = Equiv.check_programs ~budget:4 v v in
  (match r.Equiv.verdict with
  | Equiv.Unknown -> ()
  | _ -> Alcotest.fail "tiny budget must yield Unknown");
  let msg = Format.asprintf "%a" Equiv.pp_reasons r.Equiv.reasons in
  Alcotest.(check bool)
    (Printf.sprintf "reasons mention the path budget: %s" msg)
    true
    (contains ~affix:"path budget" msg)

(* {1 Equivalence: proofs} *)

let test_equiv_self_proved () =
  List.iter
    (fun (name, program) ->
      let v = validate_exn program in
      let r = Equiv.check_programs v v in
      match r.Equiv.verdict with
      | Equiv.Proved_equal -> ()
      | _ ->
          Alcotest.failf "%s: self-equivalence not proved: %a" name
            Equiv.pp_report r)
    builtins

(* Acceptance criterion: every shipped rewrite over the builtin corpus is
   proved — none is Unknown, none refuted. *)
let test_builtin_rewrites_certified () =
  List.iter
    (fun (name, program) ->
      let v = validate_exn program in
      (* peephole *)
      let opt = Peephole.optimize program in
      let vopt = validate_exn opt in
      (match (Equiv.check_programs v vopt).Equiv.verdict with
      | Equiv.Proved_equal -> ()
      | _ -> Alcotest.failf "%s: peephole rewrite not proved" name);
      (* regopt IR *)
      let ir, _ = Regopt.optimize v in
      match (Equiv.check_ir v ir).Equiv.verdict with
      | Equiv.Proved_equal -> ()
      | _ -> Alcotest.failf "%s: optimized IR not proved" name)
    builtins

(* {1 Counterexample synthesis: the seeded miscompilation}

   [Peephole.For_testing.miscompile_literal_two] rewrites [pushlit 2] to
   [pushone] — the classic wrong-constant strength-reduction bug. The
   checker must refute it with a confirmed witness, the certified entry
   point must fall back to the original program, and the fuzz oracle must
   blame the peephole pass. *)

let with_buggy_peephole f =
  Peephole.For_testing.miscompile_literal_two := true;
  Fun.protect ~finally:(fun () ->
      Peephole.For_testing.miscompile_literal_two := false)
    f

(* The pinned minimal regression the shrinker converges to. *)
let literal_two_program =
  Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushlit 2) ]

let test_buggy_peephole_refuted () =
  with_buggy_peephole (fun () ->
      let fallback, cert = Peephole.optimize_certified literal_two_program in
      match cert with
      | Equiv.Refuted w ->
          (* fall back to the unoptimized program... *)
          Alcotest.(check bool) "falls back to the original" true
            (Program.equal fallback literal_two_program);
          (* ...with a witness the engines really disagree on *)
          let buggy = Peephole.optimize literal_two_program in
          Alcotest.(check bool) "original's verdict on the witness" true
            (Interp.accepts ~semantics:`Paper literal_two_program w);
          Alcotest.(check bool) "miscompiled verdict differs" false
            (Interp.accepts ~semantics:`Paper buggy w);
          (* the oracle blames the peephole equivalence check by name *)
          (match Oracle.check literal_two_program w with
          | Oracle.Disagreement ms ->
              Alcotest.(check bool) "oracle blames equiv-peephole" true
                (List.exists
                   (fun (m : Oracle.mismatch) ->
                     m.Oracle.engine = "equiv-peephole")
                   ms)
          | o ->
              Alcotest.failf "oracle missed the miscompilation: %a"
                Oracle.pp_outcome o)
      | Equiv.Certified -> Alcotest.fail "seeded miscompilation certified"
      | Equiv.Uncertified why ->
          Alcotest.failf "seeded miscompilation uncertified: %s" why)

let test_buggy_peephole_shrinks_to_regression () =
  with_buggy_peephole (fun () ->
      (* a padded variant: dead identity arithmetic around the live
         [pushlit 2] comparison *)
      let padded =
        Program.v
          [
            i (Action.Pushword 0);
            i ~op:Op.Or (Action.Pushlit 0);
            i ~op:Op.Eq (Action.Pushlit 2);
            i (Action.Pushword 1);
            i ~op:Op.Ge (Action.Pushlit 0);
            i ~op:Op.And Action.Nopush;
          ]
      in
      let witness =
        match Peephole.optimize_certified padded with
        | _, Equiv.Refuted w -> w
        | _, Equiv.Certified -> Alcotest.fail "padded miscompilation certified"
        | _, Equiv.Uncertified why ->
            Alcotest.failf "padded miscompilation uncertified: %s" why
      in
      (* keep = "the miscompiled optimum still disagrees with the source" *)
      let keep p pkt =
        match Validate.check p with
        | Error _ -> false
        | Ok _ -> (
            let opt = Peephole.optimize p in
            match Validate.check opt with
            | Error _ -> false
            | Ok _ ->
                Interp.accepts ~semantics:`Paper p pkt
                <> Interp.accepts ~semantics:`Paper opt pkt)
      in
      Alcotest.(check bool) "padded case disagrees" true (keep padded witness);
      let shrunk_p, shrunk_w = Shrink.minimize ~keep padded witness in
      Alcotest.(check bool) "shrunk case still disagrees" true
        (keep shrunk_p shrunk_w);
      (* greedy minimization keeps only the live [pushlit 2] comparison
         (it can even drop the packet dependence: [2 land 1 = 0] while the
         miscompiled [1 land 1 = 1]) *)
      Alcotest.(check bool)
        (Format.asprintf "shrunk to <= 4 insns: %a" Program.pp shrunk_p)
        true
        (Program.insn_count shrunk_p <= 4);
      Alcotest.(check bool) "witness shrunk to <= 1 word" true
        (Packet.word_count shrunk_w <= 1))

(* {1 Every counterexample is runnable on every engine} *)

(* The confirmation matrix of a refuting witness: each side's verdict is
   engine-independent (checked interpreter under both semantics, Fast,
   Closure, Regvm), and the two sides differ — exactly the claim a
   [Counterexample] makes. *)
let confirm_matrix name va vb w =
  let verdict v =
    let program = Validate.program v in
    let reference = Interp.accepts ~semantics:`Paper program w in
    let engines =
      [
        ("interp-bsd", Interp.accepts ~semantics:`Bsd program w);
        ("fast", Fast.run (Fast.compile v) w);
        ("closure", Closure.run (Closure.compile v) w);
        ("regvm", Regvm.run (Regvm.compile v) w);
      ]
    in
    List.iter
      (fun (engine, got) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s agrees on the witness" name engine)
          reference got)
      engines;
    reference
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: witness separates the two sides" name)
    true
    (verdict va <> verdict vb)

let test_counterexamples_confirmed_on_all_engines () =
  (* disagreeing pairs over several domains: plain constants, masked
     words, word-vs-word equality, packet length *)
  let pairs =
    [
      ( "constant",
        literal_two_program,
        Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushlit 3) ] );
      ( "mask",
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Push00ff;
            i ~op:Op.Eq (Action.Pushlit 7);
          ],
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Pushff00;
            i ~op:Op.Eq (Action.Pushlit 0x0700);
          ] );
      ( "word pair",
        Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushword 2) ],
        Program.v [ i (Action.Pushword 0); i ~op:Op.Neq (Action.Pushword 2) ] );
      ( "length",
        (* out-of-range pushword rejects: accept iff >= 5 (resp. 3) words *)
        Program.v [ i (Action.Pushword 4); i ~op:Op.Ge (Action.Pushlit 0) ],
        Program.v [ i (Action.Pushword 2); i ~op:Op.Ge (Action.Pushlit 0) ] );
    ]
  in
  List.iter
    (fun (name, pa, pb) ->
      let va = validate_exn pa and vb = validate_exn pb in
      match (Equiv.check_programs va vb).Equiv.verdict with
      | Equiv.Counterexample w -> confirm_matrix name va vb w
      | Equiv.Proved_equal ->
          Alcotest.failf "%s: inequivalent pair proved equal" name
      | Equiv.Unknown -> Alcotest.failf "%s: pair not separated" name)
    pairs

(* {1 The sharpened relation closes Analysis.relate's coverage gap} *)

(* [Analysis.relate] separates syntactic guard chains; flip one comparison's
   operand order and it answers Unknown, while the symbolic engine still
   decides the pair. *)
let test_relate_coverage_gap () =
  let guards_w7_is_0 =
    Program.v
      [
        i (Action.Pushword 7);
        i ~op:Op.Cand (Action.Pushlit 0);
        i (Action.Pushword 1);
        i ~op:Op.Eq (Action.Pushlit 2);
      ]
  in
  (* same predicate as [pushword+7; pushlit cand 5; ...] but with the
     trailing comparison's operands swapped: no extractable guard chain *)
  let swapped_w7_is_5 =
    Program.v
      [
        i (Action.Pushlit 5);
        i (Action.Pushword 7);
        i ~op:Op.Eq Action.Nopush;
      ]
  in
  let va = validate_exn guards_w7_is_0 and vb = validate_exn swapped_w7_is_5 in
  Alcotest.check relation "Analysis.relate cannot separate the pair"
    Analysis.Unknown (Analysis.relate va vb);
  Alcotest.check relation "Equiv.relate proves them disjoint" Analysis.Disjoint
    (Equiv.relate va vb);
  (* an operand-swapped reformulation of the same filter: equivalence, too *)
  let plain_w7_is_5 =
    Program.v [ i (Action.Pushword 7); i ~op:Op.Eq (Action.Pushlit 5) ]
  in
  let vc = validate_exn plain_w7_is_5 in
  Alcotest.check relation "Analysis.relate cannot prove the rewrite"
    Analysis.Unknown (Analysis.relate vc vb);
  Alcotest.check relation "Equiv.relate proves equivalence"
    Analysis.Equivalent (Equiv.relate vc vb)

(* The gap matters: [Decision.build]'s equal-priority cheapest-first swap
   fires on an [Equiv]-proven disjoint pair that [Analysis.relate] alone
   would leave in installation order. *)
let test_decision_reorders_via_equiv () =
  let expensive =
    Program.v
      [
        i (Action.Pushword 1);
        i ~op:Op.Cand (Action.Pushlit 2);
        i (Action.Pushword 3);
        i ~op:Op.Cand (Action.Pushlit 0);
        i (Action.Pushlit 0);
        i (Action.Pushword 7);
        i ~op:Op.Eq Action.Nopush;
      ]
  in
  let cheap =
    Program.v
      [ i (Action.Pushlit 5); i (Action.Pushword 7); i ~op:Op.Eq Action.Nopush ]
  in
  let ve = validate_exn expensive and vc = validate_exn cheap in
  (* operand-swapped comparisons leave no guard chains to relate *)
  Alcotest.check relation "the pair is beyond Analysis.relate"
    Analysis.Unknown (Analysis.relate ve vc);
  Alcotest.check relation "but symbolically disjoint" Analysis.Disjoint
    (Equiv.relate ve vc);
  let tree = Decision.build [ (ve, "expensive"); (vc, "cheap") ] in
  (* Packet satisfying the cheap filter: after the Equiv-driven swap it is
     tried first, so only one filter runs. *)
  let pkt = Packet.of_words [ 0; 2; 0; 0; 0; 0; 0; 5 ] in
  let result, stats = Decision.classify_stats tree pkt in
  Alcotest.(check (option string)) "cheap filter accepts" (Some "cheap") result;
  Alcotest.(check int) "only the cheap filter ran" 1
    stats.Decision.filters_run;
  (* and the swap must not change any verdict *)
  let seq = [ (expensive, "expensive"); (cheap, "cheap") ] in
  let rng = Gen.Rng.make 0xD15 in
  for _ = 1 to 200 do
    let pkt, _ = Gen.packet rng in
    let sequential =
      List.find_map
        (fun (p, name) ->
          if Interp.accepts ~semantics:`Paper p pkt then Some name else None)
        seq
    in
    Alcotest.(check (option string)) "tree verdict = sequential verdict"
      sequential
      (fst (Decision.classify_counted tree pkt))
  done

(* {1 Witness synthesis: solve and satisfies} *)

let accept_conds program =
  let v = validate_exn program in
  let outcome = Symex.run (Symex.Ctx.create ()) v in
  Alcotest.(check bool) "enumeration complete" true outcome.Symex.complete;
  List.filter_map
    (fun p -> if p.Symex.accept then Some p.Symex.cond else None)
    outcome.Symex.paths

let test_solve_synthesizes_satisfying_packets () =
  (* masked bits + a disequality + a word-pair equality in one condition *)
  let program =
    Program.v
      [
        i (Action.Pushword 0);
        i ~op:Op.And Action.Pushff00;
        i ~op:Op.Cand (Action.Pushlit 0x1200);
        i (Action.Pushword 1);
        i ~op:Op.Cand (Action.Pushlit 5);
        i (Action.Pushword 2);
        i ~op:Op.Eq (Action.Pushword 3);
      ]
  in
  let conds = accept_conds program in
  Alcotest.(check bool) "at least one accepting path" true (conds <> []);
  List.iter
    (fun cond ->
      match Symex.solve cond with
      | `Sat pkt ->
          Alcotest.(check bool) "synthesized packet satisfies its condition"
            true
            (Symex.satisfies cond pkt);
          Alcotest.(check bool) "and the interpreter accepts it" true
            (Interp.accepts ~semantics:`Paper program pkt)
      | `Unsat -> Alcotest.fail "reachable accepting path reported unsat"
      | `Unknown -> Alcotest.fail "simple masked condition unsolved")
    conds

let test_solve_detects_unsat () =
  (* w0 = 1 AND w0 = 2: the accepting path's condition is contradictory *)
  let program =
    Program.v
      [
        i (Action.Pushword 0);
        i ~op:Op.Cand (Action.Pushlit 1);
        i (Action.Pushword 0);
        i ~op:Op.Eq (Action.Pushlit 2);
      ]
  in
  List.iter
    (fun cond ->
      match Symex.solve cond with
      | `Unsat -> ()
      | `Sat pkt ->
          Alcotest.failf "contradiction solved to %a" Packet.pp_hex pkt
      | `Unknown -> Alcotest.fail "contradiction not refuted")
    (accept_conds program)

(* {1 The pseudodevice certifies installs} *)

let test_pfdev_certify () =
  let costs = Pf_sim.Costs.free in
  let eng = Pf_sim.Engine.create () in
  let link = Pf_net.Link.create eng Pf_net.Frame.Exp3 ~rate_mbit:3. () in
  let host =
    Host.create ~costs link ~name:"certifier" ~addr:(Pf_net.Addr.exp 1)
  in
  let pf = Host.pf host in
  let stats = Host.stats host in
  let install_exn port program =
    match Pfdev.install port program with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e
  in
  (* off by default: nothing recorded *)
  let port0 = Pfdev.open_port pf in
  install_exn port0 Predicates.fig_3_9;
  Alcotest.(check bool) "no certification when not certifying" true
    (Pfdev.port_certification port0 = None);
  Pfdev.set_certify pf true;
  Alcotest.(check bool) "certify sticks" true (Pfdev.certify pf);
  (* each compile strategy's install certifies, and the stat counts it *)
  List.iter
    (fun strategy ->
      let before = Pf_sim.Stats.get stats "pf.certify.proved" in
      Pfdev.set_compile_strategy pf strategy;
      let port = Pfdev.open_port pf in
      install_exn port Predicates.fig_3_9;
      (match Pfdev.port_certification port with
      | Some Equiv.Certified -> ()
      | Some (Equiv.Refuted w) ->
          Alcotest.failf "shipped compile refuted by %a" Packet.pp_hex w
      | Some (Equiv.Uncertified why) ->
          Alcotest.failf "shipped compile uncertified: %s" why
      | None -> Alcotest.fail "certifying install recorded nothing");
      Alcotest.(check int) "pf.certify.proved incremented" (before + 1)
        (Pf_sim.Stats.get stats "pf.certify.proved");
      Pfdev.close_port port)
    [ `Off; `Regvm ];
  Alcotest.(check int) "no refutations of shipped compiles" 0
    (Pf_sim.Stats.get stats "pf.certify.refuted")

let suite =
  ( "symex",
    [
      Alcotest.test_case "symex matches interp on builtins" `Quick
        test_symex_matches_interp_builtins;
      Alcotest.test_case "symex matches interp on tricky programs" `Quick
        test_symex_matches_interp_tricky;
      Alcotest.test_case "path budget degrades to incomplete" `Quick
        test_budget_degrades_to_incomplete;
      Alcotest.test_case "equiv proves self-equivalence" `Quick
        test_equiv_self_proved;
      Alcotest.test_case "builtin rewrites certified" `Quick
        test_builtin_rewrites_certified;
      Alcotest.test_case "seeded peephole miscompilation refuted" `Quick
        test_buggy_peephole_refuted;
      Alcotest.test_case "miscompilation shrinks to pinned regression" `Quick
        test_buggy_peephole_shrinks_to_regression;
      Alcotest.test_case "counterexamples confirmed on all engines" `Quick
        test_counterexamples_confirmed_on_all_engines;
      Alcotest.test_case "Equiv.relate closes Analysis.relate gap" `Quick
        test_relate_coverage_gap;
      Alcotest.test_case "decision tree reorders via Equiv.relate" `Quick
        test_decision_reorders_via_equiv;
      Alcotest.test_case "solve synthesizes satisfying packets" `Quick
        test_solve_synthesizes_satisfying_packets;
      Alcotest.test_case "solve detects unsatisfiable conditions" `Quick
        test_solve_detects_unsat;
      Alcotest.test_case "pfdev certifies installs" `Quick test_pfdev_certify;
    ] )
