(* The stochastic superoptimizer: determinism (fixed seed, fixed budget =>
   byte-identical programs and identical statistics), the proof-gating
   invariants (accepted = proved, never costlier, best provably equal to
   the source), the refuted-candidate witnesses, the shared equivalence
   memo, and the offline [Regvm.compile_super] entry point. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen

let validated program =
  match Validate.check program with
  | Ok v -> v
  | Error e -> Alcotest.failf "builtin invalid: %a" Validate.pp_error e

let search_builtin ?memo ?(budget = Superopt.default_budget) program =
  Superopt.search ?memo ~budget ~seed:Superopt.default_seed
    (fst (Regopt.optimize (validated program)))

(* {1 Determinism} *)

let test_determinism () =
  List.iter
    (fun (name, program) ->
      let a = search_builtin program in
      let b = search_builtin program in
      Alcotest.(check (list int))
        (name ^ ": byte-identical best program")
        (Ir.encode a.Superopt.best) (Ir.encode b.Superopt.best);
      Alcotest.(check bool)
        (name ^ ": identical statistics")
        true
        (a.Superopt.stats = b.Superopt.stats);
      Alcotest.(check int)
        (name ^ ": identical refuted pool")
        (List.length a.Superopt.refuted)
        (List.length b.Superopt.refuted))
    Predicates.builtins

(* {1 Proof gating over the builtin corpus} *)

let test_never_worse_and_proved () =
  let wins = ref 0 in
  List.iter
    (fun (name, program) ->
      let v = validated program in
      let o = search_builtin program in
      let st = o.Superopt.stats in
      Alcotest.(check int)
        (name ^ ": every accepted commit carries a proof")
        st.Superopt.proved st.Superopt.accepted;
      Alcotest.(check bool)
        (name ^ ": never costlier than the pipeline output")
        true
        (o.Superopt.best_cost <= o.Superopt.initial_cost);
      if o.Superopt.best_cost < o.Superopt.initial_cost then incr wins;
      (* The chain only moves through proved steps, so the final program is
         equal to the source filter by transitivity — and the checker can
         re-prove it directly. *)
      let r = Equiv.check ~budget:192 ~pair_budget:1024 (Equiv.Prog v)
          (Equiv.Ir_prog o.Superopt.best)
      in
      (match r.Equiv.verdict with
      | Equiv.Counterexample w ->
        Alcotest.failf "%s: best program refuted at %a" name Packet.pp_hex w
      | Equiv.Proved_equal | Equiv.Unknown -> ()))
    Predicates.builtins;
  (* The bench gate's win class exists: fig-3-8 plus the naive blender
     variants all strictly improve. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 5 of %d builtins improve (saw %d)"
       (List.length Predicates.builtins) !wins)
    true (!wins >= 5)

(* {1 Refuted candidates carry separating witnesses} *)

let test_refuted_witnesses_diverge () =
  let total = ref 0 in
  List.iter
    (fun (name, program) ->
      let o = search_builtin program in
      List.iter
        (fun (r : Superopt.refuted_candidate) ->
          incr total;
          let w = r.Superopt.witness in
          Alcotest.(check bool)
            (name ^ ": witness separates candidate from incumbent")
            true
            (r.Superopt.candidate_verdict <> r.Superopt.incumbent_verdict);
          Alcotest.(check bool)
            (name ^ ": candidate verdict replays")
            r.Superopt.candidate_verdict
            (Ir.exec r.Superopt.candidate w);
          (* The incumbent is provably the source filter, so the reference
             interpreter must reproduce its side of the divergence. *)
          Alcotest.(check bool)
            (name ^ ": incumbent verdict is the filter's verdict")
            r.Superopt.incumbent_verdict
            (Interp.accepts ~semantics:`Paper program w))
        o.Superopt.refuted)
    Predicates.builtins;
  Alcotest.(check bool)
    (Printf.sprintf "the corpus produced refuted candidates (saw %d)" !total)
    true (!total > 0)

(* {1 The shared equivalence memo} *)

let test_memo_reuse () =
  let _, program = List.nth Predicates.builtins 0 (* fig-3-8 *) in
  let memo = Equiv.Memo.create () in
  let a = search_builtin ~memo program in
  let hits_after_first = Equiv.Memo.check_hits memo in
  let b = search_builtin ~memo program in
  Alcotest.(check (list int)) "memoized rerun finds the same program"
    (Ir.encode a.Superopt.best) (Ir.encode b.Superopt.best);
  Alcotest.(check bool) "rerun answers every query from the memo" true
    (Equiv.Memo.check_hits memo - hits_after_first
     >= b.Superopt.stats.Superopt.equiv_checks);
  Alcotest.(check int) "memo hits surfaced in the stats"
    (Equiv.Memo.check_hits memo - hits_after_first)
    b.Superopt.stats.Superopt.memo_hits;
  Alcotest.(check bool) "memo retains entries" true (Equiv.Memo.size memo > 0)

(* {1 Offline compilation: [Regvm.compile_super] vs [Regvm.compile]} *)

let test_offline_compile_super () =
  let v = validated (Predicates.naive_udp_dst_port 53) in
  let rng = Gen.Rng.make 0xBEEF in
  let packets = List.init 60 (fun _ -> fst (Gen.packet rng)) in
  let run vm = List.map (Regvm.run_counted vm) packets in
  let steps runs = List.fold_left (fun n (_, insns) -> n + insns) 0 runs in
  let plain = run (Regvm.compile v) in
  let super_vm, certification, a = Regvm.compile_super v in
  let _, _, b = Regvm.compile_super v in
  let searched = run super_vm in
  Alcotest.(check (list bool)) "same verdicts as Regvm.compile"
    (List.map fst plain) (List.map fst searched);
  (* The search strictly improved this naive blender filter, and the
     per-executed-instruction count sees it. *)
  Alcotest.(check bool) "fewer executed IR steps" true
    (steps searched < steps plain);
  let st = a.Superopt.stats in
  Alcotest.(check int) "accepted = proved" st.Superopt.proved st.Superopt.accepted;
  Alcotest.(check bool) "search did commit improvements" true
    (st.Superopt.accepted > 0);
  Alcotest.(check bool) "identical stats across fresh runs" true
    (a.Superopt.stats = b.Superopt.stats);
  match certification with
  | Equiv.Refuted w -> Alcotest.failf "pipeline refuted at %a" Packet.pp_hex w
  | Equiv.Certified | Equiv.Uncertified _ -> ()

let suite =
  ( "superopt",
    [ Alcotest.test_case "fixed seed, fixed output (corpus)" `Quick
        test_determinism;
      Alcotest.test_case "never worse, accepted = proved (corpus)" `Quick
        test_never_worse_and_proved;
      Alcotest.test_case "refuted candidates diverge at their witness" `Quick
        test_refuted_witnesses_diverge;
      Alcotest.test_case "shared equivalence memo" `Quick test_memo_reuse;
      Alcotest.test_case "offline compile_super vs compile" `Quick
        test_offline_compile_super
    ] )
