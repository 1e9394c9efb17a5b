(* The installation-time abstract interpreter: known-filter facts, the
   consumers that act on them (Fast's checkless runs, the analysis Pfdev
   records at install), the satellite assembler properties, and the
   seeded unsound interval mutant the differential oracle must catch. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen
module Oracle = Pf_fuzz.Oracle
module Runner = Pf_fuzz.Runner
module Pfdev = Pf_kernel.Pfdev
module Host = Pf_kernel.Host

let i ?(op = Op.Nop) action = Insn.make ~op action

let validate_exn p =
  match Validate.check p with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

let analyze p = Analysis.analyze (validate_exn p)

let verdict = Alcotest.testable Analysis.pp_verdict ( = )

(* {1 Facts about known filters} *)

let test_known_filters () =
  let a = analyze Predicates.accept_all in
  Alcotest.check verdict "empty filter" Analysis.Always_accept a.Analysis.verdict;
  Alcotest.(check int) "empty cost" 0 a.Analysis.cost_bound;
  let r = analyze Predicates.reject_all in
  Alcotest.check verdict "pushzero" Analysis.Always_reject r.Analysis.verdict;
  let f38 = analyze Predicates.fig_3_8 in
  Alcotest.check verdict "fig 3-8" Analysis.Depends_on_packet f38.Analysis.verdict;
  Alcotest.(check bool) "fig 3-8 division impossible" true
    (f38.Analysis.div_by_zero = Analysis.Impossible);
  let f39 = analyze Predicates.fig_3_9 in
  Alcotest.check verdict "fig 3-9" Analysis.Depends_on_packet f39.Analysis.verdict;
  (* Figure 3-9 touches words 8, 7 and 1: every access is covered at 9
     words, and — since the CAND exits are all rejections — any shorter
     packet is certainly rejected. *)
  Alcotest.(check int) "fig 3-9 safe bound" 9 f39.Analysis.safe_packet_words;
  Alcotest.(check int) "fig 3-9 certain-reject bound" 9 f39.Analysis.min_packet_words;
  Alcotest.(check (option int)) "no dead code" None (Analysis.dead_after f39)

let test_cost_model () =
  (* The bound is the exact sum over reachable instructions, and a concrete
     run's cost (the executed prefix) can never exceed it. *)
  List.iter
    (fun p ->
      let a = analyze p in
      Alcotest.(check int) "bound = cost of reachable prefix"
        (Analysis.cost_of_prefix p a.Analysis.max_insns)
        a.Analysis.cost_bound;
      let fast = Fast.compile (validate_exn p) in
      let rng = Gen.Rng.make 0xC057 in
      for _ = 1 to 50 do
        let pkt, _ = Gen.packet rng in
        let _, executed = Fast.run_counted fast pkt in
        Alcotest.(check bool) "run cost within bound" true
          (Analysis.cost_of_prefix p executed <= a.Analysis.cost_bound)
      done)
    [ Predicates.fig_3_8; Predicates.fig_3_9; Predicates.udp_dst_port_any_ihl 53 ]

(* {1 Data flow through indirect pushes}

   [udp_dst_port_any_ihl] computes the UDP port offset from the IHL nibble:
   index = ((word 7 >> 8) & 0x0f) * 2 + 8, so every index lies in [8, 38].
   The analysis must prove that bound, and Fast must use it to skip
   the Pushind dynamic check on packets of >= 39 words. *)

let test_indirect_bound () =
  let p = Predicates.udp_dst_port_any_ihl 53 in
  let a = analyze p in
  Alcotest.(check (option int)) "index bound follows the nibble" (Some 39)
    a.Analysis.ind_bound;
  Alcotest.(check int) "checkless threshold" 39 a.Analysis.safe_packet_words;
  (* The fixed-offset accesses (words 6, 11) plus the smallest possible
     indirect index (IHL 0 -> index 8 needs 12... the deepest constant is
     word 11, and index >= 8 needs 9; the reject bound tracks the largest
     certain requirement). *)
  Alcotest.(check int) "certain-reject bound" 12 a.Analysis.min_packet_words;
  Alcotest.(check bool) "division-free" true
    (a.Analysis.div_by_zero = Analysis.Impossible)

let test_engines_skip_checks () =
  let p = Predicates.udp_dst_port_any_ihl 53 in
  let v = validate_exn p in
  let fast = Fast.compile v in
  let long = Packet.of_words (List.init 40 (fun w -> w)) in
  let short = Packet.of_words [ 0x0800; 2; 3 ] in
  Alcotest.(check bool) "long packet runs checkless" true
    (Fast.runs_checkless fast long);
  Alcotest.(check bool) "short packet keeps checks" false
    (Fast.runs_checkless fast short);
  (* Checkless runs must still agree with the checked interpreter — on
     matching and non-matching long packets alike. *)
  let rng = Gen.Rng.make 0x1D1D in
  for _ = 1 to 200 do
    let base, _ = Gen.packet rng in
    let pkt = Packet.concat [ base; Packet.of_words (List.init 40 (fun w -> w)) ] in
    let reference = Interp.accepts p pkt in
    Alcotest.(check bool) "fast checkless" true (Fast.runs_checkless fast pkt);
    Alcotest.(check bool) "fast agrees" reference (Fast.run fast pkt)
  done

(* {1 Analysis-driven dead-code elimination}

   A CAND fed by a comparison result can never equal 2: the interval
   analysis decides it ([0,1] vs [2,2] are disjoint) where the constant
   folder cannot (the operands come from the packet). Everything after the
   CAND is dead; Regopt's analysis pass truncates there. *)

let dead_tail_program =
  Program.v
    [ i (Action.Pushword 0);
      i ~op:Op.Lt (Action.Pushword 1);
      i ~op:Op.Cand (Action.Pushlit 2);
      i Action.Pushone (* dead *)
    ]

let test_dead_code () =
  let a = analyze dead_tail_program in
  Alcotest.check verdict "always rejects" Analysis.Always_reject a.Analysis.verdict;
  Alcotest.(check (option int)) "dead after the cand" (Some 2)
    (Analysis.dead_after a)

(* {1 The pseudodevice records the analysis} *)

let mk_dev () =
  let eng = Pf_sim.Engine.create () in
  let link = Pf_net.Link.create eng Pf_net.Frame.Exp3 ~rate_mbit:3. () in
  let host = Host.create ~costs:Pf_sim.Costs.free link ~name:"h" ~addr:(Pf_net.Addr.exp 1) in
  Host.pf host

let test_pfdev_install_analysis () =
  let dev = mk_dev () in
  let port = Pfdev.open_port dev in
  (match Pfdev.install port Predicates.fig_3_9 with
  | Ok a ->
    Alcotest.check verdict "analysis returned" Analysis.Depends_on_packet
      a.Analysis.verdict;
    Alcotest.(check bool) "analysis recorded on the port" true
      (Pfdev.port_analysis port = Some a)
  | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e);
  (* Invalid programs surface as [Invalid]. *)
  match Pfdev.install port (Program.v [ i ~op:Op.Eq Action.Nopush ]) with
  | Error (Pfdev.Invalid _) -> ()
  | Ok _ -> Alcotest.fail "static underflow not refused"

(* {1 Satellite: assembler round-trips} *)

let test_insn_round_trip () =
  let edge =
    [ Insn.make (Action.Pushlit 0);
      Insn.make (Action.Pushlit 0xffff);
      Insn.make ~op:Op.Cand (Action.Pushlit 0);
      Insn.make ~op:Op.Eq (Action.Pushlit 0xffff);
      Insn.make Action.Nopush;
      Insn.make ~op:Op.And Action.Nopush
    ]
  in
  let check_insn insn =
    match Insn.of_string (Insn.to_string insn) with
    | Ok parsed ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %S" (Insn.to_string insn))
        true (Insn.equal insn parsed)
    | Error e -> Alcotest.failf "parse %S: %s" (Insn.to_string insn) e
  in
  List.iter check_insn edge;
  let rng = Gen.Rng.make 0xA5C1 in
  for _ = 1 to 300 do
    let pkt, _ = Gen.packet rng in
    List.iter check_insn (Program.insns (Gen.program rng pkt))
  done

let test_program_round_trip () =
  let check_program p =
    match Program.of_string (Program.to_string p) with
    | Ok parsed ->
      Alcotest.(check bool)
        (Format.asprintf "round-trip@.%a" Program.pp p)
        true (Program.equal p parsed)
    | Error e -> Alcotest.failf "parse failed (%s) for@.%a" e Program.pp p
  in
  check_program
    (Program.v ~priority:255
       [ Insn.make (Action.Pushlit 0); Insn.make ~op:Op.Eq (Action.Pushlit 0xffff) ]);
  let rng = Gen.Rng.make 0x9009 in
  for _ = 1 to 300 do
    let pkt, _ = Gen.packet rng in
    check_program (Gen.program rng pkt)
  done

(* {1 The seeded unsound-analysis mutant}

   [Analysis.For_testing.unsound_wrap] makes Add/Sub/Mul clamp at the 16-bit
   boundary instead of widening — the classic interval-domain wraparound
   bug. The oracle's analysis cross-check must catch it and shrink the
   evidence. *)

let with_unsound_wrap f =
  Analysis.For_testing.unsound_wrap := true;
  Fun.protect ~finally:(fun () -> Analysis.For_testing.unsound_wrap := false) f

let test_unsound_mutant_caught () =
  let stats =
    with_unsound_wrap (fun () ->
        Runner.run ~max_failures:1 ~seed:0xA11A ~iters:3_000 ())
  in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed the unsound interval mutant"
  | f :: _ ->
    let blames_analysis =
      List.exists
        (fun (m : Oracle.mismatch) ->
          String.length m.Oracle.engine >= 8
          && String.sub m.Oracle.engine 0 8 = "analysis")
    in
    Alcotest.(check bool) "analysis cross-check is the accuser" true
      (blames_analysis f.Runner.mismatches);
    Alcotest.(check bool) "shrunk case still blames the analysis" true
      (blames_analysis f.Runner.shrunk_mismatches);
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 4 insns, got:@.%a" Program.pp
         f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 4)

(* The pinned shrunk reproducer: 1 - 2 wraps to 0xffff (accept), while the
   clamping mutant computes the interval [0,0] and claims Always_reject. *)
let test_unsound_mutant_pinned () =
  let p = Program.v [ i Action.Pushone; i ~op:Op.Sub (Action.Pushlit 2) ] in
  let pkt = Packet.of_string "" in
  Alcotest.(check bool) "concrete run accepts" true (Interp.accepts p pkt);
  Alcotest.check verdict "sound analysis agrees" Analysis.Always_accept
    (analyze p).Analysis.verdict;
  let mutant_verdict = with_unsound_wrap (fun () -> (analyze p).Analysis.verdict) in
  Alcotest.check verdict "mutant claims the opposite" Analysis.Always_reject
    mutant_verdict;
  (match with_unsound_wrap (fun () -> Oracle.check p pkt) with
  | Oracle.Disagreement ms ->
    Alcotest.(check bool) "oracle blames analysis-verdict" true
      (List.exists (fun (m : Oracle.mismatch) -> m.Oracle.engine = "analysis-verdict") ms)
  | o -> Alcotest.failf "mutant not caught: %a" Oracle.pp_outcome o);
  match Oracle.check p pkt with
  | Oracle.Agreement { accept = true; _ } -> ()
  | o -> Alcotest.failf "sound analysis flagged: %a" Oracle.pp_outcome o

(* {1 The read set} *)

let read_set = Alcotest.testable Analysis.pp_read_set ( = )

let test_read_set_known_filters () =
  Alcotest.check read_set "accept_all reads nothing" (Analysis.Exact [])
    (analyze Predicates.accept_all).Analysis.read_set;
  Alcotest.check read_set "reject_all reads nothing" (Analysis.Exact [])
    (analyze Predicates.reject_all).Analysis.read_set;
  Alcotest.check read_set "fig 3-8 reads type + length words" (Analysis.Exact [ 1; 3 ])
    (analyze Predicates.fig_3_8).Analysis.read_set;
  Alcotest.check read_set "fig 3-9 reads ethertype + socket words"
    (Analysis.Exact [ 1; 7; 8 ])
    (analyze Predicates.fig_3_9).Analysis.read_set;
  (* A data-dependent Pushind index can reach any word. *)
  (match (analyze (Predicates.udp_dst_port_any_ihl 53)).Analysis.read_set with
  | Analysis.Unbounded -> ()
  | Analysis.Exact _ -> Alcotest.fail "any-IHL matcher must have an unbounded read set")

let test_read_set_constant_pushind () =
  (* An indirect push whose index the intervals prove constant stays exact. *)
  let p =
    Program.v
      [ i (Action.Pushlit 4); i Action.Pushind; i ~op:Op.Eq (Action.Pushlit 7) ]
  in
  Alcotest.check read_set "constant Pushind contributes its index"
    (Analysis.Exact [ 4 ]) (analyze p).Analysis.read_set

let test_read_set_ignores_dead_code () =
  (* Everything after a decided short-circuit is unreachable; its packet
     reads must not inflate the read set. *)
  let p =
    Program.v
      [ i Action.Pushzero;
        i ~op:Op.Cand Action.Pushone (* provably unequal: always rejects here *);
        i ~op:Op.Eq (Action.Pushword 9) ]
  in
  let a = analyze p in
  Alcotest.(check bool) "program really truncates" true (Analysis.dead_after a <> None);
  Alcotest.check read_set "dead Pushword 9 not counted" (Analysis.Exact [])
    a.Analysis.read_set

let test_union_read_sets () =
  Alcotest.check read_set "union sorts and dedups" (Analysis.Exact [ 1; 2; 3 ])
    (Analysis.union_read_sets (Analysis.Exact [ 3; 1 ]) (Analysis.Exact [ 2; 1 ]));
  Alcotest.check read_set "Unbounded absorbs on the left" Analysis.Unbounded
    (Analysis.union_read_sets Analysis.Unbounded (Analysis.Exact [ 1 ]));
  Alcotest.check read_set "Unbounded absorbs on the right" Analysis.Unbounded
    (Analysis.union_read_sets (Analysis.Exact [ 1 ]) Analysis.Unbounded)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "known filter facts" `Quick test_known_filters;
      Alcotest.test_case "read set of known filters" `Quick test_read_set_known_filters;
      Alcotest.test_case "read set: constant Pushind stays exact" `Quick
        test_read_set_constant_pushind;
      Alcotest.test_case "read set ignores dead code" `Quick test_read_set_ignores_dead_code;
      Alcotest.test_case "read set union" `Quick test_union_read_sets;
      Alcotest.test_case "cost model bounds every run" `Quick test_cost_model;
      Alcotest.test_case "indirect index bound via data flow" `Quick test_indirect_bound;
      Alcotest.test_case "fast skips proven checks" `Quick test_engines_skip_checks;
      Alcotest.test_case "interval-driven dead code elimination" `Quick test_dead_code;
      Alcotest.test_case "pfdev install records the analysis" `Quick
        test_pfdev_install_analysis;
      Alcotest.test_case "instruction assembler round-trip" `Quick test_insn_round_trip;
      Alcotest.test_case "program assembler round-trip" `Quick test_program_round_trip;
      Alcotest.test_case "unsound interval mutant caught and shrunk" `Quick
        test_unsound_mutant_caught;
      Alcotest.test_case "unsound interval mutant pinned repro" `Quick
        test_unsound_mutant_pinned;
    ] )
