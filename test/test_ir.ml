(* The register-IR compiler: lowering shape, the optimizer passes (CSE,
   dead-value elimination, Analysis-seeded folding), the Regvm engine, and
   the Pfdev compile strategies. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen
module Pfdev = Pf_kernel.Pfdev

let i ?(op = Op.Nop) action = Insn.make ~op action

let validate_exn p =
  match Validate.check p with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

let corpus =
  [ ("fig-3-8", Predicates.fig_3_8);
    ("fig-3-9", Predicates.fig_3_9);
    ("accept-all", Predicates.accept_all);
    ("reject-all", Predicates.reject_all);
    ("pup-dst-port", Predicates.pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", Predicates.pup_dst_port_10mb ~host:2 35l);
    ("udp-dst-port-any-ihl", Predicates.udp_dst_port_any_ihl 53);
    ("synthetic-accept", Predicates.synthetic ~length:7 ~accept:true);
    ("synthetic-reject", Predicates.synthetic ~length:7 ~accept:false)
  ]

(* {1 Lowering} *)

let test_lowering () =
  (* Figure 3-8 reads word 3 twice and word 1 once; constants never become
     IR instructions, so the lowered form is loads + ALU only. *)
  let ir = Ir.lower (validate_exn Predicates.fig_3_8) in
  Alcotest.(check int) "fig 3-8 lowered loads" 3 (Ir.load_count ir);
  Alcotest.(check int) "fig 3-8 lowered instrs" 10 (Ir.instr_count ir);
  (* Figure 3-9's CAND chain becomes compare-and-terminate exits. *)
  let ir = Ir.lower (validate_exn Predicates.fig_3_9) in
  let tconds =
    Array.fold_left
      (fun n ins -> match ins with Ir.Tcond _ -> n + 1 | _ -> n)
      0 ir.Ir.instrs
  in
  Alcotest.(check int) "fig 3-9 tconds" 2 tconds;
  (* The empty program accepts via the empty stack. *)
  let ir = Ir.lower (validate_exn Predicates.accept_all) in
  Alcotest.(check bool) "empty accepts" true (ir.Ir.terminator = Ir.Halt true)

(* {1 The optimizer passes} *)

let test_cse () =
  (* The duplicated [pushword+3] (and the duplicated [and 0x00ff] above it)
     must collapse: one load per distinct packet word. *)
  let ir, report = Regopt.optimize (validate_exn Predicates.fig_3_8) in
  Alcotest.(check int) "fig 3-8 optimized loads" 2 (Ir.load_count ir);
  Alcotest.(check int) "loads before" 3 report.Regopt.loads_before;
  Alcotest.(check int) "loads after" 2 report.Regopt.loads_after;
  Alcotest.(check bool) "cse reported changes" true
    (List.assoc "cse" report.Regopt.passes > 0);
  (* Byte-for-byte duplicate loads, no consumer between them. *)
  let p =
    Program.v ~priority:0
      [ i (Action.Pushword 4); i (Action.Pushword 4); i ~op:Op.Eq Action.Nopush ]
  in
  let ir, _ = Regopt.optimize (validate_exn p) in
  Alcotest.(check int) "pkt[4] = pkt[4] reads once" 1 (Ir.load_count ir)

let test_dve () =
  (* A guard on word 5 retains that load; the (folded-away) [or 0xffff]
     leaves the word-3 load dead, and — being covered by the retained
     word-5 load, which proves the packet long enough — deletable. *)
  let p =
    Program.v ~priority:0
      [ i (Action.Pushword 5);
        i ~op:Op.Cand (Action.Pushlit 7);
        i (Action.Pushword 3);
        i ~op:Op.Or Action.Pushffff
      ]
  in
  let ir, report = Regopt.optimize (validate_exn p) in
  Alcotest.(check int) "only the guard load survives" 1 (Ir.load_count ir);
  Alcotest.(check int) "guard + nothing else" 2 (Ir.instr_count ir);
  Alcotest.(check bool) "fold fired" true (List.assoc "fold" report.Regopt.passes > 0);
  Alcotest.(check bool) "dve fired" true (List.assoc "dve" report.Regopt.passes > 0);
  (* An uncovered dead load must survive: deleting it would accept a 4-word
     packet the original faults on. *)
  let p =
    Program.v ~priority:0
      [ i (Action.Pushword 9); i ~op:Op.Or Action.Pushffff ]
  in
  let ir, _ = Regopt.optimize (validate_exn p) in
  Alcotest.(check int) "uncovered dead load kept" 1 (Ir.load_count ir);
  let vm = Regvm.compile (validate_exn p) in
  Alcotest.(check bool) "short packet still rejects" false
    (Regvm.run vm (Packet.of_words [ 1; 2; 3 ]));
  Alcotest.(check bool) "long packet accepts" true
    (Regvm.run vm (Packet.of_words (List.init 10 Fun.id)))

let test_analysis_folding () =
  (* Always_reject collapses to a bare reject... *)
  let ir, report = Regopt.optimize (validate_exn Predicates.reject_all) in
  Alcotest.(check int) "reject-all instrs" 0 (Ir.instr_count ir);
  Alcotest.(check bool) "reject-all halts false" true
    (ir.Ir.terminator = Ir.Halt false);
  Alcotest.(check bool) "analysis pass fired" true
    (List.assoc "analysis" report.Regopt.passes > 0);
  (* ...and a proven-terminating prefix truncates everything after it. *)
  let p =
    Program.v ~priority:0
      [ i Action.Pushzero;
        i ~op:Op.Cor Action.Pushzero;
        i (Action.Pushword 9);
        i ~op:Op.Eq (Action.Pushlit 1)
      ]
  in
  let ir, _ = Regopt.optimize (validate_exn p) in
  Alcotest.(check int) "everything after the certain exit drops" 0
    (Ir.instr_count ir);
  Alcotest.(check bool) "collapsed to accept" true (ir.Ir.terminator = Ir.Halt true)

(* {1 The register VM} *)

let sample_packets =
  let rng = Gen.Rng.make 0x1234 in
  let random = List.init 40 (fun _ -> fst (Gen.packet rng)) in
  (* Short packets exercise the fault paths. *)
  let short = List.init 8 (fun n -> Packet.of_words (List.init n (fun w -> w * 3))) in
  random @ short

let test_regvm_matches_interp () =
  List.iter
    (fun (name, p) ->
      let vm = Regvm.compile (validate_exn p) in
      List.iter
        (fun pkt ->
          Alcotest.(check bool)
            (name ^ ": regvm verdict matches")
            (Interp.accepts ~semantics:`Paper p pkt)
            (Regvm.run vm pkt))
        sample_packets)
    corpus

(* {1 Pfdev compile strategies} *)

let mk_dev strategy =
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.microvax_ii in
  let cpu = Pf_sim.Cpu.create costs in
  let stats = Pf_sim.Stats.create () in
  let dev =
    Pfdev.create eng cpu costs stats ~variant:Pf_net.Frame.Exp3
      ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  Pfdev.set_compile_strategy dev strategy;
  (* Cache off: every packet must take the filter walk so the per-port
     engine counters are exact. *)
  Pfdev.set_cache_enabled dev false;
  (eng, stats, dev)

let test_pfdev_strategies () =
  let program = Predicates.pup_dst_port_10mb ~host:2 35l in
  let rng = Gen.Rng.make 0xBEEF in
  let packets = List.init 60 (fun _ -> fst (Gen.packet rng)) in
  let run strategy =
    let eng, stats, dev = mk_dev strategy in
    let port = Pfdev.open_port dev in
    (match Pfdev.set_filter port program with
    | Ok () -> ()
    | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e);
    let verdicts = List.map (fun pkt -> Pfdev.demux dev pkt) packets in
    Pf_sim.Engine.run eng;
    (verdicts, Option.get (Pfdev.port_engine_stats port), stats)
  in
  let v_off, s_off, _ = run `Off in
  let v_reg, s_reg, st_reg = run `Regvm in
  Alcotest.(check (list bool)) "regvm verdicts agree" v_off v_reg;
  Alcotest.(check bool) "off engine kind" true (s_off.Pfdev.engine = `Stack);
  Alcotest.(check bool) "regvm engine kind" true (s_reg.Pfdev.engine = `Regvm);
  Alcotest.(check int) "every packet applied the filter" (List.length packets)
    s_reg.Pfdev.applications;
  Alcotest.(check bool) "regvm executed IR insns" true
    (s_reg.Pfdev.insns_executed > 0);
  Alcotest.(check int) "regvm insns surfaced in stats"
    s_reg.Pfdev.insns_executed
    (Pf_sim.Stats.get st_reg "pf.regvm_insns");
  (* The register engine never executes more steps than the stack walk: the
     optimized IR carries no push-only instructions at all. *)
  Alcotest.(check bool) "regvm executes fewer steps" true
    (s_reg.Pfdev.insns_executed <= s_off.Pfdev.insns_executed);
  (* The strategy applies to future installs: an already-installed port
     keeps its engine. *)
  let eng, _, dev = mk_dev `Off in
  let port = Pfdev.open_port dev in
  (match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e);
  Pfdev.set_compile_strategy dev `Regvm;
  Alcotest.(check bool) "existing install keeps its engine" true
    ((Option.get (Pfdev.port_engine_stats port)).Pfdev.engine = `Stack);
  (match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reinstall: %a" Pfdev.pp_install_error e);
  Alcotest.(check bool) "reinstall adopts the strategy" true
    ((Option.get (Pfdev.port_engine_stats port)).Pfdev.engine = `Regvm);
  Pf_sim.Engine.run eng

let suite =
  ( "ir",
    [ Alcotest.test_case "lowering shape" `Quick test_lowering;
      Alcotest.test_case "cse collapses duplicate loads" `Quick test_cse;
      Alcotest.test_case "dead-value elimination" `Quick test_dve;
      Alcotest.test_case "analysis-seeded folding" `Quick test_analysis_folding;
      Alcotest.test_case "regvm matches interp (corpus)" `Quick
        test_regvm_matches_interp;
      Alcotest.test_case "pfdev compile strategies" `Quick test_pfdev_strategies
    ] )
