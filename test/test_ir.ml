(* The register-IR compiler: lowering shape, the optimizer passes (CSE,
   dead-value elimination, Analysis-seeded folding, early exits), the Regvm
   engine, and the Pfdev compile strategies. *)

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

(* {1 Early exits} *)

let test_exits_shape () =
  (* Figure 3-8's [r0 eq 2] conjunct becomes a reject exit before the
     word-3 load; the two range tests stay joined by one [and]. *)
  let ir, report = Regopt.optimize (validate_exn Predicates.fig_3_8) in
  Alcotest.(check int) "fig 3-8 optimized instrs" 7 (Ir.instr_count ir);
  Alcotest.(check int) "one exit made" 1 (List.assoc "exits" report.Regopt.passes);
  Alcotest.(check (list string)) "fig 3-8 head"
    [ "r0 := pkt[1]"; "if r0 != 2 reject"; "r1 := pkt[3]" ]
    (List.map (Format.asprintf "%a" Ir.pp_instr) (Array.to_list (Array.sub ir.Ir.instrs 0 3)));
  (* Each naive blender builtin comes out as long as its short-circuit
     twin: every conjunct became an exit and the glue is gone. *)
  let instrs name =
    Ir.instr_count (fst (Regopt.optimize (validate_exn (List.assoc name Predicates.builtins))))
  in
  let naive =
    List.filter (fun (name, _) -> String.starts_with ~prefix:"naive-" name) Predicates.builtins
  in
  Alcotest.(check int) "five naive builtins" 5 (List.length naive);
  List.iter
    (fun (name, _) ->
      let twin = String.sub name 6 (String.length name - 6) in
      Alcotest.(check int) (name ^ " = " ^ twin) (instrs twin) (instrs name))
    naive

let agrees_with_interp program packet =
  let expected = Interp.accepts ~semantics:`Paper program packet in
  Alcotest.(check bool) "regvm = interp" expected
    (Regvm.run (Regvm.compile (validate_exn program)) packet);
  expected

let test_exits_soundness () =
  (* An [eq] conjunct before a [cor] accept exit must not reject early: the
     exit accepts word 3 = 5 whatever word 1 holds. *)
  let p =
    Program.v
      [ i (Action.Pushword 1); i ~op:Op.Eq (Action.Pushlit 2);
        i (Action.Pushword 2); i ~op:Op.Eq (Action.Pushlit 7);
        i (Action.Pushword 3); i ~op:Op.Cor (Action.Pushlit 5);
        i ~op:Op.Or Action.Nopush; i ~op:Op.And Action.Nopush ]
  in
  Alcotest.(check bool) "cor exit still accepts" true
    (agrees_with_interp p (Packet.of_words [ 0; 9; 7; 5 ]));
  (* A raw word is no boolean: [1 and 2] is 0, so the [eq] conjunct cannot
     become an exit with [accept if pkt[3]] left behind. *)
  let p =
    Program.v
      [ i (Action.Pushword 1); i ~op:Op.Eq (Action.Pushlit 2);
        i (Action.Pushword 3); i ~op:Op.And Action.Nopush ]
  in
  Alcotest.(check bool) "1 and 2 rejects" false
    (agrees_with_interp p (Packet.of_words [ 0; 2; 0; 2 ]))

(* Blender conjunctions: 2-5 word comparisons whose constants come from a
   base packet, glued by [and] left- or right-nested, optionally with a
   [cor]/[cnor] exit after one of them (its fall-through 0 absorbed by
   [or]) and a raw-word conjunct. They run on the base packet, on copies
   with a random subset of words changed (so a random subset of the
   leaves holds) and on a truncated copy. *)
let gen_blender =
  QCheck.Gen.(
    list_repeat 10 (int_bound 0xffff) >>= fun base ->
    let word w = List.nth base w in
    let comparison =
      frequency
        [ (4, return Op.Eq); (1, return Op.Neq); (1, return Op.Lt); (1, return Op.Le);
          (1, return Op.Gt); (1, return Op.Ge) ]
    in
    int_range 2 5 >>= fun k ->
    list_repeat k (pair (int_bound 9) comparison) >>= fun leaves ->
    opt ~ratio:0.5 (triple (int_bound (k - 1)) (int_bound 9) (oneofl [ Op.Cor; Op.Cnor ]))
    >>= fun exit ->
    opt ~ratio:0.3 (int_bound 9) >>= fun raw ->
    bool >>= fun left_nested ->
    list_repeat 4 (list_repeat 10 (pair bool (int_range 1 0xffff))) >>= fun changes ->
    int_bound 9 >>= fun cut ->
    let term j (w, op) =
      [ i (Action.Pushword w); i ~op (Action.Pushlit (word w)) ]
      @
      match exit with
      | Some (at, w', op') when at = j ->
        [ i (Action.Pushword w'); i ~op:op' (Action.Pushlit (word w'));
          i ~op:Op.Or Action.Nopush ]
      | _ -> []
    in
    let terms =
      List.mapi term leaves
      @ Option.to_list (Option.map (fun w -> [ i (Action.Pushword w) ]) raw)
    in
    let glue = i ~op:Op.And Action.Nopush in
    let insns =
      if left_nested then
        List.concat (List.hd terms :: List.map (fun t -> t @ [ glue ]) (List.tl terms))
      else List.concat terms @ List.init (List.length terms - 1) (fun _ -> glue)
    in
    let changed =
      List.map
        (fun change ->
          Packet.of_words
            (List.map2 (fun v (flip, d) -> if flip then (v + d) land 0xffff else v) base change))
        changes
    in
    let truncated = Packet.of_words (List.filteri (fun j _ -> j < cut) base) in
    return (Program.v insns, Packet.of_words base :: truncated :: changed))

let test_exits_property () =
  let fired = ref 0 and count = 500 in
  let prop =
    QCheck.Test.make ~name:"blender conjunctions: regvm = interp, never refuted" ~count
      (QCheck.make
         ~print:(fun (p, pkts) ->
           Format.asprintf "%a@.on %a" Program.pp p
             (Format.pp_print_list ~pp_sep:Format.pp_print_space Packet.pp) pkts)
         gen_blender)
      (fun (program, packets) ->
        let v = validate_exn program in
        let vm = Regvm.compile v in
        if List.assoc "exits" (Regvm.report vm).Regopt.passes > 0 then incr fired;
        List.for_all
          (fun pkt -> Regvm.run vm pkt = Interp.accepts ~semantics:`Paper program pkt)
          packets
        &&
        match (Equiv.check_ir v (Regvm.ir vm)).Equiv.verdict with
        | Equiv.Counterexample _ -> false
        | Equiv.Proved_equal | Equiv.Unknown -> true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0x5EED |]) prop;
  Alcotest.(check bool)
    (Printf.sprintf "the pass fired on most cases (%d of %d)" !fired count)
    true
    (2 * !fired > count)

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

(* {1 The register VM runs any IR}

   [Regvm.exec] runs [Regvm.eval]'s loop over an IR the kernel never
   compiles: the plain lowering, before any [Regopt] pass. [Equiv] confirms
   its IR witnesses with it. *)

let test_lowered_ir_matches_interp () =
  let rng = Gen.Rng.make 0x10E4 in
  let frames =
    [ Testutil.pup_frame (); Testutil.pup_frame ~dst_socket:36l ();
      Testutil.pup_frame ~ptype:0 (); Testutil.ip_udp_frame ~dst_port:53;
      Testutil.ip_udp_frame ~dst_port:54 ]
  in
  let packets = frames @ List.init 195 (fun _ -> fst (Gen.packet rng)) in
  let accepted = ref 0 and runs = ref 0 in
  List.iter
    (fun (name, p) ->
      let ir = Ir.lower (validate_exn p) in
      List.iter
        (fun pkt ->
          let reference = Interp.accepts ~semantics:`Paper p pkt in
          if reference then incr accepted;
          incr runs;
          Alcotest.(check bool)
            (Format.asprintf "%s: lowered IR on %a" name Packet.pp_hex pkt)
            reference (Regvm.exec ir pkt))
        packets)
    Predicates.builtins;
  Alcotest.(check bool)
    (Printf.sprintf "runs accept and reject (%d of %d accepted)" !accepted !runs)
    true
    (!accepted > 0 && !accepted < !runs)

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
  (* Cache off: every packet must take the filter walk so the engine
     counters are exact. *)
  Pfdev.set_cache_enabled dev false;
  (eng, stats, dev)

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e

(* The engine a port runs shows in the device stats: ["pf.regvm_insns"]
   counts the register VM's share of ["pf.filter_insns"]. *)
let test_pfdev_strategies () =
  let program = Predicates.pup_dst_port_10mb ~host:2 35l in
  let rng = Gen.Rng.make 0xBEEF in
  let packets = List.init 60 (fun _ -> fst (Gen.packet rng)) in
  let get stats = Pf_sim.Stats.get stats in
  let run strategy =
    let eng, stats, dev = mk_dev strategy in
    set_filter_exn (Pfdev.open_port dev) program;
    let verdicts = List.map (fun pkt -> Pfdev.demux dev pkt) packets in
    Pf_sim.Engine.run eng;
    (verdicts, stats)
  in
  let v_off, st_off = run `Off in
  let v_reg, st_reg = run `Regvm in
  Alcotest.(check (list bool)) "regvm verdicts agree" v_off v_reg;
  Alcotest.(check bool) "off runs the stack engine" true
    (get st_off "pf.filter_insns" > 0 && get st_off "pf.regvm_insns" = 0);
  Alcotest.(check int) "every packet applied the filter" (List.length packets)
    (get st_reg "pf.filters_tested");
  Alcotest.(check bool) "regvm executed IR insns" true (get st_reg "pf.regvm_insns" > 0);
  Alcotest.(check int) "regvm runs every instruction counted"
    (get st_reg "pf.filter_insns") (get st_reg "pf.regvm_insns");
  (* The register engine never executes more steps than the stack walk: the
     optimized IR carries no push-only instructions at all. *)
  Alcotest.(check bool) "regvm executes fewer steps" true
    (get st_reg "pf.regvm_insns" <= get st_off "pf.filter_insns");
  (* The strategy applies to future installs: an already-installed port
     keeps its engine. *)
  let eng, stats, dev = mk_dev `Off in
  let port = Pfdev.open_port dev in
  set_filter_exn port program;
  Pfdev.set_compile_strategy dev `Regvm;
  let regvm_insns_of_a_run () =
    let before = get stats "pf.regvm_insns" in
    List.iter (fun pkt -> ignore (Pfdev.demux dev pkt : bool)) packets;
    get stats "pf.regvm_insns" - before
  in
  Alcotest.(check int) "existing install keeps its engine" 0 (regvm_insns_of_a_run ());
  set_filter_exn port program;
  Alcotest.(check int) "reinstall adopts the strategy" (get st_reg "pf.regvm_insns")
    (regvm_insns_of_a_run ());
  Pf_sim.Engine.run eng

let suite =
  ( "ir",
    [ Alcotest.test_case "lowering shape" `Quick test_lowering;
      Alcotest.test_case "cse collapses duplicate loads" `Quick test_cse;
      Alcotest.test_case "dead-value elimination" `Quick test_dve;
      Alcotest.test_case "analysis-seeded folding" `Quick test_analysis_folding;
      Alcotest.test_case "early exits: fig 3-8 and naive twins" `Quick test_exits_shape;
      Alcotest.test_case "early exits: accept exits and raw words" `Quick test_exits_soundness;
      Alcotest.test_case "early exits: blender conjunctions (QCheck)" `Quick test_exits_property;
      Alcotest.test_case "regvm matches interp (corpus)" `Quick
        test_regvm_matches_interp;
      Alcotest.test_case "lowered IR on Regvm.exec matches interp" `Quick
        test_lowered_ir_matches_interp;
      Alcotest.test_case "pfdev compile strategies" `Quick test_pfdev_strategies
    ] )
