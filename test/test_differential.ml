(* The differential fuzzing subsystem, exercised as part of `dune runtest`:
   a fixed-seed smoke campaign over every engine, plus a proof that the
   oracle actually catches and shrinks a seeded semantic mutant. Longer
   campaigns run out-of-band: `pffuzz --seed N --iters M`. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen
module Oracle = Pf_fuzz.Oracle
module Shrink = Pf_fuzz.Shrink
module Runner = Pf_fuzz.Runner

let smoke_seed = 0xD1FF
let smoke_iters = 10_000

(* {1 The fixed-seed smoke campaign} *)

let test_smoke_campaign () =
  let stats = Runner.run ~seed:smoke_seed ~iters:smoke_iters () in
  (match stats.Runner.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "differential campaign found a disagreement:@.%a" Runner.pp_failure f);
  Alcotest.(check int) "all cases executed" smoke_iters stats.Runner.cases;
  (* The campaign must actually cover both sides of every boundary it
     respects, or "zero disagreements" would be vacuous. *)
  Alcotest.(check bool) "some accepts" true (stats.Runner.accepted > 0);
  Alcotest.(check bool) "some rejects" true (stats.Runner.accepted < stats.Runner.valid);
  Alcotest.(check bool) "some malformed programs" true (stats.Runner.malformed > 0);
  Alcotest.(check bool) "validator exercised" true (stats.Runner.validator_rejected > 0);
  Alcotest.(check bool) "`Bsd boundary exercised" true (stats.Runner.bsd_divergent > 0)

let test_case_determinism () =
  (* A case is a pure function of (seed, index): the foundation of the
     one-line reproduction workflow. *)
  List.iter
    (fun index ->
      let a = Gen.case ~seed:smoke_seed ~index in
      let b = Gen.case ~seed:smoke_seed ~index in
      Alcotest.(check bool) "same program" true (Program.equal a.Gen.program b.Gen.program);
      Alcotest.(check bool) "same packet" true (Packet.equal a.Gen.packet b.Gen.packet))
    [ 0; 1; 17; 4095; 9999 ]

let test_malformed_all_rejected () =
  (* Every generator-malformed program must be rejected by the validator —
     and across enough cases, all four error constructors must appear. *)
  let rng = Gen.Rng.make 0xBAD in
  let seen_long = ref false in
  let seen_underflow = ref false in
  let seen_overflow = ref false in
  let seen_unencodable = ref false in
  for _ = 1 to 400 do
    let pkt, _ = Gen.packet rng in
    match Validate.check (Gen.malformed rng pkt) with
    | Ok _ -> Alcotest.fail "malformed program passed validation"
    | Error (Validate.Program_too_long _) -> seen_long := true
    | Error (Validate.Static_underflow _) -> seen_underflow := true
    | Error (Validate.Static_overflow _) -> seen_overflow := true
    | Error (Validate.Word_offset_unencodable _) -> seen_unencodable := true
  done;
  Alcotest.(check bool) "saw Program_too_long" true !seen_long;
  Alcotest.(check bool) "saw Static_underflow" true !seen_underflow;
  Alcotest.(check bool) "saw Static_overflow" true !seen_overflow;
  Alcotest.(check bool) "saw Word_offset_unencodable" true !seen_unencodable

let test_valid_all_validate () =
  let rng = Gen.Rng.make 0x600D in
  for _ = 1 to 400 do
    let pkt, _ = Gen.packet rng in
    let p = Gen.program rng pkt in
    match Validate.check p with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "generator emitted an invalid program (%a):@.%a" Validate.pp_error e
        Program.pp p
  done

(* {1 The seeded semantic mutant}

   A private copy of the fast interpreter with an off-by-one planted in its
   hottest path: [pushword+i] reads word [i+1]. The oracle must flag it, and
   the shrinker must reduce the evidence to a tiny reproducer. *)

let mutant_fast (v : Validate.t) packet =
  let insns = Array.of_list (Program.insns (Validate.program v)) in
  let words = Packet.word_count packet in
  let stack = Array.make Interp.stack_size 0 in
  let sp = ref 0 in
  let exception Done of bool in
  try
    Array.iter
      (fun (insn : Insn.t) ->
        (match insn.Insn.action with
        | Action.Nopush -> ()
        | Action.Pushlit v ->
          stack.(!sp) <- v;
          incr sp
        | Action.Pushzero ->
          stack.(!sp) <- 0;
          incr sp
        | Action.Pushone ->
          stack.(!sp) <- 1;
          incr sp
        | Action.Pushffff ->
          stack.(!sp) <- 0xffff;
          incr sp
        | Action.Pushff00 ->
          stack.(!sp) <- 0xff00;
          incr sp
        | Action.Push00ff ->
          stack.(!sp) <- 0x00ff;
          incr sp
        | Action.Pushword i ->
          let i = i + 1 (* the seeded bug *) in
          if i >= words then raise (Done false);
          stack.(!sp) <- Packet.word packet i;
          incr sp
        | Action.Pushind ->
          let index = stack.(!sp - 1) in
          if index >= words then raise (Done false);
          stack.(!sp - 1) <- Packet.word packet index);
        match insn.Insn.op with
        | Op.Nop -> ()
        | op -> (
          let t1 = stack.(!sp - 1) in
          let t2 = stack.(!sp - 2) in
          sp := !sp - 2;
          match Op.apply op ~t2 ~t1 with
          | Op.Push r ->
            stack.(!sp) <- r;
            incr sp
          | Op.Terminate accept -> raise (Done accept)
          | Op.Fault -> raise (Done false)))
      insns;
    !sp = 0 || stack.(!sp - 1) <> 0
  with Done accept -> accept

let test_mutant_caught_and_shrunk () =
  let extra = [ ("mutant-fast", mutant_fast) ] in
  let stats = Runner.run ~extra ~max_failures:1 ~seed:0xFA57 ~iters:2_000 () in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed a seeded off-by-one in a Fast copy"
  | f :: _ ->
    Alcotest.(check bool) "mutant engine is the culprit" true
      (List.exists (fun (m : Oracle.mismatch) -> m.Oracle.engine = "mutant-fast") f.Runner.mismatches);
    (* The shrunk case must still disagree, still blame the mutant... *)
    Alcotest.(check bool) "shrunk case still disagrees" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "mutant-fast")
         f.Runner.shrunk_mismatches);
    (* ...and be small enough to eyeball. *)
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 5 insns, got:@.%a" Program.pp f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 5);
    Alcotest.(check bool) "repro command present" true
      (Testutil.contains f.Runner.repro "pffuzz --seed")

(* {1 The seeded stale-cache mutant}

   The "forgot to invalidate" kernel bug: warm the demux flow cache with
   accept_all's decision, then swap the real filter in with the invalidation
   deliberately skipped (Pfdev.For_testing). The next demux answers from the
   stale entry — i.e. accepts everything — so the oracle must flag it on any
   packet the real filter rejects, and the shrinker must reduce the
   evidence. *)

let mutant_stale_cache (v : Validate.t) packet =
  let module Pfdev = Pf_kernel.Pfdev in
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.free in
  let dev =
    Pfdev.create eng (Pf_sim.Cpu.create costs) costs (Pf_sim.Stats.create ())
      ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  let port = Pfdev.open_port dev in
  (match Pfdev.set_filter port Predicates.accept_all with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Pfdev.demux dev packet : bool);
  Pfdev.For_testing.skip_install_invalidation := true;
  let swapped = Pfdev.set_filter port (Validate.program v) in
  Pfdev.For_testing.skip_install_invalidation := false;
  (match swapped with Ok () -> () | Error _ -> assert false);
  Pfdev.demux dev packet

let test_stale_cache_mutant_caught_and_shrunk () =
  let extra = [ ("stale-cache", mutant_stale_cache) ] in
  let stats = Runner.run ~extra ~max_failures:1 ~seed:0x5CA1E ~iters:2_000 () in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed a skipped flow-cache invalidation"
  | f :: _ ->
    Alcotest.(check bool) "stale cache is the culprit" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "stale-cache")
         f.Runner.mismatches);
    Alcotest.(check bool) "shrunk case still disagrees" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "stale-cache")
         f.Runner.shrunk_mismatches);
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 5 insns, got:@.%a" Program.pp f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 5);
    Alcotest.(check bool) "repro command present" true
      (Testutil.contains f.Runner.repro "pffuzz --seed")

(* {1 The seeded stale-REMOTE-cache mutant}

   The SMP variant of the same kernel bug: on a 2-CPU device, a filter
   change invalidates the installing CPU's flow cache but "forgets" the
   invalidation IPI to the other CPU (Pfdev.For_testing.
   skip_remote_invalidation). CPU 1's private cache still holds
   accept_all's verdict under the old cache key, so the next packet
   demultiplexed on CPU 1 answers stale — the oracle must flag it on any
   packet the real filter rejects, and the shrinker must reduce the
   evidence. *)

let mutant_stale_remote_cache (v : Validate.t) packet =
  let module Pfdev = Pf_kernel.Pfdev in
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.free in
  let smp = Pf_sim.Smp.create ~ncpus:2 eng costs in
  let dev =
    Pfdev.create_smp eng smp costs (Pf_sim.Stats.create ())
      ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  let port = Pfdev.open_port dev in
  (match Pfdev.set_filter port Predicates.accept_all with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (Pfdev.demux dev ~cpu:1 packet : bool);
  (* The mutation happens "on CPU 0": its own cache is flushed, the
     cross-CPU invalidation broadcast is skipped. *)
  Pfdev.For_testing.skip_remote_invalidation := true;
  let swapped = Pfdev.set_filter port (Validate.program v) in
  Pfdev.For_testing.skip_remote_invalidation := false;
  (match swapped with Ok () -> () | Error _ -> assert false);
  Pfdev.demux dev ~cpu:1 packet

let test_stale_remote_cache_mutant_caught_and_shrunk () =
  let extra = [ ("stale-remote-cache", mutant_stale_remote_cache) ] in
  let stats = Runner.run ~extra ~max_failures:1 ~seed:0x5CA1E ~iters:2_000 () in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed a skipped cross-CPU cache invalidation"
  | f :: _ ->
    Alcotest.(check bool) "stale remote cache is the culprit" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "stale-remote-cache")
         f.Runner.mismatches);
    Alcotest.(check bool) "shrunk case still disagrees" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "stale-remote-cache")
         f.Runner.shrunk_mismatches);
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 5 insns, got:@.%a" Program.pp f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 5);
    Alcotest.(check bool) "repro command present" true
      (Testutil.contains f.Runner.repro "pffuzz --seed")

(* {1 Pinned regression: the out-of-range literal divergence}

   Found by construction while building the oracle: Interp masks every push
   to 16 bits and Fast pushed literals raw, so an out-of-range Pushlit
   (only constructible programmatically — the parser and codec both mask)
   made the checked and unchecked engines disagree. Insn.make now masks at
   construction; this pins every engine to the same verdict. *)

let test_literal_masking_regression () =
  let program =
    Program.v
      [ Insn.make (Action.Pushlit 0x1ffff) (* masks to 0xffff *);
        Insn.make ~op:Op.Eq (Action.Pushffff) ]
  in
  let pkt = Packet.of_string "" in
  (match Validate.check program with
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e
  | Ok v ->
    Alcotest.(check bool) "interp accepts" true (Interp.accepts program pkt);
    Alcotest.(check bool) "fast agrees" true (Fast.run (Fast.compile v) pkt);
    Alcotest.(check bool) "regvm agrees" true (Regvm.run (Regvm.compile v) pkt));
  match Oracle.check program pkt with
  | Oracle.Agreement { accept = true; _ } -> ()
  | o -> Alcotest.failf "oracle: %a" Oracle.pp_outcome o

(* {1 The shrinker on a hand-made failure} *)

let test_shrinker_reduces () =
  (* "Failure" predicate: the program still contains a division and the
     packet still has at least 4 bytes. The minimizer should strip
     everything else away. *)
  let keep p pkt =
    Packet.length pkt >= 4
    && List.exists (fun (i : Insn.t) -> i.Insn.op = Op.Div) (Program.insns p)
  in
  let rng = Gen.Rng.make 0x51ED in
  let pkt, _ = Gen.packet rng in
  let pkt = Packet.concat [ pkt; Packet.of_words [ 1; 2; 3; 4 ] ] in
  let base = Gen.program rng pkt in
  let program =
    Program.v ~priority:77
      (Program.insns base
      @ [ Insn.make Action.Pushone; Insn.make ~op:Op.Div Action.Pushone ])
  in
  let shrunk_p, shrunk_pkt = Shrink.minimize ~keep program pkt in
  Alcotest.(check bool) "still failing" true (keep shrunk_p shrunk_pkt);
  Alcotest.(check bool) "program minimized" true (Program.insn_count shrunk_p <= 2);
  Alcotest.(check int) "packet minimized" 4 (Packet.length shrunk_pkt);
  Alcotest.(check int) "priority zeroed" 0 (Program.priority shrunk_p)

let suite =
  ( "differential",
    [
      Alcotest.test_case "fixed-seed 10k smoke campaign" `Quick test_smoke_campaign;
      Alcotest.test_case "cases are pure functions of (seed, index)" `Quick test_case_determinism;
      Alcotest.test_case "malformed generator hits all validator errors" `Quick
        test_malformed_all_rejected;
      Alcotest.test_case "valid generator always validates" `Quick test_valid_all_validate;
      Alcotest.test_case "seeded Fast mutant caught and shrunk" `Quick
        test_mutant_caught_and_shrunk;
      Alcotest.test_case "seeded stale-cache mutant caught and shrunk" `Quick
        test_stale_cache_mutant_caught_and_shrunk;
      Alcotest.test_case "seeded stale-remote-cache mutant caught and shrunk" `Quick
        test_stale_remote_cache_mutant_caught_and_shrunk;
      Alcotest.test_case "out-of-range literal regression" `Quick
        test_literal_masking_regression;
      Alcotest.test_case "shrinker reduces to a minimal core" `Quick test_shrinker_reduces;
    ] )
