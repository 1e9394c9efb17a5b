(* Pfsan: the lockset + happens-before concurrency sanitizer, its
   cache-coherence protocol checker, the hardened lock model, the static
   lock-discipline lint, and the sanitizer-driven fuzz campaign. *)

open Pf_kernel
module Engine = Pf_sim.Engine
module Smp = Pf_sim.Smp
module San = Pf_sim.San
module Stats = Pf_sim.Stats
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Gen = Pf_monitor.Traffic.Gen
module Sancase = Pf_fuzz.Sancase

let kind = Alcotest.testable (Fmt.of_to_string San.kind_name) ( = )

let kinds_of san =
  List.map (fun (r : San.report) -> r.San.kind) (San.reports san)

(* {1 The Eraser lockset state machine} *)

let test_lockset_clean () =
  let san = San.create ~ncpus:2 () in
  let r = San.register san ~name:"r" ~discipline:(San.Guarded_by "L") in
  San.write san ~cpu:0 r;
  (* disciplined sharing: every post-sharing access holds L *)
  San.lock_acquired san ~cpu:1 "L";
  San.write san ~cpu:1 r;
  San.lock_released san ~cpu:1 "L";
  San.lock_acquired san ~cpu:0 "L";
  San.read san ~cpu:0 r;
  San.lock_released san ~cpu:0 "L";
  Alcotest.(check (list kind)) "no reports" [] (kinds_of san)

let test_lockset_violation () =
  let san = San.create ~ncpus:2 () in
  let r = San.register san ~name:"shared.counter" ~discipline:(San.Guarded_by "L") in
  San.write san ~cpu:0 r;
  San.lock_acquired san ~cpu:1 "L";
  San.write san ~cpu:1 r;
  San.lock_released san ~cpu:1 "L";
  (* the bug: a bare write once the resource is shared-modified *)
  San.write san ~cpu:0 r;
  match San.reports san with
  | [ rep ] ->
    Alcotest.check kind "kind" San.Lockset_violation rep.San.kind;
    Alcotest.(check string) "resource" "shared.counter" rep.San.resource;
    Alcotest.(check string) "missing lock" "L" rep.San.missing;
    Alcotest.(check bool) "names both cpus" true
      (List.mem 0 rep.San.cpus && List.mem 1 rep.San.cpus)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_lockset_single_cpu_silent () =
  (* Exclusive use never refines the lockset: a 1-CPU kernel can touch a
     Guarded_by resource lock-free forever without a report. *)
  let san = San.create ~ncpus:1 () in
  let r = San.register san ~name:"r" ~discipline:(San.Guarded_by "L") in
  for _ = 1 to 50 do
    San.write san ~cpu:0 r;
    San.read san ~cpu:0 r
  done;
  Alcotest.(check (list kind)) "no reports" [] (kinds_of san)

(* {1 CPU-private and published disciplines} *)

let test_cpu_private () =
  let san = San.create ~ncpus:4 () in
  let r = San.register san ~name:"percpu.cache" ~discipline:(San.Cpu_private 2) in
  San.write san ~cpu:2 r;
  San.read san ~cpu:2 r;
  Alcotest.(check (list kind)) "owner is free" [] (kinds_of san);
  San.read san ~cpu:0 r;
  match San.reports san with
  | [ rep ] ->
    Alcotest.check kind "kind" San.Cpu_private_violation rep.San.kind;
    Alcotest.(check string) "resource" "percpu.cache" rep.San.resource;
    Alcotest.(check bool) "names the owner" true
      (List.mem 2 rep.San.cpus && List.mem 0 rep.San.cpus)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_hb_unordered_then_ordered () =
  let san = San.create ~ncpus:2 () in
  let r = San.register san ~name:"table" ~discipline:San.Published in
  San.write san ~cpu:0 r;
  San.read san ~cpu:1 r;
  (match San.reports san with
  | [ rep ] ->
    Alcotest.check kind "kind" San.Unordered_access rep.San.kind;
    Alcotest.(check string) "missing edge" "sync 0->1" rep.San.missing
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  (* same shape with the publication edge: silent *)
  let san = San.create ~ncpus:2 () in
  let r = San.register san ~name:"table" ~discipline:San.Published in
  San.write san ~cpu:0 r;
  San.publish san ~cpu:0 r;
  San.sync san ~cpu:1 r;
  San.read san ~cpu:1 r;
  Alcotest.(check (list kind)) "ordered read is clean" [] (kinds_of san)

(* {1 The cache-coherence protocol checker} *)

let test_protocol_stale_hit () =
  let san = San.create ~ncpus:2 () in
  let table = San.register san ~name:"table" ~discipline:San.Published in
  San.note_store san ~cpu:1 ~key:"flow-a" table;
  San.write san ~cpu:0 table;
  San.publish san ~cpu:0 table;
  San.invalidate san ~cpu:0 table;
  (* cpu 1 synced to the publication but never flushed: its hit is stale *)
  San.sync san ~cpu:1 table;
  San.read san ~cpu:1 table;
  San.note_hit san ~cpu:1 ~key:"flow-a" table;
  (match San.reports san with
  | [ rep ] ->
    Alcotest.check kind "kind" San.Stale_cache_hit rep.San.kind;
    Alcotest.(check (list int)) "invalidating and serving cpus" [ 0; 1 ] rep.San.cpus;
    Alcotest.(check string) "missing names the invalidation edge"
      "invalidation 0->1 for epoch 1" rep.San.missing
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  (* a publication alone invalidates nothing: once synced, the old entry
     may answer *)
  let san = San.create ~ncpus:2 () in
  let table = San.register san ~name:"table" ~discipline:San.Published in
  San.note_store san ~cpu:1 ~key:"flow-a" table;
  San.write san ~cpu:0 table;
  San.publish san ~cpu:0 table;
  San.sync san ~cpu:1 table;
  San.read san ~cpu:1 table;
  San.note_hit san ~cpu:1 ~key:"flow-a" table;
  Alcotest.(check (list kind)) "a publication is no invalidation" [] (kinds_of san);
  (* the protocol done right: invalidate, then sync and flush before the
     next probe; what is stored after the flush may answer *)
  let san = San.create ~ncpus:2 () in
  let table = San.register san ~name:"table" ~discipline:San.Published in
  San.note_store san ~cpu:1 ~key:"flow-a" table;
  San.write san ~cpu:0 table;
  San.publish san ~cpu:0 table;
  San.invalidate san ~cpu:0 table;
  San.sync san ~cpu:1 table;
  San.flush san ~cpu:1 table;
  San.read san ~cpu:1 table;
  San.note_hit san ~cpu:1 ~key:"flow-a" table;
  San.note_store san ~cpu:1 ~key:"flow-a" table;
  San.note_hit san ~cpu:1 ~key:"flow-a" table;
  Alcotest.(check (list kind)) "synced and flushed cache is clean" [] (kinds_of san);
  Alcotest.(check (list (pair string int))) "publishes, invalidations, syncs, flushes"
    [ ("pf.san.flushes", 1); ("pf.san.invalidations", 1); ("pf.san.publishes", 1);
      ("pf.san.syncs", 1) ]
    (List.filter
       (fun (k, _) ->
         List.mem k
           [ "pf.san.publishes"; "pf.san.invalidations"; "pf.san.syncs"; "pf.san.flushes" ])
       (San.counters san))

(* {1 The hardened lock model} *)

let mk_smp ncpus = Smp.create ~ncpus Pf_sim.Costs.microvax_ii

let test_lock_double_release () =
  let smp = mk_smp 2 in
  let san = San.create ~ncpus:2 () in
  Smp.set_san smp san;
  let l = Smp.Lock.create ~name:"l" smp in
  Smp.Lock.release l ~cpu:0;
  (match Smp.Lock.misuses l with
  | [ Smp.Lock.Double_release 0 ] -> ()
  | _ -> Alcotest.fail "expected one double-release misuse");
  Alcotest.(check (list kind)) "reported to the sanitizer" [ San.Lock_misuse ]
    (kinds_of san)

let test_lock_release_by_non_owner () =
  let smp = mk_smp 2 in
  let san = San.create ~ncpus:2 () in
  Smp.set_san smp san;
  let l = Smp.Lock.create ~name:"l" smp in
  ignore (Smp.Lock.acquire ~cpu:0 l ~start:0 ~hold:10 : Pf_sim.Time.t);
  Smp.Lock.release l ~cpu:1;
  (match Smp.Lock.misuses l with
  | [ Smp.Lock.Release_by_non_owner { cpu = 1; owner = 0 } ] -> ()
  | _ -> Alcotest.fail "expected one release-by-non-owner misuse");
  (* the flagged release still closes the window: no follow-on reports *)
  ignore (Smp.Lock.acquire ~cpu:1 l ~start:100 ~hold:10 : Pf_sim.Time.t);
  Smp.Lock.release l ~cpu:1;
  Alcotest.(check int) "no new misuses" 1 (List.length (Smp.Lock.misuses l))

let test_lock_reentrant_acquire () =
  let smp = mk_smp 2 in
  let san = San.create ~ncpus:2 () in
  Smp.set_san smp san;
  let l = Smp.Lock.create ~name:"l" smp in
  ignore (Smp.Lock.acquire ~cpu:0 l ~start:0 ~hold:10 : Pf_sim.Time.t);
  ignore (Smp.Lock.acquire ~cpu:0 l ~start:5 ~hold:10 : Pf_sim.Time.t);
  (match Smp.Lock.misuses l with
  | [ Smp.Lock.Reentrant_acquire 0 ] -> ()
  | _ -> Alcotest.fail "expected one reentrant-acquire misuse");
  (* misuse detection never perturbs the time accounting *)
  Alcotest.(check int) "acquisitions counted" 2 (Smp.Lock.acquisitions l);
  Alcotest.(check int) "second acquire spun" 1 (Smp.Lock.contended l)

(* {1 Pfdev.steer: a pure function of the flow-cache key bytes} *)

let test_steer_pure_function_of_key () =
  let build seed =
    let eng = Engine.create () in
    let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
    let h =
      Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus:4 link ~name:"rx"
        ~addr:(Addr.eth_host 2)
    in
    let pf = Host.pf h in
    let gen = Gen.make ~seed ~flows:16 ~skew:Gen.Uniform () in
    for i = 15 downto 0 do
      let p = Pfdev.open_port pf in
      (match Pfdev.set_filter p (Gen.filter (Gen.flow gen i)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%a" Pfdev.pp_install_error e)
    done;
    Engine.run eng;
    (pf, gen)
  in
  List.iter
    (fun seed ->
      let pf, gen = build seed in
      let pf', _ = build seed in
      List.iter
        (fun i ->
          let frame = Gen.frame (Gen.flow gen i) in
          let c = Pfdev.steer pf frame in
          Alcotest.(check bool) "valid cpu" true (c >= 0 && c < 4);
          (* deterministic: repeated calls and an identically-configured
             device agree *)
          Alcotest.(check int) "stable" c (Pfdev.steer pf frame);
          Alcotest.(check int) "device-independent" c (Pfdev.steer pf' frame);
          (* payload bytes are outside every filter's read set, so they
             are outside the flow-cache key: mutating them cannot move
             the flow to another CPU *)
          let b = Pf_pkt.Packet.to_bytes frame in
          for j = Bytes.length b - 16 to Bytes.length b - 1 do
            Bytes.set b j (Char.chr ((Char.code (Bytes.get b j) + 1 + j) land 0xff))
          done;
          Alcotest.(check int) "key bytes only" c
            (Pfdev.steer pf (Pf_pkt.Packet.of_bytes b)))
        [ 0; 3; 7; 15 ])
    [ 0x5EED; 0xD373 ]

(* {1 The host protocol table: a boot-CPU write every CPU reads}

   Registering a kernel protocol writes the host-wide table on CPU 0, and
   each receive CPU reads it at its type-field dispatch, before the demux.
   The registration publishes the write and every CPU syncs to it, so a
   read on CPU 1 is ordered after it. *)

let test_host_protocol_table () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus:2 link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  let san = San.create ~ncpus:2 () in
  Host.attach_san h san;
  let pf = Host.pf h in
  let gen = Gen.make ~blend:[ (Gen.Udp, 1.) ] ~seed:0x5EED ~flows:8 ~skew:Gen.Uniform () in
  List.iter
    (fun f ->
      match Pfdev.set_filter (Pfdev.open_port pf) (Gen.filter f) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%a" Pfdev.pp_install_error e)
    (Gen.flows gen);
  Engine.run eng;
  let handled = ref 0 in
  Host.register_protocol h ~ethertype:Pf_net.Ethertype.ip (fun _ -> incr handled);
  Alcotest.(check bool) "a flow steers to cpu 1" true
    (List.exists (fun f -> Pfdev.steer pf (Gen.frame f) = 1) (Gen.flows gen));
  List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.flows gen);
  Engine.run eng;
  Alcotest.(check int) "every frame reaches the handler" 8 !handled;
  Alcotest.(check (list kind)) "no reports" [] (kinds_of san)

(* {1 The clean kernel is silent at every CPU count} *)

let clean_case ~ncpus ~packets =
  { Sancase.index = 0; ncpus; flows = 16; packets; tseed = 0xBEEF }

let test_clean_kernel_all_ncpus () =
  List.iter
    (fun ncpus ->
      (* 300 packets x2 per run: past the 256-demux reorder threshold, so
         the scenario also crosses maybe_reorder's publication path *)
      let reports = Sancase.run_scenario (clean_case ~ncpus ~packets:300) in
      Alcotest.(check int)
        (Printf.sprintf "ncpus=%d" ncpus)
        0 (List.length reports))
    [ 1; 2; 4; 8 ]

(* {1 The three seeded mutants, pinned to their shrunk witnesses} *)

let witness ~ncpus ~flows ~packets =
  { Sancase.index = 0; ncpus; flows; packets; tseed = 0x9245f2 }

let test_mutant_skip_install () =
  (* one CPU, one flow, one packet per pass: the minimal stale-hit *)
  let reports =
    Sancase.run_scenario ~mutant:Sancase.Skip_install_invalidation
      (witness ~ncpus:1 ~flows:1 ~packets:1)
  in
  match
    List.find_opt
      (fun (r : San.report) -> r.San.kind = San.Stale_cache_hit)
      reports
  with
  | Some rep ->
    Alcotest.(check string) "resource" "pfdev.flow_cache.cpu0" rep.San.resource;
    Alcotest.(check (list int)) "cpus" [ 0 ] rep.San.cpus;
    Alcotest.(check string) "missing edge"
      "invalidation 0->0 for epoch 2" rep.San.missing
  | None -> Alcotest.fail "skip-install-invalidation escaped the sanitizer"

let test_mutant_skip_remote () =
  (* two CPUs, one flow, one packet per pass *)
  let reports =
    Sancase.run_scenario ~mutant:Sancase.Skip_remote_invalidation
      (witness ~ncpus:2 ~flows:1 ~packets:1)
  in
  (match
     List.find_opt
       (fun (r : San.report) -> r.San.kind = San.Stale_cache_hit)
       reports
   with
  | Some rep ->
    Alcotest.(check string) "resource" "pfdev.flow_cache.cpu1" rep.San.resource;
    Alcotest.(check (list int)) "cpus" [ 0; 1 ] rep.San.cpus;
    Alcotest.(check string) "missing edge"
      "invalidation 0->1 for epoch 2" rep.San.missing
  | None -> Alcotest.fail "no stale hit from skip-remote-invalidation");
  match
    List.find_opt
      (fun (r : San.report) -> r.San.kind = San.Unordered_access)
      reports
  with
  | Some rep ->
    Alcotest.(check string) "resource" "pfdev.port_table" rep.San.resource;
    Alcotest.(check string) "missing edge" "sync 0->1" rep.San.missing
  | None -> Alcotest.fail "no unordered table read from skip-remote-invalidation"

let test_mutant_skip_delivery_lock () =
  let reports =
    Sancase.run_scenario ~mutant:Sancase.Skip_delivery_lock
      (witness ~ncpus:2 ~flows:3 ~packets:3)
  in
  match
    List.find_opt
      (fun (r : San.report) -> r.San.kind = San.Lockset_violation)
      reports
  with
  | Some rep ->
    Alcotest.(check string) "resource" "pfdev.delivery_queue" rep.San.resource;
    Alcotest.(check string) "missing lock" "delivery_lock" rep.San.missing;
    Alcotest.(check (list int)) "cpus" [ 0; 1 ] rep.San.cpus
  | None -> Alcotest.fail "skip-delivery-lock escaped the sanitizer"

(* {1 The fuzz campaign: clean stays silent, mutants are caught + shrunk} *)

let test_campaign_clean () =
  let stats = Sancase.run ~seed:7 ~iters:6 () in
  Alcotest.(check int) "cases" 6 stats.Sancase.cases;
  Alcotest.(check int) "no reported cases" 0 stats.Sancase.reported_cases;
  Alcotest.(check int) "no failures" 0 (List.length stats.Sancase.failures)

let test_campaign_catches_mutants () =
  List.iter
    (fun mutant ->
      let name = Sancase.mutant_name mutant in
      let stats = Sancase.run ~mutant ~seed:7 ~iters:4 ~max_failures:1 () in
      match stats.Sancase.failures with
      | [ f ] ->
        Alcotest.(check bool) (name ^ " reports survive shrinking") true
          (f.Sancase.shrunk_reports <> []);
        let c = f.Sancase.case and s = f.Sancase.shrunk in
        Alcotest.(check bool) (name ^ " shrunk is no larger") true
          (s.Sancase.ncpus <= c.Sancase.ncpus
          && s.Sancase.flows <= c.Sancase.flows
          && s.Sancase.packets <= c.Sancase.packets);
        let contains s sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) (name ^ " repro names the mutant") true
          (contains f.Sancase.repro name)
      | fs ->
        Alcotest.failf "%s: expected exactly one catch, got %d" name
          (List.length fs))
    Sancase.all_mutants

(* {1 For_testing.skip_delivery_lock restores cleanly} *)

let test_skip_delivery_lock_hook_restores () =
  Alcotest.(check bool) "flag starts clear" false
    !Pfdev.For_testing.skip_delivery_lock;
  ignore
    (Sancase.run_scenario ~mutant:Sancase.Skip_delivery_lock
       (witness ~ncpus:2 ~flows:3 ~packets:3)
      : San.report list);
  Alcotest.(check bool) "flag restored" false
    !Pfdev.For_testing.skip_delivery_lock;
  (* and the very next clean run is silent: no state leaks between runs *)
  let reports = Sancase.run_scenario (clean_case ~ncpus:2 ~packets:50) in
  Alcotest.(check int) "clean after mutant" 0 (List.length reports)

(* {1 Attaching the sanitizer never changes kernel behavior} *)

let scenario_counters ~with_san =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus:4 link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  let san =
    if with_san then begin
      let s = San.create ~stats:(Host.stats h) ~ncpus:4 () in
      Host.attach_san h s;
      Some s
    end
    else None
  in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0xD373 ~flows:24 ~skew:(Gen.Zipf 1.1) () in
  for i = 23 downto 0 do
    let p = Pfdev.open_port pf in
    (match Pfdev.set_filter p (Gen.filter (Gen.flow gen i)) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%a" Pfdev.pp_install_error e);
    Pfdev.set_queue_limit p 1_000
  done;
  Engine.run eng;
  List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen 400);
  Engine.run eng;
  (Host.stats h, Pfdev.smp_stats pf, san)

let test_attach_changes_no_verdicts () =
  let bare, bare_smp, _ = scenario_counters ~with_san:false in
  let sanned, sanned_smp, san = scenario_counters ~with_san:true in
  List.iter
    (fun key ->
      Alcotest.(check int) key (Stats.get bare key) (Stats.get sanned key))
    [ "host.inject"; "host.rx"; "pf.accepted" ];
  Alcotest.(check int) "delivery-lock acquisitions" bare_smp.Pfdev.lock_acquisitions
    sanned_smp.Pfdev.lock_acquisitions;
  (* and the pf.san.* counters landed in the host's stats *)
  let san = Option.get san in
  Alcotest.(check bool) "accesses counted" true
    (Stats.get sanned "pf.san.accesses" > 0);
  Alcotest.(check int) "stats mirror the checker"
    (List.assoc "pf.san.accesses" (San.counters san))
    (Stats.get sanned "pf.san.accesses");
  Alcotest.(check int) "zero reports" 0 (Stats.get sanned "pf.san.reports")

(* {1 The static lock-discipline lint} *)

let test_lint_kernel_registry_clean () =
  List.iter
    (fun ncpus ->
      let eng = Engine.create () in
      let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
      let h =
        Host.create ~costs:Pf_sim.Costs.microvax_ii ~ncpus link ~name:"rx"
          ~addr:(Addr.eth_host 2)
      in
      let san = San.create ~ncpus () in
      Host.attach_san h san;
      Alcotest.(check int)
        (Printf.sprintf "ncpus=%d" ncpus)
        0
        (List.length (San.Lint.run san)))
    [ 1; 2; 4; 8 ]

let test_lint_findings () =
  let san = San.create ~ncpus:2 () in
  (* undeclared sharing: a cpu-0-private object with a cpu-1 access site *)
  let priv = San.register san ~name:"percpu" ~discipline:(San.Cpu_private 0) in
  San.declare_site san ~site:"remote_peek" ~ctx:(San.On_cpu 1) ~locks:[]
    ~rw:`Write priv;
  (* inconsistent guard: one site takes the declared lock, one does not *)
  let shared = San.register san ~name:"table" ~discipline:(San.Guarded_by "giant") in
  San.declare_lock san "giant";
  San.declare_site san ~site:"locked_update" ~ctx:(San.On_cpu 0)
    ~locks:[ "giant" ] ~rw:`Write shared;
  San.declare_site san ~site:"lockless_read" ~ctx:(San.On_cpu 1) ~locks:[]
    ~rw:`Read shared;
  (* lock-order inversion: a site acquiring b-then-a against a < b *)
  San.declare_lock san "a";
  San.declare_lock san "b";
  San.declare_lock_order san ~before:"a" ~after:"b";
  let nested = San.register san ~name:"nested" ~discipline:(San.Guarded_by "b") in
  San.declare_site san ~site:"inverted_nesting" ~ctx:San.Boot
    ~locks:[ "b"; "a" ] ~rw:`Write nested;
  let findings = San.Lint.run san in
  let kinds =
    List.sort_uniq compare
      (List.map (fun (f : San.Lint.finding) -> f.San.Lint.kind) findings)
  in
  Alcotest.(check int) "three findings" 3 (List.length findings);
  Alcotest.(check bool) "one of each kind" true
    (kinds = [ `Undeclared_sharing; `Inconsistent_guard; `Lock_order_inversion ]
    || List.length kinds = 3)

let suite =
  ( "san",
    [
      Alcotest.test_case "lockset: disciplined sharing is clean" `Quick
        test_lockset_clean;
      Alcotest.test_case "lockset: empty intersection reports" `Quick
        test_lockset_violation;
      Alcotest.test_case "lockset: exclusive use never reports" `Quick
        test_lockset_single_cpu_silent;
      Alcotest.test_case "cpu-private: foreign access reports" `Quick
        test_cpu_private;
      Alcotest.test_case "happens-before: sync edge orders the read" `Quick
        test_hb_unordered_then_ordered;
      Alcotest.test_case "protocol: stale hit vs synced cache" `Quick
        test_protocol_stale_hit;
      Alcotest.test_case "lock: double release" `Quick test_lock_double_release;
      Alcotest.test_case "lock: release by non-owner" `Quick
        test_lock_release_by_non_owner;
      Alcotest.test_case "lock: reentrant acquire" `Quick
        test_lock_reentrant_acquire;
      Alcotest.test_case "steer is a pure function of the key bytes" `Quick
        test_steer_pure_function_of_key;
      Alcotest.test_case "host protocol table: remote reads are ordered" `Quick
        test_host_protocol_table;
      Alcotest.test_case "clean kernel: zero reports at 1/2/4/8 cpus" `Slow
        test_clean_kernel_all_ncpus;
      Alcotest.test_case "mutant: skip-install-invalidation caught" `Quick
        test_mutant_skip_install;
      Alcotest.test_case "mutant: skip-remote-invalidation caught" `Quick
        test_mutant_skip_remote;
      Alcotest.test_case "mutant: skip-delivery-lock caught" `Quick
        test_mutant_skip_delivery_lock;
      Alcotest.test_case "campaign: clean kernel stays silent" `Slow
        test_campaign_clean;
      Alcotest.test_case "campaign: every mutant caught and shrunk" `Slow
        test_campaign_catches_mutants;
      Alcotest.test_case "skip_delivery_lock hook restores" `Quick
        test_skip_delivery_lock_hook_restores;
      Alcotest.test_case "attaching changes no verdicts or counters" `Quick
        test_attach_changes_no_verdicts;
      Alcotest.test_case "lint: kernel registry is clean" `Quick
        test_lint_kernel_registry_clean;
      Alcotest.test_case "lint: all three finding kinds" `Quick
        test_lint_findings;
    ] )
