(* The cross-filter dispatch automaton, tested differentially against the
   sequential walk it replaces: mirrored devices receive identical mutation
   streams (install / close / set_priority / set_filter / set_tap /
   set_copy_all) and identical packets, and must agree on every verdict and
   on per-port accept/drop accounting; plus residual-fallback coverage for
   unbounded read sets, direct unit tests of the build decisions, and the
   seeded unsound-prefix-sharing mutant, which the fuzz oracle must catch
   and shrink; plus the maintained automaton against a scratch build after
   every add and remove, and port mutations in a crowded slot bounded on
   the host clock. *)

open Pf_kernel
module Packet = Pf_pkt.Packet
module Predicates = Pf_filter.Predicates
module Dispatch = Pf_filter.Dispatch
module Validate = Pf_filter.Validate
module Program = Pf_filter.Program
module Fast = Pf_filter.Fast
module Gen = Pf_monitor.Traffic.Gen
module Rng = Pf_fuzz.Gen.Rng
module Oracle = Pf_fuzz.Oracle
module Runner = Pf_fuzz.Runner

let mk_dev () =
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.free in
  let dev =
    Pfdev.create eng (Pf_sim.Cpu.create costs) costs (Pf_sim.Stats.create ())
      ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  (eng, dev)

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e)

let validate_exn program =
  match Validate.check program with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

(* {1 Mirrored-device equivalence under randomized mutation}

   A [`Sequential] and a [`Dispatch] device receive the same mutation
   stream and the same packets. Any divergence in a demux verdict or in
   per-port accounting is an automaton bug — in classification itself, in
   the rank-merged residual walk, or in a port mutation the automaton
   missed (every mutation that can change an acceptor list must update the
   port's entry in place). *)

(* A masked guard chain that stays non-exact: the Pup type, then a range
   test on the low socket word, which no guard can express. It shares the
   slot of [Predicates.pup_type_is (1 + (s mod 3))]. *)
let range_filter s =
  Pf_filter.Expr.compile
    Pf_filter.Dsl.(
      word 1 =: lit 2 &&: (low_byte (word 3) =: lit (1 + (s mod 3))) &&: (word 8 >: lit (30 + s)))

(* Filter pool: exact guard chains (distinct sockets, and figure 3-9,
   which shares no slot with them), exact masked chains (pup_type_is and
   udp_dst_port mask a byte; the high-and-low-byte Pup type merges into a
   whole-word guard, so it keys word 3 under a different mask than
   pup_type_is), a non-exact chain ([range_filter]), exact chains for a
   10 Mb/s framing these packets never match (pup_dst_port_10mb), an
   unbounded read set (residual), a chainless accept-all (residual) and a
   reject-all (never accepts). The exact chain and the accept-all come a
   second time with a non-zero program priority, which [set_priority]
   then overrides on the port. *)
let pool =
  [|
    (fun s -> Predicates.pup_dst_socket (Int32.of_int (30 + s)));
    (fun s -> Predicates.pup_dst_port_10mb ~host:3 (Int32.of_int (30 + s)));
    (fun s -> Predicates.pup_type_is (1 + (s mod 3)));
    (fun s -> Predicates.udp_dst_port_any_ihl (1000 + s));
    (fun _ -> Predicates.accept_all);
    (fun s -> Predicates.pup_dst_socket ~priority:(1 + s) (Int32.of_int (30 + s)));
    (fun s -> Program.with_priority Predicates.accept_all (1 + s));
    (fun _ -> Predicates.fig_3_9);
    (fun _ -> Predicates.reject_all);
    range_filter;
    (fun s -> Predicates.udp_dst_port (1000 + s));
    (fun s ->
      Pf_filter.Expr.compile
        Pf_filter.Dsl.(
          word 1 =: lit 2
          &&: (high_byte (word 3) =: lit 0)
          &&: (low_byte (word 3) =: lit (1 + (s mod 3)))));
  |]

let random_program rng =
  let f = pool.(Rng.int rng (Array.length pool)) in
  f (Rng.int rng 4)

let random_packet rng =
  if Rng.chance rng 20 then Testutil.ip_udp_frame ~dst_port:(1000 + Rng.int rng 4)
  else
    Testutil.pup_frame
      ~ptype:(1 + Rng.int rng 3)
      ~dst_socket:(Int32.of_int (30 + Rng.int rng 4))
      ()

let run_mirrored ~seed ~cache ~steps =
  let rng = Rng.make seed in
  let eng_s, dev_s = mk_dev () in
  let eng_a, dev_a = mk_dev () in
  Pfdev.set_cache_enabled dev_s cache;
  Pfdev.set_cache_enabled dev_a cache;
  Pfdev.set_strategy dev_a `Dispatch;
  (* Parallel port pairs, index-aligned across the two devices. *)
  let ports = ref [] in
  let open_pair () =
    let ps = Pfdev.open_port dev_s and pa = Pfdev.open_port dev_a in
    Pfdev.set_queue_limit ps 2;
    Pfdev.set_queue_limit pa 2;
    ports := !ports @ [ (ps, pa) ];
    (ps, pa)
  in
  let pick rng =
    match !ports with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let mutate rng =
    match Rng.int rng 6 with
    | 0 ->
      let ps, pa = open_pair () in
      let p = random_program rng in
      set_filter_exn ps p;
      set_filter_exn pa p
    | 1 -> (
      match pick rng with
      | Some (ps, pa) when List.length !ports > 1 ->
        Pfdev.close_port ps;
        Pfdev.close_port pa;
        ports := List.filter (fun (q, _) -> q != ps) !ports
      | _ -> ())
    | 2 -> (
      match pick rng with
      | Some (ps, pa) ->
        let p = random_program rng in
        set_filter_exn ps p;
        set_filter_exn pa p
      | None -> ())
    | 3 -> (
      match pick rng with
      | Some (ps, pa) ->
        let pri = Rng.int rng 4 in
        Pfdev.set_priority ps pri;
        Pfdev.set_priority pa pri
      | None -> ())
    | 4 -> (
      match pick rng with
      | Some (ps, pa) ->
        let flag = Rng.bool rng in
        Pfdev.set_copy_all ps flag;
        Pfdev.set_copy_all pa flag
      | None -> ())
    | _ -> (
      match pick rng with
      | Some (ps, pa) ->
        let flag = Rng.bool rng in
        Pfdev.set_tap ps flag;
        Pfdev.set_tap pa flag
      | None -> ())
  in
  for step = 1 to steps do
    mutate rng;
    (* A short burst of shared packets after every mutation; the occasional
       kernel-claimed packet exercises the taps-only bypass. *)
    for _ = 1 to 4 do
      let packet = random_packet rng in
      let kernel_claimed = Rng.chance rng 8 in
      let rs = Pfdev.demux dev_s ~kernel_claimed packet in
      let ra = Pfdev.demux dev_a ~kernel_claimed packet in
      if rs <> ra then
        Alcotest.failf
          "step %d: sequential walk says %b, dispatch automaton says %b" step
          rs ra
    done
  done;
  Pf_sim.Engine.run eng_s;
  Pf_sim.Engine.run eng_a;
  List.iteri
    (fun i (ps, pa) ->
      Alcotest.(check int)
        (Printf.sprintf "port %d accepted" i)
        (Pfdev.port_accepted ps) (Pfdev.port_accepted pa);
      Alcotest.(check int)
        (Printf.sprintf "port %d dropped" i)
        (Pfdev.port_dropped ps) (Pfdev.port_dropped pa))
    !ports;
  let ds = Pfdev.dispatch_stats dev_a in
  Alcotest.(check bool) "automaton actually classified packets" true
    (ds.Pfdev.classifies > 0);
  Alcotest.(check int) "built once, by set_strategy" 1 ds.Pfdev.rebuilds;
  Alcotest.(check bool) "updated in place after mutations" true
    (ds.Pfdev.updates > 1)

let test_mirrored_mutations_cache_off () =
  List.iter
    (fun seed -> run_mirrored ~seed ~cache:false ~steps:40)
    [ 1; 2; 3; 4; 5 ]

let test_mirrored_mutations_cache_on () =
  List.iter
    (fun seed -> run_mirrored ~seed ~cache:true ~steps:40)
    [ 6; 7; 8; 9; 10 ]

(* {1 The flow key is maintained with the port table}

   After every step of a random mutation stream — [run_mirrored]'s op mix,
   plus [set_filter] and [set_priority] on closed ports, strategy switches
   and bursts of walks long enough for a busier-first reorder — the
   device's flow key must be the union of the open ports' read sets. *)

let open_ports_union ports =
  List.fold_left
    (fun acc p ->
      match Pfdev.port_analysis p with
      | Some a -> Pf_filter.Analysis.union_read_sets acc a.Pf_filter.Analysis.read_set
      | None -> acc)
    (Pf_filter.Analysis.Exact []) ports

let test_flow_key_maintained () =
  let unbounded = ref 0 and exact = ref 0 in
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let eng, dev = mk_dev () in
      let opened = ref [] and closed = ref [] in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let step () =
        match Rng.int rng 9 with
        | 0 | 1 ->
          let p = Pfdev.open_port dev in
          Pfdev.set_queue_limit p 2;
          if Rng.bool rng then set_filter_exn p (random_program rng);
          opened := !opened @ [ p ]
        | 2 when !opened <> [] ->
          let p = pick !opened in
          Pfdev.close_port p;
          opened := List.filter (fun q -> q != p) !opened;
          closed := p :: !closed
        | 3 when !opened @ !closed <> [] ->
          let p = pick (!opened @ !closed) in
          set_filter_exn p (random_program rng)
        | 4 when !opened @ !closed <> [] ->
          let p = pick (!opened @ !closed) in
          Pfdev.set_priority p (Rng.int rng 4)
        | 5 when !opened <> [] -> Pfdev.set_copy_all (pick !opened) (Rng.bool rng)
        | 6 when !opened <> [] -> Pfdev.set_tap (pick !opened) (Rng.bool rng)
        | 7 -> Pfdev.set_strategy dev (if Rng.bool rng then `Sequential else `Dispatch)
        | _ ->
          Pfdev.set_cache_enabled dev false;
          for _ = 1 to 256 do
            ignore (Pfdev.demux dev (random_packet rng) : bool)
          done;
          Pfdev.set_cache_enabled dev true
      in
      for i = 1 to 80 do
        step ();
        for _ = 1 to 4 do
          ignore (Pfdev.demux dev (random_packet rng) : bool)
        done;
        let key = Pfdev.For_testing.flow_key dev and want = open_ports_union !opened in
        (match key with
        | Pf_filter.Analysis.Unbounded -> incr unbounded
        | Pf_filter.Analysis.Exact (_ :: _) -> incr exact
        | Pf_filter.Analysis.Exact [] -> ());
        if key <> want then
          Alcotest.failf "seed %d, step %d: flow key %a, open ports' union %a" seed i
            Pf_filter.Analysis.pp_read_set key Pf_filter.Analysis.pp_read_set want
      done;
      Pf_sim.Engine.run eng)
    [ 11; 12; 13; 14; 15 ];
  Alcotest.(check bool) "an unbounded key occurred" true (!unbounded > 0);
  Alcotest.(check bool) "a non-empty exact key occurred" true (!exact > 0)

(* {1 Ranks follow the port's priority}

   [set_priority] re-ranks a port without touching its program, whose
   header keeps the old priority. The automaton must rank ports as the
   sequential walk orders them — port priority, then open order — or the
   two strategies deliver to different ports. Both ways in: the automaton
   maintained across the mutations, and built after them. *)

let test_set_priority_reranks () =
  let deliver ~early strategy =
    let eng, dev = mk_dev () in
    Pfdev.set_cache_enabled dev false;
    if early then Pfdev.set_strategy dev strategy;
    let a = Pfdev.open_port dev and b = Pfdev.open_port dev in
    set_filter_exn a Predicates.accept_all;
    set_filter_exn b (Program.with_priority Predicates.accept_all 3);
    Pfdev.set_priority a 5;
    if not early then Pfdev.set_strategy dev strategy;
    ignore (Pfdev.demux dev (Testutil.pup_frame ()) : bool);
    Pf_sim.Engine.run eng;
    (Pfdev.port_accepted a, Pfdev.port_accepted b)
  in
  let check what got = Alcotest.(check (pair int int)) what (1, 0) got in
  check "sequential: the raised port wins" (deliver ~early:true `Sequential);
  check "dispatch, maintained: the raised port wins" (deliver ~early:true `Dispatch);
  check "dispatch, built after: the raised port wins" (deliver ~early:false `Dispatch)

(* {1 Residual fallback: unbounded read sets}

   A filter whose read set is [Unbounded] (IHL-indexed UDP matching) can
   never be indexed; the automaton must classify it residual and the
   [`Dispatch] device must still deliver through the per-port walk. *)

let test_unbounded_residual_fallback () =
  let udp = Predicates.udp_dst_port_any_ihl 53 in
  let d =
    Dispatch.build
      [ (validate_exn udp, "udp"); (validate_exn (Predicates.pup_dst_socket 35l), "pup") ]
  in
  (match List.assoc_opt 0 (List.map (fun (r, _, d) -> (r, d)) (Dispatch.decisions d)) with
  | Some (Dispatch.Residual `Unbounded) -> ()
  | Some other ->
    Alcotest.failf "expected Residual `Unbounded, got %a" Dispatch.pp_decision other
  | None -> Alcotest.fail "no decision recorded for the UDP filter");
  let eng, dev = mk_dev () in
  Pfdev.set_strategy dev `Dispatch;
  let port = Pfdev.open_port dev in
  set_filter_exn port udp;
  let hit = Pfdev.demux dev (Testutil.ip_udp_frame ~dst_port:53) in
  let miss = Pfdev.demux dev (Testutil.ip_udp_frame ~dst_port:54) in
  Pf_sim.Engine.run eng;
  Alcotest.(check bool) "matching UDP packet delivered" true hit;
  Alcotest.(check bool) "non-matching UDP packet refused" false miss;
  let ds = Pfdev.dispatch_stats dev in
  Alcotest.(check bool) "delivery went through the residual walk" true
    (ds.Pfdev.residual_runs > 0)

(* {1 Direct unit tests of build decisions and classification} *)

(* Classification + rank-merged residual walk, against a plain linear
   first-match reference over the same rank order. *)
let test_classify_matches_linear_reference () =
  let filters =
    [
      ("sock35-pri2", Predicates.pup_dst_socket ~priority:2 35l);
      ("sock36", Predicates.pup_dst_socket 36l);
      ("type2", Predicates.pup_type_is 2);
      ("udp1000", Predicates.udp_dst_port_any_ihl 1000);
      ("any", Predicates.accept_all);
    ]
  in
  let entries = List.map (fun (n, p) -> (validate_exn p, n)) filters in
  (* Rank order: priority desc, then position — recompute it here. *)
  let ranked =
    List.mapi (fun i (v, n) -> (i, v, n)) entries
    |> List.stable_sort (fun (i, va, _) (j, vb, _) ->
           match
             compare
               (Program.priority (Validate.program vb))
               (Program.priority (Validate.program va))
           with
           | 0 -> compare i j
           | c -> c)
  in
  let reference packet =
    List.find_map
      (fun (_, v, n) -> if Fast.run (Fast.compile v) packet then Some n else None)
      ranked
  in
  let merged = Testutil.dispatch_first_match entries in
  let packets =
    List.concat_map
      (fun socket ->
        List.map
          (fun ptype -> Testutil.pup_frame ~ptype ~dst_socket:(Int32.of_int socket) ())
          [ 1; 2; 3 ])
      [ 34; 35; 36; 37 ]
    @ [ Testutil.ip_udp_frame ~dst_port:1000; Testutil.ip_udp_frame ~dst_port:999;
        Packet.of_string "" ]
  in
  List.iter
    (fun packet ->
      Alcotest.(check (option string))
        "automaton+residual walk equals the linear walk" (reference packet)
        (fst (merged packet)))
    packets

let test_identical_filters_shadowed () =
  let v () = validate_exn (Predicates.pup_dst_socket 35l) in
  let d = Dispatch.build [ (v (), "first"); (v (), "second") ] in
  (match Dispatch.decisions d with
  | [ (0, "first", Dispatch.Indexed _); (1, "second", Dispatch.Shadowed { by = 0 }) ]
    -> ()
  | ds ->
    Alcotest.failf "expected the duplicate filter shadowed by rank 0, got:@.%a"
      (Format.pp_print_list (fun ppf (r, n, d) ->
           Format.fprintf ppf "  rank %d (%s): %a@." r n Dispatch.pp_decision d))
      ds);
  (* The shadowed entry must never win — and the shadow must not lose the
     packet either. *)
  match Dispatch.classify d (Testutil.pup_frame ~dst_socket:35l ()) with
  | Some (0, "first") -> ()
  | Some (r, n) -> Alcotest.failf "wrong winner: rank %d (%s)" r n
  | None -> Alcotest.fail "the packet should have been classified"

(* {1 Same-slot churn}

   One hundred distinct non-exact filters share one slot: port k guards
   words 6 and 7, then requires word 20 > 100 + k. A port mutation
   touches one slot entry and analyses none of its neighbours, so
   re-filtering, closing or re-ranking a port costs no more than the
   automaton's list work, and the first match stays the sequential
   walk's. *)

let churn_filter k =
  Pf_filter.Expr.compile
    Pf_filter.Dsl.(
      word 6 =: lit 0x0200 &&: (word 7 =: lit 5) &&: (word 20 >: lit (100 + k)))

let test_same_slot_churn () =
  let n = 100 in
  let eng_s, dev_s = mk_dev () in
  let eng_d, dev_d = mk_dev () in
  Pfdev.set_strategy dev_d `Dispatch;
  let ports =
    List.init n (fun k ->
        let ps = Pfdev.open_port dev_s and pd = Pfdev.open_port dev_d in
        set_filter_exn ps (churn_filter k);
        set_filter_exn pd (churn_filter k);
        (ps, pd))
  in
  (* Frames that reach the slot, with word 20 on either side of every
     threshold, frames that miss it, and frames too short for word 20. *)
  let rng = Rng.make 0xC4A2 in
  let frames =
    List.init 240 (fun _ ->
        let w7 = if Rng.chance rng 8 then 4 else 5 in
        let words = if Rng.chance rng 8 then 20 else 21 in
        let w20 = 95 + Rng.int rng 110 in
        Packet.of_words
          (List.init words (fun i ->
               match i with 6 -> 0x0200 | 7 -> w7 | 20 -> w20 | _ -> i)))
  in
  let winners = Hashtbl.create 16 in
  let check_first_matches what =
    List.iteri
      (fun i frame ->
        let winner side demux =
          let before = List.map (fun p -> Pfdev.port_accepted (side p)) ports in
          ignore (demux frame : bool);
          List.concat
            (List.mapi
               (fun k (p, b) -> if Pfdev.port_accepted (side p) > b then [ k ] else [])
               (List.combine ports before))
        in
        let sequential = winner fst (Pfdev.demux dev_s) in
        Alcotest.(check (list int))
          (Printf.sprintf "%s, frame %d: first match" what i)
          sequential
          (winner snd (Pfdev.demux dev_d));
        List.iter (fun k -> Hashtbl.replace winners k ()) sequential)
      frames
  in
  let timed what f =
    let t0 = Sys.time () in
    f ();
    let ms = (Sys.time () -. t0) *. 1000. in
    Alcotest.(check bool)
      (Printf.sprintf "%s took %.2f ms, under 50" what ms)
      true (ms < 50.)
  in
  check_first_matches "installed";
  let first_s, first_d = List.hd ports and last_s, last_d = List.nth ports (n - 1) in
  set_filter_exn first_s (churn_filter n);
  timed "re-filtering the first port" (fun () -> set_filter_exn first_d (churn_filter n));
  check_first_matches "re-filtered";
  Pfdev.close_port first_s;
  timed "closing the first port" (fun () -> Pfdev.close_port first_d);
  check_first_matches "closed";
  Pfdev.set_priority last_s 1;
  timed "raising the last port to priority 1" (fun () -> Pfdev.set_priority last_d 1);
  check_first_matches "re-ranked";
  (* Thresholds rise with rank, so the lowest-ranked open port whose
     threshold the frame clears wins: port 0, then port 1 once port 0 asks
     for more, then port 99 once it walks first. *)
  Alcotest.(check (list int)) "ports that won a frame" [ 0; 1; n - 1 ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys winners)));
  Pf_sim.Engine.run eng_s;
  Pf_sim.Engine.run eng_d;
  (* Every entry is indexed: no entry of the slot is exact, so none is
     shadowed, and a copy of a non-exact filter runs when the first copy
     rejects, as the sequential walk runs it. A masked chain with a
     trailing range test is such a filter. *)
  let d = Dispatch.build (List.init n (fun k -> (validate_exn (churn_filter k), k))) in
  Alcotest.(check int) "decisions" n (List.length (Dispatch.decisions d));
  List.iter
    (fun (_, k, decision) ->
      match decision with
      | Dispatch.Indexed { words = [ (6, 0xffff); (7, 0xffff) ]; exact = false } -> ()
      | other -> Alcotest.failf "filter %d: %a" k Dispatch.pp_decision other)
    (Dispatch.decisions d);
  let copy () = validate_exn (range_filter 0) in
  let copies = Dispatch.build [ (copy (), "first"); (copy (), "second") ] in
  match Dispatch.decisions copies with
  | [ (_, _, Dispatch.Indexed { exact = false; _ });
      (_, _, Dispatch.Indexed { exact = false; _ }) ] -> ()
  | ds ->
    Alcotest.failf "expected both copies indexed, got:@.%a"
      (Format.pp_print_list (fun ppf (r, name, d) ->
           Format.fprintf ppf "  rank %d (%s): %a" r name Dispatch.pp_decision d))
      ds

(* {1 Masked guards}

   A guard requires [word land mask = value]. The byte tests [Expr] emits
   for [low_byte] and [high_byte] are guards, so the filters built from
   them are exact; the guards on one word merge into one; and filters that
   mask one word differently key different groups. *)

let decision_of program =
  match Dispatch.decisions (Dispatch.build [ (validate_exn program, ()) ]) with
  | [ (_, (), d) ] -> d
  | _ -> Alcotest.fail "one filter, one decision"

let check_exact what program =
  match decision_of program with
  | Dispatch.Indexed { exact = true; _ } -> ()
  | d -> Alcotest.failf "%s: %a" what Dispatch.pp_decision d

let test_masked_filters_exact () =
  let gen = Gen.make ~seed:0x3A5C ~flows:64 ~skew:Gen.Uniform () in
  let protos = Hashtbl.create 4 in
  List.iter
    (fun (f : Gen.flow) ->
      Hashtbl.replace protos f.Gen.proto ();
      check_exact (Printf.sprintf "flow %d" f.Gen.index) (Gen.filter f))
    (Gen.flows gen);
  Alcotest.(check int) "filters of all four protocols" 4 (Hashtbl.length protos);
  List.iter
    (fun name -> check_exact name (List.assoc name Predicates.builtins))
    [ "pup-type-is-1"; "pup-dst-port"; "pup-dst-port-10mb"; "udp-dst-port-53" ]

let test_guards_on_one_word_merge () =
  let compile = Pf_filter.Expr.compile in
  let open Pf_filter.Dsl in
  List.iter
    (fun (what, e) ->
      match decision_of (compile e) with
      | Dispatch.Never_accepts -> ()
      | d -> Alcotest.failf "%s: %a" what Dispatch.pp_decision d)
    [
      ("high_byte w = 0x1ff", high_byte (word 7) =: lit 0x1ff);
      ("low_byte w = 0x145", low_byte (word 7) =: lit 0x145);
      ("word 7 = 0x4500 && low_byte (word 7) = 1",
       word 7 =: lit 0x4500 &&: (low_byte (word 7) =: lit 1));
      ("(word 5 & 0x0f0f) = 0x00f0", (word 5 &: lit 0x0f0f) =: lit 0x00f0);
    ];
  (* The last two the interval analysis leaves undecided: only the guards
     prove them. *)
  List.iter
    (fun e ->
      let a = Pf_filter.Analysis.analyze (validate_exn (compile e)) in
      Alcotest.(check bool) "verdict depends on the packet" true
        (a.Pf_filter.Analysis.verdict = Pf_filter.Analysis.Depends_on_packet))
    [ word 7 =: lit 0x4500 &&: (low_byte (word 7) =: lit 1);
      (word 5 &: lit 0x0f0f) =: lit 0x00f0 ];
  (* Both bytes of word 7 make the whole-word guard: the same slot, where
     the exact entry ranked first shadows the other. *)
  let d =
    Dispatch.build
      [ (validate_exn (compile (word 7 =: lit 0x4500)), "whole");
        (validate_exn
           (compile (high_byte (word 7) =: lit 0x45 &&: (low_byte (word 7) =: lit 0))),
         "bytes") ]
  in
  match Dispatch.decisions d with
  | [ (0, "whole", Dispatch.Indexed { words = [ (7, 0xffff) ]; exact = true });
      (1, "bytes", Dispatch.Shadowed { by = 0 }) ] -> ()
  | ds ->
    Alcotest.failf "expected one slot, got:@.%a"
      (Format.pp_print_list (fun ppf (r, n, d) ->
           Format.fprintf ppf "  rank %d (%s): %a" r n Dispatch.pp_decision d))
      ds

let test_masks_on_one_word_group_apart () =
  let filters =
    Pf_filter.Dsl.
      [
        ("low", word 1 =: lit 2 &&: (low_byte (word 3) =: lit 1));
        ("high", word 1 =: lit 2 &&: (high_byte (word 3) =: lit 0));
        ("whole", word 1 =: lit 2 &&: (word 3 =: lit 0x0102));
        ("nibble",
         word 1 =: lit 2 &&: ((word 3 &: lit 0x0f00) =: lit 0x0100) &&: (word 8 >: lit 34));
      ]
  in
  let entries =
    List.map (fun (n, e) -> (validate_exn (Pf_filter.Expr.compile e), n)) filters
  in
  let d = Dispatch.build entries in
  Alcotest.(check (list (list (pair int int))))
    "one group per mask of word 3"
    [ [ (1, 0xffff); (3, 0x00ff) ]; [ (1, 0xffff); (3, 0x0f00) ];
      [ (1, 0xffff); (3, 0xff00) ]; [ (1, 0xffff); (3, 0xffff) ] ]
    (List.map (fun (g : Dispatch.group_info) -> g.Dispatch.words) (Dispatch.info d).Dispatch.groups);
  let reference packet =
    List.find_map
      (fun (v, n) -> if Fast.run (Fast.compile v) packet then Some n else None)
      entries
  in
  let merged = Testutil.dispatch_first_match entries in
  let winners = Hashtbl.create 4 in
  List.iter
    (fun (w1, w3, w8) ->
      let packet =
        Packet.of_words
          (List.init 13 (fun i -> match i with 1 -> w1 | 3 -> w3 | 8 -> w8 | _ -> i))
      in
      let want = reference packet in
      Option.iter (fun n -> Hashtbl.replace winners n ()) want;
      Alcotest.(check (option string))
        (Printf.sprintf "word 1 = %d, word 3 = 0x%04x, word 8 = %d: first match" w1 w3 w8)
        want
        (fst (merged packet)))
    (List.concat_map
       (fun w1 ->
         List.concat_map
           (fun w3 -> List.map (fun w8 -> (w1, w3, w8)) [ 34; 35 ])
           [ 0x0001; 0x0002; 0x0102; 0x0100; 0x0200; 0x0101 ])
       [ 2; 3 ]);
  Alcotest.(check int) "every filter won a packet" 4 (Hashtbl.length winners)

let test_never_accepts_dropped () =
  let d =
    Dispatch.build
      [ (validate_exn Predicates.reject_all, "never");
        (validate_exn (Predicates.pup_dst_socket 35l), "sock") ]
  in
  (match List.map (fun (_, n, dec) -> (n, dec)) (Dispatch.decisions d) with
  | [ ("never", Dispatch.Never_accepts); ("sock", Dispatch.Indexed _) ] -> ()
  | _ -> Alcotest.fail "reject-all should be dropped as Never_accepts");
  Alcotest.(check int) "no residuals" 0 (List.length (Dispatch.residuals d));
  match Dispatch.classify d (Testutil.pup_frame ~dst_socket:35l ()) with
  | Some (_, "sock") -> ()
  | _ -> Alcotest.fail "the live filter should still win"

let test_copy_all_goes_residual () =
  let v () = validate_exn (Predicates.pup_dst_socket 35l) in
  let d =
    Dispatch.build
      ~indexable:(fun name -> name <> "monitor")
      [ (v (), "monitor"); (v (), "consumer") ]
  in
  match List.map (fun (_, n, dec) -> (n, dec)) (Dispatch.decisions d) with
  | [ ("monitor", Dispatch.Residual `Excluded); ("consumer", Dispatch.Indexed _) ]
    -> ()
  | _ -> Alcotest.fail "the excluded port must go residual, not indexed"

(* {1 [build_compiled] agrees with [build]}

   The kernel builds from the [Fast.t] each port compiled at install;
   [pftool dispatch] and the tests build from validated programs. Both must
   yield the same automaton. Every seventh entry is repeated under a fresh
   name, so slots hold several entries and exact entries shadow their
   copies. *)

let check_build_agreement ~what ~dup entries frames =
  let entries =
    entries
    @ List.filteri (fun i _ -> i mod 7 = 0) (List.map (fun (v, x) -> (v, dup x)) entries)
  in
  let a = Dispatch.build entries in
  let b = Dispatch.build_compiled (List.map (fun (v, x) -> (Fast.compile v, x)) entries) in
  Alcotest.(check bool) (what ^ ": shadowing exercised") true
    ((Dispatch.info a).Dispatch.shadowed > 0);
  Alcotest.(check bool) (what ^ ": identical decisions") true
    (Dispatch.decisions a = Dispatch.decisions b);
  Alcotest.(check bool) (what ^ ": identical info") true (Dispatch.info a = Dispatch.info b);
  List.iteri
    (fun i frame ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: frame %d, identical winner and stats" what i)
        true
        (let winner = Dispatch.classify a frame in
         winner = Dispatch.classify b frame && Dispatch.stats a = Dispatch.stats b))
    frames

let test_build_compiled_agrees () =
  let gen = Gen.make ~seed:0xB11D ~flows:1_024 ~skew:Gen.Uniform () in
  let frames =
    List.map Gen.frame (Gen.sequence gen 256)
    @ List.map (fun s -> Testutil.pup_frame ~dst_socket:(Int32.of_int s) ()) [ 34; 35; 36 ]
    @ [ Testutil.ip_udp_frame ~dst_port:53; Packet.of_string "" ]
  in
  let builtins = List.map (fun (n, p) -> (validate_exn p, n)) Predicates.builtins in
  Alcotest.(check int) "builtin corpus size" 19 (List.length builtins);
  check_build_agreement ~what:"builtins" ~dup:(fun n -> n ^ "'") builtins frames;
  let flows =
    List.map
      (fun (f : Gen.flow) ->
        (validate_exn (Gen.filter ~priority:(f.Gen.index mod 3) f), f.Gen.index))
      (Gen.flows gen)
  in
  check_build_agreement ~what:"1,024 flows" ~dup:(fun i -> i + 10_000) flows frames

(* {1 The maintained automaton equals a scratch build}

   Seeded random sequences of [add], [remove], and remove-then-re-add with
   the other indexability (what [Pfdev.set_copy_all] does) on one
   automaton. Ranks are sparse and land anywhere among the live ones, as
   the kernel's do, but follow program priority, so after every step
   [build_compiled] of the live filters in rank order must yield the same
   automaton up to renaming ranks to positions: the same decisions,
   residuals, info, and classify winners and stats on every packet. The
   filters come from the mirrored test's pool. *)

let test_incremental_matches_scratch () =
  let seen = Hashtbl.create 8 in
  let note what n = if n > 0 then Hashtbl.replace seen what () in
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let packets = Packet.of_string "" :: List.init 24 (fun _ -> random_packet rng) in
      let d = Dispatch.create () in
      (* (rank, fast, (id, indexable)), unordered *)
      let live = ref [] in
      let add ~rank fast value =
        Dispatch.add d ~rank ~indexable:(snd value) fast value;
        live := (rank, fast, value) :: !live
      in
      let remove ((rank, _, _) as victim) =
        Dispatch.remove d ~rank;
        live := List.filter (fun e -> e != victim) !live
      in
      let pick () = List.nth !live (Rng.int rng (List.length !live)) in
      for step = 1 to 80 do
        (match Rng.int rng 5 with
        | (0 | 1) when !live <> [] -> remove (pick ())
        | 2 when !live <> [] ->
          let ((rank, fast, (id, indexable)) as e) = pick () in
          remove e;
          add ~rank fast (id, not indexable)
        | _ ->
          let fast = Fast.compile (validate_exn (random_program rng)) in
          let rec fresh () =
            let r = ((255 - Fast.priority fast) lsl 20) + Rng.int rng (1 lsl 20) in
            if List.exists (fun (r', _, _) -> r' = r) !live then fresh () else r
          in
          add ~rank:(fresh ()) fast (step, not (Rng.chance rng 6)));
        let ranked = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !live in
        let scratch =
          Dispatch.build_compiled ~indexable:snd
            (List.map (fun (_, fast, value) -> (fast, value)) ranked)
        in
        let dense r =
          let rec go i = function
            | (r', _, _) :: rest -> if r' = r then i else go (i + 1) rest
            | [] -> Alcotest.failf "rank %d is not live" r
          in
          go 0 ranked
        in
        let what = Printf.sprintf "seed %d, step %d" seed step in
        let renamed =
          List.map
            (fun (r, v, dec) ->
              ( dense r,
                v,
                match dec with
                | Dispatch.Shadowed { by } -> Dispatch.Shadowed { by = dense by }
                | dec -> dec ))
            (Dispatch.decisions d)
        in
        Alcotest.(check bool) (what ^ ": decisions") true
          (renamed = Dispatch.decisions scratch);
        Alcotest.(check bool) (what ^ ": residuals") true
          (List.map (fun (r, v) -> (dense r, v)) (Dispatch.residuals d)
          = Dispatch.residuals scratch);
        let info = Dispatch.info d in
        Alcotest.(check bool) (what ^ ": info") true (info = Dispatch.info scratch);
        List.iteri
          (fun i packet ->
            let winner = Dispatch.classify d packet in
            Alcotest.(check bool)
              (Printf.sprintf "%s, packet %d: winner and stats" what i)
              true
              (Option.map (fun (r, v) -> (dense r, v)) winner
               = Dispatch.classify scratch packet
              && Dispatch.stats d = Dispatch.stats scratch))
          packets;
        note "shadowed" info.Dispatch.shadowed;
        note "excluded" info.Dispatch.residual_excluded;
        note "unbounded" info.Dispatch.residual_unbounded;
        note "no chain" info.Dispatch.residual_no_chain;
        note "never accepts" info.Dispatch.never_accepts;
        List.iter
          (fun (g : Dispatch.group_info) ->
            note "exact" g.Dispatch.exact_members;
            note "non-exact" (g.Dispatch.members - g.Dispatch.exact_members))
          info.Dispatch.groups
      done)
    [ 1; 2; 3; 4; 5 ];
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " entries exercised") true (Hashtbl.mem seen what))
    [ "shadowed"; "excluded"; "unbounded"; "no chain"; "never accepts"; "exact";
      "non-exact" ]

(* {1 The seeded unsound-prefix-sharing mutant}

   Flip the automaton into accepting every slot-matched candidate on its
   guard prefix alone — the unsound sharing the [exact] distinction
   prevents. The fuzz oracle's demux-dispatch engine must catch it (the
   automaton accepts packets the sequential walk rejects), and the shrinker
   must reduce the evidence to an eyeball-sized reproducer. *)

let test_unsound_sharing_mutant_caught_and_shrunk () =
  Dispatch.For_testing.unsound_prefix_sharing := true;
  let stats =
    Fun.protect
      ~finally:(fun () -> Dispatch.For_testing.unsound_prefix_sharing := false)
      (fun () -> Runner.run ~max_failures:1 ~seed:0xD15B ~iters:2_000 ())
  in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed the unsound-prefix-sharing mutant"
  | f :: _ ->
    Alcotest.(check bool) "dispatch demux is the culprit" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "demux-dispatch")
         f.Runner.mismatches);
    Alcotest.(check bool) "shrunk case still disagrees" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "demux-dispatch")
         f.Runner.shrunk_mismatches);
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 5 insns, got:@.%a" Program.pp
         f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 5);
    Alcotest.(check bool) "repro command present" true
      (Testutil.contains f.Runner.repro "pffuzz --seed")

(* {1 Classification allocates only its result}

   Each group's slot table is probed with the group's reused key, so adding
   groups the packet probes — matching none of them, or skipping them for a
   missing word — adds no allocation. The counts go to a record the
   automaton reuses, and the winner's answer is stored with its entry, so
   a classify that matches at most one slot allocates nothing. *)

let test_classify_allocation_flat_in_groups () =
  let words_per_classify groups packet =
    let d =
      Dispatch.build
        (List.init groups (fun g ->
             (validate_exn Pf_filter.Expr.(compile (Bin (Eq, Word g, Lit 0xBEEF))), g)))
    in
    Alcotest.(check int)
      (Printf.sprintf "%d groups" groups)
      groups
      (List.length (Dispatch.info d).Dispatch.groups);
    ignore (Dispatch.classify d packet);
    Testutil.minor_words (fun () ->
        for _ = 1 to 100 do
          ignore (Sys.opaque_identity (Dispatch.classify d packet))
        done)
    /. 100.
  in
  List.iter
    (fun (what, packet) ->
      let at8 = words_per_classify 8 packet in
      Alcotest.(check (float 0.))
        (what ^ ": minor words per classify, 8 groups = 1 group")
        (words_per_classify 1 packet) at8;
      Alcotest.(check (float 0.)) (what ^ ": minor words per classify") 0. at8)
    [
      ("no slot matches", Packet.of_words (List.init 16 Fun.id));
      ("the first group matches", Packet.of_words (0xBEEF :: List.init 15 Fun.id));
      ("words missing", Packet.of_words [ 7 ]);
    ]

let suite =
  ( "dispatch",
    [
      Alcotest.test_case "mirrored mutations, cache off" `Quick
        test_mirrored_mutations_cache_off;
      Alcotest.test_case "mirrored mutations, cache on" `Quick
        test_mirrored_mutations_cache_on;
      Alcotest.test_case "flow key maintained with the port table" `Quick
        test_flow_key_maintained;
      Alcotest.test_case "classify allocation flat in probed groups" `Quick
        test_classify_allocation_flat_in_groups;
      Alcotest.test_case "set_priority re-ranks the port in the automaton" `Quick
        test_set_priority_reranks;
      Alcotest.test_case "unbounded read set falls back to the residual walk"
        `Quick test_unbounded_residual_fallback;
      Alcotest.test_case "classify + residual merge equals the linear walk"
        `Quick test_classify_matches_linear_reference;
      Alcotest.test_case "identical filter is shadowed" `Quick
        test_identical_filters_shadowed;
      Alcotest.test_case "never-accepting filter is dropped" `Quick
        test_never_accepts_dropped;
      Alcotest.test_case "same-slot churn: bounded and indexed" `Quick
        test_same_slot_churn;
      Alcotest.test_case "excluded (copy-all) filter goes residual" `Quick
        test_copy_all_goes_residual;
      Alcotest.test_case "build_compiled agrees with build" `Quick
        test_build_compiled_agrees;
      Alcotest.test_case "maintained automaton equals a scratch build" `Quick
        test_incremental_matches_scratch;
      Alcotest.test_case "unsound-prefix-sharing mutant caught and shrunk"
        `Quick test_unsound_sharing_mutant_caught_and_shrunk;
      Alcotest.test_case "masked guards: generated and byte filters exact" `Quick
        test_masked_filters_exact;
      Alcotest.test_case "masked guards: one word's guards merge" `Quick
        test_guards_on_one_word_merge;
      Alcotest.test_case "masked guards: masks of one word group apart" `Quick
        test_masks_on_one_word_group_apart;
    ] )
