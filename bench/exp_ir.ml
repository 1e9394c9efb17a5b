(* The register-IR compile strategies on the paper's §6 filter mix.

   The same sixteen-port skewed traffic mix as the flow-cache experiment
   (one pup_dst_port_10mb filter per port, 90% of packets to three hot
   sockets at the end of the priority walk), but with the cache disabled so
   the engines themselves are what is measured: every packet pays the full
   sequential walk under each of the two compile strategies —

     off        interpret the stack programs as installed (the baseline
                every previous experiment used),
     regvm      execute the optimized register IR directly, at the
                register-VM cost model.

   A second table gates the builtin corpus statically: for each filter,
   the register VM's worst-case microseconds must not exceed the stack
   walk's.

   A third runs every builtin on its own over a fixed mix of 400 seeded
   fuzz packets (overwhelmingly rejects, as on a wire where most traffic is
   for someone else), charging what a one-port, cache-off kernel charges
   under the register-VM engine: [regvm_apply], [regvm_insn] per executed
   IR instruction, and the reader [wakeup] on accept. Early exits show up
   here as demux microseconds. Each filter is held to two reference
   columns measured on the same mix: the pipeline before the early-exit
   pass, and the best program of the stochastic superoptimizer that pass
   replaced. Any regression fails the run — these are the CI criteria
   this experiment exists for. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Filter = Pf_filter

let n_ports = 16
let n_packets = 2_000
let hot = 3

let socket_of_index i = Int32.of_int (100 + i)
let target i = if i mod 10 < 9 then n_ports - hot + (i mod hot) else i mod (n_ports - hot)

type result = { demux_us_per_packet : float; accepted : int }

let run_mix strategy =
  let world = dix_world ~costs_a:Pf_sim.Costs.free () in
  let pf = Host.pf world.b in
  Pfdev.set_compile_strategy pf strategy;
  List.iter
    (fun i ->
      let p = Pfdev.open_port pf in
      set_filter_exn p (Filter.Predicates.pup_dst_port_10mb ~host:2 (socket_of_index i));
      Pfdev.set_queue_limit p n_packets)
    (List.init n_ports Fun.id);
  let frames =
    Array.init n_ports (fun i ->
        sized_frame ~src:(Host.addr world.a) ~dst:(Host.addr world.b)
          ~socket:(socket_of_index i) ~total:128)
  in
  let accepted = ref 0 in
  for i = 0 to n_packets - 1 do
    if Pfdev.demux pf frames.(target i) then incr accepted
  done;
  Engine.run world.engine;
  {
    demux_us_per_packet =
      float_of_int (Pf_sim.Stats.get (Host.stats world.b) "pf.demux_cpu_us")
      /. float_of_int n_packets;
    accepted = !accepted;
  }

(* Worst-case microseconds of one filter, in the same model the demux path
   charges: the stack walk pays filter_apply + max_insns * filter_insn, the
   register VM regvm_apply + |optimized IR| * regvm_insn. *)
let worst_case_us (costs : Pf_sim.Costs.t) (a : Filter.Analysis.t) vm =
  ( costs.filter_apply + (a.max_insns * costs.filter_insn),
    costs.regvm_apply + (Filter.Ir.instr_count (Filter.Regvm.ir vm) * costs.regvm_insn) )

let corpus = Filter.Predicates.builtins

let corpus_gate () =
  let costs = Pf_sim.Costs.microvax_ii in
  let rows, failures =
    List.fold_left
      (fun (rows, failures) (name, program) ->
        match Filter.Validate.check program with
        | Error _ -> (rows, failures)
        | Ok v ->
          let a = Filter.Analysis.analyze v in
          let stack_us, regvm_us = worst_case_us costs a (Filter.Regvm.compile v) in
          let row =
            { metric = name;
              paper = Printf.sprintf "%d cyc / %d uSec" a.Filter.Analysis.cost_bound stack_us;
              ours = Printf.sprintf "%d uSec" regvm_us }
          in
          let failures =
            if regvm_us > stack_us then
              Printf.sprintf "%s: regvm %d > %d uSec" name regvm_us stack_us
              :: failures
            else failures
          in
          (row :: rows, failures))
      ([], []) corpus
  in
  print_table
    ~title:"Register IR: worst-case corpus costs (original vs optimized)"
    ~note:
      "note: 'paper' column = original stack program (analysis cost bound /\n\
       worst-case walk uSec); 'ours' = register-VM worst case. The gate\n\
       fails if the register VM exceeds the stack walk anywhere in the\n\
       corpus."
    (List.rev rows);
  failures

(* {1 Per-builtin demux CPU on a fixed packet mix} *)

let mix_packets = 400
let win_threshold_pct = 5.0

(* Demux uSec of each builtin on the mix, measured before this pipeline
   had its early-exit pass: the pipeline alone, and the superoptimizer's
   best program (its default budget and seed). *)
let reference =
  [ ("fig-3-8", (79718, 54266));
    ("fig-3-9", (41432, 41432));
    ("accept-all (network monitor)", (92000, 92000));
    ("pup-type-is-1", (31622, 31622));
    ("pup-dst-socket-35", (41432, 41432));
    ("pup-dst-port", (32434, 32434));
    ("pup-dst-port-10mb", (24114, 24114));
    ("ethertype-ip", (42230, 42230));
    ("udp-dst-port-53", (24862, 24862));
    ("udp-dst-port-any-ihl-53", (35554, 35554));
    ("vmtp-dst-entity", (24888, 24888));
    ("rarp-request", (25230, 25230));
    ("rarp-reply-for", (25230, 25230));
    ("synthetic-accept-5", (92000, 92000));
    ("naive-udp-dst-port-53", (63616, 28354));
    ("naive-pup-dst-port", (82168, 33712));
    ("naive-pup-dst-port-10mb", (73254, 24114));
    ("naive-vmtp-dst-entity", (59016, 30576));
    ("naive-rarp-reply-for", (78132, 25230))
  ]

let mix =
  lazy
    (let rng = Pf_fuzz.Gen.Rng.make 0x5EED in
     List.init mix_packets (fun _ -> fst (Pf_fuzz.Gen.packet rng)))

(* The mix's demux uSec for one builtin, and the number of packets on
   which the register VM's verdict differs from the interpreter's. *)
let mix_cost program =
  let costs = Pf_sim.Costs.microvax_ii in
  let vm = Filter.Regvm.compile (Filter.Validate.check_exn program) in
  List.fold_left
    (fun (us, disagreements) pkt ->
      let ok, insns = Filter.Regvm.run_counted vm pkt in
      ( us + costs.Pf_sim.Costs.regvm_apply
        + (insns * costs.Pf_sim.Costs.regvm_insn)
        + (if ok then costs.Pf_sim.Costs.wakeup else 0),
        if ok = Filter.Interp.accepts ~semantics:`Paper program pkt then disagreements
        else disagreements + 1 ))
    (0, 0) (Lazy.force mix)

(* A naive-* builtin's twin: the same predicate compiled short-circuit. *)
let twin name =
  let prefix = "naive-" in
  let n = String.length prefix in
  if String.starts_with ~prefix name then Some (String.sub name n (String.length name - n))
  else None

let builtin_mix_gate () =
  let results =
    List.map (fun (name, program) -> (name, mix_cost program)) corpus
  in
  let reduction us old_us = 100. *. float_of_int (old_us - us) /. float_of_int old_us in
  print_table
    ~title:
      (Printf.sprintf "Register IR: demux CPU per builtin (%d-packet mix)" mix_packets)
    ~note:
      "note: 'paper' column = reference uSec, the pipeline before early exits /\n\
       the superoptimizer's best; 'ours' = this pipeline (reduction vs the\n\
       first). The gate fails if 'ours' exceeds either reference, if under\n\
       25% of the builtins improve >= 5%, if a naive-* filter costs more than\n\
       its short-circuit twin, or if a verdict disagrees with Interp."
    (List.map
       (fun (name, (us, _)) ->
         let old_us, search_us = List.assoc name reference in
         { metric = name;
           paper = Printf.sprintf "%d / %d uSec" old_us search_us;
           ours = Printf.sprintf "%d uSec (%.1f%%)" us (reduction us old_us) })
       results);
  let failures =
    List.concat_map
      (fun (name, (us, disagreements)) ->
        let old_us, search_us = List.assoc name reference in
        List.filter_map Fun.id
          [ (if us > min old_us search_us then
               Some (Printf.sprintf "%s: %d uSec > reference %d / %d" name us old_us search_us)
             else None);
            (match Option.map (fun t -> (t, fst (List.assoc t results))) (twin name) with
            | Some (t, twin_us) when us > twin_us ->
              Some (Printf.sprintf "%s: %d uSec > its twin %s's %d" name us t twin_us)
            | _ -> None);
            (if disagreements > 0 then
               Some (Printf.sprintf "%s: %d verdicts disagree with Interp" name disagreements)
             else None) ])
      results
  in
  let wins =
    List.length
      (List.filter
         (fun (name, (us, _)) ->
           reduction us (fst (List.assoc name reference)) >= win_threshold_pct)
         results)
  in
  List.iter
    (fun (name, (us, _)) ->
      record_metric (Printf.sprintf "ir_builtin_demux_us_%s" (slug name)) (float_of_int us))
    results;
  record_metric "ir_builtin_wins" (float_of_int wins);
  record_metric "ir_builtin_regressions" (float_of_int (List.length failures));
  if 4 * wins < List.length results then
    Printf.sprintf "only %d of %d builtins improved >= %.0f%%" wins (List.length results)
      win_threshold_pct
    :: failures
  else failures

let run () =
  let off = run_mix `Off in
  let regvm = run_mix `Regvm in
  if off.accepted <> n_packets || regvm.accepted <> n_packets then
    failwith
      (Printf.sprintf "ir mix: accepted %d/%d of %d packets" off.accepted
         regvm.accepted n_packets);
  let reduction b = 100. *. (off.demux_us_per_packet -. b) /. off.demux_us_per_packet in
  print_table
    ~title:
      (Printf.sprintf
         "Register IR: compile strategies on the skewed mix (%d ports, %d packets, cache off)"
         n_ports n_packets)
    ~note:
      "note: same traffic as the flow-cache experiment; with the cache\n\
       disabled the engine cost is the whole interrupt path."
    [
      { metric = "demux CPU/packet, stack (off)"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" off.demux_us_per_packet };
      { metric = "demux CPU/packet, regvm"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" regvm.demux_us_per_packet };
      { metric = "reduction, regvm vs stack"; paper = "n/a";
        ours = Printf.sprintf "%.1f%%" (reduction regvm.demux_us_per_packet) };
    ];
  record_metric "ir_demux_us_per_packet_stack" off.demux_us_per_packet;
  record_metric "ir_demux_us_per_packet_regvm" regvm.demux_us_per_packet;
  record_metric "ir_reduction_regvm_pct" (reduction regvm.demux_us_per_packet);
  let corpus_failures = corpus_gate () in
  record_metric "ir_corpus_filters" (float_of_int (List.length corpus));
  record_metric "ir_corpus_regressions" (float_of_int (List.length corpus_failures));
  let builtin_failures = builtin_mix_gate () in
  (* The CI regression gates: optimized must never cost more than
     unoptimized (on the mix or anywhere in the corpus), nor more than
     either reference on the per-builtin mix. *)
  if regvm.demux_us_per_packet > off.demux_us_per_packet then
    failwith
      (Printf.sprintf "ir regression: regvm demux %.1f uSec/packet > stack %.1f"
         regvm.demux_us_per_packet off.demux_us_per_packet);
  (match corpus_failures with
  | [] -> ()
  | fs -> failwith ("ir corpus regression: " ^ String.concat "; " fs));
  match builtin_failures with
  | [] -> ()
  | fs -> failwith ("ir builtin regression: " ^ String.concat "; " fs)
