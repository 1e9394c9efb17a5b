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

   A second table gates the whole paper filter corpus statically: for each
   filter, the register VM's worst-case microseconds must not exceed the
   stack walk's. Either regression fails the run — that is the CI
   criterion this experiment exists for. *)

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
  Pfdev.set_cache_enabled pf false;
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

(* Worst-case corpus costs, in the same microsecond model the demux path
   charges: the stack walk pays filter_apply + max_insns * filter_insn, the
   register VM regvm_apply + |optimized IR| * regvm_insn. *)
let corpus =
  [ ("fig-3-8", Filter.Predicates.fig_3_8);
    ("fig-3-9", Filter.Predicates.fig_3_9);
    ("pup-type-is-1", Filter.Predicates.pup_type_is 1);
    ("pup-dst-socket-35", Filter.Predicates.pup_dst_socket 35l);
    ("pup-dst-port", Filter.Predicates.pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", Filter.Predicates.pup_dst_port_10mb ~host:2 35l);
    ("ethertype-ip", Filter.Predicates.ethertype_is 0x0800);
    ("udp-dst-port-53", Filter.Predicates.udp_dst_port 53);
    ("udp-dst-port-any-ihl-53", Filter.Predicates.udp_dst_port_any_ihl 53);
    ("vmtp-dst-entity", Filter.Predicates.vmtp_dst_entity 0x1234l);
    ("rarp-request", Filter.Predicates.rarp_request ())
  ]

let corpus_gate () =
  let costs = Pf_sim.Costs.microvax_ii in
  let rows, failures =
    List.fold_left
      (fun (rows, failures) (name, program) ->
        match Filter.Validate.check program with
        | Error _ -> (rows, failures)
        | Ok v ->
          let a = Filter.Analysis.analyze v in
          let vm = Filter.Regvm.compile v in
          let stack_us =
            costs.Pf_sim.Costs.filter_apply
            + (a.Filter.Analysis.max_insns * costs.Pf_sim.Costs.filter_insn)
          in
          let regvm_us =
            costs.Pf_sim.Costs.regvm_apply
            + (Filter.Ir.instr_count (Filter.Regvm.ir vm) * costs.Pf_sim.Costs.regvm_insn)
          in
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
  (* The CI regression gate: optimized must never cost more than
     unoptimized — on the mix or anywhere in the corpus. *)
  if regvm.demux_us_per_packet > off.demux_us_per_packet then
    failwith
      (Printf.sprintf "ir regression: regvm demux %.1f uSec/packet > stack %.1f"
         regvm.demux_us_per_packet off.demux_us_per_packet);
  match corpus_failures with
  | [] -> ()
  | fs -> failwith ("ir corpus regression: " ^ String.concat "; " fs)
