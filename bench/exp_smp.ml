(* CPU scaling of the receive path: the N-CPU simulated kernel with
   NIC receive-side steering and per-CPU flow caches.

   One receiving host with 1, 2, 4, or 8 CPUs takes the same seeded
   64-flow mix (Traffic.Gen), injected all at once so the wire is never
   the bottleneck. The NIC hashes each frame's flow-cache key bytes to
   pick the receive CPU — same flow, same CPU — so every CPU classifies
   against a private, contention-free flow cache; only the shared
   port-queue insert takes the costed delivery spinlock, and a filter-set
   mutation reaches the other CPUs through the device generation each
   checks at its next demux, with no IPI. Throughput is packets over the
   makespan (the busiest CPU's added busy time).

   Two mixes: uniform (every flow equal — the scaling showcase) and
   Zipf-skewed (a few conversations dominate — steering can only spread
   flows, not packets of one flow, so the hot CPU caps the speedup; that
   asymmetry is the point of the experiment).

   Three CI smoke criteria, all hard failures:
   - uniform 4-CPU throughput must be >= 2.5x the 1-CPU throughput;
   - the uniform 1 -> 8 CPU throughput curve must be monotone;
   - the 1-CPU SMP path (steering code enabled on one CPU) must
     reproduce the legacy single-CPU host's statistics *exactly* — every
     named counter and the makespan — so the SMP refactor cannot drift
     the accounting the paper tables are built on. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Stats = Pf_sim.Stats
module Gen = Pf_monitor.Traffic.Gen

let n_flows = 64
let n_packets = 4_000
let cpu_counts = [ 1; 2; 4; 8 ]
let seed = 0x5EED

type result = {
  makespan_us : int; (* busiest CPU's busy time over the traffic phase *)
  throughput_pps : float;
  stats : (string * int) list; (* full counter set, for the parity gate *)
  smp : Pfdev.smp_stats;
  san_reports : int; (* 0 unless the run had a sanitizer attached *)
}

(* [ncpus = None] is the legacy single-CPU host (plain receive handler, no
   steering); [Some n] takes the SMP/steering path even at n = 1.
   [san] attaches the Pfsan checker, whose instrumented accesses charge
   [Costs.san_access] each — the modeled overhead the --san gate bounds. *)
let run_one ?(san = false) ~ncpus ~skew () =
  let world = dix_world ~costs_a:Pf_sim.Costs.free ?ncpus_b:ncpus ~cache:true () in
  let pf = Host.pf world.b in
  let checker =
    if san then begin
      let c = Pf_sim.San.create ~ncpus:(Host.ncpus world.b) () in
      Host.attach_san world.b c;
      Some c
    end
    else None
  in
  let gen = Gen.make ~seed ~flows:n_flows ~skew () in
  (* Descending open order: the hottest flows (lowest indices) land at the
     end of the sequential walk, the uncached worst case. *)
  for i = n_flows - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p n_packets
  done;
  (* Drain the setup events so the measured makespan is the traffic phase
     only. *)
  Engine.run world.engine;
  let smp_complex = Host.smp world.b in
  let busy0 =
    Array.init (Host.ncpus world.b) (fun k ->
        Pf_sim.Cpu.busy_time (Pf_sim.Smp.cpu smp_complex k))
  in
  let frames = Gen.sequence gen n_packets in
  List.iter (fun flow -> Host.inject world.b (Gen.frame flow)) frames;
  Engine.run world.engine;
  let accepted = Stats.get (Host.stats world.b) "pf.accepted" in
  if accepted <> n_packets then
    failwith
      (Printf.sprintf "smp mix (ncpus=%s): accepted %d of %d packets"
         (match ncpus with None -> "legacy" | Some n -> string_of_int n)
         accepted n_packets);
  let makespan =
    Array.to_list busy0
    |> List.mapi (fun k b0 ->
           Pf_sim.Cpu.busy_time (Pf_sim.Smp.cpu smp_complex k) - b0)
    |> List.fold_left max 0
  in
  {
    makespan_us = makespan;
    throughput_pps = float_of_int n_packets *. 1e6 /. float_of_int makespan;
    stats = Stats.pairs (Host.stats world.b);
    smp = Pfdev.smp_stats pf;
    san_reports =
      (match checker with
      | Some c -> Pf_sim.San.report_count c
      | None -> 0);
  }

let skew_name = function
  | Gen.Uniform -> "uniform"
  | Gen.Zipf _ -> "zipf"
  | Gen.Hot _ -> "hot"

let run () =
  run_cpus := List.fold_left max 1 cpu_counts;
  let gates = ref [] in
  let gate fmt = Printf.ksprintf (fun s -> gates := s :: !gates) fmt in

  (* The accounting-parity gate: the 1-CPU SMP path vs the legacy host. *)
  let legacy = run_one ~ncpus:None ~skew:Gen.Uniform () in
  let smp1 = run_one ~ncpus:(Some 1) ~skew:Gen.Uniform () in
  if legacy.stats <> smp1.stats || legacy.makespan_us <> smp1.makespan_us then begin
    let tbl pairs = List.to_seq pairs |> Hashtbl.of_seq in
    let a = tbl legacy.stats and b = tbl smp1.stats in
    let diff =
      List.filter_map
        (fun (k, _) ->
          let ga t = Option.value ~default:0 (Hashtbl.find_opt t k) in
          if ga a <> ga b then Some (Printf.sprintf "%s: %d vs %d" k (ga a) (ga b))
          else None)
        (legacy.stats @ smp1.stats)
      |> List.sort_uniq compare
    in
    gate "1-CPU SMP accounting drifted from the legacy path: makespan %d vs %d; %s"
      legacy.makespan_us smp1.makespan_us
      (if diff = [] then "counters equal" else String.concat "; " diff)
  end;
  record_metric "smp_parity_ok"
    (if legacy.stats = smp1.stats && legacy.makespan_us = smp1.makespan_us then 1.
     else 0.);

  let curves =
    List.map
      (fun skew ->
        let rows = List.map (fun n -> (n, run_one ~ncpus:(Some n) ~skew ())) cpu_counts in
        List.iter
          (fun (n, r) ->
            let m = Printf.sprintf "smp_%s_c%d" (skew_name skew) n in
            record_metric (m ^ "_throughput_pps") r.throughput_pps;
            record_metric (m ^ "_makespan_us") (float_of_int r.makespan_us);
            record_metric (m ^ "_lock_wait_us")
              (float_of_int r.smp.Pfdev.lock_wait_total_us);
            record_metric (m ^ "_ipis") (float_of_int r.smp.Pfdev.ipis))
          rows;
        (skew, rows))
      [ Gen.Uniform; Gen.Zipf 1.2 ]
  in

  let throughput_at rows n = (List.assoc n rows).throughput_pps in
  let uniform_rows = List.assoc Gen.Uniform curves in
  let speedup4 = throughput_at uniform_rows 4 /. throughput_at uniform_rows 1 in
  record_metric "smp_uniform_speedup_c4" speedup4;
  if speedup4 < 2.5 then
    gate "uniform 4-CPU throughput only %.2fx the 1-CPU throughput; need >= 2.5x"
      speedup4;
  let rec monotone = function
    | (n1, t1) :: ((n2, t2) :: _ as rest) ->
      if t2 < t1 then
        gate "uniform throughput curve not monotone: %.0f pps at %d CPUs > %.0f at %d"
          t1 n1 t2 n2;
      monotone rest
    | _ -> ()
  in
  monotone (List.map (fun (n, r) -> (n, r.throughput_pps)) uniform_rows);

  (* The sanitizer gates: the same uniform 4-CPU run with Pfsan attached
     must stay silent (zero reports on the clean kernel at full load) and
     its instrumented-access cost must not inflate the makespan by more
     than 15%. *)
  let base4 = List.assoc 4 uniform_rows in
  let san4 = run_one ~san:true ~ncpus:(Some 4) ~skew:Gen.Uniform () in
  if san4.san_reports > 0 then
    gate "sanitizer reported %d violation(s) on the clean kernel at 4 CPUs"
      san4.san_reports;
  let san_overhead_pct =
    100.
    *. float_of_int (san4.makespan_us - base4.makespan_us)
    /. float_of_int base4.makespan_us
  in
  record_metric "smp_san_reports" (float_of_int san4.san_reports);
  record_metric "smp_san_overhead_pct" san_overhead_pct;
  record_metric "smp_san_makespan_us" (float_of_int san4.makespan_us);
  if san_overhead_pct > 15. then
    gate "sanitizer overhead %.1f%% of the 4-CPU makespan; budget is 15%%"
      san_overhead_pct;
  if san_overhead_pct < 0. then
    gate "sanitizer made the 4-CPU run faster (%.1f%%): accounting is wrong"
      san_overhead_pct;
  Printf.printf
    "sanitizer: 4-CPU uniform makespan %d us -> %d us with Pfsan attached \
     (%.1f%% overhead, %d reports)\n\n"
    base4.makespan_us san4.makespan_us san_overhead_pct san4.san_reports;

  List.iter
    (fun (skew, rows) ->
      print_table
        ~title:
          (Printf.sprintf "SMP receive scaling, %s mix (%d flows, %d packets)"
             (skew_name skew) n_flows n_packets)
        ~note:
          "throughput = packets / busiest CPU's busy time; steering pins each\n\
           flow to one CPU, so skewed mixes cap out at the hottest CPU's share"
        (List.map
           (fun (n, r) ->
             let waits =
               List.fold_left
                 (fun acc (c : Pfdev.smp_cpu_stats) -> acc + c.Pfdev.lock_waits)
                 0 r.smp.Pfdev.per_cpu
             in
             {
               metric =
                 Printf.sprintf "%d CPU%s (%d lock waits, %d ipis)" n
                   (if n = 1 then " " else "s") waits r.smp.Pfdev.ipis;
               paper = Printf.sprintf "%8d us" r.makespan_us;
               ours =
                 Printf.sprintf "%8.0f pps (%4.2fx)" r.throughput_pps
                   (r.throughput_pps /. throughput_at rows 1);
             })
           rows))
    curves;

  match !gates with
  | [] -> ()
  | gs -> failwith ("smp bench regression:\n  " ^ String.concat "\n  " gs)
