(* Demultiplexing at scale: the cross-filter dispatch automaton vs the
   linear walk, 10 to 10,000 installed ports.

   The paper's demultiplexer applies filters one by one, so its per-packet
   cost grows linearly in the number of open ports; the dispatch automaton
   (Pf_filter.Dispatch) groups every port watching the same guard words
   into one hash table, so classification costs one probe per *group*
   regardless of the port count. Here every port watches a distinct flow of
   an all-Pup mix from the shared traffic generator (Traffic.Gen) through
   the same filter shape — the many-users regime of the ROADMAP's north
   star — so the whole set collapses into a single two-word group and the
   curve should go flat.

   Two seeded mixes per port count: uniform (every flow equally likely)
   and skewed (90% of packets to 3 hot flows at the END of the walk — the
   sequential demultiplexer's worst case). Measured from the same counter
   the paper's tables use ("pf.demux_cpu_us" per packet), automaton vs
   walk, plus the automaton composed with the flow cache.

   The run *fails* — the CI smoke criterion — if the automaton is ever
   slower than the walk, if it is not >= 5x faster at 1,000 ports, or if
   its own 10 -> 10,000 curve is not sublinear. It also records, per port
   count, the host time of one automaton build (dispatch_build_host_ms_nN)
   and of one in-place update, a remove plus an add
   (dispatch_update_host_us_nN), ungated because they read the host
   clock, so a superlinear build or an update that grows with the port
   count shows up in BENCH_dispatch.json. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Gen = Pf_monitor.Traffic.Gen

let port_counts = [ 10; 100; 1_000; 10_000 ]
let n_packets = 100 (* < 256: no busier-first reorder mid-measurement *)
let hot = 3

let skew_of = function
  | `Uniform -> Gen.Uniform
  | `Skewed -> Gen.Hot { hot; fraction = 0.9 }

type result = { us_per_packet : float; insns_per_packet : float }

let run_mix ~n ~mix ~strategy ~cache =
  let world = dix_world ~costs_a:Pf_sim.Costs.free ~cache () in
  let pf = Host.pf world.b in
  Pfdev.set_strategy pf strategy;
  (* A fresh generator per run with the same seed: every strategy and
     cache setting sees the identical frame sequence. All-Pup blend, one
     filter shape, so the automaton indexes the set as one group.
     Descending open order puts the hot flows (the lowest indices) at the
     end of the walk. *)
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:!run_seed ~flows:n
      ~skew:(skew_of mix) ()
  in
  for i = n - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p n_packets
  done;
  let accepted = ref 0 in
  List.iter
    (fun flow -> if Pfdev.demux pf (Gen.frame flow) then incr accepted)
    (Gen.sequence gen n_packets);
  Engine.run world.engine;
  if !accepted <> n_packets then
    failwith
      (Printf.sprintf "dispatch mix (n=%d): accepted %d of %d packets" n
         !accepted n_packets);
  let per name =
    float_of_int (Pf_sim.Stats.get (Host.stats world.b) name)
    /. float_of_int n_packets
  in
  { us_per_packet = per "pf.demux_cpu_us"; insns_per_packet = per "pf.filter_insns" }

(* The set [run_mix] installs, in open order, each filter compiled once as
   install does. *)
let installed n =
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:!run_seed ~flows:n ~skew:Gen.Uniform ()
  in
  List.init n (fun k ->
      let i = n - 1 - k in
      let v = Pf_filter.Validate.check_exn (Gen.filter (Gen.flow gen i)) in
      (Pf_filter.Fast.compile v, i))

let median samples = List.nth (List.sort compare samples) (List.length samples / 2)

(* Host time of one [Dispatch.build_compiled] over that set: median of 5, ms. *)
let build_host_ms n =
  let installed = installed n in
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Pf_filter.Dispatch.build_compiled installed : int Pf_filter.Dispatch.t);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  median (List.init 5 (fun _ -> once ()))

(* Host time of one in-place update of the automaton over that set, as the
   kernel makes on every port mutation: [Dispatch.remove] of one filter and
   [Dispatch.add] of it back at its rank. Median of 201 updates, spread over
   the set, µs. *)
let update_host_us n =
  let entries = Array.of_list (installed n) in
  let d = Pf_filter.Dispatch.create () in
  Array.iteri (fun rank (fast, i) -> Pf_filter.Dispatch.add d ~rank fast i) entries;
  let once k =
    let rank = k * 7_919 mod n in
    let fast, i = entries.(rank) in
    let t0 = Monotonic_clock.now () in
    Pf_filter.Dispatch.remove d ~rank;
    Pf_filter.Dispatch.add d ~rank fast i;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3
  in
  median (List.init 201 once)

let mix_name = function `Uniform -> "uniform" | `Skewed -> "skewed"

let run () =
  let gates = ref [] in
  let gate fmt = Printf.ksprintf (fun s -> gates := s :: !gates) fmt in
  let curves =
    List.map
      (fun mix ->
        let rows =
          List.map
            (fun n ->
              let linear = run_mix ~n ~mix ~strategy:`Sequential ~cache:false in
              let auto = run_mix ~n ~mix ~strategy:`Dispatch ~cache:false in
              record_metric
                (Printf.sprintf "dispatch_linear_us_n%d_%s" n (mix_name mix))
                linear.us_per_packet;
              record_metric
                (Printf.sprintf "dispatch_auto_us_n%d_%s" n (mix_name mix))
                auto.us_per_packet;
              if auto.us_per_packet > linear.us_per_packet then
                gate
                  "automaton slower than the linear walk at %d ports (%s): %.1f vs %.1f us"
                  n (mix_name mix) auto.us_per_packet linear.us_per_packet;
              (n, linear, auto))
            port_counts
        in
        (mix, rows))
      [ `Uniform; `Skewed ]
  in
  List.iter
    (fun (mix, rows) ->
      let speedup_at n =
        let _, linear, auto = List.find (fun (m, _, _) -> m = n) rows in
        linear.us_per_packet /. auto.us_per_packet
      in
      record_metric
        (Printf.sprintf "dispatch_speedup_n1000_%s" (mix_name mix))
        (speedup_at 1_000);
      if speedup_at 1_000 < 5. then
        gate "automaton only %.1fx faster at 1,000 ports (%s); need >= 5x"
          (speedup_at 1_000) (mix_name mix);
      let auto_at n =
        let _, _, auto = List.find (fun (m, _, _) -> m = n) rows in
        auto.us_per_packet
      in
      (* Sublinear curve: 1,000x more ports may not cost 8x more. *)
      if auto_at 10_000 > 8. *. auto_at 10 then
        gate "automaton curve not sublinear (%s): %.1f us at 10, %.1f us at 10,000 ports"
          (mix_name mix) (auto_at 10) (auto_at 10_000);
      print_table
        ~title:
          (Printf.sprintf
             "Dispatch automaton vs linear walk, %s mix (%d packets, us/packet)"
             (mix_name mix) n_packets)
        ~note:
          "every port watches a distinct Pup flow via the same filter \
           shape, so the automaton indexes the whole set as one group; \
           'linear' is the paper's sequential walk, cache off in both"
        (List.map
           (fun (n, linear, auto) ->
             {
               metric = Printf.sprintf "%5d ports (%.0f -> %.0f insns)" n
                   linear.insns_per_packet auto.insns_per_packet;
               paper = Printf.sprintf "%8.1f walk" linear.us_per_packet;
               ours =
                 Printf.sprintf "%8.1f auto (%4.1fx)" auto.us_per_packet
                   (linear.us_per_packet /. auto.us_per_packet);
             })
           rows))
    curves;
  List.iter
    (fun n ->
      record_metric (Printf.sprintf "dispatch_build_host_ms_n%d" n) (build_host_ms n);
      record_metric (Printf.sprintf "dispatch_update_host_us_n%d" n) (update_host_us n))
    port_counts;
  (* Composing with the flow cache: the automaton classifies misses, the
     cache answers repeats — at 1,000 ports and a skewed mix the pair
     should beat either alone. *)
  let composed = run_mix ~n:1_000 ~mix:`Skewed ~strategy:`Dispatch ~cache:true in
  record_metric "dispatch_auto_cache_us_n1000_skewed" composed.us_per_packet;
  let auto_alone =
    let _, rows = List.find (fun (m, _) -> m = `Skewed) curves in
    let _, _, auto = List.find (fun (m, _, _) -> m = 1_000) rows in
    auto.us_per_packet
  in
  print_table
    ~title:"Dispatch automaton + flow cache (1,000 ports, skewed mix)"
    [
      { metric = "automaton, cache off"; paper = "";
        ours = Printf.sprintf "%8.1f us/packet" auto_alone };
      { metric = "automaton, cache on"; paper = "";
        ours = Printf.sprintf "%8.1f us/packet" composed.us_per_packet };
    ];
  if composed.us_per_packet > auto_alone then
    gate "flow cache on top of the automaton made demux slower: %.1f vs %.1f us"
      composed.us_per_packet auto_alone;
  match !gates with
  | [] -> ()
  | gs -> failwith ("dispatch bench regression:\n  " ^ String.concat "\n  " gs)
