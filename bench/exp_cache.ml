(* The demultiplexing flow cache on a skewed traffic mix.

   Sixteen flows from the shared traffic generator (Traffic.Gen) — the
   default Pup/UDP/TCP/VMTP blend — each watched by one port, receive a
   seeded mix in which 90% of the packets belong to three "hot" flows and
   the remaining 10% spread across the other thirteen. This is the regime
   the cache is built for: a handful of live conversations dominating an
   interrupt path that would otherwise interpret filters for every packet.

   The hot flows' ports sit at the END of the priority walk, so the
   uncached sequential demultiplexer pays the worst case for the common
   packets (until its own busier-first reordering kicks in); the cached one
   pays a probe. Everything is measured from the same simulation counters
   the paper's tables use ("pf.demux_cpu_us" per packet), cache on vs off,
   and the run fails outright if the cached path is not at least as cheap —
   that failure is the CI smoke criterion. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Gen = Pf_monitor.Traffic.Gen

let n_flows = 16
let n_packets = 2_000
let hot = 3
let skew = Gen.Hot { hot; fraction = 0.9 }

type result = {
  demux_us_per_packet : float;
  insns_per_packet : float;
  hit_rate : float;
  accepted : int;
}

let run_mix ~cache () =
  let world = dix_world ~costs_a:Pf_sim.Costs.free ~cache () in
  let pf = Host.pf world.b in
  (* A fresh generator per run with the same seed: the cached and uncached
     passes see byte-identical frame sequences. Descending open order puts
     the hot flows (the lowest indices) at the end of the walk. *)
  let gen = Gen.make ~seed:!run_seed ~flows:n_flows ~skew () in
  for i = n_flows - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p n_packets
  done;
  let accepted = ref 0 in
  List.iter
    (fun flow -> if Pfdev.demux pf (Gen.frame flow) then incr accepted)
    (Gen.sequence gen n_packets);
  Engine.run world.engine;
  let per name = float_of_int (Pf_sim.Stats.get (Host.stats world.b) name)
                 /. float_of_int n_packets in
  let cs = Pfdev.cache_stats pf in
  {
    demux_us_per_packet = per "pf.demux_cpu_us";
    insns_per_packet = per "pf.filter_insns";
    hit_rate = float_of_int cs.Pfdev.hits /. float_of_int n_packets;
    accepted = !accepted;
  }

let run () =
  let off = run_mix ~cache:false () in
  let on = run_mix ~cache:true () in
  if on.accepted <> n_packets || off.accepted <> n_packets then
    failwith
      (Printf.sprintf "flow cache mix: accepted %d cached / %d uncached of %d"
         on.accepted off.accepted n_packets);
  print_table
    ~title:
      (Printf.sprintf "Flow cache: skewed mix (%d flows, %d packets, 90%% to %d hot flows)"
         n_flows n_packets hot)
    ~note:
      (Printf.sprintf
         "note: cache hit rate %.1f%%; the cached interrupt path replaces the\n\
          filter walk with one probe for every repeated header pattern."
         (100. *. on.hit_rate))
    [
      { metric = "demux CPU/packet, cache off"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" off.demux_us_per_packet };
      { metric = "demux CPU/packet, cache on"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" on.demux_us_per_packet };
      { metric = "filter insns/packet, cache off"; paper = "n/a";
        ours = Printf.sprintf "%.1f" off.insns_per_packet };
      { metric = "filter insns/packet, cache on"; paper = "n/a";
        ours = Printf.sprintf "%.1f" on.insns_per_packet };
      { metric = "speedup (off/on)"; paper = "n/a";
        ours = Printf.sprintf "%.2fx" (off.demux_us_per_packet /. on.demux_us_per_packet) };
    ];
  record_metric "cache_demux_us_per_packet_off" off.demux_us_per_packet;
  record_metric "cache_demux_us_per_packet_on" on.demux_us_per_packet;
  record_metric "cache_filter_insns_per_packet_off" off.insns_per_packet;
  record_metric "cache_filter_insns_per_packet_on" on.insns_per_packet;
  record_metric "cache_hit_rate" on.hit_rate;
  (* The CI smoke criterion: a flow cache that does not pay for itself on
     its home-turf workload is a regression, fail loudly. *)
  if on.demux_us_per_packet > off.demux_us_per_packet then
    failwith
      (Printf.sprintf
         "flow cache regression: cached demux %.1f uSec/packet > uncached %.1f"
         on.demux_us_per_packet off.demux_us_per_packet)
