(* Shared infrastructure for the experiment harness: world builders,
   measurement helpers, and paper-vs-measured table rendering. *)

module Engine = Pf_sim.Engine
module Costs = Pf_sim.Costs
module Process = Pf_sim.Process
module Host = Pf_kernel.Host
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Packet = Pf_pkt.Packet

type world = {
  engine : Engine.t;
  link : Pf_net.Link.t;
  a : Host.t; (* client / sender *)
  b : Host.t; (* server / receiver *)
}

(* The paper's 1987 kernel had no demux flow cache, so the worlds that
   reproduce §6 run with both hosts' caches off; [~cache:true] keeps the
   kernel's default. The cache is never switched back on: each toggle
   flushes every CPU's cache. *)
let dix_world ?(costs = Costs.microvax_ii) ?costs_a ?costs_b ?ncpus_b ?(rate = 10.)
    ?(cache = false) () =
  let engine = Engine.create () in
  let link = Pf_net.Link.create engine Frame.Dix10 ~rate_mbit:rate () in
  let costs_a = Option.value ~default:costs costs_a in
  let costs_b = Option.value ~default:costs costs_b in
  let a = Host.create ~costs:costs_a link ~name:"a" ~addr:(Addr.eth_host 1) in
  let b = Host.create ~costs:costs_b ?ncpus:ncpus_b link ~name:"b" ~addr:(Addr.eth_host 2) in
  if not cache then
    List.iter (fun h -> Pf_kernel.Pfdev.set_cache_enabled (Host.pf h) false) [ a; b ];
  { engine; link; a; b }

let exp3_world ?(costs = Costs.microvax_ii) ?(rate = 3.) () =
  let engine = Engine.create () in
  let link = Pf_net.Link.create engine Frame.Exp3 ~rate_mbit:rate () in
  let a = Host.create ~costs link ~name:"a" ~addr:(Addr.exp 1) in
  let b = Host.create ~costs link ~name:"b" ~addr:(Addr.exp 2) in
  { engine; link; a; b }

(* {1 Table rendering} *)

type row = { metric : string; paper : string; ours : string }

let rule width = String.make width '-'

let print_table ~title ?note rows =
  let metric_w =
    List.fold_left (fun acc r -> max acc (String.length r.metric)) 28 rows
  in
  let paper_w = List.fold_left (fun acc r -> max acc (String.length r.paper)) 12 rows in
  let ours_w = List.fold_left (fun acc r -> max acc (String.length r.ours)) 12 rows in
  let total = metric_w + paper_w + ours_w + 6 in
  Printf.printf "\n%s\n%s\n" title (rule total);
  Printf.printf "%-*s  %*s  %*s\n" metric_w "" paper_w "paper" ours_w "ours";
  List.iter
    (fun r -> Printf.printf "%-*s  %*s  %*s\n" metric_w r.metric paper_w r.paper ours_w r.ours)
    rows;
  Printf.printf "%s\n" (rule total);
  match note with None -> () | Some n -> Printf.printf "%s\n" n

let ms v = Printf.sprintf "%.1f mSec" v
let ms2 v = Printf.sprintf "%.2f mSec" v
let kbs v = Printf.sprintf "%.0f KB/s" v
let cps v = Printf.sprintf "%.0f" v

(* {1 Measurement helpers} *)

(* Run [n] iterations of [body] inside a process on host [h]; return mean
   virtual elapsed per iteration in microseconds (excluding [warmup]
   leading iterations). *)
let time_iterations world h ~n ?(warmup = 2) body =
  let t0 = ref 0 and t1 = ref 0 in
  let _p =
    Host.spawn h ~name:"driver" (fun () ->
        for i = 1 to warmup do
          body i
        done;
        t0 := Engine.now world.engine;
        for i = 1 to n do
          body i
        done;
        t1 := Engine.now world.engine)
  in
  Engine.run world.engine;
  float_of_int (!t1 - !t0) /. float_of_int n

let throughput_kbs ~bytes ~us =
  if us <= 0 then infinity else float_of_int bytes /. 1024. *. 1_000_000. /. float_of_int us

(* Build a raw Pup-ish frame of an exact total size on a Dix10 link,
   destined to a given Pup socket (used by the demux-cost experiments). *)
let sized_frame ~src ~dst ~socket ~total =
  let payload_len = max 0 (total - 14) in
  let b = Pf_pkt.Builder.create ~capacity:total () in
  (* Pup header (figure 3-7 shifted to the 10Mb frame): length, tc|type,
     id, dst port, src port, then padding to size. *)
  Pf_pkt.Builder.add_word b payload_len;
  Pf_pkt.Builder.add_word b 1;
  Pf_pkt.Builder.add_word32 b 0l;
  Pf_pkt.Builder.add_byte b 0;
  Pf_pkt.Builder.add_byte b 2;
  Pf_pkt.Builder.add_word32 b socket;
  Pf_pkt.Builder.add_byte b 0;
  Pf_pkt.Builder.add_byte b 1;
  Pf_pkt.Builder.add_word32 b 99l;
  for _ = 1 to payload_len - 20 do
    Pf_pkt.Builder.add_byte b 0
  done;
  Frame.encode Frame.Dix10 ~dst ~src ~ethertype:0x0200 (Pf_pkt.Builder.to_packet b)

let pup_frame_dix ~socket =
  sized_frame ~src:(Addr.eth_host 1) ~dst:(Addr.eth_host 2) ~socket ~total:128

let set_filter_exn port program =
  match Pf_kernel.Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "set_filter: %a" Pf_kernel.Pfdev.pp_install_error e)

(* {1 Machine-readable results}

   Experiments record flat metric/value pairs here; `main --json` dumps the
   accumulated registry to BENCH_demux.json for the CI artifact. *)

let json_metrics : (string * float) list ref = ref []
let record_metric name value = json_metrics := (name, value) :: !json_metrics

(* A row name as a metric key: lower-case alphanumeric words joined by
   underscores, e.g. "filter fast(validated) match" ->
   "filter_fast_validated_match". *)
let slug name =
  String.lowercase_ascii name
  |> String.map (fun ch -> match ch with 'a' .. 'z' | '0' .. '9' -> ch | _ -> ' ')
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "")
  |> String.concat "_"

(* {2 Run metadata}

   Every BENCH_*.json artifact is stamped with the same run header — the
   generator seed, the CPU counts exercised, and the source revision — so a
   downloaded artifact identifies the run that produced it. *)

let run_seed = ref 0x5EED (* the default Traffic.Gen seed the benches use *)
let run_cpus = ref 1 (* highest CPU count exercised; bench smp raises it *)

let git_describe =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       ignore (Unix.close_process_in ic : Unix.process_status);
       if line = "" then "unknown" else line
     with _ -> "unknown")

let write_rows path rows =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"meta.git\": %S,\n" (Lazy.force git_describe);
  Printf.fprintf oc "  \"meta.seed\": %d,\n" !run_seed;
  Printf.fprintf oc "  \"meta.cpus\": %d,\n" !run_cpus;
  let last = List.length rows - 1 in
  List.iteri
    (fun i (k, v) -> Printf.fprintf oc "  %S: %.6f%s\n" k v (if i = last then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %d metrics to %s\n" (List.length rows) path

let write_json path = write_rows path (List.rev !json_metrics)

(* Write only the metrics under [prefix] (a per-experiment artifact); no
   file at all when the experiment did not run. *)
let write_json_filtered path ~prefix =
  match
    List.filter (fun (k, _) -> String.starts_with ~prefix k) (List.rev !json_metrics)
  with
  | [] -> ()
  | rows -> write_rows path rows

(* The complement: everything NOT under any of [prefixes] — the shared
   artifact for the experiments that predate per-experiment files. Each
   metric family must land in exactly one BENCH_*.json (CI diffs them
   pairwise), so every new family either gets its own filtered file or is
   excluded from none. *)
let write_json_excluding path ~prefixes =
  match
    List.filter
      (fun (k, _) -> not (List.exists (fun prefix -> String.starts_with ~prefix k) prefixes))
      (List.rev !json_metrics)
  with
  | [] -> ()
  | rows -> write_rows path rows
