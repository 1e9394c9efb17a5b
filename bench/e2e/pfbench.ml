(* pfbench: the packet filter's receive path, end to end and layer by
   layer, on two clocks — simulated µs (the calibrated MicroVAX-II model)
   and host ns plus allocated bytes (the OCaml code itself).

     dune exec bench/e2e/pfbench.exe -- [--workload NAME|all] [--seed N]
       [--seconds S] [--trace 0|1] [--quick [--benchmark BENCHMARK.json]]

   Each workload runs one warm-up repetition, then measured repetitions
   until [--seconds] have passed (at least three), each followed by a batch
   of set-ups. With several workloads the repetitions are interleaved, one
   of each per round. With a single workload the last line of output is one
   JSON object: {"correct", "attempted", "failed", "metrics"} — the
   end-to-end metrics, or with [--trace 1] the per-layer metrics.

   Exit status: 0 when every packet reached its own port and every check
   held; 1 when any did not; 2 on a usage error; 3 when the cost model no
   longer matches its pinned calibration (no metric is printed then). *)

module W = Workload
module M = Metrics

type state = {
  inp : W.inputs;
  warm : Rep.t;
      (** the first repetition: not timed, but its simulation — which every
          later repetition must reproduce exactly — is the one reported *)
  mutable problems : string list;  (** newest first *)
  mutable failed : int;
  mutable attempted : int;
  mutable traffic_ns : float list;  (** per measured repetition *)
  mutable alloc_bytes : float list;  (** per measured repetition *)
  mutable setups : float list;  (** ns per set-up, one per sample *)
  mutable installs : float list list;  (** [set_filter] ns, one list per sample *)
}

(* Account one repetition: packets lost or misdelivered, sanity violations,
   and a simulation that differs from the warm-up's. *)
let check st (r : Rep.t) =
  let n = Array.length st.inp.frames in
  let others =
    M.sanity r @ if Rep.same_sim st.warm r then [] else [ "simulation differs from the warm-up's" ]
  in
  let counted =
    List.filter_map
      (fun (k, what) -> if k > 0 then Some (Printf.sprintf "%d of %d packets %s" k n what) else None)
      [ (n - r.correct, "not read back from their own port"); (r.wrong, "read back from the wrong port or out of order") ]
  in
  st.attempted <- st.attempted + n;
  st.failed <- st.failed + (n - r.correct) + r.wrong + List.length others;
  st.problems <- List.rev_append (counted @ others) st.problems

let prepare ~seed ~packets w =
  let inp = W.make w ~seed ~packets in
  let input_problems = W.check inp in
  let warm = Rep.run inp in
  let st =
    {
      inp;
      warm;
      problems = List.rev input_problems;
      failed = List.length input_problems;
      attempted = 0;
      traffic_ns = [];
      alloc_bytes = [];
      setups = [];
      installs = [];
    }
  in
  check st warm;
  st

(* One measured repetition, then one batch of set-ups: set-up samples are
   spread over the whole run like the repetitions are. *)
let measure_round ~quick st =
  let r = Rep.run st.inp in
  check st r;
  st.traffic_ns <- r.traffic_ns :: st.traffic_ns;
  st.alloc_bytes <- r.alloc_bytes :: st.alloc_bytes;
  let ns, installs = Rep.setup_batch st.inp ~k:(if quick then 1 else st.inp.W.w.W.setup_batch) in
  st.setups <- ns :: st.setups;
  st.installs <- installs :: st.installs

let e2e st =
  M.end_to_end_values ~sim:st.warm ~traffic_ns:st.traffic_ns ~alloc_bytes:st.alloc_bytes
    ~setups:st.setups

let layers st ~read_calls =
  let traced = Rep.run ~trace:true st.inp in
  check st traced;
  M.per_layer_values st.inp ~traced ~untraced_ns:(M.median st.traffic_ns) ~installs:st.installs
    ~read_calls

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_rows title rows =
  Printf.printf "  %s\n" title;
  List.iter (fun (k, v) -> Printf.printf "    %-34s %14.6g  %s\n" k v (M.unit_of k)) rows

let json_line ~correct ~attempted ~failed rows =
  let metric (k, v) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (number v) (M.unit_of k) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map metric rows))

(* The smoke test's own checks, on top of the run's: BENCHMARK.json and
   the catalogue name the same metrics with the same units, and the
   ledger closes. *)
let smoke_problems ~benchmark ~e2e ~layers =
  let emitted = e2e @ layers in
  let from_file =
    match benchmark with
    | None -> []
    | Some path ->
      let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
      List.concat_map
        (fun section ->
          List.map
            (fun m -> (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
            (Json.to_list (Json.member section j)))
        [ "end_to_end"; "per_layer" ]
  in
  let named =
    List.filter_map
      (fun (name, unit) ->
        if not (List.mem_assoc name emitted) then Some (name ^ ": named in BENCHMARK.json, not emitted")
        else if M.unit_of name <> unit then
          Some (Printf.sprintf "%s: unit %s in BENCHMARK.json, %s emitted" name unit (M.unit_of name))
        else None)
      from_file
  in
  let listed =
    if benchmark = None then []
    else
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name from_file then None else Some (name ^ ": emitted, not in BENCHMARK.json"))
        emitted
  in
  let residual = List.assoc "ledger.residual_sim_us" layers in
  named @ listed
  @ if residual = 0. then [] else [ Printf.sprintf "ledger residual %g us, not 0" residual ]

let () =
  let workload = ref "all" and seed = ref 0x5EED and seconds = ref 10. in
  let trace = ref false and quick = ref false and benchmark = ref None in
  let usage = "pfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat " | " (List.map (fun w -> w.W.name) W.all) ^ " | all (default)");
      ("--seed", Arg.String (fun s -> seed := int_of_string s), "N  traffic seed (default 0x5EED)");
      ("--seconds", Arg.Set_float seconds, "S  measured time per workload (default 10)");
      ("--trace", Arg.Int (fun i -> trace := i <> 0), "0|1  per-layer metrics from a traced repetition");
      ("--quick", Arg.Set quick, " smoke test: 2000 packets, one measured repetition, every check");
      ("--benchmark", Arg.String (fun s -> benchmark := Some s),
       "FILE  with --quick, check metric names and units against this BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let workloads =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("pfbench: unknown workload " ^ !workload);
        exit 2
  in
  (match Pin.mismatches () with
  | [] -> ()
  | ms ->
    List.iter
      (fun (name, got, want) ->
        Printf.eprintf "pfbench: Costs.microvax_ii.%s = %d, pinned %d\n" name got want)
      ms;
    prerr_endline "pfbench: the cost model moved; refusing to report simulated metrics";
    exit 3);
  let states =
    List.map
      (fun w -> prepare ~seed:!seed ~packets:(if !quick then 2_000 else w.W.packets) w)
      workloads
  in
  let min_reps = if !quick then 1 else 3 in
  let budget = if !quick then 0. else !seconds *. 1e9 *. float_of_int (List.length states) in
  let h0 = Rep.now_ns () in
  while
    List.exists (fun st -> List.length st.traffic_ns < min_reps) states
    || Rep.now_ns () -. h0 < budget
  do
    List.iter (measure_round ~quick:!quick) states
  done;
  let all_ok = ref true in
  List.iter
    (fun st ->
      let w = st.inp.W.w in
      let e2e = e2e st in
      let layers =
        if !trace || !quick then layers st ~read_calls:(if !quick then 50 else 2000) else []
      in
      let problems =
        List.rev st.problems
        @ if !quick then smoke_problems ~benchmark:!benchmark ~e2e ~layers else []
      in
      Printf.printf "%s  seed %d  %d packets at %g pps  %d measured reps + 1 warm-up  %d set-up samples\n"
        w.W.name !seed (Array.length st.inp.W.frames) w.W.rate_pps (List.length st.traffic_ns)
        (List.length st.setups);
      print_rows "end to end" e2e;
      if layers <> [] then print_rows "per layer (traced repetition)" layers;
      List.iter
        (fun p ->
          Printf.printf "  FAILED: %s\n" p;
          Printf.eprintf "pfbench: %s: %s\n" w.W.name p)
        problems;
      if problems <> [] then all_ok := false;
      if List.length states = 1 then
        json_line ~correct:(problems = []) ~attempted:st.attempted ~failed:st.failed
          (if !trace then layers else e2e))
    states;
  if not !all_ok then exit 1
