(* The stochastic superoptimizer's payoff, measured offline in the
   register VM's simulated cost model, per builtin filter, with and without
   the search. The superoptimizer is an offline compiler: the kernel only
   ever runs [Regvm.compile] output.

   Every builtin is compiled twice — [Regvm.compile] (the optimizing
   pipeline alone) and [Regvm.compile_super] (pipeline + proof-gated MCMC
   search) — and both run the same deterministic packet mix (fixed-seed
   fuzz packets: overwhelmingly rejects, as on a real wire where most
   traffic is for someone else). Each packet is charged what a one-port,
   cache-off kernel charges it under the register-VM engine: [regvm_apply]
   plus [regvm_insn] per {e executed} IR instruction, and the reader
   [wakeup] when the filter accepts. The early exits the search
   rediscovers in the naive "blender" filters show up directly as demux
   microseconds.

   Gates (the CI criteria this experiment exists for):
     - never worse: no filter's demux CPU may exceed the [Regvm.compile]
       figure;
     - the win class exists: >= 25% of the corpus improves by >= 5%;
     - both compilers agree on every verdict.

   A second table sweeps the search budget and counts, at each budget, how
   many filters the search improves (by the static cost model) — the
   win-vs-budget curve that BENCH_superopt.json records. *)

open Util
module Filter = Pf_filter
module Gen = Pf_fuzz.Gen

let n_packets = 400
let win_threshold_pct = 5.0

let corpus =
  List.filter_map
    (fun (name, p) ->
      Result.to_option (Filter.Validate.check p) |> Option.map (fun v -> (name, v)))
    Filter.Predicates.builtins

let packets =
  lazy
    (let rng = Gen.Rng.make 0x5EED in
     List.init n_packets (fun _ -> fst (Gen.packet rng)))

let measure vm =
  let costs = Pf_sim.Costs.microvax_ii in
  let charge (us, verdicts) pkt =
    let ok, insns = Filter.Regvm.run_counted vm pkt in
    ( us + costs.Pf_sim.Costs.regvm_apply
      + (insns * costs.Pf_sim.Costs.regvm_insn)
      + (if ok then costs.Pf_sim.Costs.wakeup else 0),
      ok :: verdicts )
  in
  let us, verdicts = List.fold_left charge (0, []) (Lazy.force packets) in
  (float_of_int us, List.rev verdicts)

let budget_curve () =
  let budgets = [ 50; 125; 250; 500 ] in
  let memo = Filter.Equiv.Memo.create () in
  let rows =
    List.map
      (fun budget ->
        let wins =
          List.fold_left
            (fun wins (_, v) ->
              let o =
                Filter.Superopt.search ~budget ~seed:Filter.Superopt.default_seed
                  ~memo
                  (fst (Filter.Regopt.optimize v))
              in
              if o.Filter.Superopt.best_cost < o.Filter.Superopt.initial_cost
              then wins + 1
              else wins)
            0 corpus
        in
        record_metric (Printf.sprintf "superopt_wins_budget_%d" budget)
          (float_of_int wins);
        { metric = Printf.sprintf "filters improved, budget %d" budget;
          paper = "n/a";
          ours = Printf.sprintf "%d of %d" wins (List.length corpus) })
      budgets
  in
  print_table ~title:"Superoptimizer: win-vs-budget curve (static cost model)"
    ~note:
      "note: number of builtin filters whose searched program is strictly\n\
       cheaper than the certified pipeline output, per proposal budget;\n\
       fixed seed, shared equivalence memo."
    rows

let run () =
  let results =
    List.map
      (fun (name, v) ->
        let regvm_us, v_regvm = measure (Filter.Regvm.compile v) in
        let super_vm, _, _ = Filter.Regvm.compile_super v in
        let super_us, v_super = measure super_vm in
        if v_regvm <> v_super then
          failwith
            (Printf.sprintf "superopt: %s verdicts diverge between compilers"
               name);
        let reduction =
          if regvm_us > 0. then 100. *. (regvm_us -. super_us) /. regvm_us
          else 0.
        in
        (name, regvm_us, super_us, reduction))
      corpus
  in
  print_table
    ~title:
      (Printf.sprintf
         "Superoptimizer: register-VM demux CPU per builtin (%d packets)"
         n_packets)
    ~note:
      "note: 'paper' column = Regvm.compile (optimizing pipeline); 'ours' =\n\
       Regvm.compile_super (certified pipeline + proof-gated search). The VM\n\
       charges per executed IR instruction, so rediscovered early exits\n\
       cut the rejected-traffic walk directly."
    (List.map
       (fun (name, regvm_us, super_us, reduction) ->
         { metric = name;
           paper = Printf.sprintf "%.0f uSec" regvm_us;
           ours = Printf.sprintf "%.0f uSec (%.1f%%)" super_us reduction })
       results);
  let wins =
    List.filter (fun (_, _, _, r) -> r >= win_threshold_pct) results
  in
  let regressions =
    List.filter (fun (_, regvm_us, super_us, _) -> super_us > regvm_us) results
  in
  record_metric "superopt_corpus_filters" (float_of_int (List.length results));
  record_metric "superopt_demux_wins" (float_of_int (List.length wins));
  record_metric "superopt_regressions" (float_of_int (List.length regressions));
  List.iter
    (fun (name, _, _, reduction) ->
      let slug =
        String.map
          (function 'a' .. 'z' | '0' .. '9' as c -> c | _ -> '_')
          (String.lowercase_ascii name)
      in
      record_metric (Printf.sprintf "superopt_reduction_pct_%s" slug) reduction)
    results;
  budget_curve ();
  (* The CI gates: the search must never lose, and must win where the win
     class lives — >= 5% demux reduction on >= 25% of the corpus. *)
  (match regressions with
  | [] -> ()
  | (name, regvm_us, super_us, _) :: _ ->
    failwith
      (Printf.sprintf "superopt regression: %s demux %.1f uSec > regvm %.1f"
         name super_us regvm_us));
  if 4 * List.length wins < List.length results then
    failwith
      (Printf.sprintf
         "superopt under-delivers: only %d of %d filters improved >= %.0f%%"
         (List.length wins) (List.length results) win_threshold_pct)
