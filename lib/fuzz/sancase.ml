(* Sanitizer-driven concurrency fuzzing: the oracle is Pfsan itself. A
   case is a whole SMP receive scenario — seeded flows, steered traffic,
   an acceptor-changing reconfiguration mid-stream — and the pass/fail
   signal is the sanitizer's report list, not a differential comparison.
   Clean kernel: zero reports at every CPU count, or the case is a
   failure. Seeded mutant: the sanitizer must catch it, and the catch is
   shrunk to the smallest scenario that still reports. *)

module Engine = Pf_sim.Engine
module San = Pf_sim.San
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Tgen = Pf_monitor.Traffic.Gen
module Pfdev = Pf_kernel.Pfdev
module Host = Pf_kernel.Host

type mutant =
  | Skip_remote_invalidation
  | Skip_install_invalidation
  | Skip_delivery_lock

let all_mutants =
  [ Skip_remote_invalidation; Skip_install_invalidation; Skip_delivery_lock ]

let mutant_name = function
  | Skip_remote_invalidation -> "skip-remote-invalidation"
  | Skip_install_invalidation -> "skip-install-invalidation"
  | Skip_delivery_lock -> "skip-delivery-lock"

let mutant_of_string s =
  List.find_opt (fun m -> mutant_name m = s) all_mutants

let mutant_flag = function
  | Skip_remote_invalidation -> Pfdev.For_testing.skip_remote_invalidation
  | Skip_install_invalidation -> Pfdev.For_testing.skip_install_invalidation
  | Skip_delivery_lock -> Pfdev.For_testing.skip_delivery_lock

type case = {
  index : int;
  ncpus : int;
  flows : int;
  packets : int;
  tseed : int;
}

(* Distinct stream tag so san cases never correlate with the filter
   campaign run under the same seed. *)
let case ~seed ~index =
  let rng = Gen.Rng.derive ~seed:(seed lxor 0x73616e63) ~index in
  let ncpus = Gen.Rng.choose rng [ 1; 2; 4; 8 ] in
  let flows = 4 + Gen.Rng.int rng 21 in
  let packets = 20 + Gen.Rng.int rng 181 in
  let tseed = Gen.Rng.int rng 0x3FFF_FFFF in
  { index; ncpus; flows; packets; tseed }

(* Build a fresh host, install one port per flow (descending, as the
   benches do), inject the drawn sequence; with [reinstall], reinstall the
   first flow's filter — a genuine install, so the clean kernel broadcasts
   a full invalidation — then replay the same sequence against the
   now re-published table. Replaying identical traffic is what makes the
   missing-invalidation mutants observable: the second pass probes per-CPU
   caches warmed before the reconfiguration. *)
let scenario ?mutant ?san ~zipf ~reinstall c =
  let set v = Option.iter (fun m -> mutant_flag m := v) mutant in
  Fun.protect
    ~finally:(fun () -> set false)
    (fun () ->
      set true;
      let eng = Engine.create () in
      let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
      let h = Host.create ~ncpus:c.ncpus link ~name:"rx" ~addr:(Addr.eth_host 2) in
      Option.iter (Host.attach_san h) san;
      let pf = Host.pf h in
      let gen = Tgen.make ~seed:c.tseed ~flows:c.flows ~skew:(Tgen.Zipf zipf) () in
      let install what p program =
        match Pfdev.set_filter p program with
        | Ok () -> ()
        | Error e ->
          invalid_arg (Format.asprintf "sancase: %s rejected: %a" what Pfdev.pp_install_error e)
      in
      let first_port = ref None in
      for i = c.flows - 1 downto 0 do
        let p = Pfdev.open_port pf in
        install "generated filter" p (Tgen.filter (Tgen.flow gen i));
        Pfdev.set_queue_limit p c.packets;
        if i = 0 then first_port := Some p
      done;
      Engine.run eng;
      let seq = Tgen.sequence gen c.packets in
      let replay () =
        List.iter (fun f -> Host.inject h (Tgen.frame f)) seq;
        Engine.run eng
      in
      replay ();
      if reinstall then begin
        Option.iter
          (fun p -> install "reinstall" p (Tgen.filter ~priority:1 (Tgen.flow gen 0)))
          !first_port;
        Engine.run eng;
        replay ()
      end;
      pf)

let run_scenario ?mutant c =
  let san = San.create ~ncpus:c.ncpus () in
  ignore (scenario ?mutant ~san ~zipf:1.1 ~reinstall:true c : Pfdev.t);
  San.reports san

type failure = {
  index : int;
  case : case;
  reports : San.report list;
  shrunk : case;
  shrunk_reports : San.report list;
  repro : string;
}

type stats = {
  seed : int;
  mutant : mutant option;
  cases : int;
  reported_cases : int;
  failures : failure list;
}

let repro_command ?mutant ~seed ~index () =
  let m =
    match mutant with
    | Some m -> Printf.sprintf " --mutant %s" (mutant_name m)
    | None -> ""
  in
  Printf.sprintf "pffuzz --san%s --seed 0x%x --index %d" m seed index

(* Greedy fix-point: fewer CPUs first (the strongest reduction — it names
   the minimal concurrency that still violates), then fewer flows, then
   fewer packets. [keep] re-runs the whole scenario, so every accepted
   step is a real, still-reporting witness. *)
let shrink ~keep c =
  let try_dim current candidates =
    List.fold_left (fun acc cand -> if keep cand then cand else acc) current
      (List.filter (fun cand -> cand <> current) candidates)
  in
  let shrink_once c =
    let c =
      try_dim c
        (List.filter_map
           (fun n -> if n < c.ncpus then Some { c with ncpus = n } else None)
           [ 1; 2; 4 ])
    in
    let c =
      try_dim c
        (List.filter_map
           (fun f -> if f < c.flows && f >= 1 then Some { c with flows = f } else None)
           [ 1; 2; c.flows / 2; c.flows - 1 ])
    in
    try_dim c
      (List.filter_map
         (fun p -> if p < c.packets && p >= 1 then Some { c with packets = p } else None)
         [ 1; 2; c.packets / 4; c.packets / 2; c.packets - 1 ])
  in
  let rec fix c =
    let c' = shrink_once c in
    if c' = c then c else fix c'
  in
  fix c

let kinds_of reports =
  List.sort_uniq compare (List.map (fun (r : San.report) -> r.San.kind) reports)

let run ?(max_failures = 3) ?(should_stop = fun () -> false)
    ?(progress = fun _ -> ()) ?mutant ~seed ~iters () =
  let cases = ref 0 and reported_cases = ref 0 in
  let failures = ref [] in
  let index = ref 0 in
  while
    !index < iters
    && List.length !failures < max_failures
    && not (should_stop ())
  do
    let i = !index in
    let c = case ~seed ~index:i in
    incr cases;
    let reports = run_scenario ?mutant c in
    if reports <> [] then begin
      incr reported_cases;
      (* Shrinking must preserve the catch, not just "some report": keep a
         candidate only if it still reports at least one of the original
         violation kinds. *)
      let orig_kinds = kinds_of reports in
      let keep cand =
        let rs = run_scenario ?mutant cand in
        List.exists (fun k -> List.mem k orig_kinds) (kinds_of rs)
      in
      let shrunk = shrink ~keep c in
      let shrunk_reports = run_scenario ?mutant shrunk in
      failures :=
        {
          index = i;
          case = c;
          reports;
          shrunk;
          shrunk_reports;
          repro = repro_command ?mutant ~seed ~index:i ();
        }
        :: !failures
    end;
    progress !cases;
    incr index
  done;
  {
    seed;
    mutant;
    cases = !cases;
    reported_cases = !reported_cases;
    failures = List.rev !failures;
  }

let pp_case ppf c =
  Format.fprintf ppf "ncpus=%d flows=%d packets=%d tseed=0x%x" c.ncpus c.flows
    c.packets c.tseed

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>case %d: %a -> %d report(s)@," f.index pp_case f.case
    (List.length f.reports);
  Format.fprintf ppf "shrunk: %a@," pp_case f.shrunk;
  List.iter
    (fun r -> Format.fprintf ppf "  %a@," San.pp_report r)
    f.shrunk_reports;
  Format.fprintf ppf "repro: %s@]" f.repro

let pp_stats ppf s =
  let label =
    match s.mutant with
    | None -> "clean kernel"
    | Some m -> "mutant " ^ mutant_name m
  in
  Format.fprintf ppf "@[<v>san campaign (seed 0x%x, %s): %d cases, %d reported@,"
    s.seed label s.cases s.reported_cases;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_failure f) s.failures;
  (match (s.mutant, s.failures) with
  | None, [] -> Format.fprintf ppf "no sanitizer reports: clean@,"
  | None, _ -> Format.fprintf ppf "SANITIZER REPORTS ON CLEAN KERNEL@,"
  | Some _, [] -> Format.fprintf ppf "MUTANT ESCAPED THE SANITIZER@,"
  | Some _, _ -> Format.fprintf ppf "mutant caught and shrunk@,");
  Format.fprintf ppf "@]"
