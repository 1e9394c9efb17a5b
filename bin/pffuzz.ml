(* pffuzz — differential fuzzer over every filter engine.

   A campaign is a pure function of its seed: case [i] of campaign [s] is
   always the same (program, packet) pair, on every machine. So the whole
   reproduction story is two integers:

     pffuzz --seed 42 --iters 100000     # hunt
     pffuzz --seed 42 --index 8191       # replay one failing case

   Exit status 0 means every case agreed (modulo the documented `Paper/`Bsd
   and validator-rejection boundaries); 1 means a disagreement was found —
   the report includes the shrunk reproducer and the replay command. *)

open Cmdliner
module Runner = Pf_fuzz.Runner
module Gen = Pf_fuzz.Gen
module Oracle = Pf_fuzz.Oracle
module Sancase = Pf_fuzz.Sancase

let replay ~seed ~index =
  let case, outcome = Runner.run_case ~seed ~index () in
  Format.printf "@[<v>case %d of seed %d (%s, %s):@,@[<v 2>program:@,%a@]@,packet: %a@,%a@]@."
    index seed
    (match case.Gen.kind with `Valid -> "valid" | `Malformed -> "malformed")
    case.Gen.shape Pf_filter.Program.pp case.Gen.program Pf_pkt.Packet.pp_hex
    case.Gen.packet Oracle.pp_outcome outcome;
  match outcome with Oracle.Disagreement _ -> 1 | _ -> 0

(* Run [iters] cases, or as many as [seconds] of wall clock allow, with
   progress on stderr every [every] cases unless [quiet]. [run] returns the
   number of cases run, whether any failed, and the summary printer. The
   summary goes to stdout and the timing line to stderr, so stdout is a
   pure function of the seed and the case count. *)
let drive ~seconds ~iters ~quiet ~every run =
  let should_stop =
    match seconds with
    | None -> fun () -> false
    | Some s ->
      let deadline = Unix.gettimeofday () +. s in
      fun () -> Unix.gettimeofday () >= deadline
  in
  let iters = match seconds with Some _ -> max_int | None -> iters in
  let progress i =
    if (not quiet) && i mod every = 0 then Printf.eprintf "pffuzz: %d cases...\r%!" i
  in
  let t0 = Unix.gettimeofday () in
  let cases, failed, summary = run ~should_stop ~progress ~iters in
  let dt = Unix.gettimeofday () -. t0 in
  if not quiet then Printf.eprintf "\n%!";
  summary ();
  Printf.eprintf "%.1fs, %.1f cases/s\n%!" dt (float_of_int cases /. dt);
  if failed then 1 else 0

let campaign ~seed ~iters ~seconds ~max_failures ~quiet =
  drive ~seconds ~iters ~quiet ~every:5000 (fun ~should_stop ~progress ~iters ->
      let stats = Runner.run ~max_failures ~should_stop ~progress ~seed ~iters () in
      ( stats.Runner.cases,
        stats.Runner.failures <> [],
        fun () -> Format.printf "%a@." Runner.pp_stats stats ))

(* The sanitizer campaign (--san): whole SMP receive scenarios with Pfsan
   attached, no differential oracle — the report list is the verdict.
   Clean kernel must stay silent; with --mutant, exit 1 means "caught". *)
let san_replay ~mutant ~seed ~index =
  let case = Sancase.case ~seed ~index in
  let reports = Sancase.run_scenario ?mutant case in
  Format.printf "@[<v>san case %d of seed %d%s: ncpus=%d flows=%d packets=%d@,"
    index seed
    (match mutant with
    | Some m -> Printf.sprintf " (mutant %s)" (Sancase.mutant_name m)
    | None -> "")
    case.Sancase.ncpus case.Sancase.flows case.Sancase.packets;
  (match reports with
  | [] -> Format.printf "no sanitizer reports@]@."
  | rs ->
      List.iter (fun r -> Format.printf "%a@," Pf_sim.San.pp_report r) rs;
      Format.printf "%d report(s)@]@." (List.length rs));
  if reports = [] then 0 else 1

let san_campaign ~mutant ~seed ~iters ~seconds ~max_failures ~quiet =
  drive ~seconds ~iters ~quiet ~every:20 (fun ~should_stop ~progress ~iters ->
      let stats =
        Sancase.run ~max_failures ~should_stop ~progress ?mutant ~seed ~iters ()
      in
      ( stats.Sancase.cases,
        stats.Sancase.failures <> [],
        fun () -> Format.printf "%a@." Sancase.pp_stats stats ))

let main san mutant seed iters index seconds max_failures quiet =
  let mutant =
    match mutant with
    | None -> None
    | Some name -> (
        match Sancase.mutant_of_string name with
        | Some m -> Some m
        | None ->
            Printf.eprintf "pffuzz: unknown mutant %S (expected one of: %s)\n"
              name
              (String.concat ", "
                 (List.map Sancase.mutant_name Sancase.all_mutants));
            exit 2)
  in
  if san then
    match index with
    | Some index -> san_replay ~mutant ~seed ~index
    | None -> san_campaign ~mutant ~seed ~iters ~seconds ~max_failures ~quiet
  else
    match index with
    | Some index -> replay ~seed ~index
    | None -> campaign ~seed ~iters ~seconds ~max_failures ~quiet

let cmd =
  let san =
    Arg.(value & flag
         & info [ "san" ]
             ~doc:"Fuzz with the concurrency sanitizer as the oracle: seeded \
                   SMP receive scenarios, zero Pfsan reports expected on the \
                   clean kernel.")
  in
  let mutant =
    Arg.(value & opt (some string) None
         & info [ "mutant" ] ~docv:"NAME"
             ~doc:"With $(b,--san): enable a seeded concurrency mutant \
                   (skip-remote-invalidation, skip-install-invalidation, \
                   skip-delivery-lock); the campaign then expects the \
                   sanitizer to catch and shrink it.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let iters =
    Arg.(value & opt int 10_000 & info [ "iters" ] ~docv:"M" ~doc:"Number of cases to run.")
  in
  let index =
    Arg.(value & opt (some int) None
         & info [ "index" ] ~docv:"I" ~doc:"Replay a single case by campaign index and exit.")
  in
  let seconds =
    Arg.(value & opt (some float) None
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Run for a wall-clock budget instead of a case count (used by CI).")
  in
  let max_failures =
    Arg.(value & opt int 5
         & info [ "max-failures" ] ~docv:"K" ~doc:"Stop after K shrunk disagreements.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.") in
  Cmd.v
    (Cmd.info "pffuzz" ~doc:"Differential fuzzer: one oracle over every packet-filter engine")
    Term.(const main $ san $ mutant $ seed $ iters $ index $ seconds
          $ max_failures $ quiet)

let () = exit (Cmd.eval' cmd)
