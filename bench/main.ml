(* The experiment harness: regenerates every table in the paper's
   evaluation (section 6) from the simulation, printing the paper's numbers
   next to ours, then runs the ablations and wall-clock microbenchmarks.

   Usage:  dune exec bench/main.exe              (everything)
           dune exec bench/main.exe -- send vmtp (selected experiments)
           dune exec bench/main.exe -- --list
           dune exec bench/main.exe -- --json [names]
                                     (also write the recorded metrics, one
                                     BENCH_*.json per experiment family) *)

let experiments =
  [
    ("profile", "§6.1 kernel per-packet processing time", Exp_profile.run);
    ("send", "Table 6-1 cost of sending packets", Exp_send.run);
    ("vmtp", "Tables 6-2..6-5 VMTP latency/bulk/batching/user-demux", Exp_vmtp.run);
    ("stream", "Table 6-6 BSP vs TCP byte streams (+FTP)", Exp_stream.run);
    ("telnet", "Table 6-7 Telnet output rates", Exp_telnet.run);
    ("demux", "Tables 6-8..6-10 demultiplexing and filter costs", Exp_demux.run);
    ("cache", "Demux flow cache on a skewed traffic mix", Exp_cache.run);
    ("ir", "Register-IR compile strategies on the §6 filter mix", Exp_ir.run);
    ("dispatch", "Demux scaling: dispatch automaton vs linear walk (10 -> 10k ports)",
     Exp_dispatch.run);
    ("smp", "Multi-CPU receive scaling with RSS steering (1 -> 8 CPUs)", Exp_smp.run);
    ("figures", "Figures 2-1/2-2, 2-3, 3-4/3-5 cost decompositions", Exp_figures.run);
    ("ablation", "Design ablations", Exp_ablation.run);
    ("wallclock", "Bechamel wall-clock microbenchmarks of the filter engines",
     Exp_ablation.bechamel_suite);
  ]


let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--json") args in
  (match args with
  | [ "--list" ] ->
    List.iter (fun (name, descr, _) -> Printf.printf "%-10s %s\n" name descr) experiments
  | [] ->
    print_endline "The Packet Filter (Mogul, Rashid & Accetta, SOSP 1987) — reproduction";
    print_endline "=====================================================================";
    print_endline
      "All timings from the calibrated MicroVAX-II/Ultrix-1.2 simulation\n\
       (DESIGN.md documents the calibration; absolute numbers are modeled,\n\
       shapes are measured).";
    List.iter (fun (_, _, run) -> run ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S (try --list)\n" name;
          exit 1)
      names);
  if json then begin
    (* Each experiment family owns exactly one artifact (CI fails if any
       two BENCH_*.json files come out identical): the register-IR,
       dispatch and wall-clock ablation metrics go to their own files,
       everything else — the §6 demux tables, the flow cache, the
       interpreter profile — to the original BENCH_demux.json. *)
    Util.write_json_excluding "BENCH_demux.json"
      ~prefixes:[ "ir_"; "dispatch_"; "smp_"; "ablation_" ];
    Util.write_json_filtered "BENCH_ir.json" ~prefix:"ir_";
    Util.write_json_filtered "BENCH_dispatch.json" ~prefix:"dispatch_";
    Util.write_json_filtered "BENCH_smp.json" ~prefix:"smp_";
    Util.write_json_filtered "BENCH_ablation.json" ~prefix:"ablation_"
  end
