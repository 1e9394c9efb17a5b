(* pftool — assemble, disassemble, validate, and run packet filters.

   The text syntax is one instruction per line ("pushword+8", "pushlit cand
   35", ...; '#' comments), the wire format is the paper's struct enfilter
   (priority word, length word, 16-bit code words).

     pftool asm FILE          assemble, validate, print the wire encoding
     pftool disasm W0 W1 ...  decode wire words back to text
     pftool run FILE HEX      run a filter over a packet given as hex bytes
     pftool examples          print the paper's figure 3-8 and 3-9 filters *)

open Pf_filter
open Cmdliner

let read_program path =
  let content =
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  match Program.of_string content with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "pftool: %s\n" e;
    exit 1

let report_validation program =
  match Validate.check program with
  | Ok v ->
    Printf.printf "valid: needs >= %d packet words%s%s\n" v.Validate.min_packet_words
      (if v.Validate.has_indirect then ", uses indirect push (§7 extension)" else "")
      (if Program.uses_extensions program then ", uses post-1987 extensions" else "")
  | Error e -> Format.printf "INVALID: %a@." Validate.pp_error e

let report_analysis program =
  match Validate.check program with
  | Error _ -> () (* report_validation already printed the error *)
  | Ok v -> Format.printf "%a@." Analysis.pp (Analysis.analyze v)

let asm_cmd =
  let file = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Filter source ('-' for stdin).") in
  let run file =
    let program = read_program file in
    Format.printf "%a@." Program.pp program;
    Printf.printf "wire: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%04x") (Program.encode program)));
    Printf.printf "%d instructions, %d code words\n" (Program.insn_count program)
      (Program.code_words program);
    report_validation program;
    report_analysis program
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a filter and print its wire encoding")
    Term.(const run $ file)

let disasm_cmd =
  let words =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORD" ~doc:"16-bit code words in hex.")
  in
  let run words =
    let parse w =
      match int_of_string_opt ("0x" ^ w) with
      | Some v -> v
      | None ->
        Printf.eprintf "pftool: bad hex word %S\n" w;
        exit 1
    in
    match Program.decode (List.map parse words) with
    | Ok p ->
      Format.printf "%a@." Program.pp p;
      report_validation p
    | Error e ->
      Format.eprintf "pftool: %a@." Program.pp_decode_error e;
      exit 1
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Decode wire words back to filter text")
    Term.(const run $ words)

let parse_hex_packet s =
  let s = String.concat "" (String.split_on_char ' ' s) in
  if String.length s mod 2 <> 0 then begin
    Printf.eprintf "pftool: odd number of hex digits\n";
    exit 1
  end;
  let n = String.length s / 2 in
  let b = Bytes.create n in
  (try
     for i = 0 to n - 1 do
       Bytes.set_uint8 b i (int_of_string ("0x" ^ String.sub s (2 * i) 2))
     done
   with _ ->
     Printf.eprintf "pftool: bad hex packet\n";
     exit 1);
  Pf_pkt.Packet.of_bytes b

let run_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Filter source.") in
  let hex = Arg.(required & pos 1 (some string) None & info [] ~docv:"HEX" ~doc:"Packet bytes in hex.") in
  let run file hex =
    let program = read_program file in
    let packet = parse_hex_packet hex in
    Format.printf "packet:@.%a@." Pf_pkt.Packet.pp_hex packet;
    let outcome = Interp.run program packet in
    Printf.printf "verdict: %s (%d of %d instructions executed)\n"
      (if outcome.Interp.accept then "ACCEPT" else "REJECT")
      outcome.Interp.insns_executed (Program.insn_count program);
    match outcome.Interp.error with
    | Some e -> Format.printf "rejected by runtime check: %a@." Interp.pp_error e
    | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate a filter over a packet") Term.(const run $ file $ hex)

let compile_cmd =
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR"
           ~doc:"Predicate in expression syntax, e.g. 'pup.dstsocket.lo == 35 && ether.type == 2'.")
  in
  let dix =
    Arg.(value & flag & info [ "10mb" ] ~doc:"Use 10Mb-Ethernet field offsets (default: 3Mb experimental).")
  in
  let run expr dix =
    let variant = if dix then `Dix10 else `Exp3 in
    match Parse.compile ~variant expr with
    | Error e ->
      Printf.eprintf "pftool: %s\n" e;
      exit 1
    | Ok program ->
      Format.printf "%a@." Program.pp program;
      Printf.printf "wire: %s\n"
        (String.concat " " (List.map (Printf.sprintf "%04x") (Program.encode program)));
      report_validation program
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an expression to a filter program"
       ~man:
         [ `S "FIELDS";
           `P "Known field names (3Mb experimental Ethernet unless --10mb):";
           `Pre
             (String.concat "\n"
                (List.map (fun (n, d) -> Printf.sprintf "  %-20s %s" n d) (Parse.fields `Exp3)));
           `Pre
             (String.concat "\n"
                (List.map (fun (n, d) -> Printf.sprintf "  %-20s %s (10mb)" n d)
                   (Parse.fields `Dix10)));
         ])
    Term.(const run $ expr $ dix)

let fields_cmd =
  let run () =
    List.iter
      (fun (variant, label) ->
        Printf.printf "%s:\n" label;
        List.iter (fun (n, d) -> Printf.printf "  %-20s %s\n" n d) (Parse.fields variant))
      [ (`Exp3, "3Mb experimental Ethernet"); (`Dix10, "10Mb Ethernet") ]
  in
  Cmd.v (Cmd.info "fields" ~doc:"List field names usable in expressions")
    Term.(const run $ const ())

let examples_cmd =
  let run () =
    Format.printf "# Figure 3-8: Pup packets with 0 < PupType <= 100@.%a@."
      Program.pp Predicates.fig_3_8;
    report_analysis Predicates.fig_3_8;
    Format.printf "@.# Figure 3-9: Pup DstSocket = 35, short-circuit@.%a@."
      Program.pp Predicates.fig_3_9;
    report_analysis Predicates.fig_3_9
  in
  Cmd.v (Cmd.info "examples" ~doc:"Print the paper's example filters") Term.(const run $ const ())

(* The filters the examples and protocol libraries install, plus the paper's
   two figures and the naive blender variants — the corpus `pftool lint
   --builtin` checks in CI. Hoisted into the library so the bench gates and
   the CLIs sweep the same list. *)
let builtin_filters = Predicates.builtins

(* The filters a corpus command works on: the FILE arguments, then the
   built-ins under [--builtin]. Exits 2 when that leaves nothing to
   [verb]. *)
let corpus ~verb =
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:(Printf.sprintf "Filter sources to %s." verb))
  in
  let builtin =
    Arg.(value & flag
         & info [ "builtin" ]
             ~doc:
               (Printf.sprintf
                  "Also %s the built-in filters (the paper's figures and every \
                   filter the examples install)." verb))
  in
  let read files builtin =
    let targets =
      List.map (fun f -> (f, read_program f)) files
      @ (if builtin then builtin_filters else [])
    in
    if targets = [] then begin
      Printf.eprintf "pftool: nothing to %s (give FILE arguments or --builtin)\n" verb;
      exit 2
    end;
    targets
  in
  Term.(const read $ files $ builtin)

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit one JSON document on stdout instead of text, for CI \
                 and downstream tooling.")

(* Minimal JSON emission (no JSON library in the toolchain; the subset we
   emit is flat strings/ints/bools, so hand-rolling stays honest). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = Printf.sprintf "\"%s\"" (json_escape s)

let json_obj fields =
  Printf.sprintf "{%s}"
    (String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields))

let json_arr items = Printf.sprintf "[%s]" (String.concat "," items)

let hex_of_packet p =
  let b = Pf_pkt.Packet.to_bytes p in
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let lint_cmd =
  (* name, validation result, and the lint findings (empty = clean) *)
  let lint_one (name, program) =
    match Validate.check program with
    | Error e -> (name, Error (Format.asprintf "%a" Validate.pp_error e), [])
    | Ok v ->
      let a = Analysis.analyze v in
      let faults =
        match a.Analysis.terminates_at with
        | Some (_, Analysis.Faults) -> true
        | _ -> false
      in
      let findings =
        if faults then [ "provably faults on every packet" ]
        else if a.Analysis.verdict = Analysis.Always_reject then
          [ "can never accept a packet" ]
        else []
      in
      (name, Ok a, findings)
  in
  let print_text results =
    List.iter
      (fun (name, validation, findings) ->
        Format.printf "== %s ==@." name;
        (match validation with
        | Error e -> Format.printf "INVALID: %s@." e
        | Ok a ->
          Format.printf "%a@." Analysis.pp a;
          List.iter (Format.printf "LINT: %s@.") findings);
        Format.printf "@.")
      results
  in
  let print_json results failures =
    let filters =
      List.map
        (fun (name, validation, findings) ->
          match validation with
          | Error e ->
            json_obj
              [ ("name", json_str name); ("valid", "false"); ("error", json_str e) ]
          | Ok a ->
            json_obj
              [ ("name", json_str name);
                ("valid", "true");
                ("verdict", json_str (Format.asprintf "%a" Analysis.pp_verdict a.Analysis.verdict));
                ("cost_bound", string_of_int a.Analysis.cost_bound);
                ("read_set", json_str (Format.asprintf "%a" Analysis.pp_read_set a.Analysis.read_set));
                ("findings", json_arr (List.map json_str findings));
                ("ok", if findings = [] then "true" else "false")
              ])
        results
    in
    print_string
      (json_obj
         [ ("filters", json_arr filters); ("failures", string_of_int failures) ]);
    print_newline ()
  in
  let run targets json =
    let results = List.map lint_one targets in
    let failures =
      List.length
        (List.filter
           (fun (_, validation, findings) ->
             (match validation with Error _ -> true | Ok _ -> false)
             || findings <> [])
           results)
    in
    if json then print_json results failures else print_text results;
    if failures > 0 then begin
      if not json then
        Printf.printf "%d of %d filters failed the lint\n" failures (List.length targets);
      exit 1
    end;
    if not json then
      Printf.printf "%d filters linted, all can accept\n" (List.length targets)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Analyze filters and fail on ones that can never accept a packet \
          (always-reject verdicts and provable runtime faults)")
    Term.(const run $ corpus ~verb:"lint" $ json_flag)

let ir_cmd =
  let show_one (name, program) =
    Format.printf "== %s ==@." name;
    match Validate.check program with
    | Error e -> Format.printf "INVALID: %a@.@." Validate.pp_error e
    | Ok v ->
      let lowered = Ir.lower v in
      let optimized, report = Regopt.optimize v in
      Format.printf "-- lowered (%d instrs, %d loads)@.%a"
        (Ir.instr_count lowered) (Ir.load_count lowered) Ir.pp lowered;
      Format.printf "-- optimized (%d instrs, %d loads)@.%a"
        (Ir.instr_count optimized) (Ir.load_count optimized) Ir.pp optimized;
      Format.printf "-- passes:";
      List.iter (fun (pass, n) -> Format.printf " %s:%d" pass n) report.Regopt.passes;
      Format.printf "@.@."
  in
  let json_one (name, program) =
    match Validate.check program with
    | Error e ->
      json_obj
        [ ("name", json_str name); ("valid", "false");
          ("error", json_str (Format.asprintf "%a" Validate.pp_error e)) ]
    | Ok v ->
      let lowered = Ir.lower v in
      let optimized, report = Regopt.optimize v in
      json_obj
        [ ("name", json_str name);
          ("valid", "true");
          ("insns_before", string_of_int report.Regopt.insns_before);
          ("lowered_instrs", string_of_int (Ir.instr_count lowered));
          ("lowered_loads", string_of_int (Ir.load_count lowered));
          ("optimized_instrs", string_of_int (Ir.instr_count optimized));
          ("optimized_loads", string_of_int (Ir.load_count optimized));
          ("optimized_cost", string_of_int (Ir.cost optimized));
          ("passes",
           json_arr
             (List.map
                (fun (pass, n) ->
                  json_obj [ ("pass", json_str pass); ("changes", string_of_int n) ])
                report.Regopt.passes));
          ("source_code_words", string_of_int (Program.code_words program))
        ]
  in
  let run targets json =
    if json then begin
      print_string
        (json_obj
           [ ("filters", json_arr (List.map json_one targets));
             ("count", string_of_int (List.length targets)) ]);
      print_newline ()
    end
    else List.iter show_one targets
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:
         "Lower filters to the three-address register IR and show the \
          optimizer's work: the lowered and optimized IR side by side, \
          with per-pass change counts")
    Term.(const run $ corpus ~verb:"compile" $ json_flag)

let cache_cmd =
  let run targets =
    (* Per filter: the packet words it reads, i.e. the bytes the kernel's
       demux flow cache would have to key on to memoize its verdict. *)
    let union =
      List.fold_left
        (fun acc (name, program) ->
          match Validate.check program with
          | Error e ->
            Format.printf "%-28s INVALID: %a@." name Validate.pp_error e;
            acc
          | Ok v ->
            let rs = (Analysis.analyze v).Analysis.read_set in
            Format.printf "%-28s %a@." name Analysis.pp_read_set rs;
            Analysis.union_read_sets acc rs)
        (Analysis.Exact []) targets
    in
    Format.printf "@.union over all %d filters: %a@." (List.length targets)
      Analysis.pp_read_set union;
    match union with
    | Analysis.Exact idxs ->
      Format.printf "cacheable: the flow cache keys on %d packet word(s)@."
        (List.length idxs)
    | Analysis.Unbounded ->
      Format.printf
        "NOT cacheable: an unbounded read set (data-dependent indirect push) \
         forces the kernel to bypass the flow cache@."
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Show each filter's read set and whether a device installing these \
          filters gets the demultiplexing flow cache (an unbounded read set \
          disables it)")
    Term.(const run $ corpus ~verb:"analyze")

let dispatch_cmd =
  let run targets json =
    (* Compile the whole set into the cross-filter dispatch automaton, as a
       [`Dispatch]-strategy device would, and show what became of each
       filter: indexed (on which guard words), shadowed, residual, or
       dropped — then the group/slot structure classification pays for. *)
    let entries, invalid =
      List.fold_left
        (fun (entries, invalid) (name, program) ->
          match Validate.check program with
          | Error e ->
            if not json then
              Format.printf "%-28s INVALID: %a@." name Validate.pp_error e;
            (entries, invalid @ [ (name, Format.asprintf "%a" Validate.pp_error e) ])
          | Ok v -> (entries @ [ (v, name) ], invalid))
        ([], []) targets
    in
    let d = Pf_filter.Dispatch.build entries in
    let info = Pf_filter.Dispatch.info d in
    if json then begin
      let words_fields words =
        [ ("offsets", json_arr (List.map (fun (off, _) -> string_of_int off) words));
          ("masks", json_arr (List.map (fun (_, m) -> string_of_int m) words)) ]
      in
      let decision_fields = function
        | Dispatch.Indexed { words; exact } ->
          (("decision", json_str "indexed") :: words_fields words)
          @ [ ("exact", if exact then "true" else "false") ]
        | Dispatch.Shadowed { by } ->
          [ ("decision", json_str "shadowed"); ("by", string_of_int by) ]
        | Dispatch.Residual reason ->
          [ ("decision", json_str "residual");
            ("reason",
             json_str
               (match reason with
                | `Unbounded -> "unbounded"
                | `No_chain -> "no-chain"
                | `Excluded -> "excluded")) ]
        | Dispatch.Never_accepts -> [ ("decision", json_str "never-accepts") ]
      in
      let filters =
        List.map
          (fun (name, e) ->
            json_obj
              [ ("name", json_str name); ("decision", json_str "invalid");
                ("error", json_str e) ])
          invalid
        @ List.map
            (fun (rank, name, decision) ->
              json_obj
                (("name", json_str name) :: ("rank", string_of_int rank)
                 :: decision_fields decision))
            (Pf_filter.Dispatch.decisions d)
      in
      let groups =
        List.map
          (fun (g : Dispatch.group_info) ->
            json_obj
              (words_fields g.Dispatch.words
              @ [ ("slots", string_of_int g.Dispatch.slots);
                  ("members", string_of_int g.Dispatch.members);
                  ("exact_members", string_of_int g.Dispatch.exact_members) ]))
          info.Dispatch.groups
      in
      print_string
        (json_obj
           [ ("filters", json_arr filters);
             ("summary",
              json_obj
                [ ("filters", string_of_int info.Dispatch.filters);
                  ("indexed", string_of_int info.Dispatch.indexed);
                  ("residual", string_of_int info.Dispatch.residual);
                  ("residual_unbounded", string_of_int info.Dispatch.residual_unbounded);
                  ("residual_no_chain", string_of_int info.Dispatch.residual_no_chain);
                  ("residual_excluded", string_of_int info.Dispatch.residual_excluded);
                  ("never_accepts", string_of_int info.Dispatch.never_accepts);
                  ("shadowed", string_of_int info.Dispatch.shadowed);
                  ("max_prefix_depth", string_of_int info.Dispatch.max_prefix_depth);
                  ("groups", json_arr groups) ]);
             ("invalid", string_of_int (List.length invalid)) ]);
      print_newline ()
    end
    else begin
      List.iter
        (fun (_, name, decision) ->
          Format.printf "%-28s %a@." name Pf_filter.Dispatch.pp_decision decision)
        (Pf_filter.Dispatch.decisions d);
      Format.printf "@.%a" Pf_filter.Dispatch.pp_info info
    end;
    if invalid <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:
         "Compile a filter set into the cross-filter dispatch automaton and \
          show each filter's fate (indexed / shadowed / residual / dropped) \
          and the group structure that makes demultiplexing sublinear in the \
          number of filters")
    Term.(const run $ corpus ~verb:"compile" $ json_flag)

let equiv_cmd =
  let file_a =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc:"First filter source.")
  in
  let file_b =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc:"Second filter source.")
  in
  let budget =
    Arg.(value & opt int Equiv.default_budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Path budget per side for the symbolic executor.")
  in
  let run file_a file_b budget =
    let load file =
      let program = read_program file in
      match Validate.check program with
      | Ok v -> v
      | Error e ->
        Format.eprintf "pftool: %s is invalid: %a@." file Validate.pp_error e;
        exit 2
    in
    let va = load file_a and vb = load file_b in
    let r = Equiv.check_programs ~budget va vb in
    (match r.Equiv.verdict with
    | Equiv.Proved_equal ->
      Format.printf "equivalent: proved over %d + %d symbolic paths@."
        r.Equiv.paths_left r.Equiv.paths_right
    | Equiv.Counterexample w ->
      let hex = hex_of_packet w in
      Format.printf "NOT equivalent: witness packet %s@."
        (if hex = "" then "(empty)" else hex);
      Format.printf "  %s accepts: %b@." file_a
        (Interp.accepts ~semantics:`Paper (Validate.program va) w);
      Format.printf "  %s accepts: %b@." file_b
        (Interp.accepts ~semantics:`Paper (Validate.program vb) w)
    | Equiv.Unknown -> Format.printf "unknown: %a@." Equiv.pp_reasons r.Equiv.reasons);
    match r.Equiv.verdict with
    | Equiv.Proved_equal -> ()
    | Equiv.Counterexample _ -> exit 1
    | Equiv.Unknown -> exit 3
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Prove two filters accept exactly the same packets, or synthesize a \
          witness packet they disagree on (exit 0 proved, 1 counterexample, \
          3 unknown)")
    Term.(const run $ file_a $ file_b $ budget)

let verify_cmd =
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Also fail when a rewrite certifies as unknown (by default \
                   only refuted rewrites and invalid filters fail).")
  in
  let budget =
    Arg.(value & opt int Equiv.default_budget
         & info [ "budget" ] ~docv:"N"
             ~doc:"Path budget per side for the symbolic executor.")
  in
  let cex_dir =
    Arg.(value & opt (some string) None
         & info [ "cex-dir" ] ~docv:"DIR"
             ~doc:"Write each refuting witness packet (hex, one per line) to \
                   \\$(docv)/<filter>-<pass>.hex for artifact upload.")
  in
  (* Certify the shipped rewrite of one filter: Regopt's IR against its source. *)
  let verify_one ~budget program =
    match Validate.check program with
    | Error e -> Error (Format.asprintf "%a" Validate.pp_error e)
    | Ok v ->
      let ir, _ = Regopt.optimize v in
      Ok [ ("regopt-ir", Equiv.certification_of_report (Equiv.check_ir ~budget v ir)) ]
  in
  let sanitize name =
    String.map (fun c -> match c with 'a'..'z' | 'A'..'Z' | '0'..'9' | '-' | '_' -> c | _ -> '-') name
  in
  let write_cex dir name pass w =
    let path = Filename.concat dir (Printf.sprintf "%s-%s.hex" (sanitize name) pass) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (hex_of_packet w ^ "\n"));
    path
  in
  let run targets json strict budget cex_dir =
    (match cex_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let invalid = ref 0 and refuted = ref 0 and unknown = ref 0 in
    let results =
      List.map
        (fun (name, program) ->
          let result = verify_one ~budget program in
          (match result with
          | Error _ -> incr invalid
          | Ok checks ->
            List.iter
              (fun (pass, cert) ->
                match cert with
                | Equiv.Certified -> ()
                | Equiv.Refuted w ->
                  incr refuted;
                  Option.iter (fun dir -> ignore (write_cex dir name pass w)) cex_dir
                | Equiv.Uncertified _ -> incr unknown)
              checks);
          (name, result))
        targets
    in
    if json then begin
      let filters =
        List.map
          (fun (name, result) ->
            match result with
            | Error e ->
              json_obj
                [ ("name", json_str name); ("valid", "false"); ("error", json_str e) ]
            | Ok checks ->
              json_obj
                [ ("name", json_str name);
                  ("valid", "true");
                  ("checks",
                   json_arr
                     (List.map
                        (fun (pass, cert) ->
                          let fields = [ ("pass", json_str pass) ] in
                          let fields =
                            match cert with
                            | Equiv.Certified ->
                              fields @ [ ("status", json_str "certified") ]
                            | Equiv.Refuted w ->
                              fields
                              @ [ ("status", json_str "refuted");
                                  ("witness", json_str (hex_of_packet w)) ]
                            | Equiv.Uncertified why ->
                              fields
                              @ [ ("status", json_str "unknown");
                                  ("reason", json_str why) ]
                          in
                          json_obj fields)
                        checks)) ])
          results
      in
      print_string
        (json_obj
           [ ("filters", json_arr filters);
             ("invalid", string_of_int !invalid);
             ("refuted", string_of_int !refuted);
             ("unknown", string_of_int !unknown) ]);
      print_newline ()
    end
    else begin
      List.iter
        (fun (name, result) ->
          Format.printf "== %s ==@." name;
          (match result with
          | Error e -> Format.printf "INVALID: %s@." e
          | Ok checks ->
            List.iter
              (fun (pass, cert) ->
                match cert with
                | Equiv.Certified -> Format.printf "%-10s certified@." pass
                | Equiv.Refuted w ->
                  let hex = hex_of_packet w in
                  Format.printf "%-10s REFUTED: witness packet %s@." pass
                    (if hex = "" then "(empty)" else hex)
                | Equiv.Uncertified why ->
                  Format.printf "%-10s UNKNOWN: %s@." pass why)
              checks);
          Format.printf "@.")
        results;
      Format.printf
        "%d filters verified: %d invalid, %d rewrites refuted, %d unknown@."
        (List.length targets) !invalid !refuted !unknown
    end;
    if !invalid > 0 || !refuted > 0 || (strict && !unknown > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Translation-validate the shipped optimizer rewrite (register-IR \
          optimization) of each filter against the original: it is proved \
          equivalent or refuted with a runnable witness packet")
    Term.(const run $ corpus ~verb:"verify" $ json_flag $ strict $ budget $ cex_dir)

(* {1 SMP steering} *)

module Khost = Pf_kernel.Host
module Kdev = Pf_kernel.Pfdev
module San = Pf_sim.San
module Sancase = Pf_fuzz.Sancase

(* One JSON shape for the per-CPU counter block, shared by [pftool smp
   --json] and [pftool san --json] — same keys, same deterministic order,
   golden-tested once. *)
let smp_stats_fields (s : Kdev.smp_stats) =
  [ ("per_cpu",
     json_arr
       (List.map
          (fun (c : Kdev.smp_cpu_stats) ->
            json_obj
              [ ("cpu", string_of_int c.Kdev.cpu);
                ("packets", string_of_int c.Kdev.packets);
                ("cache_hits", string_of_int c.Kdev.cache_hits);
                ("cache_misses", string_of_int c.Kdev.cache_misses);
                ("lock_waits", string_of_int c.Kdev.lock_waits);
                ("lock_wait_us", string_of_int c.Kdev.lock_wait_us);
                ("busy_us", string_of_int c.Kdev.busy_us);
                ("idle_us", string_of_int c.Kdev.idle_us) ])
          s.Kdev.per_cpu));
    ("lock",
     json_obj
       [ ("acquisitions", string_of_int s.Kdev.lock_acquisitions);
         ("contended", string_of_int s.Kdev.lock_contended);
         ("wait_us", string_of_int s.Kdev.lock_wait_total_us) ]) ]

let json_of_san san =
  json_obj
    [ ("counters",
       json_obj
         (List.map (fun (k, v) -> (k, string_of_int v)) (San.counters san)));
      ("report_count", string_of_int (San.report_count san));
      ("reports",
       json_arr
         (List.map
            (fun (r : San.report) ->
              json_obj
                [ ("kind", json_str (San.kind_name r.San.kind));
                  ("resource", json_str r.San.resource);
                  ("cpus",
                   json_arr (List.map string_of_int r.San.cpus));
                  ("missing", json_str r.San.missing);
                  ("detail", json_str r.San.detail);
                  ("occurrences", string_of_int r.San.occurrences) ])
            (San.reports san))) ]

(* The receive scenario behind [smp] and [san] is the sanitizer campaign's
   ({!Sancase.scenario}), over a Zipf(1.2) mix. *)
let smp_scenario ?mutant ?san ~reinstall ~cpus ~packets ~flows ~seed () =
  Sancase.scenario ?mutant ?san ~zipf:1.2 ~reinstall
    { Sancase.index = 0; ncpus = cpus; flows; packets; tseed = seed }

let smp_cmd =
  let cpus =
    Arg.(value & opt int 4
         & info [ "cpus" ] ~docv:"N" ~doc:"CPUs in the simulated receive complex.")
  in
  let packets =
    Arg.(value & opt int 1_000
         & info [ "packets" ] ~docv:"N" ~doc:"Packets to draw from the mix.")
  in
  let flows =
    Arg.(value & opt int 32
         & info [ "flows" ] ~docv:"N" ~doc:"Flows in the generated mix.")
  in
  let seed =
    Arg.(value & opt int 0x5EED
         & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic generator seed (replayable).")
  in
  let san =
    Arg.(value & flag
         & info [ "san" ]
             ~doc:"Attach the concurrency sanitizer (Pfsan) to the run and \
                   report its pf.san.* counters and any violations.")
  in
  let run cpus packets flows seed san json =
    if cpus < 1 then begin
      Printf.eprintf "pftool: --cpus must be >= 1\n";
      exit 2
    end;
    let checker = if san then Some (San.create ~ncpus:cpus ()) else None in
    let pf = smp_scenario ?san:checker ~reinstall:false ~cpus ~packets ~flows ~seed () in
    let s = Kdev.smp_stats pf in
    if json then begin
      print_string
        (json_obj
           ([ ("cpus", string_of_int s.Kdev.ncpus);
              ("packets", string_of_int packets);
              ("flows", string_of_int flows);
              ("seed", string_of_int seed) ]
           @ smp_stats_fields s
           @
           match checker with
           | Some c -> [ ("san", json_of_san c) ]
           | None -> []));
      print_newline ()
    end
    else begin
      Printf.printf
        "%d packets over %d flows (Zipf 1.2, seed %#x) steered across %d CPU(s)\n"
        packets flows seed cpus;
      Format.printf "%a@." Kdev.pp_smp_stats s;
      match checker with
      | Some c -> Format.printf "%a@." San.pp c
      | None -> ()
    end;
    match checker with
    | Some c when San.reports c <> [] -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "smp"
       ~doc:
         "Simulate receive-side steering of a seeded flow mix across N \
          CPUs and report the per-CPU counters: packets steered, private \
          flow-cache hits, and delivery-lock contention")
    Term.(const run $ cpus $ packets $ flows $ seed $ san $ json_flag)

(* {1 The concurrency sanitizer: dynamic checker and static lint} *)

let san_cmd =
  let cpus =
    Arg.(value & opt int 4
         & info [ "cpus" ] ~docv:"N" ~doc:"CPUs in the simulated receive complex.")
  in
  let packets =
    Arg.(value & opt int 400
         & info [ "packets" ] ~docv:"N"
             ~doc:"Packets per pass (the sequence is replayed after the \
                   mid-run reconfiguration).")
  in
  let flows =
    Arg.(value & opt int 32
         & info [ "flows" ] ~docv:"N" ~doc:"Flows in the generated mix.")
  in
  let seed =
    Arg.(value & opt int 0x5EED
         & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic generator seed (replayable).")
  in
  let mutant =
    Arg.(value & opt (some string) None
         & info [ "mutant" ] ~docv:"NAME"
             ~doc:"Enable a seeded concurrency bug for the run \
                   (skip-remote-invalidation, skip-install-invalidation, \
                   skip-delivery-lock): the sanitizer is expected to \
                   report it, and exit status 1 means it did.")
  in
  let run cpus packets flows seed mutant json =
    if cpus < 1 then begin
      Printf.eprintf "pftool: --cpus must be >= 1\n";
      exit 2
    end;
    let seeded =
      match mutant with
      | None -> None
      | Some name -> (
          match Sancase.mutant_of_string name with
          | Some _ as m -> m
          | None ->
            Printf.eprintf "pftool: unknown mutant %S (expected one of: %s)\n"
              name
              (String.concat ", " (List.map Sancase.mutant_name Sancase.all_mutants));
            exit 2)
    in
    let san = San.create ~ncpus:cpus () in
    let pf =
      smp_scenario ?mutant:seeded ~san ~reinstall:true ~cpus ~packets ~flows ~seed ()
    in
    let s = Kdev.smp_stats pf in
    if json then begin
      print_string
        (json_obj
           ([ ("cpus", string_of_int s.Kdev.ncpus);
              ("packets", string_of_int packets);
              ("flows", string_of_int flows);
              ("seed", string_of_int seed);
              ("mutant",
               match mutant with
               | Some m -> json_str m
               | None -> json_str "none") ]
           @ smp_stats_fields s
           @ [ ("san", json_of_san san) ]));
      print_newline ()
    end
    else begin
      Printf.printf
        "%d packets x2 over %d flows (Zipf 1.2, seed %#x) across %d CPU(s), \
         one mid-run reconfiguration%s\n"
        packets flows seed cpus
        (match mutant with Some m -> ", mutant " ^ m | None -> "");
      Format.printf "%a@." San.pp san
    end;
    if San.reports san <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "san"
       ~doc:
         "Run a steered receive scenario with the Pfsan concurrency \
          sanitizer attached — Eraser-style locksets, per-CPU vector \
          clocks, and the flow-cache coherence protocol checker — and \
          report any violations (exit status 1 if there were any)")
    Term.(const run $ cpus $ packets $ flows $ seed $ mutant $ json_flag)

let sanlint_cmd =
  let demo =
    Arg.(value & flag
         & info [ "demo" ]
             ~doc:"Lint a synthetic registry seeded with one finding of \
                   each kind instead of the real kernel's declarations.")
  in
  let cpus =
    Arg.(value & opt int 4
         & info [ "cpus" ] ~docv:"N"
             ~doc:"CPUs the linted registry is declared for.")
  in
  let run demo cpus json =
    if cpus < 1 then begin
      Printf.eprintf "pftool: --cpus must be >= 1\n";
      exit 2
    end;
    let san, what =
      if demo then begin
        (* A registry holding one of each lint finding: a per-CPU object
           reached from the wrong CPU, a guarded object with a lockless
           access site, and a site acquiring against the declared order. *)
        let san = San.create ~ncpus:(max cpus 2) () in
        let priv = San.register san ~name:"demo.percpu" ~discipline:(San.Cpu_private 0) in
        San.declare_site san ~site:"demo.remote_peek" ~ctx:(San.On_cpu 1)
          ~locks:[] ~rw:`Write priv;
        let shared = San.register san ~name:"demo.table" ~discipline:(San.Guarded_by "giant") in
        San.declare_lock san "giant";
        San.declare_site san ~site:"demo.locked_update" ~ctx:(San.On_cpu 0)
          ~locks:[ "giant" ] ~rw:`Write shared;
        San.declare_site san ~site:"demo.lockless_read" ~ctx:(San.On_cpu 1)
          ~locks:[] ~rw:`Read shared;
        San.declare_lock san "a";
        San.declare_lock san "b";
        San.declare_lock_order san ~before:"a" ~after:"b";
        let guarded = San.register san ~name:"demo.nested" ~discipline:(San.Guarded_by "b") in
        San.declare_site san ~site:"demo.inverted_nesting" ~ctx:San.Boot
          ~locks:[ "b"; "a" ] ~rw:`Write guarded;
        (san, "demo registry")
      end
      else begin
        (* The real kernel's declarations: attach a sanitizer to a live
           host (no traffic needed — the lint is static) and walk the
           registry Pfdev and Host declare. *)
        let engine = Pf_sim.Engine.create () in
        let link =
          Pf_net.Link.create engine Pf_net.Frame.Dix10 ~rate_mbit:10. ()
        in
        let host =
          Khost.create ~ncpus:cpus link ~name:"rx" ~addr:(Pf_net.Addr.eth_host 2)
        in
        let san = San.create ~ncpus:cpus () in
        Khost.attach_san host san;
        (san, Printf.sprintf "kernel registry (%d CPUs)" cpus)
      end
    in
    let findings = San.Lint.run san in
    if json then begin
      print_string
        (json_obj
           [ ("registry",
              json_arr
                (List.map
                   (fun (name, d) ->
                     json_obj
                       [ ("resource", json_str name);
                         ("discipline",
                          json_str (Format.asprintf "%a" San.pp_discipline d)) ])
                   (San.registry san)));
             ("findings",
              json_arr
                (List.map
                   (fun (f : San.Lint.finding) ->
                     json_obj
                       [ ("kind", json_str (San.Lint.kind_name f));
                         ("subject", json_str f.San.Lint.subject);
                         ("detail", json_str f.San.Lint.detail) ])
                   findings)) ]);
      print_newline ()
    end
    else begin
      Printf.printf "sanlint: %s, %d resource(s), %d finding(s)\n" what
        (List.length (San.registry san))
        (List.length findings);
      List.iter
        (fun f -> Format.printf "%a@." San.Lint.pp_finding f)
        findings
    end;
    if findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "sanlint"
       ~doc:
         "Statically lint the kernel's declared locking disciplines: \
          undeclared sharing of per-CPU objects, access sites missing the \
          declared guard, and lock-order inversions against the intended \
          DAG — no traffic is run")
    Term.(const run $ demo $ cpus $ json_flag)

let () =
  let info = Cmd.info "pftool" ~doc:"Packet filter assembler / disassembler / evaluator" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ asm_cmd; disasm_cmd; run_cmd; compile_cmd; fields_cmd; examples_cmd; lint_cmd;
            cache_cmd; dispatch_cmd; smp_cmd; san_cmd; sanlint_cmd; ir_cmd;
            equiv_cmd; verify_cmd ]))
