module Packet = Pf_pkt.Packet
open Pf_filter

type mismatch = { engine : string; detail : string }

type outcome =
  | Agreement of { accept : bool; bsd_divergent : bool }
  | Validator_rejected of Validate.error
  | Disagreement of mismatch list

type extra_engine = string * (Validate.t -> Packet.t -> bool)

let pp_mismatch ppf m = Format.fprintf ppf "[%s] %s" m.engine m.detail

let pp_outcome ppf = function
  | Agreement { accept; bsd_divergent } ->
    Format.fprintf ppf "agreement (%s%s)"
      (if accept then "accept" else "reject")
      (if bsd_divergent then ", BSD diverges" else "")
  | Validator_rejected e -> Format.fprintf ppf "validator rejected: %a" Validate.pp_error e
  | Disagreement ms ->
    Format.fprintf ppf "@[<v>DISAGREEMENT:%a@]"
      (fun ppf -> List.iter (Format.fprintf ppf "@,  %a" pp_mismatch))
      ms

let has_short_circuit program =
  List.exists (fun (i : Insn.t) -> Op.is_short_circuit i.Insn.op) (Program.insns program)

let check ?(extra = []) program packet =
  let fails = ref [] in
  let fail engine detail = fails := { engine; detail } :: !fails in
  let expect_verdict name reference got =
    if got <> reference then
      fail name (Printf.sprintf "expected %b, got %b" reference got)
  in
  (* A guarded engine invocation: an OCaml exception escaping any engine is
     itself a finding, never a fuzzer crash. *)
  let attempt name f =
    match f () with
    | v -> Some v
    | exception e ->
      fail name ("raised " ^ Printexc.to_string e);
      None
  in
  match attempt "interp-paper" (fun () -> Interp.run ~semantics:`Paper program packet) with
  | None -> Disagreement (List.rev !fails)
  | Some paper ->
    let reference = paper.Interp.accept in
    let check name f =
      Option.iter (expect_verdict name reference) (attempt name f)
    in
    (* The documented `Paper/`Bsd boundary: the two published semantics may
       legitimately disagree only when a short-circuit operator executes
       without terminating the program (its result word is pushed under
       `Paper, not under `Bsd — see Interp). A divergence on a program with
       no short-circuit operator at all is a bug. *)
    let bsd = attempt "interp-bsd" (fun () -> Interp.run ~semantics:`Bsd program packet) in
    let bsd_divergent =
      match bsd with Some o -> o.Interp.accept <> reference | None -> false
    in
    if bsd_divergent && not (has_short_circuit program) then
      fail "interp-bsd" "diverged from `Paper with no short-circuit operator present";
    (match Validate.check program with
    | Error _ ->
      (* The validator-rejection boundary: the compiled engines are only
         defined on validated programs, so a rejected program is checked on
         the interpreters alone. *)
      ()
    | Ok v ->
      (* Fast: verdict and instruction count (cost accounting must match the
         checked interpreter exactly, per table 6-10). *)
      (match attempt "fast" (fun () -> Fast.run_counted (Fast.compile v) packet) with
      | None -> ()
      | Some (accept, executed) ->
        expect_verdict "fast" reference accept;
        if executed <> paper.Interp.insns_executed then
          fail "fast-count"
            (Printf.sprintf "interp executed %d insns, fast executed %d"
               paper.Interp.insns_executed executed));
      check "closure" (fun () -> Closure.run (Closure.compile v) packet);
      (* Register-IR backend: the optimized IR executed directly must agree
         with the reference on every packet. *)
      check "regvm" (fun () -> Regvm.run (Regvm.compile v) packet);
      (* Static analysis: every fact the abstract interpreter claims must be
         consistent with this concrete run of the checked interpreter. A
         violation here means the analysis is unsound — exactly what the
         seeded interval mutant demonstrates. *)
      (match attempt "analysis" (fun () -> Analysis.analyze v) with
      | None -> ()
      | Some a ->
        (match (a.Analysis.verdict, reference) with
        | Analysis.Always_accept, false ->
          fail "analysis-verdict" "claimed Always_accept but the packet was rejected"
        | Analysis.Always_reject, true ->
          fail "analysis-verdict" "claimed Always_reject but the packet was accepted"
        | _ -> ());
        (match (a.Analysis.div_by_zero, paper.Interp.error) with
        | Analysis.Impossible, Some (Interp.Division_by_zero pc) ->
          fail "analysis-div"
            (Printf.sprintf "claimed division by zero impossible; pc %d divided by zero" pc)
        | _ -> ());
        let words = Packet.word_count packet in
        (match paper.Interp.error with
        | Some (Interp.Bad_word_offset { pc; index })
          when words >= a.Analysis.safe_packet_words ->
          fail "analysis-bounds"
            (Printf.sprintf
               "claimed packets of >= %d words fault no access; pc %d faulted on index %d of %d words"
               a.Analysis.safe_packet_words pc index words)
        | _ -> ());
        if reference && words < a.Analysis.min_packet_words then
          fail "analysis-minwords"
            (Printf.sprintf
               "claimed packets under %d words are rejected; a %d-word packet was accepted"
               a.Analysis.min_packet_words words);
        if paper.Interp.insns_executed > a.Analysis.max_insns then
          fail "analysis-insns"
            (Printf.sprintf "claimed at most %d instructions; the run executed %d"
               a.Analysis.max_insns paper.Interp.insns_executed);
        let run_cost = Analysis.cost_of_prefix program paper.Interp.insns_executed in
        if run_cost > a.Analysis.cost_bound then
          fail "analysis-cost"
            (Printf.sprintf "claimed cost bound %d; the run cost %d"
               a.Analysis.cost_bound run_cost);
        (* A filter that accepts this packet shares it with itself, so its
           self-relation can never soundly be Disjoint. *)
        if reference && Analysis.relate v v = Analysis.Disjoint then
          fail "analysis-relate" "relate f f = Disjoint for an accepting filter";
        (* Read-set soundness: an [Exact] read set claims the verdict depends
           only on those words (and their presence), so flipping every word
           outside it — and growing the packet by one word it does not
           contain — must leave the verdict unchanged. *)
        (match a.Analysis.read_set with
        | Analysis.Unbounded -> ()
        | Analysis.Exact idxs ->
          let recheck what mutated =
            match
              attempt "analysis-readset" (fun () ->
                  Interp.accepts ~semantics:`Paper program mutated)
            with
            | Some got when got <> reference ->
              fail "analysis-readset"
                (Printf.sprintf
                   "verdict changed (%b -> %b) after mutating %s outside the read set"
                   reference got what)
            | _ -> ()
          in
          let words = Packet.word_count packet in
          let b = Packet.to_bytes packet in
          let flipped = ref false in
          for i = 0 to words - 1 do
            if not (List.mem i idxs) then begin
              flipped := true;
              let flip pos =
                Bytes.set b pos (Char.chr (0xff land lnot (Char.code (Bytes.get b pos))))
              in
              flip (2 * i);
              flip ((2 * i) + 1)
            end
          done;
          if !flipped then recheck "every word" (Packet.of_bytes b);
          if not (List.mem words idxs) then
            recheck "a grown word" (Packet.append packet (Packet.of_words [ 0xa5a5 ]))));
      check "decision" (fun () ->
          Decision.classify (Decision.build [ (v, ()) ]) packet <> None);
      (* The kernel demultiplexer's flow cache: the same packet through a
         cold cache, a warm cache, and a cache-disabled device must agree
         with the filter's own verdict, with identical per-port accept
         counts and overflow-drop accounting — and with a bounded read set
         the warm probe must genuinely hit. *)
      (match
         attempt "demux-cache" (fun () ->
             let mk enabled =
               let eng = Pf_sim.Engine.create () in
               let costs = Pf_sim.Costs.free in
               let cpu = Pf_sim.Cpu.create costs in
               let stats = Pf_sim.Stats.create () in
               let dev =
                 Pf_kernel.Pfdev.create eng cpu costs stats
                   ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
                   ~send:(fun _ -> ())
               in
               Pf_kernel.Pfdev.set_cache_enabled dev enabled;
               let port = Pf_kernel.Pfdev.open_port dev in
               (* Queue limit 1: the second delivery overflows iff the packet
                  is accepted, so drop accounting is exercised too. *)
               Pf_kernel.Pfdev.set_queue_limit port 1;
               (match Pf_kernel.Pfdev.set_filter port program with
               | Ok () -> ()
               | Error e ->
                 failwith
                   (Format.asprintf "install: %a" Pf_kernel.Pfdev.pp_install_error e));
               (eng, dev, port)
             in
             let eng_on, dev_on, port_on = mk true in
             let cold = Pf_kernel.Pfdev.demux dev_on packet in
             let warm = Pf_kernel.Pfdev.demux dev_on packet in
             let eng_off, dev_off, port_off = mk false in
             let off1 = Pf_kernel.Pfdev.demux dev_off packet in
             let off2 = Pf_kernel.Pfdev.demux dev_off packet in
             Pf_sim.Engine.run eng_on;
             Pf_sim.Engine.run eng_off;
             ( (cold, warm, off1, off2),
               (Pf_kernel.Pfdev.port_accepted port_on, Pf_kernel.Pfdev.port_dropped port_on),
               (Pf_kernel.Pfdev.port_accepted port_off, Pf_kernel.Pfdev.port_dropped port_off),
               Pf_kernel.Pfdev.cache_stats dev_on ))
       with
      | None -> ()
      | Some ((cold, warm, off1, off2), (acc_on, drop_on), (acc_off, drop_off), cs) ->
        expect_verdict "demux-cold" reference cold;
        expect_verdict "demux-warm" reference warm;
        expect_verdict "demux-disabled" reference off1;
        expect_verdict "demux-disabled" reference off2;
        if acc_on <> acc_off then
          fail "demux-accounting"
            (Printf.sprintf "cached port accepted %d packets, uncached accepted %d"
               acc_on acc_off);
        if drop_on <> drop_off then
          fail "demux-accounting"
            (Printf.sprintf "cached port dropped %d packets, uncached dropped %d"
               drop_on drop_off);
        (match (Fast.analysis (Fast.compile v)).Analysis.read_set with
        | Analysis.Exact _ ->
          if cs.Pf_kernel.Pfdev.hits <> 1 then
            fail "demux-cache"
              (Printf.sprintf "expected exactly 1 warm-probe hit, saw %d"
                 cs.Pf_kernel.Pfdev.hits)
        | Analysis.Unbounded ->
          if cs.Pf_kernel.Pfdev.hits <> 0 then
            fail "demux-cache"
              "unbounded read set must bypass the cache, yet the probe hit"));
      (* The cross-filter dispatch automaton: the same packet demuxed
         through the automaton (cache off and on) must agree with the
         sequential walk on verdicts and on exact per-port delivery and
         drop accounting — including a copy-all port the automaton cannot
         index, which exercises the rank-merged residual walk. This is the
         oracle that catches the seeded unsound-prefix-sharing mutant
         (accepting an indexed candidate on its guard prefix alone). *)
      (match
         attempt "demux-dispatch" (fun () ->
             let mk strategy ~cache =
               let eng = Pf_sim.Engine.create () in
               let costs = Pf_sim.Costs.free in
               let cpu = Pf_sim.Cpu.create costs in
               let stats = Pf_sim.Stats.create () in
               let dev =
                 Pf_kernel.Pfdev.create eng cpu costs stats
                   ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
                   ~send:(fun _ -> ())
               in
               Pf_kernel.Pfdev.set_cache_enabled dev cache;
               let add ~copy_all =
                 let port = Pf_kernel.Pfdev.open_port dev in
                 if copy_all then Pf_kernel.Pfdev.set_copy_all port true;
                 Pf_kernel.Pfdev.set_queue_limit port 1;
                 (match Pf_kernel.Pfdev.set_filter port program with
                 | Ok () -> ()
                 | Error e ->
                   failwith
                     (Format.asprintf "install: %a" Pf_kernel.Pfdev.pp_install_error e));
                 port
               in
               let monitor = add ~copy_all:true in
               let consumer = add ~copy_all:false in
               Pf_kernel.Pfdev.set_strategy dev strategy;
               (eng, monitor, consumer, dev)
             in
             let sample (eng, monitor, consumer, dev) =
               let cold = Pf_kernel.Pfdev.demux dev packet in
               let warm = Pf_kernel.Pfdev.demux dev packet in
               Pf_sim.Engine.run eng;
               ignore (dev : Pf_kernel.Pfdev.t);
               ( (cold, warm),
                 ( Pf_kernel.Pfdev.port_accepted monitor,
                   Pf_kernel.Pfdev.port_dropped monitor ),
                 ( Pf_kernel.Pfdev.port_accepted consumer,
                   Pf_kernel.Pfdev.port_dropped consumer ) )
             in
             let seq = sample (mk `Sequential ~cache:false) in
             let auto = sample (mk `Dispatch ~cache:false) in
             let auto_cached = sample (mk `Dispatch ~cache:true) in
             (seq, auto, auto_cached))
       with
      | None -> ()
      | Some (seq, auto, auto_cached) ->
        let show ((cold, warm), (macc, mdrop), (cacc, cdrop)) =
          Printf.sprintf
            "verdicts (%b,%b), monitor accepted/dropped %d/%d, consumer %d/%d"
            cold warm macc mdrop cacc cdrop
        in
        if auto <> seq then
          fail "demux-dispatch"
            (Printf.sprintf "automaton: %s; sequential walk: %s" (show auto)
               (show seq));
        if auto_cached <> seq then
          fail "demux-dispatch"
            (Printf.sprintf "automaton+cache: %s; sequential walk: %s"
               (show auto_cached) (show seq)));
      List.iter (fun (name, engine) -> check name (fun () -> engine v packet)) extra;
      (* Peephole pre-pass: the optimized program must still validate, must
         not grow, and must keep the verdict under both the checked and the
         fast interpreter. *)
      (match attempt "peephole" (fun () -> Peephole.optimize_with_report program) with
      | None -> ()
      | Some (opt, report) ->
        if report.Peephole.words_after > report.Peephole.words_before then
          fail "peephole-report"
            (Printf.sprintf "grew from %d to %d code words" report.Peephole.words_before
               report.Peephole.words_after);
        (match Validate.check opt with
        | Error e ->
          fail "peephole-validate"
            (Format.asprintf "optimized program invalid: %a" Validate.pp_error e)
        | Ok vopt ->
          check "peephole-interp" (fun () -> Interp.accepts ~semantics:`Paper opt packet);
          check "peephole-fast" (fun () -> Fast.run (Fast.compile vopt) packet)));
      (* Symbolic path engine: the enumerated paths must partition packets
         and predict the interpreter. A completed enumeration must contain
         exactly one path this packet satisfies, with the reference
         verdict; an incomplete one may miss the packet's path but its
         prefix is still exact and exclusive. *)
      let symex_budget = 192 in
      (match
         attempt "symex" (fun () ->
           Symex.run ~budget:symex_budget (Symex.Ctx.create ()) v)
       with
      | None -> ()
      | Some outcome -> (
        match
          List.filter
            (fun (p : Symex.path) -> Symex.satisfies p.Symex.cond packet)
            outcome.Symex.paths
        with
        | [ p ] ->
          if p.Symex.accept <> reference then
            fail "symex"
              (Printf.sprintf "satisfied path claims %b, interpreter says %b"
                 p.Symex.accept reference)
        | [] ->
          if outcome.Symex.complete then
            fail "symex" "complete enumeration, but no path admits this packet"
        | paths ->
          fail "symex"
            (Printf.sprintf
               "%d paths admit this packet; paths must be mutually exclusive"
               (List.length paths))));
      (* Translation validation over the shipped rewrites: a filter is
         always provably equivalent to itself (modulo path budget), and no
         optimizer output may ever be refuted — a confirmed witness packet
         here is a miscompilation, reported with the witness so it feeds
         the shrinker and the regression corpus. *)
      let budget_limited (r : Equiv.report) =
        List.exists
          (function Equiv.Path_budget _ | Equiv.Pair_budget -> true | _ -> false)
          r.Equiv.reasons
      in
      let expect_equiv name ~require_proof left right =
        match
          attempt name (fun () ->
            Equiv.check ~budget:symex_budget ~pair_budget:1024 left right)
        with
        | None -> ()
        | Some r -> (
          match r.Equiv.verdict with
          | Equiv.Proved_equal -> ()
          | Equiv.Counterexample w ->
            fail name
              (Format.asprintf
                 "confirmed counterexample witness %a (left=%b right=%b)"
                 Packet.pp_hex w (Equiv.run_side left w)
                 (Equiv.run_side right w))
          | Equiv.Unknown ->
            if require_proof && not (budget_limited r) then
              fail name
                (Format.asprintf "expected a proof, got %a" Equiv.pp_report r))
      in
      expect_equiv "equiv-self" ~require_proof:true (Equiv.Prog v) (Equiv.Prog v);
      (match Validate.check (Peephole.optimize program) with
      | Ok vopt ->
        expect_equiv "equiv-peephole" ~require_proof:false (Equiv.Prog v)
          (Equiv.Prog vopt)
      | Error _ -> () (* peephole-validate above already flagged it *));
      (match attempt "equiv-ir" (fun () -> fst (Regopt.optimize v)) with
      | Some ir ->
        expect_equiv "equiv-ir" ~require_proof:false (Equiv.Prog v)
          (Equiv.Ir_prog ir)
      | None -> ());
      (* Stochastic superoptimizer: a short proof-gated search seeded from
         the program's own encoding (so replays are deterministic). Every
         committed step was proved equivalent to its predecessor, so the
         best program must agree with the reference on this packet, must
         never cost more than its starting point, and must satisfy the
         accounting invariant accepted = proved. The refuted candidates are
         the interesting byproduct: each carries the prover's witness, and
         we replay that witness through every engine to confirm the
         divergence is real — the incumbent's verdict everywhere, the
         candidate's verdict differing. *)
      (match
         attempt "superopt" (fun () ->
             let seed =
               List.fold_left
                 (fun h w -> ((h * 31) + w) land 0x3fffffff)
                 17 (Program.encode program)
             in
             Superopt.search ~budget:48 ~seed (fst (Regopt.optimize v)))
       with
      | None -> ()
      | Some outcome ->
        let st = outcome.Superopt.stats in
        if st.Superopt.accepted <> st.Superopt.proved then
          fail "superopt-invariant"
            (Printf.sprintf "accepted %d commits but proved only %d"
               st.Superopt.accepted st.Superopt.proved);
        if outcome.Superopt.best_cost > outcome.Superopt.initial_cost then
          fail "superopt-cost"
            (Printf.sprintf "search ended costlier than it began (%d -> %d)"
               outcome.Superopt.initial_cost outcome.Superopt.best_cost);
        check "superopt-best" (fun () -> Ir.exec outcome.Superopt.best packet);
        List.iteri
          (fun i (r : Superopt.refuted_candidate) ->
            let name = Printf.sprintf "superopt-refuted-%d" i in
            let w = r.Superopt.witness in
            (* The incumbent was proved equal to the source filter, so
               every engine must reproduce its recorded verdict at the
               witness (`Bsd only when no short-circuit operator makes the
               two published semantics legitimately divergent)... *)
            let confirm engine f =
              match attempt name f with
              | Some got when got <> r.Superopt.incumbent_verdict ->
                fail name
                  (Printf.sprintf "%s at the witness says %b, incumbent said %b"
                     engine got r.Superopt.incumbent_verdict)
              | _ -> ()
            in
            confirm "interp-paper" (fun () ->
                Interp.accepts ~semantics:`Paper program w);
            if not (has_short_circuit program) then
              confirm "interp-bsd" (fun () ->
                  Interp.accepts ~semantics:`Bsd program w);
            confirm "fast" (fun () -> Fast.run (Fast.compile v) w);
            confirm "closure" (fun () -> Closure.run (Closure.compile v) w);
            confirm "regvm" (fun () -> Regvm.run (Regvm.compile v) w);
            (* ...and the candidate must actually diverge there. *)
            (match attempt name (fun () -> Ir.exec r.Superopt.candidate w) with
            | Some got when got <> r.Superopt.candidate_verdict ->
              fail name
                (Printf.sprintf
                   "candidate at the witness says %b, the prover recorded %b"
                   got r.Superopt.candidate_verdict)
            | _ -> ());
            if r.Superopt.candidate_verdict = r.Superopt.incumbent_verdict then
              fail name "witness does not separate candidate from incumbent")
          outcome.Superopt.refuted);
      (* Wire codec round-trip: encode/decode must be the identity on
         validated programs, and the decoded program must agree. *)
      (match Program.decode (Program.encode program) with
      | Error e ->
        fail "codec" (Format.asprintf "round-trip decode failed: %a" Program.pp_decode_error e)
      | Ok decoded ->
        if not (Program.equal decoded program) then
          fail "codec" "decoded program differs from the original"
        else check "codec-interp" (fun () -> Interp.accepts decoded packet)));
    if !fails <> [] then Disagreement (List.rev !fails)
    else
      match Validate.check program with
      | Error e -> Validator_rejected e
      | Ok _ -> Agreement { accept = reference; bsd_divergent }
