(* The symbolic path engine and the translation-validation layer on top of
   it: path enumeration agrees with the interpreter packet by packet,
   [Equiv] proves the shipped optimizer's output and refutes a seeded
   miscompilation with a confirmed, engine-checked witness, and an
   operand-swapped rewrite that leaves no guard chain is still proved. *)

open Pf_filter
module Packet = Pf_pkt.Packet
module Gen = Pf_fuzz.Gen
module Runner = Pf_fuzz.Runner
module Shrink = Pf_fuzz.Shrink
module Pfdev = Pf_kernel.Pfdev
module Host = Pf_kernel.Host

let i ?(op = Op.Nop) action = Insn.make ~op action

let validate_exn p =
  match Validate.check p with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let builtins =
  [
    ("fig-3-8", Predicates.fig_3_8);
    ("fig-3-9", Predicates.fig_3_9);
    ("accept-all", Predicates.accept_all);
    ("reject-all", Predicates.reject_all);
    ("pup-type-is-1", Predicates.pup_type_is 1);
    ("pup-dst-socket-35", Predicates.pup_dst_socket 35l);
    ("pup-dst-port", Predicates.pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", Predicates.pup_dst_port_10mb ~host:2 35l);
    ("ethertype-ip", Predicates.ethertype_is 0x0800);
    ("udp-dst-port-53", Predicates.udp_dst_port 53);
    ("udp-dst-port-any-ihl-53", Predicates.udp_dst_port_any_ihl 53);
    ("vmtp-dst-entity", Predicates.vmtp_dst_entity 0x1234l);
    ("rarp-request", Predicates.rarp_request ());
    ("rarp-reply-for", Predicates.rarp_reply_for "\x08\x00\x2b\x01\x02\x03");
    ("synthetic-accept-5", Predicates.synthetic ~length:5 ~accept:true);
  ]

(* {1 Symbolic execution agrees with the interpreter} *)

(* The paths of a completed run partition the packets: exactly one path is
   satisfied, and its verdict is the interpreter's. An incomplete run may
   miss the packet's path but must never claim a wrong verdict or two
   paths at once. *)
let check_against_interp name program packet =
  let v = validate_exn program in
  let ctx = Symex.Ctx.create () in
  let outcome = Symex.run ctx v in
  let reference = Interp.accepts ~semantics:`Paper program packet in
  let satisfied =
    List.filter (fun p -> Symex.satisfies p.Symex.cond packet)
      outcome.Symex.paths
  in
  match satisfied with
  | [ p ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: path verdict matches interp" name)
        reference p.Symex.accept
  | [] ->
      if outcome.Symex.complete then
        Alcotest.failf "%s: complete run but no path matches %a" name
          Packet.pp_hex packet
  | _ ->
      Alcotest.failf "%s: %d paths claim %a (paths must be exclusive)" name
        (List.length satisfied) Packet.pp_hex packet

let test_symex_matches_interp_builtins () =
  let rng = Gen.Rng.make 0x5E11 in
  List.iter
    (fun (name, program) ->
      for _ = 1 to 100 do
        let packet, _ = Gen.packet rng in
        check_against_interp name program packet
      done;
      (* short packets stress the length atoms *)
      for len = 0 to 12 do
        check_against_interp name program
          (Packet.of_words (List.init len (fun i -> i * 257)))
      done)
    builtins

let test_symex_matches_interp_tricky () =
  (* division forks, word-vs-word equality, indirect pushes, and the
     nonzero-top completion rule *)
  let progs =
    [
      ( "div by word",
        Program.v
          [
            i (Action.Pushword 0);
            i ~op:Op.Div (Action.Pushword 1);
            i ~op:Op.Gt (Action.Pushlit 3);
          ] );
      ( "mod by word",
        Program.v
          [ i (Action.Pushword 2); i ~op:Op.Mod (Action.Pushword 0) ] );
      ( "word pair",
        Program.v
          [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushword 3) ] );
      ( "indirect",
        Program.v
          [
            i (Action.Pushword 0);
            i ~op:Op.And (Action.Pushlit 7);
            i Action.Pushind;
            i ~op:Op.Eq (Action.Pushlit 9);
          ] );
      ( "arith verdict",
        Program.v
          [ i (Action.Pushword 0); i ~op:Op.Add (Action.Pushword 1) ] );
      ( "masked range",
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Push00ff;
            i ~op:Op.Gt (Action.Pushlit 0);
          ] );
    ]
  in
  let rng = Gen.Rng.make 0x7A7A in
  List.iter
    (fun (name, program) ->
      for _ = 1 to 200 do
        let packet, _ = Gen.packet rng in
        check_against_interp name program packet
      done;
      for len = 0 to 6 do
        check_against_interp name program
          (Packet.of_words (List.init len (fun i -> i)))
      done)
    progs

let test_budget_degrades_to_incomplete () =
  (* every instruction forks: 2^n paths blow any small budget *)
  let program =
    Program.v
      (List.concat_map
         (fun n ->
           [ i (Action.Pushword (2 * n)); i ~op:Op.Cand (Action.Pushword ((2 * n) + 1)) ])
         (List.init 10 (fun n -> n))
      @ [ i ~op:Op.Eq (Action.Pushlit 1) ])
  in
  let v = validate_exn program in
  let ctx = Symex.Ctx.create () in
  let outcome = Symex.run ~budget:4 ctx v in
  Alcotest.(check bool) "incomplete" false outcome.Symex.complete;
  Alcotest.(check bool) "some paths survive" true (outcome.Symex.paths <> []);
  (* prefix paths are still genuine: any satisfied path predicts interp *)
  let rng = Gen.Rng.make 0xB06 in
  for _ = 1 to 100 do
    let packet, _ = Gen.packet rng in
    List.iter
      (fun p ->
        if Symex.satisfies p.Symex.cond packet then
          Alcotest.(check bool) "prefix path verdict"
            (Interp.accepts ~semantics:`Paper program packet)
            p.Symex.accept)
      outcome.Symex.paths
  done;
  (* and the budget obstruction is reported in so many words *)
  let r = Equiv.check_programs ~budget:4 v v in
  (match r.Equiv.verdict with
  | Equiv.Unknown -> ()
  | _ -> Alcotest.fail "tiny budget must yield Unknown");
  let msg = Format.asprintf "%a" Equiv.pp_reasons r.Equiv.reasons in
  Alcotest.(check bool)
    (Printf.sprintf "reasons mention the path budget: %s" msg)
    true
    (contains ~affix:"path budget" msg)

(* {1 Equivalence: proofs} *)

let test_equiv_self_proved () =
  List.iter
    (fun (name, program) ->
      let v = validate_exn program in
      let r = Equiv.check_programs v v in
      match r.Equiv.verdict with
      | Equiv.Proved_equal -> ()
      | _ ->
          Alcotest.failf "%s: self-equivalence not proved: %a" name
            Equiv.pp_report r)
    builtins

(* Acceptance criterion: the shipped rewrite of every builtin is proved —
   none is Unknown, none refuted. *)
let test_builtin_rewrites_certified () =
  List.iter
    (fun (name, program) ->
      let v = validate_exn program in
      let ir, _ = Regopt.optimize v in
      match (Equiv.check_ir v ir).Equiv.verdict with
      | Equiv.Proved_equal -> ()
      | _ -> Alcotest.failf "%s: optimized IR not proved" name)
    builtins

(* {1 Counterexample synthesis: a seeded miscompilation}

   [miscompile] rewrites [pushlit 2] to [pushone] — the classic
   wrong-constant strength-reduction bug. The checker must refute it with a
   confirmed witness, and the shrinker must reduce a padded instance to the
   pinned regression. *)

let miscompile p =
  Program.v ~priority:(Program.priority p)
    (List.map
       (fun (insn : Insn.t) ->
         match insn.Insn.action with
         | Action.Pushlit 2 -> { insn with Insn.action = Action.Pushone }
         | _ -> insn)
       (Program.insns p))

(* The witness [Equiv] synthesizes against [p]'s miscompilation. *)
let refute p =
  match
    (Equiv.check_programs (validate_exn p) (validate_exn (miscompile p))).Equiv.verdict
  with
  | Equiv.Counterexample w -> w
  | Equiv.Proved_equal -> Alcotest.fail "seeded miscompilation proved equal"
  | Equiv.Unknown -> Alcotest.fail "seeded miscompilation not refuted"

(* The pinned minimal regression the shrinker converges to. *)
let literal_two_program =
  Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushlit 2) ]

let test_miscompilation_refuted () =
  let w = refute literal_two_program in
  Alcotest.(check bool) "original's verdict on the witness" true
    (Interp.accepts ~semantics:`Paper literal_two_program w);
  Alcotest.(check bool) "miscompiled verdict differs" false
    (Interp.accepts ~semantics:`Paper (miscompile literal_two_program) w)

let test_miscompilation_shrinks_to_regression () =
  (* a padded variant: dead identity arithmetic around the live [pushlit 2]
     comparison *)
  let padded =
    Program.v
      [
        i (Action.Pushword 0);
        i ~op:Op.Or (Action.Pushlit 0);
        i ~op:Op.Eq (Action.Pushlit 2);
        i (Action.Pushword 1);
        i ~op:Op.Ge (Action.Pushlit 0);
        i ~op:Op.And Action.Nopush;
      ]
  in
  let witness = refute padded in
  (* keep = "the miscompilation still disagrees with the source" *)
  let keep p pkt =
    match Validate.check p with
    | Error _ -> false
    | Ok _ ->
      Interp.accepts ~semantics:`Paper p pkt
      <> Interp.accepts ~semantics:`Paper (miscompile p) pkt
  in
  Alcotest.(check bool) "padded case disagrees" true (keep padded witness);
  let shrunk_p, shrunk_w = Shrink.minimize ~keep padded witness in
  Alcotest.(check bool) "shrunk case still disagrees" true (keep shrunk_p shrunk_w);
  (* greedy minimization keeps only the live [pushlit 2] comparison (it can
     even drop the packet dependence: [2 land 1 = 0] while the miscompiled
     [1 land 1 = 1]) *)
  Alcotest.(check bool)
    (Format.asprintf "shrunk to <= 4 insns: %a" Program.pp shrunk_p)
    true
    (Program.insn_count shrunk_p <= 4);
  Alcotest.(check bool) "witness shrunk to <= 1 word" true
    (Packet.word_count shrunk_w <= 1)

(* {1 Every counterexample is runnable on every engine} *)

(* The confirmation matrix of a refuting witness: each side's verdict is
   engine-independent (checked interpreter under both semantics, Fast,
   Regvm), and the two sides differ — exactly the claim a
   [Counterexample] makes. *)
let confirm_matrix name va vb w =
  let verdict v =
    let program = Validate.program v in
    let reference = Interp.accepts ~semantics:`Paper program w in
    let engines =
      [
        ("interp-bsd", Interp.accepts ~semantics:`Bsd program w);
        ("fast", Fast.run (Fast.compile v) w);
        ("regvm", Regvm.run (Regvm.compile v) w);
      ]
    in
    List.iter
      (fun (engine, got) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s agrees on the witness" name engine)
          reference got)
      engines;
    reference
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: witness separates the two sides" name)
    true
    (verdict va <> verdict vb)

let test_counterexamples_confirmed_on_all_engines () =
  (* disagreeing pairs over several domains: plain constants, masked
     words, word-vs-word equality, packet length *)
  let pairs =
    [
      ( "constant",
        literal_two_program,
        Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushlit 3) ] );
      ( "mask",
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Push00ff;
            i ~op:Op.Eq (Action.Pushlit 7);
          ],
        Program.v
          [
            i (Action.Pushword 1);
            i ~op:Op.And Action.Pushff00;
            i ~op:Op.Eq (Action.Pushlit 0x0700);
          ] );
      ( "word pair",
        Program.v [ i (Action.Pushword 0); i ~op:Op.Eq (Action.Pushword 2) ],
        Program.v [ i (Action.Pushword 0); i ~op:Op.Neq (Action.Pushword 2) ] );
      ( "length",
        (* out-of-range pushword rejects: accept iff >= 5 (resp. 3) words *)
        Program.v [ i (Action.Pushword 4); i ~op:Op.Ge (Action.Pushlit 0) ],
        Program.v [ i (Action.Pushword 2); i ~op:Op.Ge (Action.Pushlit 0) ] );
    ]
  in
  List.iter
    (fun (name, pa, pb) ->
      let va = validate_exn pa and vb = validate_exn pb in
      match (Equiv.check_programs va vb).Equiv.verdict with
      | Equiv.Counterexample w -> confirm_matrix name va vb w
      | Equiv.Proved_equal ->
          Alcotest.failf "%s: inequivalent pair proved equal" name
      | Equiv.Unknown -> Alcotest.failf "%s: pair not separated" name)
    pairs

(* {1 IR witnesses are confirmed on the register VM}

   [check_ir]'s IR side may be any IR, not only [Regopt]'s output. Flip
   every early-exit verdict of fig 3-9's lowered IR: the check must return
   a witness that the checked interpreter and [Regvm.exec], the loop the
   kernel runs, read differently. *)

let test_flipped_ir_refuted () =
  let v = validate_exn Predicates.fig_3_9 in
  let ir = Ir.lower v in
  let flip = function
    | Ir.Tcond t -> Ir.Tcond { t with verdict = not t.verdict }
    | instr -> instr
  in
  let flipped = { ir with Ir.instrs = Array.map flip ir.Ir.instrs } in
  Alcotest.(check bool) "fig 3-9 lowers to early exits" true
    (flipped.Ir.instrs <> ir.Ir.instrs);
  let r = Equiv.check_ir v flipped in
  match r.Equiv.verdict with
  | Equiv.Counterexample w ->
      let reference = Interp.accepts ~semantics:`Paper Predicates.fig_3_9 w in
      Alcotest.(check bool) "Regvm.exec reads the witness the other way"
        (not reference) (Regvm.exec flipped w);
      Alcotest.(check bool) "Equiv confirms with Regvm.exec"
        (Regvm.exec flipped w)
        (Equiv.run_side (Equiv.Ir_prog flipped) w);
      Alcotest.(check bool) "the lowered IR reads it like Interp" reference
        (Regvm.exec ir w)
  | Equiv.Proved_equal | Equiv.Unknown ->
      Alcotest.failf "flipped IR not refuted: %a" Equiv.pp_report r

(* {1 A whole first-match chain}

   The builtins reach 14 instructions and generated fuzz programs about 40
   code words; this chain is the one input that gives [Symex] and [Equiv]
   hundreds of paths. It is a 5-tuple rule table over the Dix10 IPv4
   layout (word 6 EtherType, 7 version/IHL, 10 fragment offset, 11
   protocol, 15 destination address high half, 18 destination port):
   a shape guard conjoined with a first-match fold, every conjunct a
   masked word equality or a range bound. *)

let word n = Expr.Word n
let lit v = Expr.Lit v
let eq a b = Expr.Bin (Expr.Eq, a, b)
let ge n v = Expr.Bin (Expr.Ge, word n, lit v)
let le n v = Expr.Bin (Expr.Le, word n, lit v)
let masked_eq n mask v = eq (Expr.Bin (Expr.Band, word n, lit mask)) (lit v)
let tcp = 6 and udp = 17
let to_10_8 = masked_eq 15 0xff00 0x0a00
let to_10_x_16 x = eq (word 15) (lit (0x0a00 lor x))

(* [proto] to [dst] with destination-port tests, first fragments only *)
let rule proto dst dports =
  Expr.All ([ masked_eq 11 0x00ff proto; dst; masked_eq 10 0x1fff 0 ] @ dports)

(* First match wins, default drop: an accept rule [r] over the rest [k] is
   [r ∨ k], a drop rule [¬r ∧ k]. The guard's [word 18 >= 0] makes every
   compiled form reject the same short packets. *)
let table rules =
  Expr.All
    [
      eq (word 6) (lit 0x0800);
      masked_eq 7 0xff00 0x4500;
      ge 18 0;
      List.fold_right
        (fun (accept, r) rest ->
          if accept then Expr.Any [ r; rest ] else Expr.All [ Expr.Not r; rest ])
        rules (lit 0);
    ]

(* ssh and DNS to 10/8, web to 10.10/16 *)
let service_rules =
  [
    (true, rule tcp to_10_8 [ eq (word 18) (lit 22) ]);
    (true, rule udp to_10_8 [ eq (word 18) (lit 53) ]);
    (true, rule tcp (to_10_x_16 10) [ ge 18 80; le 18 443 ]);
  ]

(* Two overlapping rules of opposite action: drop tcp to 10/8 at ports
   >= 1024, accept tcp to 10.2/16 at ports 1000-2000. *)
let drop_high = (false, rule tcp to_10_8 [ ge 18 1024 ])
let accept_mid = (true, rule tcp (to_10_x_16 2) [ ge 18 1000; le 18 2000 ])

(* The chain as a naive code generator emits it: no short-circuit
   operators, no constant folding. *)
let naive_chain rules =
  validate_exn (Expr.compile ~short_circuit:false ~optimize:false (table rules))

let test_whole_chain () =
  let chain = table service_rules in
  let naive = naive_chain service_rules in
  let words = Program.code_words (Validate.program naive) in
  Alcotest.(check bool)
    (Printf.sprintf "naive chain has %d >= 72 code words" words)
    true (words >= 72);
  (match
     (Equiv.check_programs naive (validate_exn (Expr.compile chain))).Equiv.verdict
   with
  | Equiv.Proved_equal -> ()
  | _ -> Alcotest.fail "short-circuit compile not proved equal to the chain");
  let ir, _ = Regopt.optimize naive in
  (match (Equiv.check_ir naive ir).Equiv.verdict with
  | Equiv.Proved_equal -> ()
  | _ -> Alcotest.fail "Regopt output not proved equal to the chain");
  (* The order of two overlapping rules of opposite action is the whole
     story, so the two folds must be refuted with a witness that every
     engine reads the same way within each order. *)
  let va = validate_exn (Expr.compile (table [ drop_high; accept_mid ])) in
  let vb = validate_exn (Expr.compile (table [ accept_mid; drop_high ])) in
  match (Equiv.check_programs va vb).Equiv.verdict with
  | Equiv.Counterexample w -> confirm_matrix "rule order" va vb w
  | Equiv.Proved_equal -> Alcotest.fail "reordered rules proved equal"
  | Equiv.Unknown -> Alcotest.fail "reordered rules not separated"

(* {1 The pair budget's edge: an inconclusive certification falls back}

   Each rule multiplies the chain's paths, and [check_ir] pairs every
   differing-verdict path of one side with the other's. Four rules prove
   within [Equiv.default_pair_budget]; a fifth exhausts it, although a
   larger budget proves it too. A device certifying [`Regvm] must then run
   the checked stack engine, never the unproved IR. *)

(* IPv4-shaped frames that reach every rule: the guard's words, the
   protocols and destinations the rules name, ports at and around their
   bounds, and truncations that cut the port or the guard. *)
let chain_packets () =
  let rng = Gen.Rng.make 0xC4A1 in
  List.init 400 (fun n ->
      let pick l = Gen.Rng.choose rng l in
      let words =
        Array.init 20 (fun _ -> Gen.Rng.int rng 0x10000)
      in
      words.(6) <- pick [ 0x0800; 0x0800; 0x0800; 0x0806 ];
      words.(7) <- pick [ 0x4500; 0x4500; 0x4500; 0x4600 ];
      words.(10) <- pick [ 0; 0; 0; 0x2000; 0x0001 ];
      words.(11) <- (words.(11) land 0xff00) lor pick [ tcp; tcp; udp; 1 ];
      words.(15) <- pick [ 0x0a00; 0x0a02; 0x0a0a; 0x0a63; 0x0b02; 0xc0a8 ];
      words.(18) <-
        pick [ 22; 53; 79; 80; 443; 444; 999; 1000; 1023; 1024; 2000; 2001 ];
      let pkt = Packet.of_words (Array.to_list words) in
      match n mod 10 with
      | 0 -> Packet.sub pkt ~pos:0 ~len:(2 * Gen.Rng.int rng 19)
      | 1 -> Packet.sub pkt ~pos:0 ~len:37
      | _ -> pkt)

let certify_on_device program =
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.free in
  let stats = Pf_sim.Stats.create () in
  let dev =
    Pfdev.create eng (Pf_sim.Cpu.create costs) costs stats
      ~variant:Pf_net.Frame.Dix10 ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  Pfdev.set_compile_strategy dev `Regvm;
  Pfdev.set_certify dev true;
  (* every packet runs the port's filter *)
  Pfdev.set_cache_enabled dev false;
  let port = Pfdev.open_port dev in
  Pfdev.set_queue_limit port max_int;
  (match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e);
  (dev, stats, port)

let test_pair_budget_edge () =
  let check ?pair_budget v =
    Equiv.check_ir ?pair_budget v (fst (Regopt.optimize v))
  in
  let four = naive_chain (service_rules @ [ drop_high ]) in
  let five = naive_chain (service_rules @ [ drop_high; accept_mid ]) in
  let r4 = check four in
  (match r4.Equiv.verdict with
  | Equiv.Proved_equal -> ()
  | _ -> Alcotest.failf "4 rules: %a" Equiv.pp_report r4);
  Alcotest.(check bool)
    (Printf.sprintf "4 rules spend most of the pair budget (%d pairs)"
       r4.Equiv.pairs_checked)
    true
    (2 * r4.Equiv.pairs_checked > Equiv.default_pair_budget);
  let r5 = check five in
  (match r5.Equiv.verdict with
  | Equiv.Counterexample w ->
      Alcotest.failf "5 rules refuted by %a" Packet.pp_hex w
  | Equiv.Proved_equal | Equiv.Unknown -> ());
  (match (check ~pair_budget:(4 * Equiv.default_pair_budget) five).Equiv.verdict with
  | Equiv.Proved_equal -> ()
  | _ -> Alcotest.fail "5 rules not proved with a larger pair budget");
  let get stats = Pf_sim.Stats.get stats in
  let packets = chain_packets () in
  (* four rules: proved, so the optimized IR runs *)
  let dev, stats, port = certify_on_device (Validate.program four) in
  Alcotest.(check bool) "4 rules certified" true
    (Pfdev.port_certification port = Some Equiv.Certified);
  Alcotest.(check int) "pf.certify.proved" 1 (get stats "pf.certify.proved");
  List.iter (fun pkt -> ignore (Pfdev.demux dev pkt : bool)) packets;
  Alcotest.(check bool) "4 rules run the register VM" true
    (get stats "pf.regvm_insns" > 0 && get stats "pf.regvm_insns" = get stats "pf.filter_insns");
  (* five rules: inconclusive, so the checked stack engine runs *)
  let program = Validate.program five in
  let dev, stats, port = certify_on_device program in
  (match Pfdev.port_certification port with
  | Some (Equiv.Uncertified why) ->
      Alcotest.(check bool) ("reason names the pair budget: " ^ why) true
        (contains ~affix:"path-pair budget" why)
  | _ -> Alcotest.fail "5 rules: install did not record Uncertified");
  Alcotest.(check int) "pf.certify.unknown" 1 (get stats "pf.certify.unknown");
  Alcotest.(check int) "pf.certify.proved" 0 (get stats "pf.certify.proved");
  let accepted = ref 0 and source_insns = ref 0 in
  List.iter
    (fun pkt ->
      let reference = Interp.run program pkt in
      if reference.Interp.accept then incr accepted;
      source_insns := !source_insns + reference.Interp.insns_executed;
      Alcotest.(check bool)
        (Format.asprintf "device = interp on %a" Packet.pp_hex pkt)
        reference.Interp.accept (Pfdev.demux dev pkt))
    packets;
  Alcotest.(check bool)
    (Printf.sprintf "the mix is accepted and rejected (%d of %d accepted)"
       !accepted (List.length packets))
    true
    (!accepted > 0 && !accepted < List.length packets);
  Alcotest.(check int) "every packet ran the stack program" (List.length packets)
    (get stats "pf.filters_tested");
  Alcotest.(check int) "5 rules fall back to the stack engine" 0 (get stats "pf.regvm_insns");
  Alcotest.(check int) "the stack engine runs the source" !source_insns
    (get stats "pf.filter_insns")

(* {1 Operand-swapped comparisons}

   Swap a comparison's operands and [Analysis.guards] finds no chain, so
   the dispatch automaton cannot index the filter; the symbolic engine
   still proves the rewrite, and the automaton still answers as the
   sequential walk does. *)

let test_operand_swap_proved () =
  let swapped_w7_is_5 =
    Program.v
      [
        i (Action.Pushlit 5);
        i (Action.Pushword 7);
        i ~op:Op.Eq Action.Nopush;
      ]
  in
  let plain_w7_is_5 =
    Program.v [ i (Action.Pushword 7); i ~op:Op.Eq (Action.Pushlit 5) ]
  in
  Alcotest.(check (pair (list (triple int int int)) bool))
    "no guard chain in the swapped form" ([], false)
    (Analysis.guards swapped_w7_is_5);
  let r =
    Equiv.check_programs (validate_exn plain_w7_is_5)
      (validate_exn swapped_w7_is_5)
  in
  match r.Equiv.verdict with
  | Equiv.Proved_equal -> ()
  | _ -> Alcotest.failf "operand swap not proved: %a" Equiv.pp_report r

(* A guarded filter and a chainless one that never share a packet: the
   first goes into the automaton, the second into the residual walk, and
   the merged first match must be the sequential walk's on every
   packet. *)
let test_operand_swap_pair_through_dispatch () =
  let expensive =
    Program.v
      [
        i (Action.Pushword 1);
        i ~op:Op.Cand (Action.Pushlit 2);
        i (Action.Pushword 3);
        i ~op:Op.Cand (Action.Pushlit 0);
        i (Action.Pushlit 0);
        i (Action.Pushword 7);
        i ~op:Op.Eq Action.Nopush;
      ]
  in
  let cheap =
    Program.v
      [ i (Action.Pushlit 5); i (Action.Pushword 7); i ~op:Op.Eq Action.Nopush ]
  in
  let ve = validate_exn expensive and vc = validate_exn cheap in
  let first_match =
    Testutil.dispatch_first_match [ (ve, "expensive"); (vc, "cheap") ]
  in
  let pkt = Packet.of_words [ 0; 2; 0; 0; 0; 0; 0; 5 ] in
  Alcotest.(check (option string)) "cheap filter accepts" (Some "cheap")
    (fst (first_match pkt));
  let seq = [ (expensive, "expensive"); (cheap, "cheap") ] in
  let rng = Gen.Rng.make 0xD15 in
  for _ = 1 to 200 do
    let pkt, _ = Gen.packet rng in
    let sequential =
      List.find_map
        (fun (p, name) ->
          if Interp.accepts ~semantics:`Paper p pkt then Some name else None)
        seq
    in
    Alcotest.(check (option string)) "dispatch verdict = sequential verdict"
      sequential
      (fst (first_match pkt))
  done

(* {1 Witness synthesis: solve and satisfies} *)

let accept_conds program =
  let v = validate_exn program in
  let outcome = Symex.run (Symex.Ctx.create ()) v in
  Alcotest.(check bool) "enumeration complete" true outcome.Symex.complete;
  List.filter_map
    (fun p -> if p.Symex.accept then Some p.Symex.cond else None)
    outcome.Symex.paths

let test_solve_synthesizes_satisfying_packets () =
  (* masked bits + a disequality + a word-pair equality in one condition *)
  let program =
    Program.v
      [
        i (Action.Pushword 0);
        i ~op:Op.And Action.Pushff00;
        i ~op:Op.Cand (Action.Pushlit 0x1200);
        i (Action.Pushword 1);
        i ~op:Op.Cand (Action.Pushlit 5);
        i (Action.Pushword 2);
        i ~op:Op.Eq (Action.Pushword 3);
      ]
  in
  let conds = accept_conds program in
  Alcotest.(check bool) "at least one accepting path" true (conds <> []);
  List.iter
    (fun cond ->
      match Symex.solve cond with
      | `Sat pkt ->
          Alcotest.(check bool) "synthesized packet satisfies its condition"
            true
            (Symex.satisfies cond pkt);
          Alcotest.(check bool) "and the interpreter accepts it" true
            (Interp.accepts ~semantics:`Paper program pkt)
      | `Unsat -> Alcotest.fail "reachable accepting path reported unsat"
      | `Unknown -> Alcotest.fail "simple masked condition unsolved")
    conds

let test_solve_detects_unsat () =
  (* w0 = 1 AND w0 = 2: the accepting path's condition is contradictory *)
  let program =
    Program.v
      [
        i (Action.Pushword 0);
        i ~op:Op.Cand (Action.Pushlit 1);
        i (Action.Pushword 0);
        i ~op:Op.Eq (Action.Pushlit 2);
      ]
  in
  List.iter
    (fun cond ->
      match Symex.solve cond with
      | `Unsat -> ()
      | `Sat pkt ->
          Alcotest.failf "contradiction solved to %a" Packet.pp_hex pkt
      | `Unknown -> Alcotest.fail "contradiction not refuted")
    (accept_conds program)

(* {1 The pseudodevice certifies installs} *)

let test_pfdev_certify () =
  let costs = Pf_sim.Costs.free in
  let eng = Pf_sim.Engine.create () in
  let link = Pf_net.Link.create eng Pf_net.Frame.Exp3 ~rate_mbit:3. () in
  let host =
    Host.create ~costs link ~name:"certifier" ~addr:(Pf_net.Addr.exp 1)
  in
  let pf = Host.pf host in
  let stats = Host.stats host in
  let install_exn port program =
    match Pfdev.install port program with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "install: %a" Pfdev.pp_install_error e
  in
  (* off by default: nothing recorded *)
  let port0 = Pfdev.open_port pf in
  install_exn port0 Predicates.fig_3_9;
  Alcotest.(check bool) "no certification when not certifying" true
    (Pfdev.port_certification port0 = None);
  Pfdev.set_certify pf true;
  Alcotest.(check bool) "certify sticks" true (Pfdev.certify pf);
  (* [`Off] runs the installed program itself: nothing to certify *)
  let port_off = Pfdev.open_port pf in
  install_exn port_off Predicates.fig_3_9;
  Alcotest.(check bool) "an `Off install certifies nothing" true
    (Pfdev.port_certification port_off = None);
  Alcotest.(check int) "and counts nothing" 0 (Pf_sim.Stats.get stats "pf.certify.proved");
  (* a [`Regvm] install certifies, and the stat counts it *)
  Pfdev.set_compile_strategy pf `Regvm;
  let port = Pfdev.open_port pf in
  install_exn port Predicates.fig_3_9;
  (match Pfdev.port_certification port with
  | Some Equiv.Certified -> ()
  | Some (Equiv.Refuted w) ->
      Alcotest.failf "shipped compile refuted by %a" Packet.pp_hex w
  | Some (Equiv.Uncertified why) ->
      Alcotest.failf "shipped compile uncertified: %s" why
  | None -> Alcotest.fail "certifying install recorded nothing");
  Alcotest.(check int) "pf.certify.proved incremented" 1
    (Pf_sim.Stats.get stats "pf.certify.proved");
  Alcotest.(check int) "no refutations of shipped compiles" 0
    (Pf_sim.Stats.get stats "pf.certify.refuted")

let suite =
  ( "symex",
    [
      Alcotest.test_case "symex matches interp on builtins" `Quick
        test_symex_matches_interp_builtins;
      Alcotest.test_case "symex matches interp on tricky programs" `Quick
        test_symex_matches_interp_tricky;
      Alcotest.test_case "path budget degrades to incomplete" `Quick
        test_budget_degrades_to_incomplete;
      Alcotest.test_case "equiv proves self-equivalence" `Quick
        test_equiv_self_proved;
      Alcotest.test_case "builtin rewrites certified" `Quick
        test_builtin_rewrites_certified;
      Alcotest.test_case "seeded miscompilation refuted" `Quick
        test_miscompilation_refuted;
      Alcotest.test_case "miscompilation shrinks to pinned regression" `Quick
        test_miscompilation_shrinks_to_regression;
      Alcotest.test_case "counterexamples confirmed on all engines" `Quick
        test_counterexamples_confirmed_on_all_engines;
      Alcotest.test_case "flipped IR exits refuted, witness on Regvm.exec"
        `Quick test_flipped_ir_refuted;
      Alcotest.test_case "whole first-match chain: proved, reorder refuted"
        `Quick test_whole_chain;
      Alcotest.test_case "pair-budget edge: uncertified install falls back"
        `Quick test_pair_budget_edge;
      Alcotest.test_case "operand swap: rewrite proved equal" `Quick
        test_operand_swap_proved;
      Alcotest.test_case "operand swap: dispatch = sequential" `Quick
        test_operand_swap_pair_through_dispatch;
      Alcotest.test_case "solve synthesizes satisfying packets" `Quick
        test_solve_synthesizes_satisfying_packets;
      Alcotest.test_case "solve detects unsatisfiable conditions" `Quick
        test_solve_detects_unsat;
      Alcotest.test_case "pfdev certifies installs" `Quick test_pfdev_certify;
    ] )
