(* Ablations over the design choices DESIGN.md calls out ([bench
   ablation]), plus real wall-clock microbenchmarks (Bechamel) of the
   evaluation strategies, run on their own as [bench wallclock]:

   - short-circuit operators vs plain combination (the optimization §3.1
     says "is especially important for performance");
   - filter priority ordered by traffic share vs arbitrary (§3.2's claim
     that the "average" packet then matches one of the first few filters);
   - a machine-generated filter on the stack interpreter vs its Regopt
     output on the register VM (installation-time optimization);
   - interpretation vs ahead-of-time validation (§7) vs the register VM
     (§7's "compiling filters into machine code") vs the dispatch
     automaton (§7's "decision table").

   The ablation tables on stdout are counts and simulated time, so they
   are deterministic; the Bechamel rows are host wall clock and go to
   stderr. *)

open Util
open Pf_filter
module Packet = Pf_pkt.Packet

let socket_filter s = Predicates.pup_dst_port_10mb ~host:2 (Int32.of_int s)
let frame_for s = pup_frame_dix ~socket:(Int32.of_int s)

(* {1 Short-circuit vs plain: instructions interpreted per packet} *)

let sc_vs_plain () =
  let open Dsl in
  let expr s =
    word 13 =: lit s &&: (word 12 =: lit 0) &&: (low_byte (word 11) =: lit 2)
    &&: (word 6 =: lit 0x0200)
  in
  let sc = Expr.compile (expr 35) in
  let plain = Expr.compile ~short_circuit:false (expr 35) in
  let traffic = List.init 50 (fun i -> frame_for (20 + i)) in
  let insns p =
    List.fold_left (fun acc f -> acc + (Interp.run p f).Interp.insns_executed) 0 traffic
  in
  let sc_insns = insns sc and plain_insns = insns plain in
  print_table ~title:"Ablation: short-circuit operators (50-packet mix, 1 match)"
    [
      { metric = "insns interpreted, short-circuit"; paper = "-";
        ours = string_of_int sc_insns };
      { metric = "insns interpreted, plain AND"; paper = "-";
        ours = string_of_int plain_insns };
      { metric = "saving"; paper = "(motivates COR/CAND/...)";
        ours = Printf.sprintf "%.0f%%" (100. *. (1. -. float_of_int sc_insns /. float_of_int plain_insns)) };
    ]

(* {1 Priority assignment (§3.2)} *)

let priority_ordering () =
  let rng = Pf_sim.Rng.create 7 in
  let k = 16 in
  (* Zipf-ish traffic: port i receives share ~ 1/(i+1). *)
  let weights = Array.init k (fun i -> 1. /. float_of_int (i + 1)) in
  let total_w = Array.fold_left ( +. ) 0. weights in
  let pick () =
    let x = Pf_sim.Rng.float rng total_w in
    let rec go i acc =
      if i = k - 1 then i
      else begin
        let acc = acc +. weights.(i) in
        if x < acc then i else go (i + 1) acc
      end
    in
    go 0 0.
  in
  let traffic = List.init 3000 (fun _ -> pick ()) in
  let tested ~order =
    (* [order] maps application order position -> port id. *)
    List.fold_left
      (fun acc target ->
        let rec scan pos =
          if order pos = target then pos + 1 else scan (pos + 1)
        in
        acc + scan 0)
      0 traffic
  in
  (* Priorities proportional to likelihood: busiest filter first. *)
  let good = tested ~order:(fun pos -> pos) in
  (* Arbitrary (reversed) order: busiest filter last. *)
  let bad = tested ~order:(fun pos -> k - 1 - pos) in
  let n = float_of_int (List.length traffic) in
  print_table ~title:"Ablation: priority proportional to traffic share (16 filters, zipf)"
    ~note:
      "§3.2: \"if priorities are assigned proportional to the likelihood that\n\
       a filter will accept a packet, then the 'average' packet will match\n\
       one of the first few filters\"."
    [
      { metric = "avg filters tested, busiest-first"; paper = "(few)";
        ours = Printf.sprintf "%.1f" (float_of_int good /. n) };
      { metric = "avg filters tested, busiest-last"; paper = "-";
        ours = Printf.sprintf "%.1f" (float_of_int bad /. n) };
    ]

(* {1 Dispatch automaton vs sequential application}

   §7's "decision table": the active filters compiled into the dispatch
   automaton. A packet costs one probe plus the same-slot candidates, then
   the residuals ranked below the winner, walked in order. *)

(* The first match through [d], whose values carry their compiled filter,
   and the instructions interpreted to find it. *)
let dispatch_first_match d packet =
  let winner = Dispatch.classify d packet in
  let below = match winner with Some (rank, _) -> rank | None -> max_int in
  let rec walk insns = function
    | (rank, (fast, i)) :: rest when rank < below ->
      let ok, n = Fast.run_counted fast packet in
      if ok then (Some i, insns + n) else walk (insns + n) rest
    | _ -> (Option.map (fun (_, (_, i)) -> i) winner, insns)
  in
  walk (Dispatch.stats d).Dispatch.insns (Dispatch.residuals d)

let compile_sockets sockets =
  List.map
    (fun s ->
      let fast = Fast.compile (Validate.check_exn (socket_filter s)) in
      (fast, (fast, s)))
    sockets

let dispatch_table () =
  let k = 24 in
  let filters = compile_sockets (List.init k (fun i -> 100 + i)) in
  let d = Dispatch.build_compiled filters in
  let traffic = List.init 200 (fun i -> frame_for (100 + (i mod (k + 4)))) in
  let sequential f =
    let rec scan insns = function
      | [] -> (None, insns)
      | (fast, (_, s)) :: rest ->
        let ok, n = Fast.run_counted fast f in
        if ok then (Some s, insns + n) else scan (insns + n) rest
    in
    scan 0 filters
  in
  let seq_insns, auto_insns, mismatches =
    List.fold_left
      (fun (seq_acc, auto_acc, bad) f ->
        let seq, seq_n = sequential f and auto, auto_n = dispatch_first_match d f in
        (seq_acc + seq_n, auto_acc + auto_n, if seq = auto then bad else bad + 1))
      (0, 0, 0) traffic
  in
  print_table ~title:"Ablation: dispatch automaton (§7) vs sequential demux (24 filters)"
    [
      { metric = "insns interpreted, sequential"; paper = "-"; ours = string_of_int seq_insns };
      { metric = "insns interpreted, dispatch automaton"; paper = "-"; ours = string_of_int auto_insns };
      { metric = "saving"; paper = "\"best possible performance\"";
        ours = Printf.sprintf "%.0f%%" (100. *. (1. -. float_of_int auto_insns /. float_of_int seq_insns)) };
    ];
  if mismatches > 0 then
    failwith
      (Printf.sprintf
         "dispatch automaton: first match differs from the sequential walk on %d of %d \
          packets"
         mismatches (List.length traffic))

(* {1 Installation-time optimization of machine-generated filters}

   The filter goes through Regopt, the optimizer the kernel runs at
   install under the [`Regvm] compile strategy. Worst cases are those of
   [bench ir]'s corpus gate. *)

let install_optimization () =
  (* A filter as a naive code generator might emit it for "Pup with
     PupType 16" on the 3 Mb Ethernet: literal arithmetic for protocol
     constants, redundant no-ops between fragments. *)
  let clumsy =
    Program.v
      [ Insn.make Action.Nopush;
        Insn.make (Action.Pushword 1);
        Insn.make (Action.Pushlit 1);
        Insn.make ~op:Op.Add (Action.Pushlit 1); (* "2" computed at run time *)
        Insn.make ~op:Op.Eq Action.Nopush;
        Insn.make Action.Nopush;
        Insn.make (Action.Pushword 3);
        Insn.make (Action.Pushlit 0xff);         (* 0x00ff as a literal word *)
        Insn.make ~op:Op.And Action.Nopush;
        Insn.make ~op:Op.Eq (Action.Pushlit 16);
        Insn.make ~op:Op.And Action.Nopush;
      ]
  in
  let v = Validate.check_exn clumsy in
  let vm = Regvm.compile v in
  let report = Regvm.report vm in
  let stack_us, regvm_us =
    Exp_ir.worst_case_us Pf_sim.Costs.microvax_ii (Analysis.analyze v) vm
  in
  (* 3 Mb Pup frames of several PupTypes (16 is the one accepted) and hop
     counts (the mask must hide them), the same frames under another
     ethertype, and their truncations. *)
  let frame ~ethertype ~hops ptype =
    Frame.encode Frame.Exp3 ~dst:(Addr.exp 1) ~src:(Addr.exp 2) ~ethertype
      (Pf_proto.Pup.encode
         (Pf_proto.Pup.v ~transport_control:hops ~ptype ~id:0l
            ~dst:(Pf_proto.Pup.port ~host:1 35l) ~src:(Pf_proto.Pup.port ~host:2 99l)
            (Packet.of_string "")))
  in
  let frames =
    List.concat_map
      (fun ethertype ->
        List.concat_map
          (fun hops -> List.map (frame ~ethertype ~hops) [ 0; 1; 15; 16; 17; 100; 255 ])
          [ 0; 5 ])
      [ 2; 3 ]
  in
  let packets =
    frames
    @ List.concat_map
        (fun f -> [ Packet.sub f ~pos:0 ~len:4; Packet.sub f ~pos:0 ~len:7 ])
        frames
  in
  let disagreements =
    List.filter (fun p -> Regvm.run vm p <> Interp.accepts clumsy p) packets
  in
  let accepted = List.length (List.filter (Interp.accepts clumsy) packets) in
  print_table ~title:"Ablation: installation-time optimization (Regopt)"
    ~note:
      (Printf.sprintf
         "Gate: the register VM must match the interpreter on all %d packets\n\
          (%d accepted) and its worst case must be below the stack walk's."
         (List.length packets) accepted)
    [
      { metric = "stack instructions"; paper = "-";
        ours = string_of_int report.Regopt.insns_before };
      { metric = "IR instructions, lowered -> optimized"; paper = "-";
        ours = Printf.sprintf "%d -> %d" report.Regopt.lowered_instrs
                 report.Regopt.optimized_instrs };
      { metric = "worst case, stack interpreter -> register VM"; paper = "-";
        ours = Printf.sprintf "%d -> %d uSec" stack_us regvm_us };
    ];
  if disagreements <> [] then
    failwith
      (Printf.sprintf
         "install-time optimization: register VM and interpreter disagree on %d of %d \
          packets"
         (List.length disagreements) (List.length packets));
  if regvm_us >= stack_us then
    failwith
      (Printf.sprintf
         "install-time optimization: register VM worst case %d uSec is not below the \
          stack interpreter's %d uSec"
         regvm_us stack_us)

(* {1 NIT-style single-field demux (the §5.4 footnote)} *)

let nit_baseline () =
  (* A Pup endpoint wants socket 35. NIT can only match one field, so it
     matches the socket word; the CSPF filter checks socket and type. Run a
     realistic mixed traffic sample past both. *)
  let rng = Pf_sim.Rng.create 42 in
  let nit = Fieldmatch.v ~offset:13 35 in
  let cspf = Validate.check_exn (socket_filter 35) |> Fast.compile in
  let traffic =
    List.init 400 (fun _ ->
        match Pf_sim.Rng.int rng 3 with
        | 0 -> frame_for (30 + Pf_sim.Rng.int rng 10) (* pup, misc sockets *)
        | 1 ->
          (* non-Pup traffic whose word 13 sometimes collides with 35 *)
          Pf_pkt.Packet.of_words
            (List.init 16 (fun i ->
                 if i = 6 then 0x0800
                 else if i = 13 then (if Pf_sim.Rng.bool rng 0.3 then 35 else Pf_sim.Rng.int rng 100)
                 else Pf_sim.Rng.int rng 0xffff))
        | _ -> frame_for 35 (* the packets actually wanted *))
  in
  let wanted = List.filter (fun p -> Fast.run cspf p) traffic in
  let nit_accepted = List.filter (fun p -> Fieldmatch.matches nit p) traffic in
  let false_positives =
    List.length (List.filter (fun p -> not (Fast.run cspf p)) nit_accepted)
  in
  print_table
    ~title:"Ablation: single-field demux (Sun NIT) vs the packet filter (400 pkts)"
    ~note:
      "\194\1672: \"If the kernel can demultiplex only on the type field, then one\n\
       must still use a user-level switching process\" - every false\n\
       positive is a packet the user process must filter again itself."
    [
      { metric = "wanted by the endpoint"; paper = "-";
        ours = string_of_int (List.length wanted) };
      { metric = "delivered by NIT single-field"; paper = "-";
        ours = string_of_int (List.length nit_accepted) };
      { metric = "false positives (user must re-filter)"; paper = "-";
        ours = string_of_int false_positives };
      { metric = "false positives with CSPF"; paper = "0"; ours = "0" };
    ]

(* {1 §5.2's protocol succession: V IKP vs VMTP} *)

let ikp_vs_vmtp () =
  (* "One result of this research was the VMTP protocol, a replacement for
     the V IKP." Minimal operations are comparable; VMTP earns its keep on
     bulk, where IKP's 32-byte messages would need 512 exchanges for 16KB. *)
  let world = dix_world () in
  let ikp_server =
    Pf_proto.Ikp.server world.b ~pid:0x10l ~handler:(fun m -> m)
  in
  let ikp_client = Pf_proto.Ikp.client world.a ~pid:0x20l in
  let ikp_us =
    time_iterations world world.a ~n:30 (fun _ ->
        match
          Pf_proto.Ikp.send ikp_client ~dst:0x10l ~dst_addr:(Host.addr world.b)
            (Pf_pkt.Packet.of_string "ping")
        with
        | Some _ -> ()
        | None -> failwith "ikp send failed")
  in
  Pf_proto.Ikp.stop ikp_server;
  let world2 = dix_world () in
  let vmtp_server =
    Pf_proto.Vmtp.server world2.b (Pf_proto.Vmtp.User { batch = false }) ~entity:1l
      ~handler:(fun m -> m)
  in
  let vmtp_client = Pf_proto.Vmtp.client world2.a (Pf_proto.Vmtp.User { batch = false }) ~entity:2l in
  let vmtp_us =
    time_iterations world2 world2.a ~n:30 (fun _ ->
        match
          Pf_proto.Vmtp.call vmtp_client ~server:1l ~server_addr:(Host.addr world2.b)
            (Pf_pkt.Packet.of_string "ping")
        with
        | Some _ -> ()
        | None -> failwith "vmtp call failed")
  in
  Pf_proto.Vmtp.stop_server vmtp_server;
  print_table ~title:"§5.2: V IKP vs its replacement VMTP (user-level, minimal op)"
    ~note:
      "IKP moves one fixed 32-byte message each way; a 16KB transfer would\n\
       need 512 such exchanges where VMTP uses one transaction — why VMTP\n\
       replaced it."
    [
      { metric = "IKP Send/Reply"; paper = "-"; ours = ms2 (ikp_us /. 1000.) };
      { metric = "VMTP minimal transaction"; paper = "14.7 mSec";
        ours = ms2 (vmtp_us /. 1000.) };
    ]

(* {1 Coexistence (§6): "the packet filter coexists with kernel-resident
   protocol implementations, without affecting their performance" — IP
   packets are claimed by the kernel before any filter runs, so even many
   active filters cost TCP nothing.} *)

let coexistence () =
  let total = 1 lsl 18 in
  let bare = Exp_stream.tcp_bulk_kbs ~mss:1024 ~total () in
  let with_filters =
    Exp_stream.tcp_bulk_kbs
      ~setup:(fun world ->
        for i = 0 to 19 do
          let port = Pf_kernel.Pfdev.open_port (Host.pf world.b) in
          set_filter_exn port (socket_filter (500 + i))
        done)
      ~mss:1024 ~total ()
  in
  print_table ~title:"Ablation: coexistence — TCP bulk rate vs active filter count"
    [
      { metric = "TCP, no packet filter ports"; paper = "-";
        ours = kbs bare };
      { metric = "TCP, 20 active filters installed"; paper = "(unchanged)";
        ours = kbs with_filters };
    ]

(* {1 Wall-clock microbenchmarks (Bechamel)} *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let match_frame = frame_for 35 in
  let miss_frame = frame_for 77 in
  let program = socket_filter 35 in
  let validated = Validate.check_exn program in
  let fast = Fast.compile validated in
  let regvm = Regvm.compile validated in
  let automaton = Dispatch.build_compiled (compile_sockets (List.init 20 (fun i -> 30 + i))) in
  let tests =
    Test.make_grouped ~name:"filter" ~fmt:"%s %s"
      [
        Test.make ~name:"interp(checked) match"
          (Staged.stage (fun () -> Interp.accepts program match_frame));
        Test.make ~name:"interp(checked) miss"
          (Staged.stage (fun () -> Interp.accepts program miss_frame));
        Test.make ~name:"fast(validated) match"
          (Staged.stage (fun () -> Fast.run fast match_frame));
        Test.make ~name:"fast(validated) miss"
          (Staged.stage (fun () -> Fast.run fast miss_frame));
        Test.make ~name:"regvm match"
          (Staged.stage (fun () -> Regvm.run regvm match_frame));
        Test.make ~name:"regvm miss"
          (Staged.stage (fun () -> Regvm.run regvm miss_frame));
        Test.make ~name:"dispatch 20 filters"
          (Staged.stage (fun () -> dispatch_first_match automaton (frame_for 45)));
        Test.make ~name:"pup checksum 532B"
          (let pkt = Packet.of_string (String.make 552 'x') in
           Staged.stage (fun () -> Pf_proto.Pup.checksum pkt ~pos:0 ~words:276));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  (* Host wall clock, not simulated time: on stderr, so stdout stays
     deterministic. *)
  flush stdout;
  Printf.eprintf "\nWall-clock microbenchmarks (Bechamel, ns/run on this machine)\n";
  Printf.eprintf "--------------------------------------------------------------\n";
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) ->
      Printf.eprintf "%-40s %10.1f ns\n%!" name est;
      record_metric (Printf.sprintf "ablation_wallclock_%s_ns" (slug name)) est)
    rows

let run () =
  sc_vs_plain ();
  priority_ordering ();
  dispatch_table ();
  install_optimization ();
  nit_baseline ();
  ikp_vs_vmtp ();
  coexistence ()
