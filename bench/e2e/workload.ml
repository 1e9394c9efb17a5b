(* The three workloads, and the seeded inputs one run of a workload drives.

   The load is an open loop: independent senders on a LAN pace their
   packets at a fixed offered rate, each packet due at its slot in the
   schedule plus up to one inter-packet gap of jitter, and a slow receiver
   does not slow them. Every packet is scheduled on the simulator at its due
   time and its latency is counted from that due time. (Poisson arrivals
   were tried: their bursts make the latency tail move by 20% from seed to
   seed, which would hide any change to the receiver.)

   The seed draws the packet sequence (which port each packet is for) and
   the jitter. The flow table — which protocol each port speaks and hence
   which filter it installs — is part of the workload's definition and
   comes from a fixed mix seed, and churn retires ports oldest first, so
   runs on different seeds measure the same receiver on different traffic. *)

module Gen = Pf_monitor.Traffic.Gen
module Packet = Pf_pkt.Packet
module Program = Pf_filter.Program
module Rng = Pf_sim.Rng

type t = {
  name : string;
  ncpus : int option;  (** [None]: the legacy single-CPU host, no steering *)
  ports : int;  (** ports open at any moment (churn swaps them) *)
  skew : Gen.skew;  (** how packets spread over the open ports *)
  strategy : [ `Sequential | `Dispatch ];
  compile : [ `Off | `Regvm ];  (** stack interpreter or register VM *)
  certify : bool;
  cache : bool;
  readers : bool;  (** one [read_batch] reader process per port *)
  rate_pps : float;  (** offered load *)
  packets : int;
  churn_every : int;  (** 0: the port set never changes *)
  setup_batch : int;  (** set-ups per [setup_s] sample: ~50 ms of work *)
}

(* The paper's configuration: ~33 filters run per packet and the user read
   path do nearly all the work; cache, dispatch, steering and locks are
   idle. *)
let paper_seq64 =
  {
    name = "paper-seq64";
    ncpus = None;
    ports = 64;
    skew = Gen.Uniform;
    strategy = `Sequential;
    compile = `Off;
    certify = false;
    cache = false;
    readers = true;
    rate_pps = 125.;
    packets = 100_000;
    churn_every = 0;
    setup_batch = 200;
  }

(* ~99% flow-cache hits on 4 CPUs: the hot flows' CPU sets capacity and
   contends for the delivery lock; the filter engine is nearly idle, the
   no-change control for engine work. *)
let zipf_smp4 =
  {
    name = "zipf-smp4";
    ncpus = Some 4;
    ports = 1024;
    skew = Gen.Zipf 1.2;
    strategy = `Dispatch;
    compile = `Regvm;
    certify = false;
    cache = true;
    readers = false;
    rate_pps = 1333.;
    packets = 200_000;
    churn_every = 0;
    setup_batch = 1;
  }

(* A port swap every 50 packets flushes 4 caches by IPI and forces lazy
   per-CPU dispatch rebuilds: the write path beside the read path. A gain
   for zipf-smp4 that costs the invalidation path shows up here. *)
let churn_smp4 =
  {
    name = "churn-smp4";
    ncpus = Some 4;
    ports = 256;
    skew = Gen.Uniform;
    strategy = `Dispatch;
    compile = `Regvm;
    certify = true;
    cache = true;
    readers = false;
    rate_pps = 1333.;
    packets = 40_000;
    churn_every = 50;
    setup_batch = 8;
  }

let all = [ paper_seq64; zipf_smp4; churn_smp4 ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The flow table is fixed across seeds (see the header comment). *)
let mix_seed = 0x5EED

(* A retired port stays open this long (simulated µs) after its flow stops
   sending, so packets still queued on a busy CPU are not lost: a reader
   closes its port after its peer has gone quiet, not mid-stream. *)
let grace_us = 200_000

type churn = {
  at : int;  (** the swap happens just before packet [at] is sent *)
  slot : int;
  retired : int;  (** flow whose port closes [grace_us] later *)
  fresh : int;  (** never-seen flow that gets a new port *)
}

type inputs = {
  w : t;
  flows : Gen.flow array;  (** every flow the run ever installs *)
  programs : Program.t array;  (** per flow *)
  initial : int array;  (** slot -> flow when set-up ends *)
  frames : Packet.t array;  (** per packet: its flow's frame, stamped *)
  flow_of : int array;  (** per packet *)
  due : int array;  (** per packet: µs after the traffic phase starts *)
  churns : churn array;  (** in packet order *)
  seqs_of_flow : int array array;  (** per flow: its packets, in order *)
  unmatched : Packet.t;  (** a frame no filter accepts *)
}

(* Each frame carries its sequence number in its last 4 bytes (payload
   padding in every protocol of the mix). [check] proves no filter reads
   those words, so the stamp cannot change a verdict, a cache key or the
   steering hash. *)
let stamp frame seq =
  let b = Packet.to_bytes frame in
  Bytes.set_int32_be b (Bytes.length b - 4) (Int32.of_int seq);
  Packet.of_bytes b

let seq_of p =
  let n = Packet.length p in
  (Packet.byte p (n - 4) lsl 24)
  lor (Packet.byte p (n - 3) lsl 16)
  lor (Packet.byte p (n - 2) lsl 8)
  lor Packet.byte p (n - 1)

let make w ~seed ~packets =
  let churns_n = if w.churn_every > 0 then (packets - 1) / w.churn_every else 0 in
  let universe = w.ports + churns_n in
  let mix = Gen.make ~seed:mix_seed ~flows:universe ~skew:Gen.Uniform () in
  let flows = Array.init universe (Gen.flow mix) in
  let programs = Array.map (fun f -> Gen.filter f) flows in
  let draws = Gen.make ~seed ~flows:w.ports ~skew:w.skew () in
  let jitter = Rng.create (seed lxor 0xA441) in
  let table = Array.init w.ports Fun.id in
  let initial = Array.copy table in
  let next_fresh = ref w.ports in
  let churns = ref [] in
  let flow_of = Array.make packets 0 and due = Array.make packets 0 in
  let gap = 1e6 /. w.rate_pps in
  for s = 0 to packets - 1 do
    if w.churn_every > 0 && s > 0 && s mod w.churn_every = 0 then begin
      (* the port open longest closes: slots are replaced in turn *)
      let slot = (!next_fresh - w.ports) mod w.ports in
      churns := { at = s; slot; retired = table.(slot); fresh = !next_fresh } :: !churns;
      table.(slot) <- !next_fresh;
      incr next_fresh
    end;
    due.(s) <- int_of_float ((float_of_int s *. gap) +. Rng.float jitter gap);
    flow_of.(s) <- table.((Gen.draw draws).Gen.index)
  done;
  let counts = Array.make universe 0 in
  Array.iter (fun f -> counts.(f) <- counts.(f) + 1) flow_of;
  let seqs_of_flow = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 universe 0;
  Array.iteri
    (fun s f ->
      seqs_of_flow.(f).(counts.(f)) <- s;
      counts.(f) <- counts.(f) + 1)
    flow_of;
  {
    w;
    flows;
    programs;
    initial;
    frames = Array.mapi (fun s f -> stamp (Gen.frame flows.(f)) s) flow_of;
    flow_of;
    due;
    churns = Array.of_list (List.rev !churns);
    seqs_of_flow;
    unmatched =
      Pf_net.Frame.encode Pf_net.Frame.Dix10 ~dst:(Pf_net.Addr.eth_host 2)
        ~src:(Pf_net.Addr.eth_host 1) ~ethertype:0x0BAD
        (Packet.of_string (String.make 114 '\000'));
  }

let accepts program frame = Pf_filter.Interp.accepts ~semantics:`Paper program frame

(* Input checks, made before anything is timed; each returned line is one
   problem. Every 64th packet is classified with the reference interpreter
   against every program installed when it is sent (retired ports in their
   grace period included): exactly its own flow's program must accept it. *)
let check inp =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun f program ->
      match Pf_filter.Validate.check program with
      | Error e ->
        problem "flow %d: invalid filter: %s" f
          (Format.asprintf "%a" Pf_filter.Validate.pp_error e)
      | Ok v -> (
        let stamp_words =
          let n = Packet.word_count (Gen.frame inp.flows.(f)) in
          [ n - 2; n - 1 ]
        in
        match (Pf_filter.Analysis.analyze v).Pf_filter.Analysis.read_set with
        | Pf_filter.Analysis.Unbounded -> problem "flow %d: unbounded read set" f
        | Pf_filter.Analysis.Exact idxs ->
          if List.exists (fun i -> List.mem i idxs) stamp_words then
            problem "flow %d: filter reads the sequence stamp" f))
    inp.programs;
  if Array.exists (fun p -> accepts p inp.unmatched) inp.programs then
    problem "the warm-up frame is accepted by some filter";
  let installed = Array.copy inp.initial in
  let retiring = Queue.create () in
  let next = ref 0 in
  Array.iteri
    (fun s frame ->
      while !next < Array.length inp.churns && inp.churns.(!next).at = s do
        let c = inp.churns.(!next) in
        Queue.push (c.retired, inp.due.(s) + grace_us) retiring;
        installed.(c.slot) <- c.fresh;
        incr next
      done;
      while (not (Queue.is_empty retiring)) && snd (Queue.peek retiring) <= inp.due.(s) do
        ignore (Queue.pop retiring)
      done;
      if s mod 64 = 0 then begin
        let acceptors = ref [] in
        let try_flow f = if accepts inp.programs.(f) frame then acceptors := f :: !acceptors in
        Array.iter try_flow installed;
        Queue.iter (fun (f, _) -> try_flow f) retiring;
        if !acceptors <> [ inp.flow_of.(s) ] then
          problem "packet %d (flow %d): reference interpreter accepts on flows [%s]" s
            inp.flow_of.(s)
            (String.concat "; " (List.map string_of_int !acceptors))
      end)
    inp.frames;
  List.rev !problems
