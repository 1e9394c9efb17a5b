(* §6.1: kernel per-packet processing time, reproduced by replaying a
   synthetic packet mix through the simulated kernel of one host and
   attributing CPU the way the paper's gprof profile did.

   The paper's 28-hour VAX-11/780 profile handled 1.3M packets: 21% to the
   packet filter, 69% IP, 10% ARP. Its numbers count time in the packet
   filter's own routines (filter interpretation, bookkeeping, read-path
   copies) — not the shared device-driver interrupt path — so we report the
   same attribution. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Packet = Pf_pkt.Packet
open Pf_proto

let n_ports = 12 (* active packet filter ports; uniform traffic -> ~6.5 tested *)
let n_packets = 3_000

(* The paper's per-packet cost model, measured across active-port counts:
   uniform traffic over k ports tests (k+1)/2 predicates on average, so the
   per-packet packet-filter time should track 0.8 + 0.122*(k+1)/2. *)
let sweep_ports () =
  let one k =
    let world = dix_world ~costs:Pf_sim.Costs.vax_780 () in
    let receiver = world.b in
    let rng = Pf_sim.Rng.create (1000 + k) in
    for i = 0 to k - 1 do
      let port = Pfdev.open_port (Host.pf receiver) in
      set_filter_exn port
        (Pf_filter.Predicates.pup_dst_port_10mb ~host:2 (Int32.of_int (100 + i)));
      Pfdev.set_queue_limit port 400;
      Pfdev.set_timeout port (Some 2_000_000);
      ignore
        (Host.spawn receiver ~name:(Printf.sprintf "r%d" i) (fun () ->
             let rec loop () =
               match Pfdev.read_batch port with [] -> () | _ -> loop ()
             in
             loop ()))
    done;
    let sender = Pfdev.open_port (Host.pf world.a) in
    ignore
      (Host.spawn world.a ~name:"replay" (fun () ->
           for _ = 1 to 600 do
             let s = 100 + Pf_sim.Rng.int rng k in
             Pfdev.write sender
               (sized_frame ~src:(Host.addr world.a) ~dst:(Host.addr receiver)
                  ~socket:(Int32.of_int s) ~total:128);
             Process.pause 4_000
           done));
    Engine.run world.engine;
    let g = Stats.get (Host.stats receiver) in
    let accepted = g "pf.accepted" in
    ( float_of_int (g "pf.filters_tested") /. float_of_int accepted,
      float_of_int (g "pf.demux_cpu_us" + g "pf.copy_cpu_us") /. float_of_int accepted )
  in
  Printf.printf "\n§6.1 model: per-packet packet-filter time vs active ports\n";
  Printf.printf "%-8s %12s %14s %22s\n" "ports" "avg tested" "measured" "paper model 0.8+0.122n";
  List.iter
    (fun k ->
      let tested, per_packet = one k in
      Printf.printf "%-8d %12.1f %11.2fms %17.2fms\n" k tested (per_packet /. 1000.)
        (0.8 +. (0.122 *. tested)))
    [ 1; 2; 4; 8; 12; 16; 20 ]

(* The Fast hot-loop fix: [Op.apply] boxes a fresh [Push r] variant for
   every ALU instruction; [Op.apply_int] returns a bare int. Measure both
   over the same operand stream — wall clock and GC allocation — to show
   the per-instruction allocation is gone. Allocation is read from
   [Gc.minor_words], which counts every word as it is allocated;
   [Gc.allocated_bytes] counts the minor heap only at its collections. *)
let apply_delta () =
  let module Op = Pf_filter.Op in
  let n = 2_000_000 in
  let ops = [| Op.Eq; Op.And; Op.Add; Op.Lt; Op.Xor; Op.Sub; Op.Or; Op.Ge |] in
  let sink = ref 0 in
  let measure f =
    let a0 = Gc.minor_words () in
    let t0 = Sys.time () in
    for i = 0 to n - 1 do
      let op = Array.unsafe_get ops (i land 7) in
      sink := !sink lxor f op (i land 0xffff) ((i * 7) land 0xffff)
    done;
    let t1 = Sys.time () in
    let a1 = Gc.minor_words () in
    ( (t1 -. t0) *. 1e9 /. float_of_int n,
      (a1 -. a0) *. float_of_int (Sys.word_size / 8) /. float_of_int n )
  in
  let boxed_ns, boxed_bytes =
    measure (fun op t2 t1 ->
        match Op.apply op ~t2 ~t1 with
        | Op.Push r -> r
        | Op.Terminate _ | Op.Fault -> 0)
  in
  let int_ns, int_bytes = measure (fun op t2 t1 -> Op.apply_int op ~t2 ~t1) in
  ignore !sink;
  (* Host wall clock, not simulated time: on stderr, so stdout stays a
     pure function of the simulation. *)
  Printf.eprintf
    "\nFast hot loop: boxed Op.apply vs unboxed Op.apply_int\n\
     (%d ALU applications each, host wall clock; Fast and Regvm both\n\
     dispatch through apply_int now)\n\
     boxed apply, per application        %.1f nSec, %.1f bytes\n\
     unboxed apply_int, per application  %.1f nSec, %.1f bytes\n\
     allocation removed                  %.1f bytes/insn\n%!"
    n boxed_ns boxed_bytes int_ns int_bytes (boxed_bytes -. int_bytes);
  record_metric "profile_apply_boxed_ns" boxed_ns;
  record_metric "profile_apply_int_ns" int_ns;
  record_metric "profile_apply_boxed_bytes" boxed_bytes;
  record_metric "profile_apply_int_bytes" int_bytes

let run () =
  let world = dix_world ~costs:Pf_sim.Costs.vax_780 () in
  let rng = Pf_sim.Rng.create 1987 in
  let receiver = world.b in
  (* Kernel-resident IP + UDP. *)
  let ip_b = Ipv4.addr_of_string "10.0.0.2" in
  let stack = Ipstack.attach receiver ~ip:ip_b in
  let udp = Udp.create stack in
  let udp_sock = Udp.socket udp ~port:53 () in
  ignore
    (Host.spawn receiver ~name:"udp-sink" (fun () ->
         while Udp.recv ~timeout:2_000_000 udp_sock <> None do
           ()
         done));
  (* Packet-filter clients: one port per Pup socket, batched readers. *)
  let ports =
    List.init n_ports (fun i ->
        let port = Pfdev.open_port (Host.pf receiver) in
        set_filter_exn port
          (Pf_filter.Predicates.pup_dst_port_10mb ~host:2 (Int32.of_int (100 + i)));
        Pfdev.set_queue_limit port 400;
        Pfdev.set_timeout port (Some 2_000_000);
        ignore
          (Host.spawn receiver ~name:(Printf.sprintf "pup-%d" i) (fun () ->
               let rec loop () =
                 match Pfdev.read_batch port with [] -> () | _ -> loop ()
               in
               loop ()));
        port)
  in
  ignore ports;
  (* The sender replays the mix. *)
  let sender_port = Pfdev.open_port (Host.pf world.a) in
  let mac_b = match Host.addr receiver with Pf_net.Addr.Eth m -> m | _ -> assert false in
  ignore
    (Host.spawn world.a ~name:"replay" (fun () ->
         for _ = 1 to n_packets do
           let dice = Pf_sim.Rng.int rng 100 in
           if dice < 21 then begin
             (* a Pup for one of the filter clients *)
             let s = 100 + Pf_sim.Rng.int rng n_ports in
             Pfdev.write sender_port
               (sized_frame ~src:(Host.addr world.a) ~dst:(Host.addr receiver)
                  ~socket:(Int32.of_int s) ~total:128)
           end
           else if dice < 90 then
             (* IP/UDP *)
             Pfdev.write sender_port
               (Frame.encode Frame.Dix10 ~dst:(Host.addr receiver) ~src:(Host.addr world.a)
                  ~ethertype:Pf_net.Ethertype.ip
                  (Ipv4.encode
                     (Ipv4.v ~protocol:Ipv4.proto_udp ~src:(Ipv4.addr_of_string "10.0.0.1")
                        ~dst:ip_b
                        (Packet.concat
                           [ Packet.of_words [ 9; 53; 78; 0 ];
                             Packet.of_string (String.make 70 'u') ]))))
           else begin
             (* an ARP request for somebody else (broadcast, examined and
                dropped by the ARP layer) *)
             let body =
               Arp.encode
                 (Arp.v ~oper:Arp.request ~sha:mac_b ~spa:0x0a000003l
                    ~tha:(String.make 6 '\000') ~tpa:0x0a000063l)
             in
             Pfdev.write sender_port
               (Frame.encode Frame.Dix10 ~dst:Pf_net.Addr.broadcast_eth
                  ~src:(Host.addr world.a) ~ethertype:Pf_net.Ethertype.arp body)
           end;
           Process.pause 4_000
         done));
  Engine.run world.engine;
  let stats = Host.stats receiver in
  let g = Stats.get stats in
  (* "pf.packets" counts every frame offered to the demultiplexer (kernel
     protocols included, for tap ports); the packet-filter-bound share is
     the accepted count — every generated Pup matches some port. *)
  let pf_packets = g "pf.accepted" in
  let pf_tested = g "pf.filters_tested" in
  let pf_insns = g "pf.filter_insns" in
  let c = Pf_sim.Costs.vax_780 in
  let filter_eval_us =
    (pf_tested * c.Pf_sim.Costs.filter_apply) + (pf_insns * c.Pf_sim.Costs.filter_insn)
  in
  (* Packet-filter routine time per accepted packet: interpretation +
     bookkeeping/wakeup (demux) + read-path copy. *)
  let pf_routine_us = g "pf.demux_cpu_us" + g "pf.copy_cpu_us" in
  let pf_per_packet = float_of_int pf_routine_us /. float_of_int pf_packets in
  let avg_tested = float_of_int pf_tested /. float_of_int pf_packets in
  let pct_filter = 100. *. float_of_int filter_eval_us /. float_of_int pf_routine_us in
  (* Fit the paper's linear model cost = a + b * predicates-tested. *)
  let slope =
    float_of_int c.Pf_sim.Costs.filter_apply
    +. (float_of_int pf_insns /. float_of_int pf_tested *. float_of_int c.Pf_sim.Costs.filter_insn)
  in
  let intercept = pf_per_packet -. (slope *. avg_tested) in
  (* Kernel IP path per packet. *)
  let ip_received = g "ip.received" in
  let ip_layer = float_of_int (g "ip.cpu_us") /. float_of_int ip_received in
  let udp_delivered = g "udp.delivered" in
  let full_ip =
    ip_layer
    +. (float_of_int (g "udp.cpu_us") /. float_of_int udp_delivered)
    +. float_of_int (Pf_sim.Costs.copy_cost c ~bytes:98)
  in
  print_table ~title:"§6.1: Kernel per-packet processing time (profiled mix)"
    ~note:
      (Printf.sprintf
         "workload: %d packets, %d%% packet filter / %d%% IP / %d%% ARP, %d active\n\
          filter ports (like the 28-hour 1.3M-packet VAX-11/780 profile)."
         n_packets
         (100 * pf_packets / n_packets)
         (100 * ip_received / n_packets)
         (100 * (n_packets - pf_packets - ip_received) / n_packets)
         n_ports)
    [
      { metric = "packet filter, per packet"; paper = "1.57 mSec";
        ours = ms2 (pf_per_packet /. 1000.) };
      { metric = "share spent evaluating filters"; paper = "41%";
        ours = Printf.sprintf "%.0f%%" pct_filter };
      { metric = "avg predicates tested"; paper = "6.3";
        ours = Printf.sprintf "%.1f" avg_tested };
      { metric = "fitted model"; paper = "0.8 + 0.122n mSec";
        ours = Printf.sprintf "%.2f + %.3fn mSec" (intercept /. 1000.) (slope /. 1000.) };
      { metric = "kernel IP, full path per packet"; paper = "1.77 mSec";
        ours = ms2 (full_ip /. 1000.) };
      { metric = "kernel IP, IP layer only"; paper = "0.49 mSec";
        ours = ms2 (ip_layer /. 1000.) };
    ];
  sweep_ports ();
  apply_delta ()
