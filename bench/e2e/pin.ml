(* The simulated clock is a yardstick only while the cost model stays put:
   a gain on a sim_* metric must come from doing less modeled work, never
   from editing a constant. Every field of [Costs.microvax_ii] is pinned
   here and read by name, so adding a constant to [Costs.t] does not break
   this file — the new constant is simply unpinned until it is added. *)

module Costs = Pf_sim.Costs

let pinned : (string * (Costs.t -> int) * int) list =
  Costs.
    [
      ("context_switch", (fun c -> c.context_switch), 400);
      ("syscall", (fun c -> c.syscall), 250);
      ("copy_base", (fun c -> c.copy_base), 500);
      ("copy_per_kbyte", (fun c -> c.copy_per_kbyte), 1000);
      ("filter_insn", (fun c -> c.filter_insn), 29);
      ("filter_apply", (fun c -> c.filter_apply), 35);
      ("recv_interrupt", (fun c -> c.recv_interrupt), 900);
      ("send_path", (fun c -> c.send_path), 1000);
      ("send_per_kbyte", (fun c -> c.send_per_kbyte), 250);
      ("proto_user_per_packet", (fun c -> c.proto_user_per_packet), 700);
      ("proto_kernel_per_packet", (fun c -> c.proto_kernel_per_packet), 350);
      ("ip_overhead", (fun c -> c.ip_overhead), 450);
      ("checksum_per_kbyte", (fun c -> c.checksum_per_kbyte), 1100);
      ("pipe_transfer", (fun c -> c.pipe_transfer), 300);
      ("timestamp", (fun c -> c.timestamp), 70);
      ("wakeup", (fun c -> c.wakeup), 200);
      ("cache_probe", (fun c -> c.cache_probe), 20);
      ("cache_hash_word", (fun c -> c.cache_hash_word), 3);
      ("dispatch_probe", (fun c -> c.dispatch_probe), 20);
      ("dispatch_hash_word", (fun c -> c.dispatch_hash_word), 3);
      ("regvm_apply", (fun c -> c.regvm_apply), 30);
      ("regvm_insn", (fun c -> c.regvm_insn), 18);
      ("lock_acquire", (fun c -> c.lock_acquire), 15);
      ("ipi_send", (fun c -> c.ipi_send), 60);
      ("ipi_receive", (fun c -> c.ipi_receive), 150);
      ("ipi_latency", (fun c -> c.ipi_latency), 20);
      ("san_access", (fun c -> c.san_access), 4);
    ]

(* [(field, actual, pinned)] for every field that drifted. *)
let mismatches () =
  List.filter_map
    (fun (name, get, want) ->
      let got = get Costs.microvax_ii in
      if got = want then None else Some (name, got, want))
    pinned
