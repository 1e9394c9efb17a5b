(** The calibrated cost model.

    Every constant is an {e input} taken from the paper's primitive
    measurements of a MicroVAX-II running Ultrix 1.2 (section 6.5.2 and
    section 7), not from the result tables the benchmarks reproduce:

    - "about 0.4 mSec of CPU time to switch between processes"
    - "about 0.5 mSec of CPU time to transfer a short packet between the
      kernel and a process" and "data copying requires about 1 mSec/Kbyte"
    - table 6-10's slope: (2.5 − 1.9) ms over 21 instructions ≈ 29 µs per
      filter instruction
    - "it takes about 1 mSec to send a datagram" (driver + queueing)
    - microtime costs "about 70 uSec" (on a VAX-11/780)

    The remaining constants (interrupt-level receive processing, protocol
    processing, syscall overhead) are set so the {e primitive} paths agree
    with the paper's analytical model (section 6.5.1), and are then held
    fixed across all experiments. *)

type t = {
  context_switch : Time.t;  (** process-to-process switch, 400 µs *)
  syscall : Time.t;  (** user/kernel domain crossing per system call, in+out *)
  copy_base : Time.t;  (** fixed part of a kernel<->user data transfer *)
  copy_per_kbyte : Time.t;  (** 1 ms/KByte *)
  filter_insn : Time.t;  (** interpreting one filter instruction *)
  filter_apply : Time.t;  (** fixed per-filter application overhead *)
  recv_interrupt : Time.t;
      (** device driver receive processing per packet, incl. the 4.3BSD
          header-restore work section 7 grumbles about *)
  send_path : Time.t;  (** device driver send path, "about 1 mSec" *)
  send_per_kbyte : Time.t;  (** extra per-byte transmit cost beyond the copy *)
  proto_user_per_packet : Time.t;
      (** user-level protocol module work per packet (header build/parse,
          state machine) *)
  proto_kernel_per_packet : Time.t;
      (** same work done by kernel-resident protocol code, which is leaner
          (no library layering), per the 3x gap in section 6.1 *)
  ip_overhead : Time.t;  (** extra kernel IP-layer work: routing, options *)
  checksum_per_kbyte : Time.t;  (** TCP checksums all data; VMTP/BSP do not *)
  pipe_transfer : Time.t;  (** fixed cost of moving a packet through a pipe *)
  timestamp : Time.t;  (** microtime call when packets are timestamped *)
  wakeup : Time.t;  (** scheduler work to make a blocked process runnable *)
  cache_probe : Time.t;
      (** fixed part of a demux flow-cache lookup or insert (hash dispatch,
          bucket probe, verdict copy) — a handful of VAX instructions *)
  cache_hash_word : Time.t;
      (** per key word: loading one packet word at a read-set offset,
          folding it into the hash, and comparing it on a probe *)
  dispatch_probe : Time.t;
      (** fixed part of classifying a packet against one dispatch-automaton
          group (hash dispatch over the group's slot table) *)
  dispatch_hash_word : Time.t;
      (** per guard word: loading one packet word at a group offset and
          folding it into the slot key *)
  regvm_apply : Time.t;
      (** fixed per-filter overhead when applying a register-VM compiled
          filter (register file setup instead of stack setup) *)
  regvm_insn : Time.t;
      (** executing one register-IR instruction: ≈ 0.62x the stack
          interpreter's {!filter_insn} — three-address dispatch avoids the
          stack-pointer traffic and operand shuffling each stack step pays,
          consistent with the register-vs-stack gap the BPF lineage
          measured *)
  lock_acquire : Time.t;
      (** uncontended acquire + release of a kernel spinlock: a pair of
          interlocked bus operations plus bookkeeping, ≈ half a {!syscall}
          crossing's instruction count on the same calibration. Contended
          acquisitions additionally spin for the remaining hold time
          ({!Smp.Lock}) *)
  ipi_send : Time.t;
      (** charged by nothing: the simulated complex sends no
          interprocessor interrupt. Kept with {!ipi_receive} and
          {!ipi_latency} for pfbench's cost pins and ledger until a
          benchmark change drops them. Priced as posting one from the
          sending CPU: write the mailbox, strobe the doorbell register *)
  ipi_receive : Time.t;
      (** charged by nothing (see {!ipi_send}); priced as fielding an
          interprocessor interrupt on the target CPU: interrupt entry,
          handler dispatch, exit — a cheap interrupt, a fraction of
          {!recv_interrupt}'s device work *)
  ipi_latency : Time.t;
      (** charged by nothing (see {!ipi_send}); priced as the bus
          propagation delay between doorbell strobe and the target CPU
          taking the interrupt *)
  san_access : Time.t;
      (** concurrency-sanitizer bookkeeping charged per instrumented
          shared-state access when a {!San.t} is attached: a shadow-word
          load, a vector-clock component bump, and a compare — the modeled
          analogue of a TSan shadow-cell update. Zero cost when no
          sanitizer is attached *)
}

val microvax_ii : t
(** The MicroVAX-II / Ultrix 1.2 calibration above. *)

val vax_780 : t
(** VAX-11/780: the section 6.1 profiling host. Roughly comparable CPU to
    the MicroVAX-II for this workload (the paper uses both interchangeably);
    modeled as [scale 1.0] with the documented 70 µs microtime. *)

val scale : float -> t -> t
(** Multiply every constant (a faster or slower CPU). *)

val copy_cost : t -> bytes:int -> Time.t
(** [copy_base + bytes * copy_per_kbyte / 1024]. *)

val checksum_cost : t -> bytes:int -> Time.t
val free : t
(** All-zero cost model, for functional (non-timing) tests. *)
