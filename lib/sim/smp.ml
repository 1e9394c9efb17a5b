(* An SMP complex: N serializing CPUs sharing one discrete-event engine,
   plus the two cross-CPU cost primitives multiprocessor kernels pay for —
   spinlocks and interprocessor interrupts.

   Determinism: the engine already orders same-time events by scheduling
   sequence number, so every cross-CPU interaction here (IPI broadcasts,
   per-CPU work retiring at the same instant) is made deterministic by
   always iterating CPUs in ascending id order when scheduling — the
   (time, cpu id, seq) order is then exactly the (time, seq) order the
   engine enforces. *)

type t = {
  engine : Engine.t;
  costs : Costs.t;
  cpus : Cpu.t array;
  ipis_sent : int array; (* per source CPU *)
  ipis_received : int array; (* per target CPU *)
  mutable san : San.t option; (* attached sanitizer, if any *)
}

let of_cpus engine costs cpus =
  if Array.length cpus = 0 then invalid_arg "Smp.of_cpus: no CPUs";
  {
    engine;
    costs;
    cpus;
    ipis_sent = Array.make (Array.length cpus) 0;
    ipis_received = Array.make (Array.length cpus) 0;
    san = None;
  }

let create ?(ncpus = 1) engine costs =
  if ncpus < 1 then invalid_arg "Smp.create: ncpus must be at least 1";
  of_cpus engine costs (Array.init ncpus (fun _ -> Cpu.create costs))

let ncpus t = Array.length t.cpus
let costs t = t.costs
let engine t = t.engine

let cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Smp.cpu: no such CPU";
  t.cpus.(i)

let ipis_sent t i = t.ipis_sent.(i)
let ipis_received t i = t.ipis_received.(i)
let total_ipis t = Array.fold_left ( + ) 0 t.ipis_sent
let set_san t san = t.san <- Some san
let san t = t.san

(* Post an interprocessor interrupt: the sender pays [ipi_send] in its own
   (interrupt) context right now, the doorbell propagates for [ipi_latency],
   then the target CPU fields a [ipi_receive]-long interrupt and [k] runs
   when that work retires. An attached sanitizer sees the happens-before
   edge: the token snapshots the sender's clock now, the receiver joins it
   as its interrupt retires, just before [k]. *)
let ipi t ~src ~dst k =
  if src = dst then invalid_arg "Smp.ipi: src = dst";
  let send_done =
    Cpu.run t.cpus.(src) ~owner:`Interrupt ~start:(Engine.now t.engine)
      ~cost:t.costs.Costs.ipi_send
  in
  t.ipis_sent.(src) <- t.ipis_sent.(src) + 1;
  let token = Option.map (fun san -> San.ipi_send san ~src) t.san in
  Engine.schedule t.engine ~at:(send_done + t.costs.Costs.ipi_latency) (fun () ->
      let finish =
        Cpu.run t.cpus.(dst) ~owner:`Interrupt ~start:(Engine.now t.engine)
          ~cost:t.costs.Costs.ipi_receive
      in
      t.ipis_received.(dst) <- t.ipis_received.(dst) + 1;
      Engine.schedule t.engine ~at:finish (fun () ->
          (match (t.san, token) with
          | Some san, Some m -> San.ipi_receive san ~dst m
          | _ -> ());
          k ()))

(* Every CPU except [src], ascending id (the deterministic broadcast
   order); [k] runs once per target as its receive interrupt retires. *)
let ipi_broadcast t ~src k =
  Array.iteri (fun dst _ -> if dst <> src then ipi t ~src ~dst (fun () -> k dst)) t.cpus

module Lock = struct
  (* A costed spinlock. The simulation itself is single-threaded, so the
     lock never protects anything for real — it models the time a CPU
     spends spinning when another CPU holds the word, in virtual time:
     acquiring at [start] while the lock is held until [h] costs
     [h - start] of busy-wait plus the uncontended [lock_acquire] charge,
     and the lock is then held for [lock_acquire + hold]. Callers charge
     the returned wait (plus [lock_acquire] and their critical section) to
     their own CPU, which is exactly what a spinning processor burns. *)
  type misuse =
    | Reentrant_acquire of int
    | Double_release of int
    | Release_by_non_owner of { cpu : int; owner : int }

  type nonrec lock = {
    smp : t;
    name : string;
    mutable held_until : Time.t;
    mutable acquisitions : int;
    mutable contended : int;
    mutable wait_time : Time.t;
    mutable owner : int; (* logical holder between acquire/release; -1 = free *)
    mutable misuses : misuse list; (* reverse detection order *)
  }

  let create ?(name = "lock") smp =
    {
      smp;
      name;
      held_until = 0;
      acquisitions = 0;
      contended = 0;
      wait_time = 0;
      owner = -1;
      misuses = [];
    }

  let name l = l.name

  let misuse_name = function
    | Reentrant_acquire _ -> "reentrant-acquire"
    | Double_release _ -> "double-release"
    | Release_by_non_owner _ -> "release-by-non-owner"

  let pp_misuse ppf m =
    match m with
    | Reentrant_acquire cpu ->
      Format.fprintf ppf "reentrant acquire by cpu %d" cpu
    | Double_release cpu -> Format.fprintf ppf "double release by cpu %d" cpu
    | Release_by_non_owner { cpu; owner } ->
      Format.fprintf ppf "release by cpu %d of a lock owned by cpu %d" cpu owner

  let flag l ~cpu m =
    l.misuses <- m :: l.misuses;
    match l.smp.san with
    | Some san -> San.lock_misuse san ~cpu ~lock:l.name ~kind:(misuse_name m)
    | None -> ()

  (* Misuse detection and sanitizer edges are bookkeeping only: the time
     accounting below is byte-identical to the pre-hardening lock, so every
     pinned cost and counter is unchanged. *)
  let acquire l ~cpu ~start ~hold =
    if l.owner = cpu then flag l ~cpu (Reentrant_acquire cpu);
    let granted = max start l.held_until in
    let wait = granted - start in
    if wait > 0 then begin
      l.contended <- l.contended + 1;
      l.wait_time <- l.wait_time + wait
    end;
    l.acquisitions <- l.acquisitions + 1;
    l.held_until <- granted + l.smp.costs.Costs.lock_acquire + hold;
    l.owner <- cpu;
    (match l.smp.san with
    | Some san -> San.lock_acquired san ~cpu l.name
    | None -> ());
    wait

  let release l ~cpu =
    if l.owner < 0 then flag l ~cpu (Double_release cpu)
    else if l.owner <> cpu then
      flag l ~cpu (Release_by_non_owner { cpu; owner = l.owner });
    l.owner <- -1;
    match l.smp.san with
    | Some san -> San.lock_released san ~cpu l.name
    | None -> ()

  let acquisitions l = l.acquisitions
  let contended l = l.contended
  let wait_time l = l.wait_time
  let misuses l = List.rev l.misuses
end

type lock = Lock.lock
