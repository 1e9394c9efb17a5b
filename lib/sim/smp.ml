(* An SMP complex: N serializing CPUs plus the costed spinlock they
   share. *)

type t = {
  costs : Costs.t;
  cpus : Cpu.t array;
  mutable san : San.t option; (* attached sanitizer, if any *)
}

let of_cpus costs cpus =
  if Array.length cpus = 0 then invalid_arg "Smp.of_cpus: no CPUs";
  { costs; cpus; san = None }

let create ?(ncpus = 1) costs =
  if ncpus < 1 then invalid_arg "Smp.create: ncpus must be at least 1";
  of_cpus costs (Array.init ncpus (fun _ -> Cpu.create costs))

let ncpus t = Array.length t.cpus
let costs t = t.costs

let cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Smp.cpu: no such CPU";
  t.cpus.(i)

let set_san t san = t.san <- Some san
let san t = t.san

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
