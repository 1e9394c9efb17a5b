(* Pfsan: lockset + happens-before concurrency sanitizer for the simulated
   SMP kernel. See san.mli for the model; the implementation notes here are
   about bookkeeping shape only.

   Vector clocks: one int array of length ncpus per CPU. Each instrumented
   event ticks the acting CPU's own component; lock release copies the
   releaser's clock into the lock, acquire joins it back; publish and sync
   carry it through the published clock (below). "w happens-before this
   access on cpu c" is then the usual test: vc.(c).(w_cpu) >= w_clock.

   Locksets: Eraser's state machine per resource (virgin -> exclusive ->
   shared / shared-modified), candidate set = intersection of the lock sets
   held at every shared access, Top until the first shared access. A report
   fires when the candidate set goes empty while the resource has been
   written by more than one CPU.

   The coherence protocol checker is a single epoch domain (the device's
   acceptor configuration): publish joins the writer's clock into the
   published clock, sync joins it back into a CPU's, invalidate bumps the
   epoch, flush clears a CPU's cache shadow, stores stamp the epoch, and a
   hit on an entry stamped before the current epoch is a stale hit. *)

type discipline = Guarded_by of string | Cpu_private of int | Published

type kind =
  | Lockset_violation
  | Cpu_private_violation
  | Unordered_access
  | Stale_cache_hit
  | Lock_misuse

type report = {
  kind : kind;
  resource : string;
  cpus : int list;
  missing : string;
  detail : string;
  occurrences : int;
}

type lockset = Top | Locks of string list

type rstate = Virgin | Exclusive of int | Shared | Shared_modified

type resource = {
  id : int;
  name : string;
  discipline : discipline;
  mutable state : rstate;
  mutable lockset : lockset;
  mutable last_write : (int * int) option; (* cpu, that cpu's clock at write *)
}

type lock_state = { lname : string; mutable lvc : int array }

type ctx = Boot | On_cpu of int | Any_cpu

type site = {
  site : string;
  sctx : ctx;
  slocks : string list; (* acquisition order *)
  srw : [ `Read | `Write ];
  sresource : resource;
}

type t = {
  ncpus : int;
  stats : Stats.t option;
  counts : (string, int ref) Hashtbl.t;
  vc : int array array; (* per-CPU vector clock *)
  held : string list array; (* per-CPU held-lock stack, innermost first *)
  locks : (string, lock_state) Hashtbl.t;
  mutable resources : resource list; (* reverse registration order *)
  mutable next_id : int;
  (* reports, deduplicated by (kind, resource, missing) *)
  mutable reports : report ref list; (* reverse first-occurrence order *)
  seen : (string, report ref) Hashtbl.t;
  mutable total_reports : int;
  (* coherence protocol *)
  pub_vc : int array; (* the join of every publisher's clock at its publish *)
  mutable epoch : int; (* full invalidations so far *)
  mutable invalidator : int; (* CPU of the latest invalidation *)
  shadow : (int * string, int) Hashtbl.t; (* (cpu, key) -> store epoch *)
  (* static lint inputs *)
  mutable declared_locks : string list; (* reverse *)
  mutable lock_order : (string * string) list; (* declared before/after edges *)
  mutable sites : site list; (* reverse *)
}

let create ?stats ~ncpus () =
  if ncpus < 1 then invalid_arg "San.create: ncpus must be at least 1";
  {
    ncpus;
    stats;
    counts = Hashtbl.create 32;
    vc = Array.init ncpus (fun _ -> Array.make ncpus 0);
    held = Array.make ncpus [];
    locks = Hashtbl.create 8;
    resources = [];
    next_id = 0;
    reports = [];
    seen = Hashtbl.create 16;
    total_reports = 0;
    pub_vc = Array.make ncpus 0;
    epoch = 0;
    invalidator = 0;
    shadow = Hashtbl.create 64;
    declared_locks = [];
    lock_order = [];
    sites = [];
  }

let ncpus t = t.ncpus

let count t key =
  (match Hashtbl.find_opt t.counts key with
  | Some r -> incr r
  | None -> Hashtbl.add t.counts key (ref 1));
  match t.stats with Some s -> Stats.incr s ("pf.san." ^ key) | None -> ()

let counters t =
  Hashtbl.fold (fun k r acc -> ("pf.san." ^ k, !r) :: acc) t.counts []
  |> List.sort compare

let check_cpu t cpu who =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "San.%s: no such CPU %d" who cpu)

(* {1 Registry} *)

let register t ~name ~discipline =
  (match discipline with
  | Cpu_private k -> check_cpu t k "register"
  | Guarded_by _ | Published -> ());
  let r =
    {
      id = t.next_id;
      name;
      discipline;
      state = Virgin;
      lockset = Top;
      last_write = None;
    }
  in
  t.next_id <- t.next_id + 1;
  t.resources <- r :: t.resources;
  r

let resource_name r = r.name

let registry t =
  List.rev_map (fun r -> (r.name, r.discipline)) t.resources

let pp_discipline ppf = function
  | Guarded_by l -> Format.fprintf ppf "guarded by %s" l
  | Cpu_private k -> Format.fprintf ppf "private to cpu %d" k
  | Published -> Format.pp_print_string ppf "published"

(* {1 Reports} *)

let kind_name = function
  | Lockset_violation -> "lockset"
  | Cpu_private_violation -> "cpu-private"
  | Unordered_access -> "unordered"
  | Stale_cache_hit -> "stale-hit"
  | Lock_misuse -> "lock-misuse"

let kind_counter = function
  | Lockset_violation -> "lockset_violations"
  | Cpu_private_violation -> "cpu_private_violations"
  | Unordered_access -> "hb_violations"
  | Stale_cache_hit -> "stale_hits"
  | Lock_misuse -> "lock_misuses"

let report t ~kind ~resource ~cpus ~missing ~detail =
  let cpus = List.sort_uniq compare cpus in
  t.total_reports <- t.total_reports + 1;
  count t "reports";
  count t (kind_counter kind);
  let key = kind_name kind ^ "\000" ^ resource ^ "\000" ^ missing in
  match Hashtbl.find_opt t.seen key with
  | Some r -> r := { !r with occurrences = !r.occurrences + 1 }
  | None ->
    let r = ref { kind; resource; cpus; missing; detail; occurrences = 1 } in
    Hashtbl.add t.seen key r;
    t.reports <- r :: t.reports

let reports t = List.rev_map (fun r -> !r) t.reports
let report_count t = t.total_reports

let pp_cpus ppf cpus =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    (fun ppf c -> Format.fprintf ppf "cpu%d" c)
    ppf cpus

let pp_report ppf r =
  Format.fprintf ppf "SAN %s: %s [%a] %s (missing: %s)%s" (kind_name r.kind)
    r.resource pp_cpus r.cpus r.detail r.missing
    (if r.occurrences > 1 then Printf.sprintf " [x%d]" r.occurrences else "")

let pp ppf t =
  Format.fprintf ppf "san: %d cpus, %d resources, %d accesses, %d report(s)"
    t.ncpus (List.length t.resources)
    (match Hashtbl.find_opt t.counts "accesses" with Some r -> !r | None -> 0)
    t.total_reports;
  List.iter (fun r -> Format.fprintf ppf "@\n  %a" pp_report r) (reports t)

(* {1 Vector clocks and synchronization edges} *)

let tick t cpu = t.vc.(cpu).(cpu) <- t.vc.(cpu).(cpu) + 1

let join dst src =
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let lock_state t name =
  match Hashtbl.find_opt t.locks name with
  | Some l -> l
  | None ->
    let l = { lname = name; lvc = Array.make t.ncpus 0 } in
    Hashtbl.add t.locks name l;
    l

let lock_acquired t ~cpu name =
  check_cpu t cpu "lock_acquired";
  let l = lock_state t name in
  join t.vc.(cpu) l.lvc;
  tick t cpu;
  t.held.(cpu) <- name :: t.held.(cpu);
  count t "lock_edges"

let lock_released t ~cpu name =
  check_cpu t cpu "lock_released";
  let l = lock_state t name in
  join l.lvc t.vc.(cpu);
  tick t cpu;
  (* remove one occurrence (the innermost) *)
  let rec drop = function
    | [] -> []
    | n :: rest when n = name -> rest
    | n :: rest -> n :: drop rest
  in
  t.held.(cpu) <- drop t.held.(cpu);
  count t "lock_edges"

let lock_misuse t ~cpu ~lock ~kind =
  check_cpu t cpu "lock_misuse";
  report t ~kind:Lock_misuse ~resource:lock ~cpus:[ cpu ]
    ~missing:(kind ^ " on " ^ lock)
    ~detail:(Printf.sprintf "%s by cpu %d" kind cpu)

(* {1 Accesses} *)

let inter ls held =
  match ls with
  | Top -> Locks held
  | Locks l -> Locks (List.filter (fun n -> List.mem n held) l)

let access t ~cpu ~is_write r =
  check_cpu t cpu "access";
  tick t cpu;
  count t "accesses";
  count t (if is_write then "writes" else "reads");
  (match r.discipline with
  | Cpu_private owner ->
    if cpu <> owner then
      report t ~kind:Cpu_private_violation ~resource:r.name
        ~cpus:[ owner; cpu ]
        ~missing:(Printf.sprintf "cpu affinity (owner cpu %d)" owner)
        ~detail:
          (Printf.sprintf "%s by cpu %d of a cpu-%d-private resource"
             (if is_write then "write" else "read")
             cpu owner)
  | Guarded_by guard -> (
    (* Eraser: candidate locksets are only refined (and violations only
       reported) once the resource is genuinely shared between CPUs. *)
    let refine () =
      r.lockset <- inter r.lockset t.held.(cpu);
      match r.lockset with
      | Locks [] when r.state = Shared_modified ->
        let prior =
          match r.last_write with Some (w, _) -> [ w; cpu ] | None -> [ cpu ]
        in
        report t ~kind:Lockset_violation ~resource:r.name ~cpus:prior
          ~missing:guard
          ~detail:
            (Printf.sprintf
               "%s by cpu %d with no common lock held (declared guard: %s)"
               (if is_write then "write" else "read")
               cpu guard)
      | _ -> ()
    in
    match r.state with
    | Virgin -> r.state <- Exclusive cpu
    | Exclusive c when c = cpu -> ()
    | Exclusive _ ->
      r.state <- (if is_write || r.last_write <> None then Shared_modified else Shared);
      refine ()
    | Shared ->
      if is_write then r.state <- Shared_modified;
      refine ()
    | Shared_modified -> refine ())
  | Published -> (
    match r.last_write with
    | Some (w_cpu, w_clk) when w_cpu <> cpu && t.vc.(cpu).(w_cpu) < w_clk ->
      report t ~kind:Unordered_access ~resource:r.name ~cpus:[ w_cpu; cpu ]
        ~missing:(Printf.sprintf "sync %d->%d" w_cpu cpu)
        ~detail:
          (Printf.sprintf
             "%s by cpu %d is not ordered after the latest write by cpu %d"
             (if is_write then "write" else "read")
             cpu w_cpu)
    | _ -> ()));
  if is_write then begin
    r.last_write <- Some (cpu, t.vc.(cpu).(cpu));
    match r.state with
    | Shared -> r.state <- Shared_modified
    | Virgin | Exclusive _ | Shared_modified -> ()
  end

let read t ~cpu r = access t ~cpu ~is_write:false r
let write t ~cpu r = access t ~cpu ~is_write:true r

(* {1 Coherence protocol} *)

let publish t ~cpu _r =
  check_cpu t cpu "publish";
  join t.pub_vc t.vc.(cpu);
  count t "publishes"

let sync t ~cpu _r =
  check_cpu t cpu "sync";
  (* This CPU observed the latest publication: everything every publisher
     did before publishing happens-before whatever this CPU does next. *)
  join t.vc.(cpu) t.pub_vc;
  tick t cpu;
  count t "syncs"

let invalidate t ~cpu _r =
  check_cpu t cpu "invalidate";
  t.epoch <- t.epoch + 1;
  t.invalidator <- cpu;
  count t "invalidations"

let flush t ~cpu _r =
  check_cpu t cpu "flush";
  Hashtbl.iter
    (fun ((c, _) as k) _ -> if c = cpu then Hashtbl.remove t.shadow k)
    (Hashtbl.copy t.shadow);
  count t "flushes"

let note_store t ~cpu _r ~key =
  check_cpu t cpu "note_store";
  Hashtbl.replace t.shadow (cpu, key) t.epoch;
  count t "cache_stores"

let note_hit t ~cpu r ~key =
  check_cpu t cpu "note_hit";
  count t "cache_hits";
  match Hashtbl.find_opt t.shadow (cpu, key) with
  | Some e when e < t.epoch ->
    report t ~kind:Stale_cache_hit ~resource:r.name ~cpus:[ t.invalidator; cpu ]
      ~missing:
        (Printf.sprintf "invalidation %d->%d for epoch %d" t.invalidator cpu
           t.epoch)
      ~detail:
        (Printf.sprintf
           "cpu %d served a cache hit from an entry stored under epoch %d \
            after the epoch-%d invalidation on cpu %d"
           cpu e t.epoch t.invalidator)
  | Some _ | None -> ()

(* {1 Static lint} *)

let declare_lock t name =
  if not (List.mem name t.declared_locks) then
    t.declared_locks <- name :: t.declared_locks

let declare_lock_order t ~before ~after =
  declare_lock t before;
  declare_lock t after;
  t.lock_order <- (before, after) :: t.lock_order

let declare_site t ~site ~ctx ~locks ~rw r =
  t.sites <- { site; sctx = ctx; slocks = locks; srw = rw; sresource = r } :: t.sites

module Lint = struct
  type finding = {
    kind : [ `Undeclared_sharing | `Inconsistent_guard | `Lock_order_inversion ];
    subject : string;
    detail : string;
  }

  let kind_name f =
    match f.kind with
    | `Undeclared_sharing -> "undeclared-sharing"
    | `Inconsistent_guard -> "inconsistent-guard"
    | `Lock_order_inversion -> "lock-order-inversion"

  let pp_finding ppf f =
    Format.fprintf ppf "LINT %s: %s: %s" (kind_name f) f.subject f.detail

  let ctx_name = function
    | Boot -> "boot cpu"
    | On_cpu k -> Printf.sprintf "cpu %d" k
    | Any_cpu -> "any cpu"

  (* A site's context can reach the given CPU. *)
  let ctx_reaches ctx k =
    match ctx with Boot -> k = 0 | On_cpu c -> c = k | Any_cpu -> true

  let run t =
    let findings = ref [] in
    let add kind subject detail = findings := { kind; subject; detail } :: !findings in
    let sites = List.rev t.sites in
    let sites_of r = List.filter (fun s -> s.sresource.id = r.id) sites in
    List.iter
      (fun r ->
        let rs = sites_of r in
        (match r.discipline with
        | Cpu_private owner ->
          (* Undeclared sharing: a site that can run away from the owner
             touches a CPU-private resource. *)
          List.iter
            (fun s ->
              let foreign =
                match s.sctx with
                | On_cpu c -> c <> owner
                | Boot -> owner <> 0
                | Any_cpu -> t.ncpus > 1
              in
              if foreign then
                add `Undeclared_sharing r.name
                  (Printf.sprintf
                     "site %s (%s) can touch a resource declared private to \
                      cpu %d"
                     s.site (ctx_name s.sctx) owner))
            rs
        | Guarded_by guard ->
          (* Inconsistent guard: the resource can actually be shared (more
             than one CPU reaches some site) yet a site omits the declared
             guard. On a 1-CPU complex the guard is vacuous. *)
          let cpus = List.init t.ncpus Fun.id in
          let reachers =
            List.concat_map
              (fun s -> List.filter (ctx_reaches s.sctx) cpus)
              rs
            |> List.sort_uniq compare
          in
          if List.length reachers > 1 then
            List.iter
              (fun s ->
                if not (List.mem guard s.slocks) then
                  add `Inconsistent_guard r.name
                    (Printf.sprintf
                       "site %s (%s, %s) does not hold the declared guard %s%s"
                       s.site (ctx_name s.sctx)
                       (match s.srw with `Read -> "read" | `Write -> "write")
                       guard
                       (match s.slocks with
                       | [] -> " (no locks held)"
                       | ls -> " (holds " ^ String.concat "," ls ^ ")")))
              rs
        | Published ->
          (* Two sites each pinned to a different CPU both writing a
             published resource means two competing publishers — the
             protocol assumes mutations are serialized. (Boot/Any_cpu
             writer contexts are the normal configuration path and are
             checked dynamically instead.) *)
          let pinned_writers =
            List.filter_map
              (fun s ->
                match (s.srw, s.sctx) with
                | `Write, On_cpu c -> Some c
                | _ -> None)
              rs
            |> List.sort_uniq compare
          in
          if List.length pinned_writers > 1 then
            add `Inconsistent_guard r.name
              (Printf.sprintf
                 "%d distinct pinned publisher CPUs on a published \
                  resource (single-publisher protocol)"
                 (List.length pinned_writers))))
      (List.rev t.resources);
    (* Lock-order inversions: edges from declared order plus every
       consecutive pair in a site's acquisition list; any cycle is a
       potential inversion. *)
    let edges = ref (List.rev t.lock_order) in
    List.iter
      (fun s ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
            if not (List.mem (a, b) !edges) then edges := (a, b) :: !edges;
            pairs rest
          | _ -> []
        in
        ignore (pairs s.slocks : (string * string) list))
      sites;
    let edges = !edges in
    let nodes =
      List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
    in
    let rec reachable seen from target =
      List.exists
        (fun (a, b) ->
          a = from
          && (b = target || ((not (List.mem b seen)) && reachable (b :: seen) b target)))
        edges
    in
    List.iter
      (fun n ->
        if reachable [ n ] n n then
          let partners =
            List.filter (fun m -> m <> n && reachable [ n ] n m && reachable [ m ] m n) nodes
          in
          (* report each cycle once, from its least-named member *)
          if List.for_all (fun m -> n <= m) partners then
            add `Lock_order_inversion
              (String.concat " -> " (n :: partners @ [ n ]))
              "lock acquisition order forms a cycle: two paths can deadlock")
      nodes;
    List.rev !findings
end
