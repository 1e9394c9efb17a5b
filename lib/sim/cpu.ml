type owner = [ `Proc of int | `Interrupt ]

type t = {
  costs : Costs.t;
  mutable busy_until : Time.t;
  mutable last_proc : int; (* -1 before any process ran; 0 = descheduled *)
  mutable context_switches : int;
  mutable busy_time : Time.t;
}

let create costs =
  { costs; busy_until = 0; last_proc = -1; context_switches = 0; busy_time = 0 }

let costs t = t.costs

let run t ~owner ~start ~cost =
  let start = max start t.busy_until in
  let switch =
    match owner with
    | `Interrupt -> 0
    | `Proc id ->
      (* the first process to run has nothing to switch from *)
      let charged =
        if t.last_proc = id || t.last_proc < 0 then 0 else t.costs.Costs.context_switch
      in
      if charged > 0 then t.context_switches <- t.context_switches + 1;
      t.last_proc <- id;
      charged
  in
  let finish = start + switch + cost in
  t.busy_until <- finish;
  t.busy_time <- t.busy_time + switch + cost;
  finish

(* Process ids start at 1; owner 0 is the scheduler/idle pseudo-process a
   blocked process hands the CPU to. *)
let mark_descheduled t = if t.last_proc >= 0 then t.last_proc <- 0

let busy_until t = t.busy_until
let context_switches t = t.context_switches
let busy_time t = t.busy_time

let idle_since t ~start ~now =
  let window = now - start in
  let busy = min t.busy_time window in
  max 0 (window - busy)
