type t = {
  id : int;
  name : string;
  engine : Engine.t;
  cpu : Cpu.t;
  mutable state : [ `Runnable | `Blocked | `Dead ];
  mutable exit_hooks : (unit -> unit) list;
  mutable cost : Time.t; (* the [use_cpu] being performed, for its handler *)
}

type _ Effect.t +=
  | Use_cpu : Time.t -> unit Effect.t
  | Pause : Time.t -> unit Effect.t
  | Suspend : (('a -> bool) -> unit) * Time.t option -> 'a option Effect.t

let next_id = ref 0

(* Simulations are single-threaded; the running process is tracked so that
   [self] works across effect resumptions. *)
let current : t option ref = ref None

let id t = t.id
let name t = t.name
let state t = t.state

let self () =
  match !current with
  | Some p -> p
  | None -> failwith "Process.self: not inside a process"

let running () = Option.is_some !current

let use_cpu cost = Effect.perform (Use_cpu cost)
let pause d = Effect.perform (Pause d)
let suspend ?timeout register = Effect.perform (Suspend (register, timeout))

(* [f a b] as process [me] (its [Some p], built once): [current] is
   restored when the process next yields, ends or raises. *)
let as_current me f a b =
  let saved = !current in
  current := me;
  match f a b with
  | () -> current := saved
  | exception e ->
    current := saved;
    raise e

let resume me k v = as_current me Effect.Deep.continue k v

let spawn engine cpu ~name body =
  incr next_id;
  let proc =
    { id = !next_id; name; engine; cpu; state = `Runnable; exit_hooks = []; cost = 0 }
  in
  let me = Some proc and owner = `Proc proc.id in
  (* Built once: the runtime applies an effect's handler to the continuation
     at once, before any other code runs, so [proc.cost] is still the cost
     this [Use_cpu] set. *)
  let on_cpu =
    Some
      (fun k ->
        let finish = Cpu.run cpu ~owner ~start:(Engine.now engine) ~cost:proc.cost in
        Engine.schedule engine ~at:finish (fun () -> resume me k ()))
  in
  let effc : type b. b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option =
    function
    | Use_cpu cost ->
      proc.cost <- cost;
      on_cpu
    | Pause d ->
      Some
        (fun k ->
          Cpu.mark_descheduled cpu;
          Engine.schedule_after engine d (fun () -> resume me k ()))
    | Suspend (register, timeout) ->
      Some
        (fun k ->
          Cpu.mark_descheduled cpu;
          proc.state <- `Blocked;
          let decided = ref false in
          let deliver v =
            if !decided then false
            else begin
              decided := true;
              proc.state <- `Runnable;
              Engine.schedule engine ~at:(Engine.now engine) (fun () -> resume me k (Some v));
              true
            end
          in
          (match timeout with
          | None -> ()
          | Some d ->
            Engine.schedule_after engine d (fun () ->
                if not !decided then begin
                  decided := true;
                  proc.state <- `Runnable;
                  resume me k None
                end));
          register deliver)
    | _ -> None
  in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          proc.state <- `Dead;
          let hooks = proc.exit_hooks in
          proc.exit_hooks <- [];
          List.iter (fun hook -> hook ()) hooks);
      exnc =
        (fun e ->
          proc.state <- `Dead;
          raise e);
      effc;
    }
  in
  Engine.schedule engine ~at:(Engine.now engine) (fun () ->
      as_current me (Effect.Deep.match_with body) () handler);
  proc

let join target =
  match target.state with
  | `Dead -> ()
  | `Runnable | `Blocked ->
    ignore
      (suspend (fun deliver ->
           target.exit_hooks <- (fun () -> ignore (deliver ())) :: target.exit_hooks)
        : unit option)
