type 'a t = { waiters : ('a -> bool) Queue.t }

let create () = { waiters = Queue.create () }

(* Take [deliver] off the queue, keeping the other waiters in order. *)
let remove t deliver =
  for _ = 1 to Queue.length t.waiters do
    let w = Queue.pop t.waiters in
    if w != deliver then Queue.push w t.waiters
  done

let await ?timeout t =
  match timeout with
  | None -> Process.suspend (fun deliver -> Queue.push deliver t.waiters)
  | Some _ -> (
    let mine = ref (fun _ -> false) in
    match
      Process.suspend ?timeout (fun deliver ->
          mine := deliver;
          Queue.push deliver t.waiters)
    with
    | Some _ as woken -> woken
    | None ->
      (* Timed out: the deliver function is still queued, and would keep
         this process's continuation alive until a signal walked past it. *)
      remove t !mine;
      None)

(* A deliver function returns false once its process has woken. A timed-out
   waiter takes itself off the queue, so none queued should; one that did
   would be skipped rather than swallow the value. *)
let rec signal t v =
  if Queue.is_empty t.waiters then false
  else
    let deliver = Queue.take t.waiters in
    deliver v || signal t v

let broadcast t v =
  let rec go n = if signal t v then go (n + 1) else n in
  go 0

let has_waiters t = not (Queue.is_empty t.waiters)
