(* Binary min-heap on (time, seq); a fresh seq per event makes the order of
   same-time events deterministic (FIFO in scheduling order). The heap is
   three parallel arrays, so an event is no record: scheduling allocates
   nothing beyond the caller's callback. *)

type t = {
  mutable times : Time.t array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable processed : int;
}

let create () =
  {
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    runs = Array.make 64 ignore;
    size = 0;
    clock = 0;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock
let pending t = t.size
let events_processed t = t.processed

let earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) and run = t.runs.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.runs.(i) <- t.runs.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.runs.(j) <- run

let grow t =
  let n = 2 * t.size in
  let extend a fill =
    let bigger = Array.make n fill in
    Array.blit a 0 bigger 0 t.size;
    bigger
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.runs <- extend t.runs ignore

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && earlier t l i then l else i in
  let smallest = if r < t.size && earlier t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Remove the earliest event and return its callback; the vacated slot is
   cleared so the callback can be collected once it has run. *)
let pop t =
  let run = t.runs.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.runs.(0) <- t.runs.(last);
  t.runs.(last) <- ignore;
  sift_down t 0;
  run

let schedule t ~at run =
  let at = if at < t.clock then t.clock else at in
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.times.(i) <- at;
  t.seqs.(i) <- t.next_seq;
  t.runs.(i) <- run;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let schedule_after t delay run = schedule t ~at:(t.clock + delay) run

let run ?until t =
  let continue = ref true in
  while !continue && t.size > 0 do
    let time = t.times.(0) in
    match until with
    | Some limit when time > limit ->
      t.clock <- limit;
      continue := false
    | Some _ | None ->
      let run = pop t in
      t.clock <- time;
      t.processed <- t.processed + 1;
      run ()
  done;
  match until with
  | Some limit when t.size = 0 && t.clock < limit -> t.clock <- limit
  | Some _ | None -> ()
