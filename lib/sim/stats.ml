(* A counter is its cell in the table, created by the first [counter] or
   [incr] of its name. [bumped] is what [pairs] lists by, so resolving a
   handle ahead of use shows nothing until the first bump. *)
type counter = { mutable value : int; mutable bumped : bool }
type t = (string, counter) Hashtbl.t

let create () = Hashtbl.create 32

(* [find] rather than [find_opt]: the hit path allocates no option. *)
let counter t key =
  match Hashtbl.find t key with
  | c -> c
  | exception Not_found ->
    let c = { value = 0; bumped = false } in
    Hashtbl.add t key c;
    c

let add c n =
  c.value <- c.value + n;
  c.bumped <- true

let bump c = add c 1
let incr ?(by = 1) t key = add (counter t key) by
let get t key = match Hashtbl.find_opt t key with Some c -> c.value | None -> 0

(* In place, so that handles already resolved keep counting into the table. *)
let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.value <- 0;
      c.bumped <- false)
    t

let pairs t =
  Hashtbl.fold (fun k c acc -> if c.bumped then (k, c.value) :: acc else acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@," k v) (pairs t);
  Format.fprintf ppf "@]"
