type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

(* [find] rather than [find_opt]: the hit path allocates no option. *)
let incr ?(by = 1) t key =
  match Hashtbl.find t key with
  | r -> r := !r + by
  | exception Not_found -> Hashtbl.add t key (ref by)

let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0
let reset t = Hashtbl.reset t

let pairs t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@," k v) (pairs t);
  Format.fprintf ppf "@]"
