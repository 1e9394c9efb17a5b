type t =
  | Nop
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Xor
  | Cor
  | Cand
  | Cnor
  | Cnand
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lsh
  | Rsh

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let all =
  [ Nop; Eq; Lt; Le; Gt; Ge; And; Or; Xor; Cor; Cand; Cnor; Cnand; Neq;
    Add; Sub; Mul; Div; Mod; Lsh; Rsh ]

let is_short_circuit = function
  | Cor | Cand | Cnor | Cnand -> true
  | Nop | Eq | Neq | Lt | Le | Gt | Ge | And | Or | Xor
  | Add | Sub | Mul | Div | Mod | Lsh | Rsh -> false

let is_extension = function
  | Add | Sub | Mul | Div | Mod | Lsh | Rsh -> true
  | Nop | Eq | Neq | Lt | Le | Gt | Ge | And | Or | Xor
  | Cor | Cand | Cnor | Cnand -> false

type application = Push of int | Terminate of bool | Fault

let bool_word b = if b then 1 else 0

let apply op ~t2 ~t1 =
  match op with
  | Nop -> invalid_arg "Op.apply: Nop pops nothing"
  | Eq -> Push (bool_word (t2 = t1))
  | Neq -> Push (bool_word (t2 <> t1))
  | Lt -> Push (bool_word (t2 < t1))
  | Le -> Push (bool_word (t2 <= t1))
  | Gt -> Push (bool_word (t2 > t1))
  | Ge -> Push (bool_word (t2 >= t1))
  | And -> Push (t2 land t1)
  | Or -> Push (t2 lor t1)
  | Xor -> Push (t2 lxor t1)
  | Cor -> if t1 = t2 then Terminate true else Push (bool_word false)
  | Cand -> if t1 <> t2 then Terminate false else Push (bool_word true)
  | Cnor -> if t1 = t2 then Terminate false else Push (bool_word false)
  | Cnand -> if t1 <> t2 then Terminate true else Push (bool_word true)
  | Add -> Push ((t2 + t1) land 0xffff)
  | Sub -> Push ((t2 - t1) land 0xffff)
  | Mul -> Push ((t2 * t1) land 0xffff)
  | Div -> if t1 = 0 then Fault else Push (t2 / t1)
  | Mod -> if t1 = 0 then Fault else Push (t2 mod t1)
  | Lsh -> Push ((t2 lsl (t1 land 15)) land 0xffff)
  | Rsh -> Push (t2 lsr (t1 land 15))

let apply_accept = -1
let apply_reject = -2
let apply_fault = -3

let apply_int op ~t2 ~t1 =
  match op with
  | Nop -> invalid_arg "Op.apply_int: Nop pops nothing"
  | Eq -> bool_word (t2 = t1)
  | Neq -> bool_word (t2 <> t1)
  | Lt -> bool_word (t2 < t1)
  | Le -> bool_word (t2 <= t1)
  | Gt -> bool_word (t2 > t1)
  | Ge -> bool_word (t2 >= t1)
  | And -> t2 land t1
  | Or -> t2 lor t1
  | Xor -> t2 lxor t1
  | Cor -> if t1 = t2 then apply_accept else 0
  | Cand -> if t1 <> t2 then apply_reject else 1
  | Cnor -> if t1 = t2 then apply_reject else 0
  | Cnand -> if t1 <> t2 then apply_accept else 1
  | Add -> (t2 + t1) land 0xffff
  | Sub -> (t2 - t1) land 0xffff
  | Mul -> (t2 * t1) land 0xffff
  | Div -> if t1 = 0 then apply_fault else t2 / t1
  | Mod -> if t1 = 0 then apply_fault else t2 mod t1
  | Lsh -> (t2 lsl (t1 land 15)) land 0xffff
  | Rsh -> t2 lsr (t1 land 15)

(* Bit 0 is the verdict, the rest the instruction count. *)
let packed ~accept ~insns = (insns lsl 1) lor Bool.to_int accept
let packed_accepts r = r land 1 = 1
let packed_insns r = r lsr 1

(* Codes 0-13 match 4.3BSD <net/enet.h>; 16+ are our extensions. *)
let code = function
  | Nop -> 0
  | Eq -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5
  | And -> 6
  | Or -> 7
  | Xor -> 8
  | Cor -> 9
  | Cand -> 10
  | Cnor -> 11
  | Cnand -> 12
  | Neq -> 13
  | Add -> 16
  | Sub -> 17
  | Mul -> 18
  | Div -> 19
  | Mod -> 20
  | Lsh -> 21
  | Rsh -> 22

let of_code = function
  | 0 -> Some Nop
  | 1 -> Some Eq
  | 2 -> Some Lt
  | 3 -> Some Le
  | 4 -> Some Gt
  | 5 -> Some Ge
  | 6 -> Some And
  | 7 -> Some Or
  | 8 -> Some Xor
  | 9 -> Some Cor
  | 10 -> Some Cand
  | 11 -> Some Cnor
  | 12 -> Some Cnand
  | 13 -> Some Neq
  | 16 -> Some Add
  | 17 -> Some Sub
  | 18 -> Some Mul
  | 19 -> Some Div
  | 20 -> Some Mod
  | 21 -> Some Lsh
  | 22 -> Some Rsh
  | _ -> None

let name = function
  | Nop -> "nop"
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Cor -> "cor"
  | Cand -> "cand"
  | Cnor -> "cnor"
  | Cnand -> "cnand"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Lsh -> "lsh"
  | Rsh -> "rsh"

let by_name = List.map (fun op -> (name op, op)) all
let of_name s = List.assoc_opt (String.lowercase_ascii s) by_name
let pp ppf op = Format.pp_print_string ppf (name op)
