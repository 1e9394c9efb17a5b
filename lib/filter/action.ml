type t =
  | Nopush
  | Pushlit of int
  | Pushzero
  | Pushone
  | Pushffff
  | Pushff00
  | Push00ff
  | Pushword of int
  | Pushind

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b

let is_extension = function
  | Pushind -> true
  | Nopush | Pushlit _ | Pushzero | Pushone | Pushffff | Pushff00 | Push00ff
  | Pushword _ -> false

let pushes = function
  | Nopush | Pushind -> false
  | Pushlit _ | Pushzero | Pushone | Pushffff | Pushff00 | Push00ff
  | Pushword _ -> true

(* The action field is 10 bits wide; PUSHWORD+n starts at 16. *)
let pushword_base = 16
let max_word_index = 0x3ff - pushword_base

let code = function
  | Nopush -> 0
  | Pushlit _ -> 1
  | Pushzero -> 2
  | Pushone -> 3
  | Pushffff -> 4
  | Pushff00 -> 5
  | Push00ff -> 6
  | Pushind -> 7
  | Pushword n -> pushword_base + n

let of_code c =
  if c >= pushword_base && c <= 0x3ff then Some (Pushword (c - pushword_base))
  else
    match c with
    | 0 -> Some Nopush
    | 1 -> Some (Pushlit 0)
    | 2 -> Some Pushzero
    | 3 -> Some Pushone
    | 4 -> Some Pushffff
    | 5 -> Some Pushff00
    | 6 -> Some Push00ff
    | 7 -> Some Pushind
    | _ -> None

let const = function
  | Pushlit v -> Some (v land 0xffff)
  | Pushzero -> Some 0
  | Pushone -> Some 1
  | Pushffff -> Some 0xffff
  | Pushff00 -> Some 0xff00
  | Push00ff -> Some 0x00ff
  | Nopush | Pushword _ | Pushind -> None

let needs_literal = function
  | Pushlit _ -> true
  | Nopush | Pushzero | Pushone | Pushffff | Pushff00 | Push00ff | Pushword _
  | Pushind -> false

let name = function
  | Nopush -> "nopush"
  | Pushlit v -> Printf.sprintf "pushlit %d" (v land 0xffff)
  | Pushzero -> "pushzero"
  | Pushone -> "pushone"
  | Pushffff -> "pushffff"
  | Pushff00 -> "pushff00"
  | Push00ff -> "push00ff"
  | Pushword n -> Printf.sprintf "pushword+%d" n
  | Pushind -> "pushind"

let pp ppf a = Format.pp_print_string ppf (name a)
