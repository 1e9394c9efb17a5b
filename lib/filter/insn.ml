type t = { action : Action.t; op : Op.t }

(* Literals live in a 16-bit wire word; normalizing here keeps every engine
   (the checked interpreter masks on push, the fast engine does not) and
   the codec in agreement on out-of-range values. *)
let make ?(op = Op.Nop) action =
  let action =
    match action with
    | Action.Pushlit v when v land 0xffff <> v -> Action.Pushlit (v land 0xffff)
    | _ -> action
  in
  { action; op }
let equal a b = Action.equal a.action b.action && Op.equal a.op b.op

let compare a b =
  match Action.compare a.action b.action with
  | 0 -> Op.compare a.op b.op
  | c -> c

let encoded_length t = if Action.needs_literal t.action then 2 else 1
let is_extension t = Action.is_extension t.action || Op.is_extension t.op

let op_shift = 10
let action_mask = 0x3ff

let encode t =
  let word = (Op.code t.op lsl op_shift) lor (Action.code t.action land action_mask) in
  match t.action with
  | Action.Pushlit v -> [ word; v land 0xffff ]
  | Action.Nopush | Action.Pushzero | Action.Pushone | Action.Pushffff
  | Action.Pushff00 | Action.Push00ff | Action.Pushword _ | Action.Pushind ->
    [ word ]

type decode_error = Bad_action of int | Bad_operator of int | Truncated_literal

let pp_decode_error ppf = function
  | Bad_action c -> Format.fprintf ppf "unknown stack action code %d" c
  | Bad_operator c -> Format.fprintf ppf "unknown operator code %d" c
  | Truncated_literal -> Format.fprintf ppf "pushlit at end of program (missing literal)"

let decode = function
  | [] -> invalid_arg "Insn.decode: empty word list"
  | word :: rest -> (
    let action_code = word land action_mask in
    let op_code = word lsr op_shift in
    match Action.of_code action_code with
    | None -> Error (Bad_action action_code)
    | Some action -> (
      match Op.of_code op_code with
      | None -> Error (Bad_operator op_code)
      | Some op -> (
        match action with
        | Action.Pushlit _ -> (
          match rest with
          | [] -> Error Truncated_literal
          | lit :: rest' -> Ok ({ action = Action.Pushlit (lit land 0xffff); op }, rest'))
        | Action.Nopush | Action.Pushzero | Action.Pushone | Action.Pushffff
        | Action.Pushff00 | Action.Push00ff | Action.Pushword _ | Action.Pushind ->
          Ok ({ action; op }, rest))))

let to_string t =
  match (t.action, t.op) with
  | Action.Nopush, op -> Op.name op
  | Action.Pushlit v, Op.Nop -> Printf.sprintf "pushlit %d" v
  | Action.Pushlit v, op -> Printf.sprintf "pushlit %s %d" (Op.name op) v
  | action, Op.Nop -> Action.name action
  | action, op -> Printf.sprintf "%s %s" (Action.name action) (Op.name op)

let parse_action tok =
  let tok = String.lowercase_ascii tok in
  match tok with
  | "nopush" -> Some Action.Nopush
  | "pushzero" -> Some Action.Pushzero
  | "pushone" -> Some Action.Pushone
  | "pushffff" -> Some Action.Pushffff
  | "pushff00" -> Some Action.Pushff00
  | "push00ff" -> Some Action.Push00ff
  | "pushind" -> Some Action.Pushind
  | _ ->
    if String.length tok > 9 && String.sub tok 0 9 = "pushword+" then
      match int_of_string_opt (String.sub tok 9 (String.length tok - 9)) with
      | Some n when n >= 0 -> Some (Action.Pushword n)
      | Some _ | None -> None
    else None

let of_string s =
  let tokens =
    String.split_on_char ' ' (String.trim s)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  let parse_int tok =
    match int_of_string_opt tok with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad literal %S" tok)
  in
  match tokens with
  | [] -> Error "empty instruction"
  | [ tok ] -> (
    match parse_action tok with
    | Some action -> Ok { action; op = Op.Nop }
    | None -> (
      match Op.of_name tok with
      | Some op -> Ok { action = Action.Nopush; op }
      | None -> Error (Printf.sprintf "unknown instruction %S" tok)))
  | [ first; second ] when String.lowercase_ascii first = "pushlit" -> (
    match parse_int second with
    | Ok v -> Ok { action = Action.Pushlit (v land 0xffff); op = Op.Nop }
    | Error _ as e -> e)
  | [ first; second; third ] when String.lowercase_ascii first = "pushlit" -> (
    match (Op.of_name second, parse_int third) with
    | Some op, Ok v -> Ok { action = Action.Pushlit (v land 0xffff); op }
    | None, _ -> Error (Printf.sprintf "unknown operator %S" second)
    | _, (Error _ as e) -> e)
  | [ first; second ] -> (
    match (parse_action first, Op.of_name second) with
    | Some action, Some op -> Ok { action; op }
    | None, _ -> Error (Printf.sprintf "unknown stack action %S" first)
    | _, None -> Error (Printf.sprintf "unknown operator %S" second))
  | _ -> Error (Printf.sprintf "cannot parse instruction %S" s)

let pp ppf t = Format.pp_print_string ppf (to_string t)
