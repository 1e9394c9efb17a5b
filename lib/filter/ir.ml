type operand = Reg of int | Imm of int
type cond = Ceq | Cne

type instr =
  | Load of { dst : int; word : int }
  | Loadind of { dst : int; idx : operand }
  | Binop of { dst : int; op : Op.t; a : operand; b : operand }
  | Tcond of { cond : cond; a : operand; b : operand; verdict : bool }

type terminator = Accept_if of operand | Halt of bool

type t = { instrs : instr array; terminator : terminator; reg_count : int }

(* The short-circuit table: each operator compares T1 = T2, terminates with
   a fixed verdict on one polarity, and pushes a fixed constant on the
   other (section 3.1). *)
let tcond_of_op = function
  | Op.Cor -> (Ceq, true, 0)
  | Op.Cand -> (Cne, false, 1)
  | Op.Cnor -> (Ceq, false, 0)
  | Op.Cnand -> (Cne, true, 1)
  | _ -> invalid_arg "Ir.tcond_of_op: not a short-circuit operator"

let lower_with_map validated =
  let program = Validate.program validated in
  let insns = Program.insns program in
  let out = ref [] in
  let n_out = ref 0 in
  let emit i =
    out := i :: !out;
    incr n_out
  in
  let next_reg = ref 0 in
  let fresh () =
    let r = !next_reg in
    incr next_reg;
    r
  in
  (* The symbolic stack holds operands; validation proved it never
     underflows or overflows, so the List partial matches below are total. *)
  let stack = ref [] in
  let push o = stack := o :: !stack in
  let pop () =
    match !stack with
    | o :: rest ->
      stack := rest;
      o
    | [] -> invalid_arg "Ir.lower: stack underflow on a validated program"
  in
  let map = ref [] in
  let step (insn : Insn.t) =
    (match Action.const insn.Insn.action with
    | Some v -> push (Imm v)
    | None -> (
      match insn.Insn.action with
      | Action.Nopush -> ()
      | Action.Pushword word ->
        let dst = fresh () in
        emit (Load { dst; word });
        push (Reg dst)
      | Action.Pushind ->
        let idx = pop () in
        let dst = fresh () in
        emit (Loadind { dst; idx });
        push (Reg dst)
      | Action.Pushlit _ | Action.Pushzero | Action.Pushone | Action.Pushffff
      | Action.Pushff00 | Action.Push00ff -> assert false));
    (match insn.Insn.op with
    | Op.Nop -> ()
    | (Op.Cor | Op.Cand | Op.Cnor | Op.Cnand) as op ->
      let t1 = pop () in
      let t2 = pop () in
      let cond, verdict, fallthrough = tcond_of_op op in
      emit (Tcond { cond; a = t2; b = t1; verdict });
      push (Imm fallthrough)
    | op ->
      let t1 = pop () in
      let t2 = pop () in
      let dst = fresh () in
      emit (Binop { dst; op; a = t2; b = t1 });
      push (Reg dst));
    map := !n_out :: !map
  in
  List.iter step insns;
  let terminator =
    match !stack with [] -> Halt true | top :: _ -> Accept_if top
  in
  ( { instrs = Array.of_list (List.rev !out); terminator; reg_count = !next_reg },
    Array.of_list (List.rev !map) )

let lower validated = fst (lower_with_map validated)
let instr_count t = Array.length t.instrs

(* [Analysis.insn_cost] transliterated onto the IR: fetch/dispatch cycle +
   the action's cost for loads (Pushword 2, Pushind 3) + the operator's
   cost for ALU work. The terminator is free, like [Regvm.run_counted]'s
   charging. *)
let instr_cost = function
  | Load _ -> 3
  | Loadind _ -> 4
  | Binop { op; _ } -> 1 + (match op with Op.Mul -> 3 | Op.Div | Op.Mod -> 6 | _ -> 1)
  | Tcond _ -> 2

let cost t = Array.fold_left (fun acc i -> acc + instr_cost i) 0 t.instrs

let load_count t =
  Array.fold_left
    (fun acc i ->
      match i with Load _ | Loadind _ -> acc + 1 | Binop _ | Tcond _ -> acc)
    0 t.instrs

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm v -> Format.fprintf ppf "%d" v

let pp_instr ppf = function
  | Load { dst; word } -> Format.fprintf ppf "r%d := pkt[%d]" dst word
  | Loadind { dst; idx } -> Format.fprintf ppf "r%d := pkt[%a]" dst pp_operand idx
  | Binop { dst; op; a; b } ->
    Format.fprintf ppf "r%d := %a %s %a" dst pp_operand a (Op.name op) pp_operand b
  | Tcond { cond; a; b; verdict } ->
    Format.fprintf ppf "if %a %s %a %s" pp_operand a
      (match cond with Ceq -> "=" | Cne -> "!=")
      pp_operand b
      (if verdict then "accept" else "reject")

let pp ppf t =
  Array.iter (fun i -> Format.fprintf ppf "%a@." pp_instr i) t.instrs;
  match t.terminator with
  | Halt true -> Format.fprintf ppf "accept@."
  | Halt false -> Format.fprintf ppf "reject@."
  | Accept_if o -> Format.fprintf ppf "accept if %a@." pp_operand o
