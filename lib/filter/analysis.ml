(* Abstract interpretation over the straight-line filter language: one
   linear pass, an interval per stack slot. There are no control-flow joins
   to widen over — short-circuit operators and faults only *exit* — so the
   abstract stack shape is exact and the pass needs no fixpoint. *)

module For_testing = struct
  let unsound_wrap = ref false
end

module Interval = struct
  type t = { lo : int; hi : int }

  let max_word = 0xffff

  let v lo hi =
    if lo < 0 || hi > max_word || lo > hi then
      invalid_arg (Printf.sprintf "Analysis.Interval.v %d %d" lo hi);
    { lo; hi }

  let const c = let c = c land max_word in { lo = c; hi = c }
  let top = { lo = 0; hi = max_word }
  let is_const t = if t.lo = t.hi then Some t.lo else None
  let mem x t = t.lo <= x && x <= t.hi
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let pp ppf t =
    if t.lo = t.hi then Format.fprintf ppf "0x%04x" t.lo
    else Format.fprintf ppf "[0x%04x..0x%04x]" t.lo t.hi
end

(* {1 Transfer functions} *)

(* A concrete result range (possibly outside 0..0xffff) mapped into the
   16-bit domain. If the whole range lives in one "epoch" of the modulus the
   masked interval is exact; a range that crosses a wrap boundary covers both
   ends of the domain and must widen to top (the join of the two wrapped
   pieces — this is the widening the [For_testing.unsound_wrap] mutant
   deliberately omits by clamping instead). *)
let of_range_sound lo hi =
  if hi - lo >= 0x10000 then Interval.top
  else
    let lo' = lo land 0xffff and hi' = hi land 0xffff in
    if lo' <= hi' then Interval.v lo' hi' else Interval.top

let of_range lo hi =
  if !For_testing.unsound_wrap then
    Interval.v (max 0 (min lo Interval.max_word)) (max 0 (min hi Interval.max_word))
  else of_range_sound lo hi

(* Smallest all-ones mask covering [h]: an upper bound for OR and XOR. *)
let mask_above h =
  let rec go m = if m >= h then m else go ((2 * m) + 1) in
  go 0

type tri = True | False | Maybe

let tri_interval = function
  | True -> Interval.const 1
  | False -> Interval.const 0
  | Maybe -> Interval.v 0 1

(* Equality of two abstract words: decided true only for equal singletons,
   decided false for disjoint ranges. *)
let decide_eq (i1 : Interval.t) (i2 : Interval.t) =
  if i1.Interval.hi < i2.Interval.lo || i2.Interval.hi < i1.Interval.lo then False
  else
    match (Interval.is_const i1, Interval.is_const i2) with
    | Some a, Some b when a = b -> True
    | _ -> Maybe

let negate = function True -> False | False -> True | Maybe -> Maybe

(* [t2 op t1] with t1 the top of stack, mirroring {!Op.apply}. Only called
   for comparison operators. *)
let compare_tri op (i1 : Interval.t) (i2 : Interval.t) =
  let open Interval in
  match (op : Op.t) with
  | Op.Eq -> decide_eq i1 i2
  | Op.Neq -> negate (decide_eq i1 i2)
  | Op.Lt -> if i2.hi < i1.lo then True else if i2.lo >= i1.hi then False else Maybe
  | Op.Le -> if i2.hi <= i1.lo then True else if i2.lo > i1.hi then False else Maybe
  | Op.Gt -> if i2.lo > i1.hi then True else if i2.hi <= i1.lo then False else Maybe
  | Op.Ge -> if i2.lo >= i1.hi then True else if i2.hi < i1.lo then False else Maybe
  | _ -> invalid_arg "Analysis.compare_tri: not a comparison"

(* Arithmetic and bitwise transfer functions; [i1] is top of stack (the
   paper's T1), the result approximates [Op.apply op ~t2 ~t1]. The divisor
   is refined to [>= 1] because the fault path has already been accounted
   for when these run. *)
let binop_interval op (i1 : Interval.t) (i2 : Interval.t) =
  let open Interval in
  match (op : Op.t), is_const i1, is_const i2 with
  | Op.And, Some a, Some b -> const (b land a)
  | Op.And, _, _ -> v 0 (min i1.hi i2.hi)
  | Op.Or, Some a, Some b -> const (b lor a)
  | Op.Or, _, _ -> v (max i1.lo i2.lo) (mask_above (max i1.hi i2.hi))
  | Op.Xor, Some a, Some b -> const (b lxor a)
  | Op.Xor, _, _ -> v 0 (mask_above (max i1.hi i2.hi))
  | Op.Add, _, _ -> of_range (i1.lo + i2.lo) (i1.hi + i2.hi)
  | Op.Sub, _, _ -> of_range (i2.lo - i1.hi) (i2.hi - i1.lo)
  | Op.Mul, _, _ -> of_range (i1.lo * i2.lo) (i1.hi * i2.hi)
  | Op.Div, _, _ ->
    let dlo = max 1 i1.lo and dhi = max 1 i1.hi in
    v (i2.lo / dhi) (i2.hi / dlo)
  | Op.Mod, _, _ ->
    let dlo = max 1 i1.lo and dhi = max 1 i1.hi in
    if i2.hi < dlo then v i2.lo i2.hi else v 0 (min i2.hi (dhi - 1))
  | Op.Lsh, Some k, _ ->
    let k = k land 15 in
    of_range_sound (i2.lo lsl k) (i2.hi lsl k)
  | Op.Lsh, None, _ -> if is_const i2 = Some 0 then const 0 else top
  | Op.Rsh, Some k, _ ->
    let k = k land 15 in
    v (i2.lo lsr k) (i2.hi lsr k)
  | Op.Rsh, None, _ -> v (i2.lo lsr 15) i2.hi
  | (Op.Nop | Op.Eq | Op.Neq | Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Cor | Op.Cand
    | Op.Cnor | Op.Cnand), _, _ ->
    invalid_arg "Analysis.binop_interval: not an arithmetic operator"

(* {1 The cost model}

   Abstract cycles, loosely shaped like the paper's microVAX numbers: every
   instruction pays a fetch/dispatch cycle; literals cost an extra word
   fetch; packet loads (and the indirect pop + bounds check) cost more than
   register-file constants; multiply and divide dominate the ALU ops. *)

let action_cost = function
  | Action.Nopush -> 0
  | Action.Pushzero | Action.Pushone | Action.Pushffff | Action.Pushff00
  | Action.Push00ff -> 1
  | Action.Pushlit _ -> 2
  | Action.Pushword _ -> 2
  | Action.Pushind -> 3

let op_cost = function
  | Op.Nop -> 0
  | Op.Eq | Op.Neq | Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.And | Op.Or | Op.Xor
  | Op.Cor | Op.Cand | Op.Cnor | Op.Cnand | Op.Add | Op.Sub | Op.Lsh | Op.Rsh -> 1
  | Op.Mul -> 3
  | Op.Div | Op.Mod -> 6

let insn_cost (i : Insn.t) = 1 + action_cost i.Insn.action + op_cost i.Insn.op

let cost_of_prefix program k =
  let rec go acc k = function
    | insn :: rest when k > 0 -> go (acc + insn_cost insn) (k - 1) rest
    | _ -> acc
  in
  go 0 k (Program.insns program)

(* {1 The abstract walk} *)

type verdict = Always_accept | Always_reject | Depends_on_packet
type fault = Impossible | Possible
type termination = Accepts | Rejects | Faults
type read_set = Exact of int list | Unbounded

type t = {
  program : Program.t;
  verdict : verdict;
  div_by_zero : fault;
  ind_bound : int option;
  safe_packet_words : int;
  min_packet_words : int;
  terminates_at : (int * termination) option;
  max_insns : int;
  cost_bound : int;
  read_set : read_set;
}

let sort_dedup idxs = List.sort_uniq compare idxs

let union_read_sets a b =
  match (a, b) with
  | Unbounded, _ | _, Unbounded -> Unbounded
  | Exact xs, Exact ys -> Exact (sort_dedup (xs @ ys))

let analyze (validated : Validate.t) =
  let program = Validate.program validated in
  let insns = Array.of_list (Program.insns program) in
  let n = Array.length insns in
  let stack = ref [] in
  let push iv = stack := iv :: !stack in
  let pop () =
    match !stack with
    | iv :: rest ->
      stack := rest;
      iv
    | [] -> assert false (* ruled out by validation *)
  in
  (* [may_accept] / [may_reject]: some execution may already have terminated
     with that verdict (early exit, fault, or short-packet bounds fault)
     before the current instruction. *)
  let may_accept = ref false in
  let may_reject = ref false in
  let div_fault = ref Impossible in
  let ind_bound = ref None in
  (* Word indices the verdict can depend on. Constant-offset pushes (and
     indirect pushes whose index interval is a singleton, i.e. provably the
     same for every packet) contribute exactly one index; an indirect push
     whose index genuinely depends on packet data makes the set unbounded.
     Only reachable instructions contribute: reads past a proven early exit
     never execute. The set is an over-approximation of any concrete run's
     reads, which is the sound direction for flow-cache keying. *)
  let reads = ref [] in
  let reads_unbounded = ref false in
  let safe = ref 0 in
  let minw = ref 0 in
  let terminated = ref None in
  let exception Terminated in
  let terminate pc how =
    terminated := Some (pc, how);
    raise Terminated
  in
  (* A packet access at [pc] needing at least [need] words (from data flow
     for indirect pushes). Until an accepting early exit becomes possible,
     every shorter packet is certainly rejected: it either faulted earlier
     (reject) or faults here. *)
  let access ~need_min ~need_max =
    safe := max !safe need_max;
    if not !may_accept then minw := max !minw need_min;
    may_reject := true
  in
  (try
     for pc = 0 to n - 1 do
       let insn = insns.(pc) in
       (match insn.Insn.action with
       | Action.Nopush -> ()
       | Action.Pushlit x -> push (Interval.const x)
       | Action.Pushzero -> push (Interval.const 0)
       | Action.Pushone -> push (Interval.const 1)
       | Action.Pushffff -> push (Interval.const 0xffff)
       | Action.Pushff00 -> push (Interval.const 0xff00)
       | Action.Push00ff -> push (Interval.const 0x00ff)
       | Action.Pushword i ->
         reads := i :: !reads;
         access ~need_min:(i + 1) ~need_max:(i + 1);
         push Interval.top
       | Action.Pushind ->
         let idx = pop () in
         (match Interval.is_const idx with
         | Some c -> reads := c :: !reads
         | None -> reads_unbounded := true);
         let bound = idx.Interval.hi + 1 in
         ind_bound :=
           Some (match !ind_bound with None -> bound | Some b -> max b bound);
         access ~need_min:(idx.Interval.lo + 1) ~need_max:bound;
         push Interval.top);
       match insn.Insn.op with
       | Op.Nop -> ()
       | Op.Eq | Op.Neq | Op.Lt | Op.Le | Op.Gt | Op.Ge ->
         let t1 = pop () in
         let t2 = pop () in
         push (tri_interval (compare_tri insn.Insn.op t1 t2))
       | Op.Cor | Op.Cand | Op.Cnor | Op.Cnand -> (
         let t1 = pop () in
         let t2 = pop () in
         let eq = decide_eq t1 t2 in
         match (insn.Insn.op, eq) with
         | Op.Cor, True ->
           may_accept := true;
           terminate pc Accepts
         | Op.Cor, False -> push (Interval.const 0)
         | Op.Cor, Maybe ->
           may_accept := true;
           push (Interval.const 0)
         | Op.Cand, False ->
           may_reject := true;
           terminate pc Rejects
         | Op.Cand, True -> push (Interval.const 1)
         | Op.Cand, Maybe ->
           may_reject := true;
           push (Interval.const 1)
         | Op.Cnor, True ->
           may_reject := true;
           terminate pc Rejects
         | Op.Cnor, False -> push (Interval.const 0)
         | Op.Cnor, Maybe ->
           may_reject := true;
           push (Interval.const 0)
         | Op.Cnand, False ->
           may_accept := true;
           terminate pc Accepts
         | Op.Cnand, True -> push (Interval.const 1)
         | Op.Cnand, Maybe ->
           may_accept := true;
           push (Interval.const 1)
         | _ -> assert false)
       | (Op.Div | Op.Mod) as op ->
         let t1 = pop () in
         let t2 = pop () in
         if Interval.mem 0 t1 then begin
           div_fault := Possible;
           may_reject := true;
           if Interval.is_const t1 = Some 0 then terminate pc Faults
         end;
         push (binop_interval op t1 t2)
       | (Op.And | Op.Or | Op.Xor | Op.Add | Op.Sub | Op.Mul | Op.Lsh | Op.Rsh)
         as op ->
         let t1 = pop () in
         let t2 = pop () in
         push (binop_interval op t1 t2)
     done
   with Terminated -> ());
  let max_insns =
    match !terminated with Some (pc, _) -> pc + 1 | None -> n
  in
  let cost_bound = cost_of_prefix program max_insns in
  let verdict =
    match !terminated with
    | Some _ ->
      (* Every outcome is an early exit; the flags cover them all. *)
      if !may_accept && not !may_reject then Always_accept
      else if !may_reject && not !may_accept then Always_reject
      else Depends_on_packet
    | None ->
      let completion_accepts, completion_rejects =
        match !stack with
        | [] -> (true, false) (* the empty stack accepts (monitor filter) *)
        | top :: _ ->
          if top.Interval.lo > 0 then (true, false)
          else if top.Interval.hi = 0 then (false, true)
          else (true, true)
      in
      let accepts = !may_accept || completion_accepts in
      let rejects = !may_reject || completion_rejects in
      if accepts && not rejects then Always_accept
      else if rejects && not accepts then Always_reject
      else Depends_on_packet
  in
  {
    program;
    verdict;
    div_by_zero = !div_fault;
    ind_bound = !ind_bound;
    safe_packet_words = !safe;
    min_packet_words = !minw;
    terminates_at = !terminated;
    max_insns;
    cost_bound;
    read_set =
      (if !reads_unbounded then Unbounded else Exact (sort_dedup !reads));
  }

let dead_after t =
  match t.terminates_at with
  | Some (pc, _) when pc < Program.insn_count t.program - 1 -> Some pc
  | Some _ | None -> None

(* {1 Printing} *)

let pp_verdict ppf = function
  | Always_accept -> Format.pp_print_string ppf "always accepts"
  | Always_reject -> Format.pp_print_string ppf "always rejects"
  | Depends_on_packet -> Format.pp_print_string ppf "depends on packet"

let pp_fault ppf = function
  | Impossible -> Format.pp_print_string ppf "impossible"
  | Possible -> Format.pp_print_string ppf "possible"

let pp_read_set ppf = function
  | Unbounded -> Format.pp_print_string ppf "unbounded (data-dependent indirect push)"
  | Exact [] -> Format.pp_print_string ppf "empty (verdict ignores packet contents)"
  | Exact idxs ->
    Format.fprintf ppf "words {%s}"
      (String.concat ", " (List.map string_of_int idxs))

let pp_termination ppf = function
  | Accepts -> Format.pp_print_string ppf "accepting"
  | Rejects -> Format.pp_print_string ppf "rejecting"
  | Faults -> Format.pp_print_string ppf "faulting"

let pp ppf t =
  Format.fprintf ppf "@[<v>verdict: %a" pp_verdict t.verdict;
  Format.fprintf ppf "@,cost bound: %d cycles over <= %d instructions"
    t.cost_bound t.max_insns;
  Format.fprintf ppf "@,division by zero: %a" pp_fault t.div_by_zero;
  (match t.ind_bound with
  | None -> Format.fprintf ppf "@,indirect pushes: none"
  | Some b when b > Interval.max_word ->
    Format.fprintf ppf "@,indirect pushes: index unbounded"
  | Some b -> Format.fprintf ppf "@,indirect pushes: indices proven < %d" b);
  Format.fprintf ppf
    "@,packet bounds: checkless at >= %d words; certain reject below %d words"
    t.safe_packet_words t.min_packet_words;
  Format.fprintf ppf "@,read set: %a" pp_read_set t.read_set;
  (match dead_after t with
  | None -> ()
  | Some pc ->
    let how = match t.terminates_at with Some (_, h) -> h | None -> assert false in
    Format.fprintf ppf "@,dead code: instructions %d.. never execute (pc %d always exits, %a)"
      (pc + 1) pc pp_termination how);
  Format.fprintf ppf "@]"

(* {1 Guard chains}

   A leading run of [pushword+i / const CAND] pairs (operands in either
   order, plus a final EQ pair) is a set of *necessary* conditions for
   acceptance — a mismatched CAND exits rejecting, and the final EQ leaves
   its result on top. After [pushword+i], a constant AND (mask m) or a
   constant right shift by k (mask [0xffff lsl k], value shifted up by k)
   may come before the comparison: the two byte forms [Expr] emits. When
   such a chain is the whole program the conditions are also *sufficient*.
   The dispatch automaton indexes on these chains. *)

let guards program =
  let rec leading acc = function
    | [] -> (List.rev acc, true)
    | ({ Insn.action = Action.Pushword i; op = Op.Nop } : Insn.t) :: rest -> (
      (* the guard on the compared constant, after an optional mask *)
      let guard, rest =
        match rest with
        | (insn : Insn.t) :: masked -> (
          match (Action.const insn.Insn.action, insn.Insn.op) with
          | Some m, Op.And -> ((fun c -> (i, m, c)), masked)
          | Some k, Op.Rsh ->
            let k = k land 15 in
            ((fun c -> (i, (0xffff lsl k) land 0xffff, c lsl k)), masked)
          | _ -> ((fun c -> (i, 0xffff, c)), rest))
        | [] -> ((fun c -> (i, 0xffff, c)), rest)
      in
      match rest with
      | (cmp : Insn.t) :: rest -> (
        match (Action.const cmp.Insn.action, cmp.Insn.op) with
        | Some c, Op.Cand -> leading (guard c :: acc) rest
        | Some c, Op.Eq when rest = [] -> (List.rev (guard c :: acc), true)
        | _ -> (List.rev acc, false))
      | [] -> (List.rev acc, false))
    | ({ Insn.action; op = Op.Nop } : Insn.t) :: second :: rest -> (
      match (Action.const action, second.Insn.action, second.Insn.op) with
      | Some c, Action.Pushword i, Op.Cand -> leading ((i, 0xffff, c) :: acc) rest
      | Some c, Action.Pushword i, Op.Eq when rest = [] ->
        (List.rev ((i, 0xffff, c) :: acc), true)
      | _ -> (List.rev acc, false))
    | _ -> (List.rev acc, false)
  in
  leading [] (Program.insns program)
