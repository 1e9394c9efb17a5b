type report = {
  insns_before : int;
  lowered_instrs : int;
  optimized_instrs : int;
  loads_before : int;
  loads_after : int;
  passes : (string * int) list;
}

let operand_equal (a : Ir.operand) (b : Ir.operand) = a = b

(* Registers are single-assignment, so a substitution environment (built as
   instructions fold away) can be applied on the fly during one forward
   walk: any renamed register was defined — and renamed — earlier. *)
let subst env (o : Ir.operand) =
  match o with
  | Ir.Reg r -> ( match env.(r) with Some o' -> o' | None -> o)
  | Ir.Imm _ -> o

let commutes = function
  | Op.Eq | Op.Neq | Op.And | Op.Or | Op.Xor | Op.Add | Op.Mul -> true
  | Op.Nop | Op.Lt | Op.Le | Op.Gt | Op.Ge | Op.Cor | Op.Cand | Op.Cnor
  | Op.Cnand | Op.Sub | Op.Div | Op.Mod | Op.Lsh | Op.Rsh -> false

(* {1 Constant folding, copy propagation, algebraic identities} *)

type folded = FConst of int | FCopy of Ir.operand | FFault | FKeep

let fold_binop op (a : Ir.operand) (b : Ir.operand) =
  match (a, b) with
  | Ir.Imm x, Ir.Imm y -> (
    match Op.apply op ~t2:x ~t1:y with
    | Op.Push r -> FConst r
    | Op.Fault -> FFault
    | Op.Terminate _ -> assert false (* no short-circuit ops in Binop *))
  | _ when operand_equal a b -> (
    (* Same register on both sides: the comparison is decided and the
       bitwise self-applications collapse, whatever the value is. *)
    match op with
    | Op.Eq | Op.Le | Op.Ge -> FConst 1
    | Op.Neq | Op.Lt | Op.Gt | Op.Xor -> FConst 0
    | Op.Sub -> FConst 0
    | Op.And | Op.Or -> FCopy a
    | _ -> FKeep)
  | _ -> (
    match (op, a, b) with
    | Op.And, o, Ir.Imm 0xffff | Op.And, Ir.Imm 0xffff, o -> FCopy o
    | Op.And, _, Ir.Imm 0 | Op.And, Ir.Imm 0, _ -> FConst 0
    | Op.Or, o, Ir.Imm 0 | Op.Or, Ir.Imm 0, o -> FCopy o
    | Op.Or, _, Ir.Imm 0xffff | Op.Or, Ir.Imm 0xffff, _ -> FConst 0xffff
    | Op.Xor, o, Ir.Imm 0 | Op.Xor, Ir.Imm 0, o -> FCopy o
    | Op.Add, o, Ir.Imm 0 | Op.Add, Ir.Imm 0, o -> FCopy o
    | Op.Sub, o, Ir.Imm 0 -> FCopy o
    | Op.Mul, o, Ir.Imm 1 | Op.Mul, Ir.Imm 1, o -> FCopy o
    | Op.Mul, _, Ir.Imm 0 | Op.Mul, Ir.Imm 0, _ -> FConst 0
    | Op.Div, _, Ir.Imm 0 | Op.Mod, _, Ir.Imm 0 -> FFault
    | Op.Div, o, Ir.Imm 1 -> FCopy o
    | Op.Mod, _, Ir.Imm 1 -> FConst 0
    | (Op.Lsh | Op.Rsh), o, Ir.Imm v when v land 15 = 0 -> FCopy o
    | _ -> FKeep)

let decided cond (a : Ir.operand) (b : Ir.operand) =
  let eq =
    match (a, b) with
    | Ir.Imm x, Ir.Imm y -> Some (x = y)
    | _ when operand_equal a b -> Some true
    | _ -> None
  in
  match (eq, cond) with
  | Some e, Ir.Ceq -> Some e
  | Some e, Ir.Cne -> Some (not e)
  | None, _ -> None

exception Truncated of Ir.terminator

let fold_pass (ir : Ir.t) =
  let env = Array.make ir.Ir.reg_count None in
  let changes = ref 0 in
  let out = ref [] in
  let terminator = ref ir.Ir.terminator in
  (try
     Array.iter
       (fun ins ->
         match ins with
         | Ir.Load _ -> out := ins :: !out
         | Ir.Loadind { dst; idx } -> out := Ir.Loadind { dst; idx = subst env idx } :: !out
         | Ir.Binop { dst; op; a; b } -> (
           let a = subst env a and b = subst env b in
           match fold_binop op a b with
           | FConst v ->
             env.(dst) <- Some (Ir.Imm v);
             incr changes
           | FCopy o ->
             env.(dst) <- Some o;
             incr changes
           | FFault ->
             (* A division by a constant zero rejects every packet that
                reaches it; everything after is unreachable. *)
             incr changes;
             raise (Truncated (Ir.Halt false))
           | FKeep -> out := Ir.Binop { dst; op; a; b } :: !out)
         | Ir.Tcond { cond; a; b; verdict } -> (
           let a = subst env a and b = subst env b in
           match decided cond a b with
           | Some true ->
             incr changes;
             raise (Truncated (Ir.Halt verdict))
           | Some false -> incr changes
           | None -> out := Ir.Tcond { cond; a; b; verdict } :: !out))
       ir.Ir.instrs
   with Truncated t -> terminator := t);
  let terminator =
    match !terminator with
    | Ir.Accept_if o -> (
      match subst env o with
      | Ir.Imm v ->
        incr changes;
        Ir.Halt (v <> 0)
      | o -> Ir.Accept_if o)
    | Ir.Halt _ as h -> h
  in
  ( { ir with Ir.instrs = Array.of_list (List.rev !out); terminator },
    !changes )

(* {1 Common subexpression elimination} *)

type key =
  | KLoad of int
  | KLoadind of Ir.operand
  | KBinop of Op.t * Ir.operand * Ir.operand

let binop_key op a b =
  if commutes op && compare b a < 0 then KBinop (op, b, a) else KBinop (op, a, b)

let tcond_key a b = if compare b a < 0 then (b, a) else (a, b)

let cse_pass (ir : Ir.t) =
  let env = Array.make ir.Ir.reg_count None in
  let changes = ref 0 in
  let out = ref [] in
  let terminator = ref ir.Ir.terminator in
  let table : (key, int) Hashtbl.t = Hashtbl.create 16 in
  (* Compare-and-terminate exits that fell through: reaching any later
     instruction proves their comparison was false. *)
  let fallen : (Ir.operand * Ir.operand, Ir.cond) Hashtbl.t = Hashtbl.create 8 in
  let def key dst ins =
    match Hashtbl.find_opt table key with
    | Some r ->
      env.(dst) <- Some (Ir.Reg r);
      incr changes
    | None ->
      Hashtbl.add table key dst;
      out := ins :: !out
  in
  (try
     Array.iter
       (fun ins ->
         match ins with
         | Ir.Load { dst; word } -> def (KLoad word) dst ins
         | Ir.Loadind { dst; idx } ->
           let idx = subst env idx in
           def (KLoadind idx) dst (Ir.Loadind { dst; idx })
         | Ir.Binop { dst; op; a; b } ->
           let a = subst env a and b = subst env b in
           def (binop_key op a b) dst (Ir.Binop { dst; op; a; b })
         | Ir.Tcond { cond; a; b; verdict } -> (
           let a = subst env a and b = subst env b in
           match Hashtbl.find_opt fallen (tcond_key a b) with
           | Some seen when seen = cond ->
             (* The earlier identical test fell through, so this one can
                never fire. *)
             incr changes
           | Some _ ->
             (* The earlier test of the opposite polarity fell through, so
                this one always fires. *)
             incr changes;
             raise (Truncated (Ir.Halt verdict))
           | None ->
             Hashtbl.replace fallen (tcond_key a b) cond;
             out := Ir.Tcond { cond; a; b; verdict } :: !out))
       ir.Ir.instrs
   with Truncated t -> terminator := t);
  let terminator =
    match !terminator with
    | Ir.Accept_if o -> Ir.Accept_if (subst env o)
    | Ir.Halt _ as h -> h
  in
  ( { ir with Ir.instrs = Array.of_list (List.rev !out); terminator },
    !changes )

(* {1 Dead-value elimination} *)

let dve_pass (ir : Ir.t) =
  let live = Array.make ir.Ir.reg_count false in
  let mark = function Ir.Reg r -> live.(r) <- true | Ir.Imm _ -> () in
  (match ir.Ir.terminator with Ir.Accept_if o -> mark o | Ir.Halt _ -> ());
  (* One backward pass is exact: registers are single-assignment and every
     use sits after its definition, so by the time the walk reaches a
     definition all of its uses have been seen. Instructions that can
     reject on their own are roots regardless of their value. *)
  for i = Array.length ir.Ir.instrs - 1 downto 0 do
    match ir.Ir.instrs.(i) with
    | Ir.Load _ -> ()
    | Ir.Loadind { idx; _ } -> mark idx
    | Ir.Tcond { a; b; _ } ->
      mark a;
      mark b
    | Ir.Binop { dst; op = Op.Div | Op.Mod; a; b } ->
      if live.(dst) || (match b with Ir.Imm v -> v = 0 | Ir.Reg _ -> true) then begin
        mark a;
        mark b
      end
    | Ir.Binop { dst; a; b; _ } ->
      if live.(dst) then begin
        mark a;
        mark b
      end
  done;
  let changes = ref 0 in
  let out = ref [] in
  (* [floor]: the largest packet word an already-retained load proves
     present. A dead load at or below it cannot fault (straight-line code:
     reaching it means the earlier load succeeded), so it may go. *)
  let floor = ref (-1) in
  Array.iter
    (fun ins ->
      match ins with
      | Ir.Load { dst; word } ->
        if (not live.(dst)) && word <= !floor then incr changes
        else begin
          out := ins :: !out;
          if word > !floor then floor := word
        end
      | Ir.Loadind { dst; idx } -> (
        match idx with
        | Ir.Imm v when (not live.(dst)) && v <= !floor -> incr changes
        | _ ->
          out := ins :: !out;
          (match idx with
          | Ir.Imm v when v > !floor -> floor := v
          | _ -> ()))
      | Ir.Binop { dst; op = Op.Div | Op.Mod; b; _ } ->
        if (not live.(dst)) && (match b with Ir.Imm v -> v <> 0 | Ir.Reg _ -> false)
        then incr changes
        else out := ins :: !out
      | Ir.Binop { dst; _ } ->
        if not live.(dst) then incr changes else out := ins :: !out
      | Ir.Tcond _ -> out := ins :: !out)
    ir.Ir.instrs;
  ({ ir with Ir.instrs = Array.of_list (List.rev !out) }, !changes)

(* {1 Early exits}

   Figure 3-8's "blender" style evaluates every term to 0 or 1 and glues
   the results with [and] into [accept if r]; figure 3-9 tests each term
   with a short-circuit exit instead. This pass turns the first shape into
   the second: an [eq]/[neq] conjunct becomes a reject exit at its own
   position, so a packet failing it stops there. A zero conjunct rejects,
   and so does any later fault, so rejecting early changes no verdict,
   provided no accept exit comes later, which the early reject would
   pre-empt. Every leaf must be a comparison result (0 or 1): that is
   what lets the remaining conjuncts be joined again by [and] without the
   converted ones ([x and 1 = x]). *)

let is_comparison = function
  | Op.Eq | Op.Neq | Op.Lt | Op.Le | Op.Gt | Op.Ge -> true
  | Op.Nop | Op.And | Op.Or | Op.Xor | Op.Cor | Op.Cand | Op.Cnor | Op.Cnand
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.Lsh | Op.Rsh -> false

(* Position of the instruction defining register [r], searching down from
   [i]. Top level, so checking the terminator allocates nothing. *)
let rec def_pos (instrs : Ir.instr array) r i =
  match instrs.(i) with
  | (Ir.Load { dst; _ } | Ir.Loadind { dst; _ } | Ir.Binop { dst; _ }) when dst = r -> i
  | _ -> def_pos instrs r (i - 1)

exception Not_boolean

let exits_rewrite (ir : Ir.t) root =
  let instrs = ir.Ir.instrs in
  let def = Array.make ir.Ir.reg_count (-1) in
  let uses = Array.make ir.Ir.reg_count 0 in
  let use = function Ir.Reg r -> uses.(r) <- uses.(r) + 1 | Ir.Imm _ -> () in
  let last_accept = ref (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ir.Load { dst; _ } -> def.(dst) <- i
      | Ir.Loadind { dst; idx } ->
        def.(dst) <- i;
        use idx
      | Ir.Binop { dst; a; b; _ } ->
        def.(dst) <- i;
        use a;
        use b
      | Ir.Tcond { a; b; verdict; _ } ->
        if verdict then last_accept := i;
        use a;
        use b)
    instrs;
  use (Ir.Reg root);
  (* The tree's nodes, the single-use [and]s under the terminator, are
     deleted; its leaves must all be comparisons. *)
  let out = Array.map Option.some instrs in
  let rec leaves acc = function
    | Ir.Imm _ -> raise Not_boolean
    | Ir.Reg r -> (
      match instrs.(def.(r)) with
      | Ir.Binop { op = Op.And; a; b; _ } when uses.(r) = 1 ->
        out.(def.(r)) <- None;
        leaves (leaves acc a) b
      | Ir.Binop { op; _ } when is_comparison op -> r :: acc
      | _ -> raise Not_boolean)
  in
  match leaves [] (Ir.Reg root) with
  | exception Not_boolean -> None
  | leaves ->
    let kept =
      List.filter
        (fun r ->
          let i = def.(r) in
          match instrs.(i) with
          | Ir.Binop { op = (Op.Eq | Op.Neq) as op; a; b; _ }
            when uses.(r) = 1 && i > !last_accept ->
            let cond = if op = Op.Eq then Ir.Cne else Ir.Ceq in
            out.(i) <- Some (Ir.Tcond { cond; a; b; verdict = false });
            false
          | _ -> true)
        (List.rev leaves)
    in
    let made = List.length leaves - List.length kept in
    if made = 0 then None
    else begin
      let reg_count = ref ir.Ir.reg_count in
      let joins = ref [] in
      let join acc r =
        let dst = !reg_count in
        incr reg_count;
        joins := Ir.Binop { dst; op = Op.And; a = acc; b = Ir.Reg r } :: !joins;
        Ir.Reg dst
      in
      let terminator =
        match kept with
        | [] -> Ir.Halt true
        | first :: rest -> Ir.Accept_if (List.fold_left join (Ir.Reg first) rest)
      in
      let instrs =
        Array.of_list (List.filter_map Fun.id (Array.to_list out) @ List.rev !joins)
      in
      Some ({ Ir.instrs; terminator; reg_count = !reg_count }, made)
    end

(* [None], allocating nothing, unless [r] in [accept if r] is an [and];
   otherwise the rewritten program and the number of exits made. *)
let exits_pass (ir : Ir.t) =
  match ir.Ir.terminator with
  | Ir.Accept_if (Ir.Reg root) -> (
    let instrs = ir.Ir.instrs in
    match instrs.(def_pos instrs root (Array.length instrs - 1)) with
    | Ir.Binop { op = Op.And; _ } -> exits_rewrite ir root
    | _ -> None)
  | Ir.Accept_if (Ir.Imm _) | Ir.Halt _ -> None

(* {1 Terminator folding from Analysis facts} *)

let analysis_pass facts pc_map (ir : Ir.t) =
  let drop_all verdict =
    if Array.length ir.Ir.instrs = 0 && ir.Ir.terminator = Ir.Halt verdict then (ir, 0)
    else
      ( { ir with Ir.instrs = [||]; terminator = Ir.Halt verdict },
        Array.length ir.Ir.instrs + 1 )
  in
  match facts.Analysis.verdict with
  | Analysis.Always_accept -> drop_all true
  | Analysis.Always_reject -> drop_all false
  | Analysis.Depends_on_packet -> (
    match facts.Analysis.terminates_at with
    | Some (pc, how) when pc >= 0 && pc < Array.length pc_map ->
      (* Every execution reaching stack instruction [pc] terminates there,
         so the IR past its lowering — and the terminator — is dead. *)
      let keep = pc_map.(pc) in
      let n = Array.length ir.Ir.instrs in
      if keep >= n then (ir, 0)
      else
        ( { ir with
            Ir.instrs = Array.sub ir.Ir.instrs 0 keep;
            terminator = Ir.Halt (how = Analysis.Accepts);
          },
          n - keep )
    | _ -> (ir, 0))

(* {1 Register compaction} *)

let compact (ir : Ir.t) =
  let remap = Array.make ir.Ir.reg_count (-1) in
  let next = ref 0 in
  let dst_of = function
    | Ir.Load { dst; _ } | Ir.Loadind { dst; _ } | Ir.Binop { dst; _ } -> Some dst
    | Ir.Tcond _ -> None
  in
  Array.iter
    (fun ins ->
      match dst_of ins with
      | Some d ->
        remap.(d) <- !next;
        incr next
      | None -> ())
    ir.Ir.instrs;
  let op = function Ir.Reg r -> Ir.Reg remap.(r) | Ir.Imm _ as o -> o in
  let instrs =
    Array.map
      (function
        | Ir.Load { dst; word } -> Ir.Load { dst = remap.(dst); word }
        | Ir.Loadind { dst; idx } -> Ir.Loadind { dst = remap.(dst); idx = op idx }
        | Ir.Binop { dst; op = o; a; b } ->
          Ir.Binop { dst = remap.(dst); op = o; a = op a; b = op b }
        | Ir.Tcond { cond; a; b; verdict } ->
          Ir.Tcond { cond; a = op a; b = op b; verdict })
      ir.Ir.instrs
  in
  let terminator =
    match ir.Ir.terminator with
    | Ir.Accept_if o -> Ir.Accept_if (op o)
    | Ir.Halt _ as h -> h
  in
  { Ir.instrs; terminator; reg_count = !next }

(* {1 The pipeline} *)

let max_iterations = 4

let optimize validated =
  let program = Validate.program validated in
  let facts = Analysis.analyze validated in
  let lowered, pc_map = Ir.lower_with_map validated in
  let counts = Hashtbl.create 4 in
  let note name n =
    Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))
  in
  let ir, c = analysis_pass facts pc_map lowered in
  note "analysis" c;
  let rec loop ir iter =
    let ir, c1 = fold_pass ir in
    note "fold" c1;
    let ir, c2 = cse_pass ir in
    note "cse" c2;
    let ir, c3 = dve_pass ir in
    note "dve" c3;
    let ir, c4 = match exits_pass ir with Some (ir, c) -> (ir, c) | None -> (ir, 0) in
    note "exits" c4;
    if c1 + c2 + c3 + c4 = 0 || iter >= max_iterations then ir else loop ir (iter + 1)
  in
  let ir = compact (loop ir 1) in
  let report =
    {
      insns_before = Program.insn_count program;
      lowered_instrs = Ir.instr_count lowered;
      optimized_instrs = Ir.instr_count ir;
      loads_before = Ir.load_count lowered;
      loads_after = Ir.load_count ir;
      passes =
        List.map
          (fun name -> (name, Option.value ~default:0 (Hashtbl.find_opt counts name)))
          [ "analysis"; "fold"; "cse"; "dve"; "exits" ];
    }
  in
  (ir, report)
