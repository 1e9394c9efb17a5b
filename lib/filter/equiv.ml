module Packet = Pf_pkt.Packet

type side = Prog of Validate.t | Ir_prog of Ir.t

type verdict = Proved_equal | Counterexample of Packet.t | Unknown

type reason =
  | Path_budget of [ `Left | `Right ]
  | Pair_budget
  | Unsolved of int
  | Spurious of int

type report = {
  verdict : verdict;
  paths_left : int;
  paths_right : int;
  pairs_checked : int;
  reasons : reason list;
}

let default_budget = Symex.default_budget
let default_pair_budget = 4096

(* A witness is confirmed on the engines the kernel trusts: the checked
   interpreter for a stack program, and the register VM's own loop for an
   IR side, which need not be [Regopt]'s output. *)
let run_side side packet =
  match side with
  | Prog v -> Interp.accepts ~semantics:`Paper (Validate.program v) packet
  | Ir_prog ir -> Regvm.exec ir packet

let symex ctx budget = function
  | Prog v -> Symex.run ~budget ctx v
  | Ir_prog ir -> Symex.run_ir ~budget ctx ir

(* Are two completed outcomes structurally identical? Both were built in
   the same context with deterministic traversal, so identical filters
   yield identical path lists — this keeps [check p p] linear in the
   number of paths instead of quadratic. *)
let structurally_equal (a : Symex.outcome) (b : Symex.outcome) =
  a.Symex.complete && b.Symex.complete
  && List.length a.Symex.paths = List.length b.Symex.paths
  && List.for_all2
       (fun (pa : Symex.path) (pb : Symex.path) ->
         pa.Symex.accept = pb.Symex.accept
         && Symex.equal_cond pa.Symex.cond pb.Symex.cond)
       a.Symex.paths b.Symex.paths

exception Witness of Packet.t
exception Pairs_exhausted

(* Run [f] on every pair of paths drawn from the two outcomes whose
   verdicts differ, counting against [pair_budget]. *)
let iter_pairs ~pair_budget ~count oa ob f =
  List.iter
    (fun (pa : Symex.path) ->
      List.iter
        (fun (pb : Symex.path) ->
          if pa.Symex.accept <> pb.Symex.accept then begin
            if !count >= pair_budget then raise Pairs_exhausted;
            incr count;
            f pa pb
          end)
        ob.Symex.paths)
    oa.Symex.paths

let check ?(budget = default_budget) ?(pair_budget = default_pair_budget) left
    right =
  let ctx = Symex.Ctx.create () in
  let oa = symex ctx budget left and ob = symex ctx budget right in
  let paths_left = List.length oa.Symex.paths
  and paths_right = List.length ob.Symex.paths in
  let base_reasons =
    (if oa.Symex.complete then [] else [ Path_budget `Left ])
    @ if ob.Symex.complete then [] else [ Path_budget `Right ]
  in
  if base_reasons = [] && structurally_equal oa ob then
    { verdict = Proved_equal; paths_left; paths_right; pairs_checked = 0;
      reasons = [] }
  else begin
    let count = ref 0 and unsolved = ref 0 and spurious = ref 0 in
    let pair_budget_hit = ref false in
    let verdict =
      try
        iter_pairs ~pair_budget ~count oa ob
          (fun pa pb ->
            match Symex.conj pa.Symex.cond pb.Symex.cond with
            | None -> ()
            | Some c -> (
                match Symex.solve c with
                | `Unsat -> ()
                | `Unknown -> incr unsolved
                | `Sat pkt ->
                    (* Confirm before believing the solver: only a packet
                       the two filters actually disagree on counts. *)
                    if run_side left pkt <> run_side right pkt then
                      raise (Witness pkt)
                    else incr spurious));
        if
          base_reasons = [] && !unsolved = 0 && !spurious = 0
          && not !pair_budget_hit
        then Proved_equal
        else Unknown
      with
      | Witness pkt -> Counterexample pkt
      | Pairs_exhausted ->
          pair_budget_hit := true;
          Unknown
    in
    let reasons =
      match verdict with
      | Proved_equal | Counterexample _ -> []
      | Unknown ->
          base_reasons
          @ (if !pair_budget_hit then [ Pair_budget ] else [])
          @ (if !unsolved > 0 then [ Unsolved !unsolved ] else [])
          @ if !spurious > 0 then [ Spurious !spurious ] else []
    in
    { verdict; paths_left; paths_right; pairs_checked = !count; reasons }
  end

let check_programs ?budget ?pair_budget va vb =
  check ?budget ?pair_budget (Prog va) (Prog vb)

let check_ir ?budget ?pair_budget va ir =
  check ?budget ?pair_budget (Prog va) (Ir_prog ir)

type certification =
  | Certified
  | Refuted of Packet.t
  | Uncertified of string

let pp_verdict ppf = function
  | Proved_equal -> Format.pp_print_string ppf "proved equal"
  | Counterexample p -> Format.fprintf ppf "counterexample %a" Packet.pp_hex p
  | Unknown -> Format.pp_print_string ppf "unknown"

let pp_reason ppf = function
  | Path_budget side ->
      Format.fprintf ppf "path budget exhausted on the %s side"
        (match side with `Left -> "left" | `Right -> "right")
  | Pair_budget -> Format.pp_print_string ppf "path-pair budget exhausted"
  | Unsolved n -> Format.fprintf ppf "%d path pair(s) undecided" n
  | Spurious n ->
      Format.fprintf ppf "%d synthesized packet(s) not confirmed" n

let pp_reasons ppf = function
  | [] -> Format.pp_print_string ppf "no obstruction recorded"
  | reasons ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
        pp_reason ppf reasons

let pp_report ppf r =
  Format.fprintf ppf "%a (%d vs %d paths, %d differing pairs checked"
    pp_verdict r.verdict r.paths_left r.paths_right r.pairs_checked;
  (match r.reasons with
  | [] -> ()
  | reasons -> Format.fprintf ppf "; %a" pp_reasons reasons);
  Format.pp_print_string ppf ")"

let certification_of_report r =
  match r.verdict with
  | Proved_equal -> Certified
  | Counterexample p -> Refuted p
  | Unknown -> Uncertified (Format.asprintf "%a" pp_reasons r.reasons)

let pp_certification ppf = function
  | Certified -> Format.pp_print_string ppf "certified"
  | Refuted p -> Format.fprintf ppf "refuted by %a" Packet.pp_hex p
  | Uncertified why -> Format.fprintf ppf "uncertified (%s)" why
