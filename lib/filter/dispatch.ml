module Packet = Pf_pkt.Packet

type 'a entry = {
  rank : int;
  value : 'a;
  exact : bool;
  fast : Fast.t;
}

type 'a group = {
  offsets : int array; (* sorted, duplicate-free *)
  slots : (string, 'a entry list) Hashtbl.t; (* entries in rank order *)
}

type residual_reason = [ `Unbounded | `No_chain | `Excluded ]

type decision =
  | Indexed of { offsets : int list; exact : bool }
  | Shadowed of { by : int }
  | Residual of residual_reason
  | Never_accepts

type 'a t = {
  groups : 'a group list; (* sorted by offset signature: deterministic *)
  residual : (int * 'a) list; (* rank order *)
  decisions : (int * 'a * decision) list; (* rank order *)
  count : int;
}

module For_testing = struct
  (* When set, classify accepts every slot-matched entry on its guard
     prefix alone — the unsound sharing the [exact] flag prevents. Only the
     differential suite flips this, to prove the oracle catches it. *)
  let unsound_prefix_sharing = ref false
end

(* One required value per offset, sorted by offset; [None] when the chain
   demands two different values of the same word — such a filter accepts
   nothing (each guard is necessary). *)
let canonical_chain chain =
  let rec go acc = function
    | [] -> Some (List.sort compare acc)
    | (off, v) :: rest -> (
      match List.assoc_opt off acc with
      | Some v' when v' <> v -> None
      | Some _ -> go acc rest
      | None -> go ((off, v) :: acc) rest)
  in
  go [] chain

let slot_key values =
  let buf = Buffer.create (2 * List.length values) in
  List.iter
    (fun v ->
      Buffer.add_char buf (Char.chr (v lsr 8));
      Buffer.add_char buf (Char.chr (v land 0xff)))
    values;
  Buffer.contents buf

let build_compiled ?(indexable = fun _ -> true) filters =
  (* Walk order: decreasing priority, ties by list position — the order the
     kernel's sequential demux applies these filters in. *)
  let ranked =
    List.mapi (fun i (fast, value) -> (i, fast, value)) filters
    |> List.stable_sort (fun (i, fa, _) (j, fb, _) ->
           match compare (Fast.priority fb) (Fast.priority fa) with
           | 0 -> compare i j
           | c -> c)
  in
  (* Same-slot subsumption, Analysis.relate first, the symbolic engine
     (memoized, small budget) where it answers Unknown. Equiv.relate only
     ever upgrades to Equivalent/Disjoint, both sound here. *)
  let memo = Equiv.Memo.create () in
  let relate fa fb =
    Equiv.relate_memo ~budget:64 ~pair_budget:256 memo (Fast.validated fa)
      (Fast.validated fb)
  in
  (* per offset signature, a table from slot key to its entries, newest
     first: one hash insert per filter keeps the build linear *)
  let groups : (int list, (string, 'a entry list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let add_group_entry offsets values entry =
    let slots =
      match Hashtbl.find_opt groups offsets with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 16 in
        Hashtbl.add groups offsets s;
        s
    in
    let key = slot_key values in
    Hashtbl.replace slots key (entry :: Option.value ~default:[] (Hashtbl.find_opt slots key))
  in
  let decisions = ref [] in
  List.iteri
    (fun rank (_, fast, value) ->
      let analysis = Fast.analysis fast in
      let chain, whole = Analysis.guards (Fast.program fast) in
      let decision =
        if analysis.Analysis.verdict = Analysis.Always_reject then Never_accepts
        else
          match canonical_chain chain with
          | None -> Never_accepts
          | Some canonical ->
            if not (indexable value) then Residual `Excluded
            else if analysis.Analysis.read_set = Analysis.Unbounded then
              Residual `Unbounded
            else if canonical = [] then Residual `No_chain
            else begin
              let offsets = List.map fst canonical in
              let values = List.map snd canonical in
              add_group_entry offsets values { rank; value; exact = whole; fast };
              Indexed { offsets; exact = whole }
            end
      in
      decisions := (rank, value, decision) :: !decisions)
    ranked;
  let decisions = Array.of_list (List.rev !decisions) in
  (* Shadow elimination, per slot in rank order: an earlier exact entry
     accepts every packet that reaches its slot, and an earlier entry that
     Subsumes (or is Equivalent to) a later one accepts every packet the
     later one would — either way the earlier, lower-rank entry wins every
     such packet, so the later entry is dead weight and is dropped. *)
  let shadow_of kept e =
    List.find_opt
      (fun k ->
        k.exact
        ||
        match relate k.fast e.fast with
        | Analysis.Subsumes | Analysis.Equivalent -> true
        | Analysis.Subsumed_by | Analysis.Disjoint | Analysis.Unknown -> false)
      kept
  in
  (* the first entry is never shadowed, so no slot empties *)
  let shadow_slot _ newest_first =
    Some
      (List.fold_left
         (fun kept e ->
           match shadow_of kept e with
           | Some k ->
             let _, value, _ = decisions.(e.rank) in
             decisions.(e.rank) <- (e.rank, value, Shadowed { by = k.rank });
             kept
           | None -> kept @ [ e ])
         [] (List.rev newest_first))
  in
  let built_groups =
    Hashtbl.fold
      (fun offsets slots acc ->
        Hashtbl.filter_map_inplace shadow_slot slots;
        { offsets = Array.of_list offsets; slots } :: acc)
      groups []
    |> List.sort (fun a b -> compare (Array.to_list a.offsets) (Array.to_list b.offsets))
  in
  let decisions = Array.to_list decisions in
  let residual =
    List.filter_map
      (fun (rank, value, d) ->
        match d with Residual _ -> Some (rank, value) | _ -> None)
      decisions
  in
  { groups = built_groups; residual; decisions; count = List.length filters }

let build ?indexable filters =
  build_compiled ?indexable
    (List.map (fun (validated, value) -> (Fast.compile validated, value)) filters)

let size t = t.count
let residuals t = t.residual
let decisions t = t.decisions

type stats = {
  probes : int;
  hash_words : int;
  exact_accepts : int;
  candidates_run : int;
  insns : int;
}

let classify ?(on_run = fun _ ~insns:_ -> ()) t packet =
  let probes = ref 0
  and hash_words = ref 0
  and exact_accepts = ref 0
  and candidates_run = ref 0
  and insns = ref 0 in
  (* Probe each group: a missing guard word means every member of the group
     rejects (its pushword faults), so the whole group is skipped. Distinct
     slots of one group demand different values of a shared word, hence are
     pairwise disjoint — probing order cannot matter. *)
  let matched =
    List.fold_left
      (fun acc g ->
        incr probes;
        let n = Array.length g.offsets in
        let buf = Buffer.create (2 * n) in
        let rec key i =
          if i = n then begin
            hash_words := !hash_words + n;
            Some (Buffer.contents buf)
          end
          else
            match Packet.word_opt packet g.offsets.(i) with
            | None ->
              hash_words := !hash_words + i + 1;
              None
            | Some w ->
              Buffer.add_char buf (Char.chr (w lsr 8));
              Buffer.add_char buf (Char.chr (w land 0xff));
              key (i + 1)
        in
        match key 0 with
        | None -> acc
        | Some k -> (
          match Hashtbl.find_opt g.slots k with
          | Some entries -> List.rev_append entries acc
          | None -> acc))
      [] t.groups
  in
  let matched = List.sort (fun a b -> compare a.rank b.rank) matched in
  let rec scan = function
    | [] -> None
    | e :: rest ->
      if e.exact || !For_testing.unsound_prefix_sharing then begin
        incr exact_accepts;
        Some (e.rank, e.value)
      end
      else begin
        let ok, n = Fast.run_counted e.fast packet in
        incr candidates_run;
        insns := !insns + n;
        on_run e.value ~insns:n;
        if ok then Some (e.rank, e.value) else scan rest
      end
  in
  let result = scan matched in
  ( result,
    {
      probes = !probes;
      hash_words = !hash_words;
      exact_accepts = !exact_accepts;
      candidates_run = !candidates_run;
      insns = !insns;
    } )

(* {1 Inspection} *)

type group_info = {
  offsets : int list;
  slots : int;
  members : int;
  exact_members : int;
}

type info = {
  filters : int;
  indexed : int;
  residual : int;
  residual_unbounded : int;
  residual_no_chain : int;
  residual_excluded : int;
  never_accepts : int;
  shadowed : int;
  max_prefix_depth : int;
  groups : group_info list;
}

let info t =
  let count pred = List.length (List.filter (fun (_, _, d) -> pred d) t.decisions) in
  let groups =
    List.map
      (fun (g : _ group) ->
        let members, exact_members =
          Hashtbl.fold
            (fun _ entries (m, e) ->
              ( m + List.length entries,
                e + List.length (List.filter (fun en -> en.exact) entries) ))
            g.slots (0, 0)
        in
        {
          offsets = Array.to_list g.offsets;
          slots = Hashtbl.length g.slots;
          members;
          exact_members;
        })
      t.groups
  in
  {
    filters = t.count;
    indexed = count (function Indexed _ -> true | _ -> false);
    residual = List.length t.residual;
    residual_unbounded = count (function Residual `Unbounded -> true | _ -> false);
    residual_no_chain = count (function Residual `No_chain -> true | _ -> false);
    residual_excluded = count (function Residual `Excluded -> true | _ -> false);
    never_accepts = count (function Never_accepts -> true | _ -> false);
    shadowed = count (function Shadowed _ -> true | _ -> false);
    max_prefix_depth =
      List.fold_left (fun acc g -> max acc (List.length g.offsets)) 0 groups;
    groups;
  }

let pp_offsets ppf offsets =
  Format.fprintf ppf "[%s]" (String.concat " " (List.map string_of_int offsets))

let pp_decision ppf = function
  | Indexed { offsets; exact } ->
    Format.fprintf ppf "indexed on words %a%s" pp_offsets offsets
      (if exact then ", exact" else "")
  | Shadowed { by } -> Format.fprintf ppf "shadowed by the entry at rank %d" by
  | Residual `Unbounded -> Format.fprintf ppf "residual (unbounded read set)"
  | Residual `No_chain -> Format.fprintf ppf "residual (no leading guard chain)"
  | Residual `Excluded -> Format.fprintf ppf "residual (excluded: copy-all or tap)"
  | Never_accepts -> Format.fprintf ppf "dropped (can never accept)"

let pp_info ppf i =
  Format.fprintf ppf
    "dispatch automaton: %d filters, %d indexed in %d group(s), %d residual, \
     %d shadowed, %d never-accept@."
    i.filters i.indexed (List.length i.groups) i.residual i.shadowed
    i.never_accepts;
  Format.fprintf ppf "  shared prefix depth: %d word(s) max@." i.max_prefix_depth;
  if i.residual > 0 then
    Format.fprintf ppf
      "  residual reasons: %d unbounded read set, %d no guard chain, %d excluded@."
      i.residual_unbounded i.residual_no_chain i.residual_excluded;
  List.iter
    (fun g ->
      Format.fprintf ppf "  group %a: %d member(s) (%d exact) in %d slot(s)@."
        pp_offsets g.offsets g.members g.exact_members g.slots)
    i.groups
