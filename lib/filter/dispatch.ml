module Packet = Pf_pkt.Packet

type 'a entry = {
  rank : int;
  value : 'a;
  exact : bool;
  fast : Fast.t;
  answer : (int * 'a) option; (* [Some (rank, value)]: [classify]'s result *)
}

type residual_reason = [ `Unbounded | `No_chain | `Excluded ]

type decision =
  | Indexed of { words : (int * int) list; exact : bool }
  | Shadowed of { by : int }
  | Residual of residual_reason
  | Never_accepts

(* Slot tables, keyed by the masked guard words, 2 big-endian bytes each. *)
module Slots = Hashtbl.Make (struct
  type t = Bytes.t

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

(* One guard-value tuple of a group: every indexed entry, in rank order. *)
type 'a slot = {
  group : 'a group;
  key : Bytes.t;
  mutable entries : 'a entry list;
}

and 'a group = {
  signature : (int * int) list; (* (offset, mask): by offset, one per word *)
  offsets : int array; (* the same, for probing *)
  masks : int array;
  slots : 'a slot Slots.t;
  probe : Bytes.t;
      (* [classify]'s reused key: the packet's words at [offsets], masked.
         Safe to share because the simulator serializes demux events. *)
}

(* What the automaton holds at one rank; indexed entries also name their
   slot, so a removal touches nothing else. *)
type 'a item = { value : 'a; decision : decision; slot : 'a slot option }

(* [classify]'s counts, in one record per automaton that every call resets
   and reuses: the simulator serializes demux events. *)
type stats = {
  mutable probes : int;
  mutable hash_words : int;
  mutable exact_accepts : int;
  mutable candidates_run : int;
  mutable insns : int;
  mutable slots_matched : int;
}

type 'a t = {
  mutable groups : 'a group list; (* sorted by signature: deterministic *)
  mutable residual : (int * 'a) list; (* rank order *)
  mutable inexact_heads : int; (* slots whose first entry is not exact *)
  items : (int, 'a item) Hashtbl.t; (* by rank *)
  counts : stats;
}

module For_testing = struct
  (* When set, classify accepts every slot-matched entry on its guard
     prefix alone — the unsound sharing the [exact] flag prevents. Only the
     differential suite flips this, to prove the oracle catches it. *)
  let unsound_prefix_sharing = ref false
end

(* One guard per offset, sorted: a word's guards merge by OR-ing masks and
   values. [None] when a value has bits outside its mask or two guards
   disagree on a shared bit — such a filter accepts nothing. *)
let canonical_chain chain =
  let rec go acc = function
    | [] -> Some (List.sort compare acc)
    | (_, m, v) :: _ when v land lnot m <> 0 -> None
    | (off, m, v) :: rest -> (
      match List.find_opt (fun (o, _, _) -> o = off) acc with
      | Some (_, m', v') when v land m' <> v' land m -> None
      | Some (_, m', v') ->
        go ((off, m lor m', v lor v') :: List.filter (fun (o, _, _) -> o <> off) acc) rest
      | None -> go ((off, m, v) :: acc) rest)
  in
  go [] chain

let slot_key values =
  let key = Bytes.create (2 * List.length values) in
  List.iteri (fun i v -> Bytes.set_uint16_be key (2 * i) v) values;
  key

let create () =
  {
    groups = [];
    residual = [];
    inexact_heads = 0;
    items = Hashtbl.create 16;
    counts =
      {
        probes = 0;
        hash_words = 0;
        exact_accepts = 0;
        candidates_run = 0;
        insns = 0;
        slots_matched = 0;
      };
  }

(* [x] into the list [l], kept ascending by [key]. *)
let insert_sorted key x l =
  let k = key x in
  let rec go = function
    | y :: rest when compare (key y) k < 0 -> y :: go rest
    | l -> x :: l
  in
  go l

let slot_of t signature key =
  let group =
    match List.find_opt (fun g -> g.signature = signature) t.groups with
    | Some g -> g
    | None ->
      let offsets = Array.of_list (List.map fst signature) in
      let g =
        {
          signature;
          offsets;
          masks = Array.of_list (List.map snd signature);
          slots = Slots.create 16;
          probe = Bytes.create (2 * Array.length offsets);
        }
      in
      t.groups <- insert_sorted (fun g -> g.signature) g t.groups;
      g
  in
  match Slots.find_opt group.slots key with
  | Some s -> s
  | None ->
    let s = { group; key; entries = [] } in
    Slots.add group.slots key s;
    s

(* A slot's entries change only here, which keeps [inexact_heads]. *)
let set_entries t slot entries =
  let inexact = function e :: _ -> not e.exact | [] -> false in
  t.inexact_heads <-
    t.inexact_heads - Bool.to_int (inexact slot.entries) + Bool.to_int (inexact entries);
  slot.entries <- entries

let add t ~rank ?(indexable = true) fast value =
  if Hashtbl.mem t.items rank then invalid_arg "Dispatch.add: rank already taken";
  let place decision slot = Hashtbl.replace t.items rank { value; decision; slot } in
  let residual reason =
    place (Residual reason) None;
    t.residual <- insert_sorted fst (rank, value) t.residual
  in
  let analysis = Fast.analysis fast in
  let chain, whole = Analysis.guards (Fast.program fast) in
  if analysis.Analysis.verdict = Analysis.Always_reject then place Never_accepts None
  else
    match canonical_chain chain with
    | None -> place Never_accepts None
    | Some canonical ->
      if not indexable then residual `Excluded
      else if analysis.Analysis.read_set = Analysis.Unbounded then
        residual `Unbounded
      else if canonical = [] then residual `No_chain
      else begin
        let words = List.map (fun (off, m, _) -> (off, m)) canonical in
        let slot = slot_of t words (slot_key (List.map (fun (_, _, v) -> v) canonical)) in
        place (Indexed { words; exact = whole }) (Some slot);
        set_entries t slot
          (insert_sorted (fun e -> e.rank)
             { rank; value; exact = whole; fast; answer = Some (rank, value) }
             slot.entries)
      end

let remove t ~rank =
  match Hashtbl.find_opt t.items rank with
  | None -> invalid_arg "Dispatch.remove: no entry at this rank"
  | Some item -> (
    Hashtbl.remove t.items rank;
    (match item.decision with
    | Residual _ -> t.residual <- List.filter (fun (r, _) -> r <> rank) t.residual
    | Indexed _ | Shadowed _ | Never_accepts -> ());
    match item.slot with
    | None -> ()
    | Some slot ->
      set_entries t slot (List.filter (fun e -> e.rank <> rank) slot.entries);
      if slot.entries = [] then begin
        (* a group disappears with its last entry, as if never built *)
        let g = slot.group in
        Slots.remove g.slots slot.key;
        if Slots.length g.slots = 0 then
          t.groups <- List.filter (fun g' -> g' != g) t.groups
      end)

let build_compiled ?(indexable = fun _ -> true) filters =
  (* Walk order: decreasing priority, ties by list position — the order the
     kernel's sequential demux applies these filters in when their
     priorities are the programs' own. *)
  let t = create () in
  List.mapi (fun i (fast, value) -> (i, fast, value)) filters
  |> List.stable_sort (fun (i, fa, _) (j, fb, _) ->
         match compare (Fast.priority fb) (Fast.priority fa) with
         | 0 -> compare i j
         | c -> c)
  |> List.iteri (fun rank (_, fast, value) ->
         add t ~rank ~indexable:(indexable value) fast value);
  t

let build ?indexable filters =
  build_compiled ?indexable
    (List.map (fun (validated, value) -> (Fast.compile validated, value)) filters)

let size t = Hashtbl.length t.items
let residuals t = t.residual

let decisive t =
  if t.residual <> [] || t.inexact_heads > 0 then None
  else
    Some (List.length t.groups, List.fold_left (fun n g -> n + Array.length g.offsets) 0 t.groups)

(* An exact entry accepts every packet that reaches its slot, and a slot's
   entries are scanned in rank order, so the ones ranked after its first
   exact entry can never win: [classify] never reaches them. *)
let rec live = function
  | [] -> []
  | e :: rest -> if e.exact then [ e ] else e :: live rest

let decisions t =
  Hashtbl.fold
    (fun rank (item : _ item) acc ->
      let decision =
        match item.slot with
        | Some slot -> (
          match List.find_opt (fun e -> e.exact && e.rank < rank) slot.entries with
          | Some k -> Shadowed { by = k.rank }
          | None -> item.decision)
        | None -> item.decision
      in
      (rank, item.value, decision) :: acc)
    t.items []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Probe each group: a missing guard word means every member of the group
   rejects (its pushword faults), so the whole group is skipped. Distinct
   slots of one group demand different values of a shared word under the
   same mask, hence are pairwise disjoint — probing order cannot matter.
   The offsets ascend, so the words the packet holds are a prefix of them;
   a probe writes them, masked, into the group's reused key and allocates
   nothing. Returns the entries
   of the matched slots: the one slot's own list, already in rank order, or
   when several matched, their entries in no order. *)
let rec probe (c : stats) packet words matched = function
  | [] -> matched
  | g :: rest ->
    c.probes <- c.probes + 1;
    let n = Array.length g.offsets in
    let p = ref 0 in
    while !p < n && g.offsets.(!p) < words do
      incr p
    done;
    if !p < n then begin
      c.hash_words <- c.hash_words + !p + 1;
      probe c packet words matched rest
    end
    else begin
      c.hash_words <- c.hash_words + n;
      for i = 0 to n - 1 do
        Bytes.set_uint16_be g.probe (2 * i)
          (Packet.word packet g.offsets.(i) land g.masks.(i))
      done;
      (* [mem] first: most probes miss, and raising [Not_found] costs more
         than a second lookup on a hit. *)
      if Slots.mem g.slots g.probe then begin
        let slot = Slots.find g.slots g.probe in
        c.slots_matched <- c.slots_matched + 1;
        let matched =
          match matched with
          | [] -> slot.entries
          | _ :: _ -> List.rev_append slot.entries matched
        in
        probe c packet words matched rest
      end
      else probe c packet words matched rest
    end

(* The first entry, in rank order, to accept the packet. *)
let rec scan (c : stats) on_run packet = function
  | [] -> None
  | e :: rest ->
    if e.exact || !For_testing.unsound_prefix_sharing then begin
      c.exact_accepts <- c.exact_accepts + 1;
      e.answer
    end
    else begin
      let r = Fast.eval e.fast packet in
      let n = Op.packed_insns r in
      c.candidates_run <- c.candidates_run + 1;
      c.insns <- c.insns + n;
      on_run e.value ~insns:n;
      if Op.packed_accepts r then e.answer else scan c on_run packet rest
    end

let classify ?(on_run = fun _ ~insns:_ -> ()) t packet =
  let c = t.counts in
  c.probes <- 0;
  c.hash_words <- 0;
  c.exact_accepts <- 0;
  c.candidates_run <- 0;
  c.insns <- 0;
  c.slots_matched <- 0;
  let matched = probe c packet (Packet.word_count packet) [] t.groups in
  let matched =
    if c.slots_matched > 1 then List.sort (fun a b -> compare a.rank b.rank) matched
    else matched
  in
  scan c on_run packet matched

let stats t = t.counts

(* {1 Inspection} *)

type group_info = {
  words : (int * int) list;
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
  let decisions = decisions t in
  let count pred = List.length (List.filter (fun (_, _, d) -> pred d) decisions) in
  let groups =
    List.map
      (fun (g : _ group) ->
        let members, exact_members =
          Slots.fold
            (fun _ slot (m, e) ->
              let live = live slot.entries in
              (m + List.length live, e + List.length (List.filter (fun en -> en.exact) live)))
            g.slots (0, 0)
        in
        {
          words = g.signature;
          slots = Slots.length g.slots;
          members;
          exact_members;
        })
      t.groups
  in
  {
    filters = size t;
    indexed = count (function Indexed _ -> true | _ -> false);
    residual = List.length t.residual;
    residual_unbounded = count (function Residual `Unbounded -> true | _ -> false);
    residual_no_chain = count (function Residual `No_chain -> true | _ -> false);
    residual_excluded = count (function Residual `Excluded -> true | _ -> false);
    never_accepts = count (function Never_accepts -> true | _ -> false);
    shadowed = count (function Shadowed _ -> true | _ -> false);
    max_prefix_depth =
      List.fold_left (fun acc g -> max acc (List.length g.words)) 0 groups;
    groups;
  }

let word_name (off, mask) =
  if mask = 0xffff then string_of_int off else Printf.sprintf "%d&%04x" off mask

let pp_words ppf words =
  Format.fprintf ppf "[%s]" (String.concat " " (List.map word_name words))

let pp_decision ppf = function
  | Indexed { words; exact } ->
    Format.fprintf ppf "indexed on words %a%s" pp_words words
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
        pp_words g.words g.members g.exact_members g.slots)
    i.groups
