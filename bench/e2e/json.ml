(* Just enough JSON to read BENCHMARK.json in the smoke test. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let word w v =
    if !pos + String.length w <= String.length s && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\000' -> fail "unterminated string"
      | '\\' ->
        incr pos;
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | _ -> fail "unsupported escape");
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  (* [items close one] parses "one, one, ..." up to [close]. *)
  let items close one =
    skip ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = one () :: acc in
        skip ();
        match peek () with
        | ',' ->
          incr pos;
          go acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail "expected ',' or a closing bracket"
      in
      go []
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             let k = str () in
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      Arr (items ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ ->
      let start = !pos in
      while
        match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> String.length s then fail "trailing data";
  v

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> raise (Error ("no key " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_list = function Arr l -> l | _ -> raise (Error "not an array")
let to_string = function Str s -> s | _ -> raise (Error "not a string")
