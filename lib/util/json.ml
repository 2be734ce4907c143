type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

let int n = Number (string_of_int n)
let finite fmt x = if Float.is_finite x then Number (fmt x) else Null
let float = finite (Printf.sprintf "%.17g")
let g n = finite (Printf.sprintf "%.*g" n)
let fixed n = finite (Printf.sprintf "%.*f" n)
let option f = function Some v -> f v | None -> Null

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Number s -> Buffer.add_string b s
  | String s -> add_quoted b s
  | Array vs -> add_items b '[' ']' (add b) vs
  | Object ms ->
    add_items b '{' '}' (fun (k, v) -> add_quoted b k; Buffer.add_string b ": "; add b v) ms

and add_items : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b op cl f xs ->
  Buffer.add_char b op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; f x) xs;
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

exception Bad of string

(* Deep enough for every file this repo writes (dumps nest seven deep),
   shallow enough that a damaged file cannot exhaust the stack. *)
let max_depth = 256

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what =
    let what = if !pos >= n then "unexpected end of input" else what in
    raise (Bad (Printf.sprintf "%s at byte %d" what !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v = String.iter expect word; v in
  let digits () =
    let start = !pos in
    while peek () >= '0' && peek () <= '9' do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then (incr pos; digits ());
    if peek () = 'e' || peek () = 'E' then (
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ());
    Number (String.sub s start (!pos - start))
  in
  let hex4 () =
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if !pos + 4 > n || not (String.for_all hex (String.sub s !pos 4)) then
      fail "expected four hex digits";
    pos := !pos + 4;
    int_of_string ("0x" ^ String.sub s (!pos - 4) 4)
  in
  (* A \u escape, a surrogate pair joined, as UTF-8. *)
  let unicode b =
    let hi = hex4 () in
    let cp =
      if hi >= 0xD800 && hi <= 0xDBFF then begin
        expect '\\';
        expect 'u';
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else if hi >= 0xDC00 && hi <= 0xDFFF then fail "unpaired surrogate"
      else hi
    in
    Buffer.add_utf_8_uchar b (Uchar.of_int cp)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match next () with
      | '"' -> ()
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> unicode b
        | _ -> decr pos; fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> decr pos; fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  (* Comma-separated [item]s up to [close], the opening bracket read. *)
  let items close item =
    skip_ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then (incr pos; go acc) else (expect close; List.rev acc)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      Object
        (items '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' -> incr pos; Array (items ']' (fun () -> value (depth + 1)))
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member key = function Object ms -> List.assoc_opt key ms | _ -> None
let as_int = function Number s -> int_of_string_opt s | _ -> None
let as_float = function Number s -> float_of_string_opt s | _ -> None
let as_bool = function Bool v -> Some v | _ -> None
let as_string = function String s -> Some s | _ -> None
