(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded from the benchmark's own code, around calls into the
   program's layers.  They nest on one thread: [with_ t name f] opens a
   span whose parent is the innermost open span, runs [f], and closes it
   (also when [f] raises).  A disabled recorder runs [f] and records
   nothing, so the untraced run pays one branch per call site.  Spans are
   kept in memory and written once, at exit, as Chrome [trace_event]
   JSON. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  t0 : float;  (** Seconds on {!Prete_util.Clock}. *)
  mutable t1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** Newest first. *)
  mutable stack : span list;  (** Open spans, innermost first. *)
  mutable next : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next = 0 }
let enabled t = t.enabled

let open_ t name t0 =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next; parent; name; t0; t1 = t0 } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  s

let close t s t1 =
  s.t1 <- t1;
  match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Span.close: spans closed out of order"

let with_ t name f =
  if not t.enabled then f ()
  else begin
    let s = open_ t name (Prete_util.Clock.now ()) in
    Fun.protect ~finally:(fun () -> close t s (Prete_util.Clock.now ())) f
  end

(* Record an interval with given bounds, so tests can build span trees
   with exact times. *)
let add t ?(parent = -1) name ~t0 ~t1 =
  let s = { id = t.next; parent; name; t0; t1 } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s.id

let spans t = List.rev t.spans
let duration s = s.t1 -. s.t0

(* Self time of every span: its duration minus the durations of its
   direct children.  [with_] nests spans strictly on one thread, so
   children never overlap each other or outlive their parent. *)
let self_times t =
  let all = spans t in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt kids s.parent)))
    all;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt kids s.id)))
    all

type agg = { count : int; total_s : float; self_s : float }

(* Name of the root span above [s]. *)
let root_names t =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s.name
  in
  fun s -> root s

(* Per-name totals over every recorded span, or only over the spans under
   roots named [root]. *)
let aggregate ?root t =
  let tbl = Hashtbl.create 32 in
  let keep =
    match root with
    | None -> fun _ -> true
    | Some r ->
      let root_of = root_names t in
      fun s -> root_of s = r
  in
  List.iter
    (fun (s, self) ->
      if keep s then begin
        let a =
          Option.value
            ~default:{ count = 0; total_s = 0.0; self_s = 0.0 }
            (Hashtbl.find_opt tbl s.name)
        in
        Hashtbl.replace tbl s.name
          { count = a.count + 1; total_s = a.total_s +. duration s; self_s = a.self_s +. self }
      end)
    (self_times t);
  tbl

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace_event JSON ("X" complete events, microseconds relative to
   the first span).  Loads in chrome://tracing and Perfetto. *)
let to_chrome_json t =
  let all = spans t in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
           (escape s.name)
           (escape (match String.index_opt s.name '.' with Some k -> String.sub s.name 0 k | None -> s.name))
           ((s.t0 -. origin) *. 1e6) (duration s *. 1e6) s.id s.parent))
    all;
  Buffer.add_string b "]}\n";
  Buffer.contents b
