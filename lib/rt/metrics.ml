(* A registry is five sections, each a pair of exact-size arrays: names
   in [String.compare] order and their values at the same index.  Lookup
   is a binary search; a new name is inserted in place (the registries
   hold a few dozen names, written once each), so a snapshot walks the
   arrays in order and a retained registry carries no hash-table slack. *)
type 'a section = { mutable names : string array; mutable vals : 'a array }

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable buckets : int array;
      (* (binary exponent, count) pairs, flattened, exponents ascending *)
}

type t = {
  counters : int section;
  gauges : float section;
  hists : hist section;
  walls : float section;
  (* Wall-clock histograms live outside the deterministic core: like
     [walls] they are serialized only when [~walls:true], so dump/replay
     comparisons of [to_json ~walls:false] stay bit-identical. *)
  whists : hist section;
  lock : Mutex.t;
}

let section () = { names = [||]; vals = [||] }

let create () =
  {
    counters = section ();
    gauges = section ();
    hists = section ();
    walls = section ();
    whists = section ();
    lock = Mutex.create ();
  }

let guarded t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Index of [name] in [s], or [-(i + 1)] where [i] is its insertion
   point. *)
let find s name =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare s.names.(mid) name in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length s.names)

let insert a i v =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then v else a.(j - 1))

(* Index of [name], inserting it with value [make ()] when absent. *)
let slot s name make =
  let i = find s name in
  if i >= 0 then i
  else begin
    let i = -i - 1 in
    s.names <- insert s.names i name;
    s.vals <- insert s.vals i (make ());
    i
  end

let get s name = let i = find s name in if i >= 0 then Some s.vals.(i) else None

let incr ?(by = 1) t name =
  guarded t (fun () ->
      let s = t.counters in
      let i = slot s name (fun () -> 0) in
      s.vals.(i) <- s.vals.(i) + by)

let counter t name =
  guarded t (fun () -> Option.value ~default:0 (get t.counters name))

let set_gauge t name v =
  guarded t (fun () ->
      let s = t.gauges in
      let i = slot s name (fun () -> v) in
      s.vals.(i) <- v)

let gauge t name = guarded t (fun () -> get t.gauges name)

(* Bucket of v: the binary exponent e with 2^(e-1) <= v < 2^e, from
   frexp (exact — no log rounding at bucket boundaries); non-positive
   values collapse into a single underflow bucket below every real
   exponent. *)
let underflow_bucket = -1074

let bucket_of v =
  if v <= 0.0 then underflow_bucket
  else
    let _, e = Float.frexp v in
    e

let new_hist () =
  { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity; buckets = [||] }

(* Count one sample in bucket [e], keeping the pairs sorted. *)
let bump h e =
  let b = h.buckets in
  let n = Array.length b in
  let rec go k =
    if k < n && b.(k) < e then go (k + 2)
    else if k < n && b.(k) = e then b.(k + 1) <- b.(k + 1) + 1
    else
      h.buckets <-
        Array.init (n + 2) (fun j ->
            if j < k then b.(j) else if j = k then e else if j = k + 1 then 1 else b.(j - 2))
  in
  go 0

let observe_into s name v =
  let i = slot s name new_hist in
  let h = s.vals.(i) in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_min <- Float.min h.h_min v;
  h.h_max <- Float.max h.h_max v;
  bump h (bucket_of v)

let observe t name v = guarded t (fun () -> observe_into t.hists name v)
let observe_wall t name v = guarded t (fun () -> observe_into t.whists name v)

(* [f h] of a non-empty histogram, 0 otherwise. *)
let hist_stat s name f =
  match get s name with Some h when h.h_count > 0 -> f h | _ -> 0.0

let mean h = h.h_sum /. float_of_int h.h_count

let wall_hist_mean t name = guarded t (fun () -> hist_stat t.whists name mean)
let wall_hist_max t name = guarded t (fun () -> hist_stat t.whists name (fun h -> h.h_max))

let hist_count t name =
  guarded t (fun () -> match get t.hists name with Some h -> h.h_count | None -> 0)

let hist_sum t name =
  guarded t (fun () -> match get t.hists name with Some h -> h.h_sum | None -> 0.0)

let hist_mean t name = guarded t (fun () -> hist_stat t.hists name mean)
let hist_max t name = guarded t (fun () -> hist_stat t.hists name (fun h -> h.h_max))

(* Nearest-rank quantile over the log-histogram, linearly interpolated
   inside the bucket the rank lands in.  Pure integer/float arithmetic
   over the bucket table, so the estimate is deterministic — the bench
   gates compare it across runs. *)
let hist_quantile t name q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.hist_quantile: q must be in [0, 1]";
  guarded t (fun () ->
      match get t.hists name with
      | None -> 0.0
      | Some h when h.h_count = 0 -> 0.0
      | Some h ->
        let rank =
          max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
        in
        let b = h.buckets in
        let rec walk k cum =
          if k >= Array.length b then h.h_max
          else
            let e = b.(k) and n = b.(k + 1) in
            if cum + n < rank then walk (k + 2) (cum + n)
            else if e = underflow_bucket then Float.min h.h_min 0.0
            else begin
              let lo = Float.ldexp 1.0 (e - 1) and hi = Float.ldexp 1.0 e in
              let frac = float_of_int (rank - cum) /. float_of_int n in
              let v = lo +. ((hi -. lo) *. frac) in
              Float.max h.h_min (Float.min h.h_max v)
            end
        in
        walk 0 0)

let add_wall t name s =
  guarded t (fun () ->
      let w = t.walls in
      let i = slot w name (fun () -> 0.0) in
      w.vals.(i) <- w.vals.(i) +. s)

let time t name f =
  let t0 = Prete_util.Clock.now () in
  Fun.protect
    ~finally:(fun () -> add_wall t name (Prete_util.Clock.elapsed_since t0))
    f

module J = Prete_util.Json

let hist_json h =
  if h.h_count = 0 then J.Object [ ("count", J.int 0) ]
  else
    let b = h.buckets in
    J.Object
      [ ("count", J.int h.h_count); ("sum", J.g 9 h.h_sum); ("min", J.g 9 h.h_min);
        ("max", J.g 9 h.h_max);
        ("buckets",
         J.Array
           (List.init (Array.length b / 2) (fun k ->
                J.Array [ J.int b.(2 * k); J.int b.((2 * k) + 1) ]))) ]

let section_json s json =
  J.Object (Array.to_list (Array.mapi (fun i k -> (k, json s.vals.(i))) s.names))

let walls_section t = section_json t.walls (J.fixed 6)
let walls_json t = guarded t (fun () -> walls_section t)

let to_json ?(walls = true) t =
  guarded t (fun () ->
      J.Object
        ([ ("counters", section_json t.counters J.int);
           ("gauges", section_json t.gauges (J.g 9));
           ("histograms", section_json t.hists hist_json) ]
        @
        if walls then
          [ ("wall_s", walls_section t); ("wall_histograms", section_json t.whists hist_json) ]
        else []))
