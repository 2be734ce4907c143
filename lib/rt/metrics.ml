type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : (int, int) Hashtbl.t;  (* binary exponent -> count *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  walls : (string, float ref) Hashtbl.t;
  (* Wall-clock histograms live outside the deterministic core: like
     [walls] they are serialized only when [~walls:true], so dump/replay
     comparisons of [to_json ~walls:false] stay bit-identical. *)
  whists : (string, hist) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    walls = Hashtbl.create 16;
    whists = Hashtbl.create 8;
    lock = Mutex.create ();
  }

let guarded t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let incr ?(by = 1) t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters name (ref by))

let counter t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let set_gauge t name v =
  guarded t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some r -> r := v
      | None -> Hashtbl.replace t.gauges name (ref v))

let gauge t name =
  guarded t (fun () -> Option.map ( ! ) (Hashtbl.find_opt t.gauges name))

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

let observe_into tbl name v =
  let h =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
      let h =
        {
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
          buckets = Hashtbl.create 8;
        }
      in
      Hashtbl.replace tbl name h;
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_min <- Float.min h.h_min v;
  h.h_max <- Float.max h.h_max v;
  let b = bucket_of v in
  Hashtbl.replace h.buckets b
    (1 + Option.value ~default:0 (Hashtbl.find_opt h.buckets b))

let observe t name v = guarded t (fun () -> observe_into t.hists name v)
let observe_wall t name v = guarded t (fun () -> observe_into t.whists name v)

let wall_hist_mean t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.whists name with
      | Some h when h.h_count > 0 -> h.h_sum /. float_of_int h.h_count
      | _ -> 0.0)

let wall_hist_max t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.whists name with
      | Some h when h.h_count > 0 -> h.h_max
      | _ -> 0.0)

let hist_count t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.h_count | None -> 0)

let hist_sum t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.hists name with Some h -> h.h_sum | None -> 0.0)

let hist_mean t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h when h.h_count > 0 -> h.h_sum /. float_of_int h.h_count
      | _ -> 0.0)

let hist_max t name =
  guarded t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h when h.h_count > 0 -> h.h_max
      | _ -> 0.0)

(* Nearest-rank quantile over the log-histogram, linearly interpolated
   inside the bucket the rank lands in.  Pure integer/float arithmetic
   over the bucket table, so the estimate is deterministic — the bench
   gates compare it across runs. *)
let hist_quantile t name q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.hist_quantile: q must be in [0, 1]";
  guarded t (fun () ->
      match Hashtbl.find_opt t.hists name with
      | None -> 0.0
      | Some h when h.h_count = 0 -> 0.0
      | Some h ->
        let rank =
          max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
        in
        let buckets =
          Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets []
          |> List.sort compare
        in
        let rec walk cum = function
          | [] -> h.h_max
          | (e, n) :: rest ->
            if cum + n < rank then walk (cum + n) rest
            else if e = underflow_bucket then Float.min h.h_min 0.0
            else begin
              let lo = Float.ldexp 1.0 (e - 1) and hi = Float.ldexp 1.0 e in
              let frac = float_of_int (rank - cum) /. float_of_int n in
              let v = lo +. ((hi -. lo) *. frac) in
              Float.max h.h_min (Float.min h.h_max v)
            end
        in
        walk 0 buckets)

let add_wall t name s =
  guarded t (fun () ->
      match Hashtbl.find_opt t.walls name with
      | Some r -> r := !r +. s
      | None -> Hashtbl.replace t.walls name (ref s))

let time t name f =
  let t0 = Prete_util.Clock.now () in
  Fun.protect
    ~finally:(fun () -> add_wall t name (Prete_util.Clock.elapsed_since t0))
    f

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

module J = Prete_util.Json

let hist_json h =
  if h.h_count = 0 then J.Object [ ("count", J.int 0) ]
  else
    let buckets = Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets [] |> List.sort compare in
    J.Object
      [ ("count", J.int h.h_count); ("sum", J.g 9 h.h_sum); ("min", J.g 9 h.h_min);
        ("max", J.g 9 h.h_max);
        ("buckets", J.Array (List.map (fun (e, n) -> J.Array [ J.int e; J.int n ]) buckets)) ]

let section tbl value json =
  J.Object (List.map (fun (k, v) -> (k, json v)) (sorted_bindings tbl value))

let walls_section t = section t.walls ( ! ) (J.fixed 6)
let walls_json t = guarded t (fun () -> walls_section t)

let to_json ?(walls = true) t =
  guarded t (fun () ->
      J.Object
        ([ ("counters", section t.counters ( ! ) J.int);
           ("gauges", section t.gauges ( ! ) (J.g 9));
           ("histograms", section t.hists Fun.id hist_json) ]
        @
        if walls then
          [ ("wall_s", walls_section t); ("wall_histograms", section t.whists Fun.id hist_json) ]
        else []))
