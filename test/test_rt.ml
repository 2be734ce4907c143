(* Streaming runtime (prete_rt) tests.

   The load-bearing guarantees:
   - online incremental features == offline Timeseries functions, bit-exact,
     on randomized traces with injected gaps / reordering / duplicates;
   - the event queue and ingest are deterministic and order-correct;
   - Shard.run is bit-identical across domain counts and replayable from
     its own dump, and one shard reproduces the retired single-loop
     engine's availabilities;
   - the instant policy reproduces Simulate.run's availability on the same
     seed, and streaming availability never falls below periodic-only. *)

open Prete
open Prete_net
open Prete_optics
open Prete_rt
module Ts = Prete_util.Timeseries
module J = Prete_util.Json

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Equeue                                                              *)
(* ------------------------------------------------------------------ *)

let test_equeue_order () =
  let q = Equeue.create () in
  List.iter (fun (t, x) -> Equeue.push q ~time:t x)
    [ (5, "e"); (1, "a"); (3, "c"); (1, "b"); (3, "d") ];
  let popped = ref [] in
  let rec go () =
    match Equeue.pop q with
    | Some (t, x) -> popped := (t, x) :: !popped; go ()
    | None -> ()
  in
  go ();
  Alcotest.(check (list (pair int string)))
    "time order, FIFO within a tick"
    [ (1, "a"); (1, "b"); (3, "c"); (3, "d"); (5, "e") ]
    (List.rev !popped);
  Alcotest.(check bool) "empty" true (Equeue.is_empty q)

let test_equeue_pop_until () =
  let q = Equeue.create () in
  List.iter (fun t -> Equeue.push q ~time:t t) [ 4; 0; 2; 7 ];
  Alcotest.(check (list (pair int int)))
    "pops everything due" [ (0, 0); (2, 2); (4, 4) ]
    (Equeue.pop_until q ~time:4);
  Alcotest.(check (option int)) "later event left" (Some 7) (Equeue.peek_time q);
  Alcotest.(check int) "length" 1 (Equeue.length q)

let prop_equeue_sorted =
  QCheck.Test.make ~name:"equeue pops sorted by (time, insertion)" ~count:100
    QCheck.(list (int_range 0 50))
    (fun times ->
      let q = Equeue.create () in
      List.iteri (fun i t -> Equeue.push q ~time:t (t, i)) times;
      let out = ref [] in
      let rec go () =
        match Equeue.pop q with
        | Some (_, x) -> out := x :: !out; go ()
        | None -> ()
      in
      go ();
      let out = List.rev !out in
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (a, i) (b, j) -> compare (a, i) (b, j))
      in
      out = expected)

(* Model test of the calendar queue: interleaved push / pop / pop_until /
   iter_until against a list kept sorted by (time, insertion seq).
   Times span negatives, pushes behind already-popped times and jumps
   far past the ring's initial capacity; [iter_until]'s callback pushes
   a follow-up event one tick in the past for every third payload, which
   the same call must deliver exactly as repeated pops would. *)
type eq_op = Push of int | Pop | Pop_until of int | Iter_until of int

let gen_eq_ops =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (frequency
         [
           (6, map (fun t -> Push t) (int_range (-30) 60));
           (1, map (fun t -> Push t) (int_range (-500) 500));
           (3, return Pop);
           (2, map (fun t -> Pop_until t) (int_range (-40) 80));
           (2, map (fun t -> Iter_until t) (int_range (-40) 80));
         ]))

let print_eq_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Pop -> "pop"
  | Pop_until t -> Printf.sprintf "pop_until %d" t
  | Iter_until t -> Printf.sprintf "iter_until %d" t

let prop_equeue_model =
  QCheck.Test.make ~name:"calendar queue == stable sort by (time, insertion)"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_eq_op) gen_eq_ops)
    (fun ops ->
      let q = Equeue.create () in
      (* Model: pending (time, insertion seq, payload), popped in sorted
         order. *)
      let model = ref [] and seq = ref 0 in
      let push t x =
        Equeue.push q ~time:t x;
        model := (t, !seq, x) :: !model;
        incr seq
      in
      let sorted () = List.sort compare !model in
      let model_pop () =
        match sorted () with
        | [] -> None
        | ((t, _, x) as e) :: _ ->
          model := List.filter (( != ) e) !model;
          Some (t, x)
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let step = function
        | Push t -> push t !seq
        | Pop -> expect (Equeue.pop q = model_pop ())
        | Pop_until time ->
          let want = List.filter (fun (t, _, _) -> t <= time) (sorted ()) in
          model := List.filter (fun (t, _, _) -> t > time) !model;
          expect
            (Equeue.pop_until q ~time = List.map (fun (t, _, x) -> (t, x)) want)
        | Iter_until time ->
          let got = ref [] and want = ref [] in
          Equeue.iter_until q ~time (fun t x ->
              got := (t, x) :: !got;
              (match model_pop () with
              | Some e -> want := e :: !want
              | None -> expect false);
              if x mod 3 = 0 then push (t - 1) (-x - 1));
          expect (!got = !want);
          (* Nothing due may be left behind. *)
          expect
            (match sorted () with (t, _, _) :: _ -> t > time | [] -> true)
      in
      List.iter
        (fun op ->
          step op;
          expect (Equeue.length q = List.length !model);
          expect
            (Equeue.peek_time q
            = match sorted () with (t, _, _) :: _ -> Some t | [] -> None))
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Metrics / Ring                                                      *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.incr ~by:4 m "x";
  Metrics.incr m "y";
  Alcotest.(check int) "x" 5 (Metrics.counter m "x");
  Alcotest.(check int) "unknown is 0" 0 (Metrics.counter m "zzz");
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (option (float 0.0))) "gauge" (Some 2.5) (Metrics.gauge m "g")

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 0.5; 0.75; 1.5; 3.0; 0.0 ];
  Alcotest.(check int) "count" 5 (Metrics.hist_count m "lat");
  Alcotest.(check (float 1e-12)) "sum" 5.75 (Metrics.hist_sum m "lat");
  Alcotest.(check (float 1e-12)) "mean" 1.15 (Metrics.hist_mean m "lat");
  let core = J.to_string (Metrics.to_json ~walls:false m) in
  Alcotest.(check bool) "core has histogram" true (contains core "\"lat\"");
  Alcotest.(check bool) "core has no walls" false (contains core "wall_s");
  Metrics.add_wall m "stage" 0.25;
  Alcotest.(check bool) "walls json" true
    (J.member "stage" (Metrics.walls_json m) <> None)

let test_metrics_quantile () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "empty histogram" 0.0
    (Metrics.hist_quantile m "lat" 0.5);
  (* Single repeated value: every quantile is that value (the in-bucket
     interpolation clamps to the observed range). *)
  for _ = 1 to 10 do
    Metrics.observe m "one" 5.0
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "degenerate hist at q=%.2f" q)
        5.0
        (Metrics.hist_quantile m "one" q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* Spread values: quantiles are monotone in q, stay within the observed
     range, and land within a factor of 2 of the true quantile. *)
  List.iter (Metrics.observe m "lat") [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ];
  let p50 = Metrics.hist_quantile m "lat" 0.5 in
  let p99 = Metrics.hist_quantile m "lat" 0.99 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool) "p50 within range" true (p50 >= 1.0 && p50 <= 32.0);
  Alcotest.(check bool) "p50 within 2x of true median" true
    (p50 >= 2.0 && p50 <= 8.0);
  Alcotest.(check bool) "p99 near the top" true (p99 >= 16.0 && p99 <= 32.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.hist_quantile: q must be in [0, 1]") (fun () ->
      ignore (Metrics.hist_quantile m "lat" 1.5))

(* The registry as it stood before its sections became sorted arrays:
   one hash table per section and per histogram's buckets.  A reference
   copy (without the lock), so the flat registry is checked against an
   independent implementation of the same getters and snapshot. *)
module Ref_metrics = struct
  type hist = {
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    buckets : (int, int) Hashtbl.t;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    hists : (string, hist) Hashtbl.t;
    walls : (string, float ref) Hashtbl.t;
    whists : (string, hist) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 16;
      hists = Hashtbl.create 16;
      walls = Hashtbl.create 16;
      whists = Hashtbl.create 8;
    }

  let incr ~by t name =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace t.counters name (ref by)

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let set_gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

  let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

  let bucket_of v = if v <= 0.0 then -1074 else snd (Float.frexp v)

  let observe_into tbl name v =
    let h =
      match Hashtbl.find_opt tbl name with
      | Some h -> h
      | None ->
        let h =
          { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
            buckets = Hashtbl.create 8 }
        in
        Hashtbl.replace tbl name h;
        h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_min <- Float.min h.h_min v;
    h.h_max <- Float.max h.h_max v;
    let b = bucket_of v in
    Hashtbl.replace h.buckets b (1 + Option.value ~default:0 (Hashtbl.find_opt h.buckets b))

  let observe t name v = observe_into t.hists name v
  let observe_wall t name v = observe_into t.whists name v

  let stat tbl name f =
    match Hashtbl.find_opt tbl name with Some h when h.h_count > 0 -> f h | _ -> 0.0

  let mean h = h.h_sum /. float_of_int h.h_count
  let wall_hist_mean t name = stat t.whists name mean
  let wall_hist_max t name = stat t.whists name (fun h -> h.h_max)

  let hist_count t name =
    match Hashtbl.find_opt t.hists name with Some h -> h.h_count | None -> 0

  let hist_sum t name =
    match Hashtbl.find_opt t.hists name with Some h -> h.h_sum | None -> 0.0

  let hist_mean t name = stat t.hists name mean
  let hist_max t name = stat t.hists name (fun h -> h.h_max)

  let sorted_buckets h =
    Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets [] |> List.sort compare

  let hist_quantile t name q =
    match Hashtbl.find_opt t.hists name with
    | None -> 0.0
    | Some h when h.h_count = 0 -> 0.0
    | Some h ->
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
      let rec walk cum = function
        | [] -> h.h_max
        | (e, n) :: rest ->
          if cum + n < rank then walk (cum + n) rest
          else if e = -1074 then Float.min h.h_min 0.0
          else begin
            let lo = Float.ldexp 1.0 (e - 1) and hi = Float.ldexp 1.0 e in
            let frac = float_of_int (rank - cum) /. float_of_int n in
            Float.max h.h_min (Float.min h.h_max (lo +. ((hi -. lo) *. frac)))
          end
      in
      walk 0 (sorted_buckets h)

  let add_wall t name s =
    match Hashtbl.find_opt t.walls name with
    | Some r -> r := !r +. s
    | None -> Hashtbl.replace t.walls name (ref s)

  let section tbl json =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> (k, json v))
    |> fun l -> J.Object l

  let hist_json h =
    if h.h_count = 0 then J.Object [ ("count", J.int 0) ]
    else
      J.Object
        [ ("count", J.int h.h_count); ("sum", J.g 9 h.h_sum); ("min", J.g 9 h.h_min);
          ("max", J.g 9 h.h_max);
          ("buckets",
           J.Array (List.map (fun (e, n) -> J.Array [ J.int e; J.int n ]) (sorted_buckets h))) ]

  let to_json ~walls t =
    J.Object
      ([ ("counters", section t.counters (fun r -> J.int !r));
         ("gauges", section t.gauges (fun r -> J.g 9 !r));
         ("histograms", section t.hists hist_json) ]
      @
      if walls then
        [ ("wall_s", section t.walls (fun r -> J.fixed 6 !r));
          ("wall_histograms", section t.whists hist_json) ]
      else [])
end

type metrics_op =
  | Incr of string * int
  | Set_gauge of string * float
  | Observe of string * float
  | Observe_wall of string * float
  | Add_wall of string * float

(* Random operation sequences over a few shared names, with values that
   hit the underflow bucket, exact powers of two (bucket edges) and
   spreads over many exponents. *)
let gen_metrics_ops =
  let open QCheck.Gen in
  let name = oneofl [ ""; "a"; "b"; "lat"; "rung_primary"; "rung_detour"; "z" ] in
  let value =
    oneof
      [ oneofl [ 0.0; -1.0; 0.5; 1.0; 2.0; 1024.0; 1e-9 ];
        map (fun e -> Float.ldexp 1.0 e) (int_range (-20) 20);
        float_range (-5.0) 1e4 ]
  in
  list_size (int_range 0 60)
    (oneof
       [ map2 (fun n b -> Incr (n, b)) name (int_range (-3) 9);
         map2 (fun n v -> Set_gauge (n, v)) name value;
         map2 (fun n v -> Observe (n, v)) name value;
         map2 (fun n v -> Observe_wall (n, v)) name value;
         map2 (fun n v -> Add_wall (n, v)) name value ])

let prop_metrics_match_reference =
  QCheck.Test.make ~name:"flat registry == hash-table registry" ~count:300
    (QCheck.make gen_metrics_ops)
    (fun ops ->
      let m = Metrics.create () and r = Ref_metrics.create () in
      List.iter
        (function
          | Incr (n, by) -> Metrics.incr ~by m n; Ref_metrics.incr ~by r n
          | Set_gauge (n, v) -> Metrics.set_gauge m n v; Ref_metrics.set_gauge r n v
          | Observe (n, v) -> Metrics.observe m n v; Ref_metrics.observe r n v
          | Observe_wall (n, v) -> Metrics.observe_wall m n v; Ref_metrics.observe_wall r n v
          | Add_wall (n, v) -> Metrics.add_wall m n v; Ref_metrics.add_wall r n v)
        ops;
      let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b in
      List.for_all
        (fun n ->
          Metrics.counter m n = Ref_metrics.counter r n
          && Option.equal same_float (Metrics.gauge m n) (Ref_metrics.gauge r n)
          && Metrics.hist_count m n = Ref_metrics.hist_count r n
          && same_float (Metrics.hist_sum m n) (Ref_metrics.hist_sum r n)
          && same_float (Metrics.hist_mean m n) (Ref_metrics.hist_mean r n)
          && same_float (Metrics.hist_max m n) (Ref_metrics.hist_max r n)
          && same_float (Metrics.wall_hist_mean m n) (Ref_metrics.wall_hist_mean r n)
          && same_float (Metrics.wall_hist_max m n) (Ref_metrics.wall_hist_max r n)
          && List.for_all
               (fun q ->
                 same_float (Metrics.hist_quantile m n q) (Ref_metrics.hist_quantile r n q))
               [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ])
        [ ""; "a"; "b"; "lat"; "rung_primary"; "rung_detour"; "z"; "unknown" ]
      && List.for_all
           (fun walls ->
             String.equal
               (J.to_string (Metrics.to_json ~walls m))
               (J.to_string (Ref_metrics.to_json ~walls r)))
           [ false; true ])

let test_ring_bounded () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check bool) "fresh ring not overflowed" false (Ring.overflowed r);
  for i = 0 to 4 do
    Ring.push r ~tick:i ~kind:"k" ~fiber:i ~value:(float_of_int i)
  done;
  Alcotest.(check int) "total" 5 (Ring.total r);
  Alcotest.(check int) "dropped" 2 (Ring.dropped r);
  Alcotest.(check bool) "overflowed" true (Ring.overflowed r);
  let e = Ring.entries r in
  Alcotest.(check int) "retained" 3 (Array.length e);
  Alcotest.(check (list int)) "oldest first" [ 2; 3; 4 ]
    (Array.to_list (Array.map (fun x -> x.Ring.seq) e));
  (* A capacity past the initial buffer: the buffer grows before the
     first wrap, and the retained window is the same. *)
  let r = Ring.create ~capacity:40 in
  let seqs () = Array.to_list (Array.map (fun x -> x.Ring.seq) (Ring.entries r)) in
  for i = 0 to 99 do
    Ring.push r ~tick:i ~kind:"k" ~fiber:i ~value:(float_of_int i);
    if i = 19 then
      Alcotest.(check (list int)) "grown, not wrapped" (List.init 20 Fun.id) (seqs ())
  done;
  Alcotest.(check int) "dropped past capacity" 60 (Ring.dropped r);
  Alcotest.(check (list int)) "last capacity entries" (List.init 40 (( + ) 60)) (seqs ())

(* ------------------------------------------------------------------ *)
(* Stream: the arrival draws                                          *)
(* ------------------------------------------------------------------ *)

(* The list schedule as first written, kept as the reference for
   [Stream.iter_arrivals]: per sample a gap coin, the delivery's delay,
   a duplicate coin and the copy's delay. *)
let reference_schedule rng (imp : Stream.impairments) (tr : Telemetry.trace) =
  let module R = Prete_util.Rng in
  let delay () =
    if imp.Stream.max_delay > 0 && R.bernoulli rng imp.Stream.reorder_rate then
      1 + R.int rng imp.Stream.max_delay
    else 0
  in
  let out = ref [] in
  Array.iteri
    (fun t v ->
      if not (R.bernoulli rng imp.Stream.gap_rate) then begin
        out := { Stream.a_tick = t + delay (); a_t = t; a_v = v } :: !out;
        if R.bernoulli rng imp.Stream.dup_rate then
          out := { Stream.a_tick = t + delay (); a_t = t; a_v = v } :: !out
      end)
    tr.Telemetry.samples;
  List.rev !out

let rate_edges = [ 0.0; ldexp 1.0 (-53); 0.5; 1.0 -. ldexp 1.0 (-53); 1.0 ]

(* A rate at a dyadic edge of the threshold decoding, or anywhere up to
   [hi]. *)
let gen_rate hi = QCheck.Gen.(oneof [ oneofl rate_edges; float_bound_inclusive hi ])

(* Random impairments (max_delay 0 included, and 5 to 7, where [int]'s
   rejection loop draws again; rates at 0, 2⁻⁵³, 1/2, 1 - 2⁻⁵³ and 1;
   duplicates frequent) over random traces (empty ones included),
   several fibers at a time. *)
let gen_schedules =
  QCheck.Gen.(
    int_range 0 7 >>= fun max_delay ->
    gen_rate 0.5 >>= fun gap_rate ->
    gen_rate 0.6 >>= fun dup_rate ->
    gen_rate 0.9 >>= fun reorder_rate ->
    int_range 1 4 >>= fun fibers ->
    list_repeat fibers (pair (int_range 0 60) int) >>= fun traces ->
    return
      ( { Stream.gap_rate; dup_rate; reorder_rate; max_delay },
        List.map
          (fun (len, seed) ->
            let st = Random.State.make [| seed |] in
            ( {
                Telemetry.t0 = 0.0;
                samples = Array.init len (fun _ -> Random.State.float st 30.0);
                baseline = 0.0;
              },
              seed ))
          traces ))

let print_schedules (imp, traces) =
  Printf.sprintf "max_delay %d gap %g dup %g reorder %g; lengths [%s]"
    imp.Stream.max_delay imp.Stream.gap_rate imp.Stream.dup_rate
    imp.Stream.reorder_rate
    (String.concat "; "
       (List.map
          (fun (tr, _) -> string_of_int (Array.length tr.Telemetry.samples))
          traces))

let arb_schedules = QCheck.make ~print:print_schedules gen_schedules

let prop_schedule_matches_reference =
  QCheck.Test.make ~name:"schedule == reference schedule, draw for draw"
    ~count:200 arb_schedules (fun (imp, traces) ->
      List.for_all
        (fun (tr, seed) ->
          let r_ref = Prete_util.Rng.create seed
          and r_list = Prete_util.Rng.create seed in
          let want = reference_schedule r_ref imp tr in
          let got = Stream.schedule r_list imp tr in
          let next r = Prete_util.Rng.int64 r in
          want = got && next r_ref = next r_list)
        traces)

(* ------------------------------------------------------------------ *)
(* Online ingest: gap parity with Timeseries.interpolate_missing       *)
(* ------------------------------------------------------------------ *)

(* Deliver [present] samples with bounded random delays through the
   ingest's event loop; return the emitted (t, v) stream. *)
let run_ingest ~horizon ~delays present =
  let n = Array.length present in
  let q = Equeue.create () in
  Array.iteri
    (fun t ov ->
      match ov with
      | Some v -> Equeue.push q ~time:(t + delays.(t)) (t, v)
      | None -> ())
    present;
  let ing = Online.ingest_create ~horizon () in
  let out = ref [] in
  for now = 0 to n - 1 + horizon do
    List.iter (fun (_, (t, v)) -> Online.offer ing ~t ~v) (Equeue.pop_until q ~time:now);
    List.iter (fun tv -> out := tv :: !out) (Online.drain ing ~now)
  done;
  List.iter (fun tv -> out := tv :: !out) (Online.flush ing ~upto:(n - 1));
  (List.rev !out, ing)

let gen_gappy_trace =
  QCheck.Gen.(
    int_range 10 120 >>= fun n ->
    int_range 0 3 >>= fun horizon ->
    array_repeat n (pair (float_bound_exclusive 30.0) (int_range 0 99))
    >>= fun raw ->
    array_repeat n (int_range 0 (max 0 horizon)) >>= fun delays ->
    int_range 0 (n - 1) >>= fun keep ->
    let present =
      Array.mapi
        (fun i (v, gap_draw) ->
          (* ~15% gaps, but force index [keep] present so at least one
             sample exists. *)
          if i <> keep && gap_draw < 15 then None else Some v)
        raw
    in
    return (present, delays, horizon))

let prop_ingest_matches_offline =
  QCheck.Test.make ~name:"online gap fill == Timeseries.interpolate_missing"
    ~count:200
    (QCheck.make gen_gappy_trace)
    (fun (present, delays, horizon) ->
      let emitted, _ = run_ingest ~horizon ~delays present in
      let n = Array.length present in
      if List.length emitted <> n then false
      else begin
        let offline = Ts.interpolate_missing present in
        (* The array form, in place over a longer buffer: gaps start as
           NaN and the slot past [len] must stay untouched. *)
        let flags = Array.map Option.is_some present in
        let xs = Array.append (Array.map (Option.value ~default:nan) present) [| 7.0 |] in
        let filled = Ts.fill_gaps ~present:flags xs ~len:n in
        List.for_all2
          (fun (t, v) i -> t = i && Float.equal v offline.(i) && Float.equal xs.(i) v)
          emitted
          (List.init n Fun.id)
        && filled = Array.fold_left (fun k ov -> if ov = None then k + 1 else k) 0 present
        && Float.equal xs.(n) 7.0
      end)

let prop_ingest_counts_dups =
  QCheck.Test.make ~name:"duplicate delivery changes nothing but the counter"
    ~count:100
    (QCheck.make gen_gappy_trace)
    (fun (present, delays, horizon) ->
      let emitted, _ = run_ingest ~horizon ~delays present in
      (* Re-run with every present sample delivered twice. *)
      let n = Array.length present in
      let q = Equeue.create () in
      Array.iteri
        (fun t ov ->
          match ov with
          | Some v ->
            Equeue.push q ~time:(t + delays.(t)) (t, v);
            Equeue.push q ~time:(t + delays.(t)) (t, v)
          | None -> ())
        present;
      let ing = Online.ingest_create ~horizon () in
      let out = ref [] in
      for now = 0 to n - 1 + horizon do
        List.iter
          (fun (_, (t, v)) -> Online.offer ing ~t ~v)
          (Equeue.pop_until q ~time:now);
        List.iter (fun tv -> out := tv :: !out) (Online.drain ing ~now)
      done;
      List.iter (fun tv -> out := tv :: !out) (Online.flush ing ~upto:(n - 1));
      List.rev !out = emitted && Online.dups ing > 0
      || Array.for_all (( = ) None) present)

(* Model test of the ring reorder window: a plain Hashtbl window with
   the same finalization rule, driven through random offer / drain /
   flush sequences whose gaps run far past the ring's initial capacity
   (16) and whose offers sometimes land hundreds of ticks ahead. *)
module Ref_ingest = struct
  type t = {
    pending : (int, float) Hashtbl.t;
    mutable next : int;
    mutable last : (int * float) option;
    mutable dups : int;
    mutable late : int;
    mutable filled : int;
  }

  let create () =
    {
      pending = Hashtbl.create 16;
      next = 0;
      last = None;
      dups = 0;
      late = 0;
      filled = 0;
    }

  let offer g ~t ~v =
    if t < g.next then g.late <- g.late + 1
    else if Hashtbl.mem g.pending t then g.dups <- g.dups + 1
    else Hashtbl.replace g.pending t v

  let finalize g ~frontier ~closing =
    let out = ref [] in
    let fill j v =
      out := (j, v) :: !out;
      g.filled <- g.filled + 1
    in
    (* Nearest present timestamp in [t, frontier]. *)
    let rec right t =
      if t > frontier then None
      else
        match Hashtbl.find_opt g.pending t with
        | Some v -> Some (t, v)
        | None -> right (t + 1)
    in
    let continue = ref true in
    while !continue && g.next <= frontier do
      match Hashtbl.find_opt g.pending g.next with
      | Some v ->
        Hashtbl.remove g.pending g.next;
        out := (g.next, v) :: !out;
        g.last <- Some (g.next, v);
        g.next <- g.next + 1
      | None -> (
        match (right (g.next + 1), g.last) with
        | Some (t1, v1), None ->
          for j = g.next to t1 - 1 do
            fill j v1
          done;
          g.next <- t1
        | Some (t1, v1), Some (i0, v0) ->
          let span = float_of_int (t1 - i0) in
          for j = g.next to t1 - 1 do
            let w = float_of_int (j - i0) /. span in
            fill j (((1.0 -. w) *. v0) +. (w *. v1))
          done;
          g.next <- t1
        | None, _ when not closing -> continue := false
        | None, None -> invalid_arg "Online.flush: no samples present"
        | None, Some (_, v0) ->
          for j = g.next to frontier do
            fill j v0
          done;
          g.next <- frontier + 1)
    done;
    List.rev !out
end

type ing_op = Offer of int * float | Drain of int | Flush of int

let print_ing_op = function
  | Offer (t, v) -> Printf.sprintf "offer %d %g" t v
  | Drain now -> Printf.sprintf "drain %d" now
  | Flush upto -> Printf.sprintf "flush %d" upto

(* A clock that mostly steps by one tick and sometimes jumps 20-80 ticks
   (a long gap); offers mostly near the clock, sometimes far ahead. *)
let gen_ing_ops =
  QCheck.Gen.(
    let offer d v = `Offer (d, v) in
    int_range 0 4 >>= fun horizon ->
    list_size (int_range 0 300)
      (frequency
         [
           (8, map2 offer (int_range (-6) 4) (float_bound_exclusive 10.0));
           (1, map2 offer (int_range 20 400) (float_bound_exclusive 10.0));
           (5, map (fun d -> `Tick d) (int_range 0 2));
           (1, map (fun d -> `Tick d) (int_range 20 80));
           (1, map (fun d -> `Flush d) (int_range (-5) 5));
         ])
    >>= fun raw ->
    let now = ref 0 in
    let ops =
      List.map
        (function
          | `Offer (d, v) -> Offer (!now + d, v)
          | `Tick d ->
            now := !now + d;
            Drain !now
          | `Flush d -> Flush (!now + d))
        raw
    in
    return (horizon, ops))

let run_ing_ops ~horizon ~iter ops =
  let g = Online.ingest_create ~horizon () in
  let out = ref [] in
  let emit t v = out := (t, v) :: !out in
  let guard f = try f () with Invalid_argument _ -> out := (-1, nan) :: !out in
  List.iter
    (function
      | Offer (t, v) -> Online.offer g ~t ~v
      | Drain now ->
        if iter then Online.drain_iter g ~now emit
        else List.iter (fun (t, v) -> emit t v) (Online.drain g ~now)
      | Flush upto ->
        guard (fun () ->
            if iter then Online.flush_iter g ~upto emit
            else List.iter (fun (t, v) -> emit t v) (Online.flush g ~upto)))
    ops;
  (List.rev !out, (Online.dups g, Online.late g, Online.filled g))

let same_stream a b =
  List.length a = List.length b
  && List.for_all2 (fun (t, v) (t', v') -> t = t' && Float.equal v v') a b

let gen_ing_case =
  QCheck.make
    ~print:(fun (h, ops) ->
      Printf.sprintf "horizon %d: %s" h
        (String.concat "; " (List.map print_ing_op ops)))
    gen_ing_ops

let prop_ingest_ring_model =
  QCheck.Test.make ~name:"ring window == Hashtbl window (long gaps, far-ahead)"
    ~count:300 gen_ing_case (fun (horizon, ops) ->
      let got, counts = run_ing_ops ~horizon ~iter:true ops in
      let r = Ref_ingest.create () in
      let out = ref [] in
      List.iter
        (function
          | Offer (t, v) -> Ref_ingest.offer r ~t ~v
          | Drain now ->
            let e = Ref_ingest.finalize r ~frontier:(now - horizon) ~closing:false in
            out := List.rev_append e !out
          | Flush upto -> (
            match Ref_ingest.finalize r ~frontier:upto ~closing:true with
            | e -> out := List.rev_append e !out
            | exception Invalid_argument _ -> out := (-1, nan) :: !out))
        ops;
      same_stream got (List.rev !out)
      && counts = (r.Ref_ingest.dups, r.Ref_ingest.late, r.Ref_ingest.filled))

let prop_drain_iter_is_drain =
  QCheck.Test.make ~name:"drain_iter/flush_iter == drain/flush, same counters"
    ~count:200 gen_ing_case (fun (horizon, ops) ->
      let a, ca = run_ing_ops ~horizon ~iter:true ops in
      let b, cb = run_ing_ops ~horizon ~iter:false ops in
      same_stream a b && ca = cb)

let test_ingest_leading_trailing_gaps () =
  let present = [| None; None; Some 4.0; None; Some 6.0; None; None |] in
  let delays = Array.make 7 0 in
  let emitted, ing = run_ingest ~horizon:2 ~delays present in
  Alcotest.(check (list (pair int (float 0.0))))
    "lead <- first, interior lerp, trail <- last"
    [ (0, 4.0); (1, 4.0); (2, 4.0); (3, 5.0); (4, 6.0); (5, 6.0); (6, 6.0) ]
    emitted;
  Alcotest.(check int) "filled counts gaps" 5 (Online.filled ing)

(* ------------------------------------------------------------------ *)
(* Online accumulator: feature parity with offline Timeseries          *)
(* ------------------------------------------------------------------ *)

let prop_acc_matches_offline =
  QCheck.Test.make ~name:"incremental features == offline at every prefix"
    ~count:200
    QCheck.(pair (float_bound_exclusive 20.0) (array_of_size Gen.(int_range 1 60) (float_bound_exclusive 10.0)))
    (fun (baseline, seg) ->
      let acc = Online.acc_create ~baseline () in
      let n = Array.length seg in
      let ok = ref true in
      for i = 0 to n - 1 do
        Online.acc_add acc seg.(i);
        let prefix = Array.sub seg 0 (i + 1) in
        if
          not
            (Float.equal (Online.degree acc) (Ts.degree ~baseline prefix)
            && Float.equal (Online.mean_abs_gradient acc)
                 (Ts.mean_abs_gradient prefix)
            && Online.fluctuation_count acc = Ts.fluctuation_count prefix
            && Online.acc_count acc = i + 1)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Detector vs offline segmentation                                    *)
(* ------------------------------------------------------------------ *)

(* Offline reference: maximal runs of Degraded samples, with the
   terminator deciding seg_cut; an unterminated trailing run stays open
   (no Segment_end). *)
let offline_segments ~baseline (tr : Telemetry.trace) =
  let states = Telemetry.states tr in
  let segs = ref [] in
  let start = ref None in
  Array.iteri
    (fun i st ->
      match (st, !start) with
      | Telemetry.Degraded, None -> start := Some i
      | Telemetry.Degraded, Some _ -> ()
      | (Telemetry.Healthy | Telemetry.Cut), Some s ->
        let slice = Array.sub tr.Telemetry.samples s (i - s) in
        segs :=
          ( s,
            Ts.degree ~baseline slice,
            Ts.mean_abs_gradient slice,
            Ts.fluctuation_count slice,
            i - s,
            st = Telemetry.Cut )
          :: !segs;
        start := None
      | (Telemetry.Healthy | Telemetry.Cut), None -> ())
    states;
  List.rev !segs

let run_detector ~baseline tr =
  let det = Detector.create ~baseline () in
  let events = ref [] in
  Array.iteri
    (fun i v ->
      List.iter (fun e -> events := e :: !events) (Detector.step det ~at:i ~v))
    tr.Telemetry.samples;
  (det, List.rev !events)

let degr_feats =
  {
    Hazard.fiber = 0;
    region = 0;
    vendor = 0;
    length_km = 100.0;
    time_of_day = 12.0;
    degree = 5.0;
    gradient = 0.3;
    fluctuation = 12;
    duration_s = 40.0;
  }

let test_detector_segments_match_offline () =
  let baseline = 15.0 in
  let tr =
    Telemetry.synthesize ~seed:5 ~baseline ~healthy_s:60 ~degradation:degr_feats
      ~cut_at_s:100 ~total_s:180 ()
  in
  let _, events = run_detector ~baseline tr in
  let got =
    List.filter_map
      (function
        | Detector.Segment_end s ->
          Some
            ( s.Detector.seg_start,
              s.Detector.seg_degree,
              s.Detector.seg_gradient,
              s.Detector.seg_fluctuation,
              s.Detector.seg_duration_s,
              s.Detector.seg_cut )
        | _ -> None)
      events
  in
  let want = offline_segments ~baseline tr in
  Alcotest.(check int) "segment count" (List.length want) (List.length got);
  List.iter2
    (fun (s, d, g, f, n, c) (s', d', g', f', n', c') ->
      Alcotest.(check int) "start" s s';
      Alcotest.(check bool) "degree bit-exact" true (Float.equal d d');
      Alcotest.(check bool) "gradient bit-exact" true (Float.equal g g');
      Alcotest.(check int) "fluctuation" f f';
      Alcotest.(check int) "duration" n n';
      Alcotest.(check bool) "cut flag" c c')
    want got

let test_detector_alarm_at_onset () =
  let baseline = 15.0 in
  let tr =
    Telemetry.synthesize ~seed:7 ~baseline ~healthy_s:60 ~degradation:degr_feats
      ~total_s:160 ()
  in
  let states = Telemetry.states tr in
  let onset =
    let rec find i =
      if states.(i) = Telemetry.Degraded then i else find (i + 1)
    in
    find 0
  in
  let _, events = run_detector ~baseline tr in
  let alarms =
    List.filter_map
      (function Detector.Alarm { at; _ } -> Some at | _ -> None)
      events
  in
  (* One alarm per degraded episode (the synthesized ramp may dip below
     the +3 dB threshold and split the degradation into several runs). *)
  let episodes =
    Array.to_list states
    |> List.fold_left
         (fun (n, prev) st ->
           ((if st = Telemetry.Degraded && prev <> Telemetry.Degraded then n + 1
             else n),
            st))
         (0, Telemetry.Healthy)
    |> fst
  in
  Alcotest.(check int) "one alarm per degraded episode" episodes
    (List.length alarms);
  Alcotest.(check int) "first alarm on the first degraded sample" onset
    (List.hd alarms)

let test_detector_quiet_on_healthy () =
  let baseline = 15.0 in
  let tr = Telemetry.synthesize ~seed:9 ~baseline ~healthy_s:300 ~total_s:300 () in
  let det, events = run_detector ~baseline tr in
  Alcotest.(check int) "no events" 0 (List.length events);
  Alcotest.(check bool) "cusum below threshold" true
    (Detector.cusum_score det < Detector.default_config.Detector.cusum_h);
  Alcotest.(check bool) "not in a segment" false (Detector.in_segment det)

(* ------------------------------------------------------------------ *)
(* Per-fiber kernel vs the callback/list path                          *)
(* ------------------------------------------------------------------ *)

(* The detector as it stood before it read samples from the dense
   series: boxed state, one event list per step.  A reference copy, so a
   change to the shared detector arithmetic cannot move both sides of
   the comparison at once. *)
module Ref_detector = struct
  type t = {
    cfg : Detector.config;
    baseline : float;
    mutable est : float;
    mutable score : float;
    mutable seg : (int * Online.acc) option;
    mutable alarmed : bool;
  }

  let create cfg ~baseline =
    { cfg; baseline; est = baseline; score = 0.0; seg = None; alarmed = false }

  let close_segment t ~at ~cut =
    match t.seg with
    | None -> []
    | Some (start, acc) ->
      t.seg <- None;
      t.score <- 0.0;
      t.alarmed <- false;
      [
        Detector.Segment_end
          {
            Detector.seg_start = start;
            seg_end = at;
            seg_degree = Online.degree acc;
            seg_gradient = Online.mean_abs_gradient acc;
            seg_fluctuation = Online.fluctuation_count acc;
            seg_duration_s = Online.acc_count acc;
            seg_cut = cut;
          };
      ]

  let step t ~at ~v =
    let d = v -. t.baseline in
    if d >= t.cfg.Detector.cut_threshold then close_segment t ~at ~cut:true
    else if d >= t.cfg.Detector.degr_threshold then (
      match t.seg with
      | Some (_, acc) ->
        Online.acc_add acc v;
        []
      | None ->
        let acc =
          Online.acc_create ~fluct_threshold:t.cfg.Detector.fluct_threshold
            ~baseline:t.baseline ()
        in
        Online.acc_add acc v;
        t.seg <- Some (at, acc);
        if t.alarmed then [ Detector.Degr_start at ]
        else begin
          t.alarmed <- true;
          [ Detector.Degr_start at; Detector.Alarm { at; score = t.score } ]
        end)
    else begin
      let closed = close_segment t ~at ~cut:false in
      t.score <- Float.max 0.0 (t.score +. (v -. t.est -. t.cfg.Detector.cusum_k));
      t.est <- t.est +. (t.cfg.Detector.ewma_alpha *. (v -. t.est));
      if t.score >= t.cfg.Detector.cusum_h && not t.alarmed then begin
        t.alarmed <- true;
        closed @ [ Detector.Alarm { at; score = t.score } ]
      end
      else closed
    end

  let features t =
    Option.map
      (fun (_, acc) ->
        ( Online.degree acc,
          Online.mean_abs_gradient acc,
          Online.fluctuation_count acc,
          Online.acc_count acc ))
      t.seg
end

let kernel_topo = lazy (Topology.by_name "B4")

type kernel_case = {
  k_seed : int;
  k_fiber : int;
  k_truth : Hazard.features option;
  k_cut : bool;
  k_imp : Stream.impairments;
  k_det : Detector.config;
}

(* Healthy, degraded and cut fibers; degrees from healthy-looking to
   cut-level, swings that end and reopen segments; transports from
   clean to every sample gone, every sample doubled or every sample
   delayed, with rates at the dyadic edges of the coin decoding and
   delays up to 7; detector settings under which the CUSUM really
   accumulates and alarms on healthy noise (a negative drift allowance,
   a zero decision threshold). *)
let gen_kernel_case =
  QCheck.Gen.(
    int >>= fun k_seed ->
    int_range 0 100 >>= fun k_fiber ->
    opt
      (map4
         (fun degree gradient fluctuation duration ->
           {
             degr_feats with
             Hazard.degree;
             gradient;
             fluctuation;
             duration_s = float_of_int duration;
           })
         (float_range 0.0 12.0) (float_range 0.0 2.0) (int_range 0 40)
         (int_range 1 900))
    >>= fun k_truth ->
    bool >>= fun k_cut ->
    oneofl (0.02 :: 0.3 :: rate_edges) >>= fun gap_rate ->
    oneofl (0.01 :: 0.9 :: rate_edges) >>= fun dup_rate ->
    oneofl (0.05 :: rate_edges) >>= fun reorder_rate ->
    int_range 0 7 >>= fun max_delay ->
    float_range 0.01 0.5 >>= fun ewma_alpha ->
    oneof [ float_range (-0.5) 0.5; return (-0.02) ] >>= fun cusum_k ->
    oneof [ float_range 0.05 5.0; return 0.0 ] >>= fun cusum_h ->
    return
      {
        k_seed;
        k_fiber;
        k_truth;
        k_cut;
        k_imp = { Stream.gap_rate; dup_rate; reorder_rate; max_delay };
        k_det = { Detector.default_config with ewma_alpha; cusum_k; cusum_h };
      })

let print_kernel_case c =
  Printf.sprintf
    "seed %d fiber %d %s cut %b; gap %g dup %g reorder %g delay %d; alpha %g k %g h %g"
    c.k_seed c.k_fiber
    (match c.k_truth with
    | None -> "healthy"
    | Some f ->
      Printf.sprintf "degree %g gradient %g swings %d duration %g" f.Hazard.degree
        f.Hazard.gradient f.Hazard.fluctuation f.Hazard.duration_s)
    c.k_cut c.k_imp.Stream.gap_rate c.k_imp.Stream.dup_rate
    c.k_imp.Stream.reorder_rate c.k_imp.Stream.max_delay c.k_det.Detector.ewma_alpha
    c.k_det.Detector.cusum_k c.k_det.Detector.cusum_h

(* The path the engines ran per fiber before the kernel: the same
   draws, the trace from [synthesize], the arrivals drawn one call at a
   time by [reference_schedule] (not the library's arrival pass) through
   an [Equeue], the reference ingest and detector fed one sample at a
   time.  Also returns the generator's next output, so a comparison
   sees where each side left the stream. *)
let reference_fiber c =
  let topo = Lazy.force kernel_topo in
  let fb = c.k_fiber mod Topology.num_fibers topo in
  let len = Fiber.epoch_len in
  let rng = Prete_util.Rng.create c.k_seed in
  let trace_seed = Prete_util.Rng.int rng 1_000_000 in
  let onset, cut_at =
    match c.k_truth with
    | None -> (-1, None)
    | Some tr ->
      let dur = int_of_float (Float.ceil tr.Hazard.duration_s) in
      let seg_len = max 1 (min dur (len - 120)) in
      let span = len - 120 - seg_len in
      let onset = 60 + if span > 0 then Prete_util.Rng.int rng span else 0 in
      (onset, if c.k_cut then Some (onset + seg_len) else None)
  in
  let baseline = Telemetry.baseline_loss topo fb in
  let trace =
    Telemetry.synthesize ~seed:trace_seed ~baseline
      ~healthy_s:(if onset < 0 then len else onset)
      ?degradation:c.k_truth ?cut_at_s:cut_at ~total_s:len ()
  in
  let arrivals = reference_schedule rng c.k_imp trace in
  let q = Equeue.create () in
  List.iter (fun a -> Equeue.push q ~time:a.Stream.a_tick a) arrivals;
  let ing = Ref_ingest.create () in
  let det = Ref_detector.create c.k_det ~baseline in
  let events = ref [] and alarm = ref None and feats = ref None in
  let segments = ref 0 and cut_segments = ref 0 in
  let feed (t, v) =
    List.iter
      (function
        | Detector.Degr_start t' ->
          events := (t', "degr_seen", float_of_int (t' - onset)) :: !events
        | Detector.Alarm { at; score } ->
          events := (at, "alarm", score) :: !events;
          if !alarm = None then begin
            alarm := Some at;
            feats := Ref_detector.features det
          end
        | Detector.Segment_end seg ->
          incr segments;
          if seg.Detector.seg_cut then incr cut_segments;
          events := (t, "segment_end", seg.Detector.seg_degree) :: !events)
      (Ref_detector.step det ~at:t ~v)
  in
  let horizon = c.k_imp.Stream.max_delay in
  for now = 0 to len - 1 + horizon do
    List.iter
      (fun (_, a) -> Ref_ingest.offer ing ~t:a.Stream.a_t ~v:a.Stream.a_v)
      (Equeue.pop_until q ~time:now);
    List.iter feed (Ref_ingest.finalize ing ~frontier:(now - horizon) ~closing:false)
  done;
  if arrivals <> [] then
    List.iter feed (Ref_ingest.finalize ing ~frontier:(len - 1) ~closing:true);
  ( {
      Fiber.fr_fiber = fb;
      fr_truth = c.k_truth;
      fr_onset = onset;
      fr_cut_at = cut_at;
      fr_events = List.rev !events;
      fr_alarm = !alarm;
      fr_alarm_feats = !feats;
      fr_samples = List.length arrivals;
      fr_dups = ing.Ref_ingest.dups;
      fr_late = ing.Ref_ingest.late;
      fr_filled = ing.Ref_ingest.filled;
      fr_segments = !segments;
      fr_cut_segments = !cut_segments;
    },
    Prete_util.Rng.int64 rng )

(* The kernel's run, and the generator's next output after it. *)
let kernel_fiber_rng c =
  let topo = Lazy.force kernel_topo in
  let rng = Prete_util.Rng.create c.k_seed in
  let fr, _ =
    Fiber.process ~detector:c.k_det ~impairments:c.k_imp ~topo ~rng
      ~fb:(c.k_fiber mod Topology.num_fibers topo)
      ~truth:c.k_truth ~cut:c.k_cut
  in
  (fr, Prete_util.Rng.int64 rng)

let kernel_fiber c = fst (kernel_fiber_rng c)

(* Structural equality, except that floats compare by bits. *)
let same_run (a : Fiber.run) (b : Fiber.run) =
  let bits = Int64.bits_of_float in
  let feats = Option.map (fun (d, g, f, n) -> (bits d, bits g, f, n)) in
  let events = List.map (fun (t, k, v) -> (t, k, bits v)) in
  events a.Fiber.fr_events = events b.Fiber.fr_events
  && feats a.Fiber.fr_alarm_feats = feats b.Fiber.fr_alarm_feats
  && { a with Fiber.fr_events = []; fr_alarm_feats = None }
     = { b with Fiber.fr_events = []; fr_alarm_feats = None }

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel == reference list path, bit for bit" ~count:150
    (QCheck.make ~print:print_kernel_case gen_kernel_case) (fun c ->
      let got, got_next = kernel_fiber_rng c and want, want_next = reference_fiber c in
      same_run got want && got_next = want_next)

(* Timestamps that arrive in [c]'s epoch, by [reference_fiber]'s draws
   (trace seed, onset, then the schedule; values play no part). *)
let arrived_timestamps c =
  let rng = Prete_util.Rng.create c.k_seed in
  ignore (Prete_util.Rng.int rng 1_000_000);
  Option.iter
    (fun tr ->
      let dur = int_of_float (Float.ceil tr.Hazard.duration_s) in
      let span = Fiber.epoch_len - 120 - max 1 (min dur (Fiber.epoch_len - 120)) in
      if span > 0 then ignore (Prete_util.Rng.int rng span))
    c.k_truth;
  let blank =
    { Telemetry.t0 = 0.0; samples = Array.make Fiber.epoch_len 0.0; baseline = 0.0 }
  in
  List.sort_uniq compare
    (List.map (fun a -> a.Stream.a_t) (reference_schedule rng c.k_imp blank))

(* What the one-pass kernel relies on: with the ring's horizon at
   [max_delay] nothing is late, every arrival past the first copy is a
   duplicate, and every timestamp that did not arrive is filled — unless
   none arrived, when the series is empty and the detector sees
   nothing. *)
let prop_kernel_invariants =
  QCheck.Test.make ~name:"kernel: none late, samples = present + dups, rest filled"
    ~count:150 (QCheck.make ~print:print_kernel_case gen_kernel_case) (fun c ->
      let fr = kernel_fiber c in
      let present = List.length (arrived_timestamps c) in
      let silent =
        kernel_fiber { c with k_imp = { c.k_imp with Stream.gap_rate = 1.0 } }
      in
      fr.Fiber.fr_late = 0
      && fr.Fiber.fr_samples = present + fr.Fiber.fr_dups
      && fr.Fiber.fr_filled = (if present > 0 then Fiber.epoch_len - present else 0)
      && silent.Fiber.fr_samples = 0 && silent.Fiber.fr_filled = 0
      && silent.Fiber.fr_events = [] && silent.Fiber.fr_alarm = None
      && silent.Fiber.fr_segments = 0)

(* Events and detector state with every float as its bits, so -0.0 and
   +0.0 differ and NaN equals itself. *)
let event_bits =
  let b = Int64.bits_of_float in
  function
  | Detector.Degr_start t -> `Degr t
  | Detector.Alarm { at; score } -> `Alarm (at, b score)
  | Detector.Segment_end g ->
    `End
      ( g.Detector.seg_start, g.Detector.seg_end, b g.Detector.seg_degree,
        b g.Detector.seg_gradient, g.Detector.seg_fluctuation, g.Detector.seg_duration_s,
        g.Detector.seg_cut )

let same_detector det (rdet : Ref_detector.t) =
  let b = Int64.bits_of_float in
  let feats = Option.map (fun (d, g, f, n) -> (b d, b g, f, n)) in
  b (Detector.cusum_score det) = b rdet.Ref_detector.score
  && b (Detector.baseline_estimate det) = b rdet.Ref_detector.est
  && feats (Detector.current_features det) = feats (Ref_detector.features rdet)
  && Detector.in_segment det = (rdet.Ref_detector.seg <> None)

(* Arbitrary series, not synthesized ones: NaN, ±0, ±inf, values whose
   excess over the baseline is exactly the degradation or the cut
   threshold (the baselines are chosen so that the subtraction is exact)
   and their neighbours, and ordinary values either side. *)
let gen_detector_case =
  QCheck.Gen.(
    oneofl [ 0.0; 20.0; 17.25; -3.5 ] >>= fun baseline ->
    let d = Detector.default_config in
    let at thr = baseline +. thr in
    let special =
      [ nan; -.nan; 0.0; -0.0; infinity; neg_infinity; at d.Detector.degr_threshold;
        at d.Detector.cut_threshold; Float.pred (at d.Detector.degr_threshold);
        Float.succ (at d.Detector.degr_threshold); Float.pred (at d.Detector.cut_threshold);
        baseline; baseline +. 0.5; baseline -. 0.5 ]
    in
    let value =
      frequency
        [ (2, oneofl special); (3, float_range (baseline -. 2.0) (baseline +. 15.0));
          (4, float_range (baseline -. 0.05) (baseline +. 0.6)) ]
    in
    int_range 0 300 >>= fun len ->
    array_repeat len value >>= fun series ->
    float_range 0.01 1.0 >>= fun ewma_alpha ->
    oneof [ float_range (-0.5) 0.5; return (-0.02); return 0.0 ] >>= fun cusum_k ->
    oneof [ float_range 0.0 3.0; return 0.0 ] >>= fun cusum_h ->
    return (baseline, { d with Detector.ewma_alpha; cusum_k; cusum_h }, series))

let print_detector_case (baseline, cfg, series) =
  Printf.sprintf "baseline %h alpha %h k %h h %h; series [%s]" baseline
    cfg.Detector.ewma_alpha cfg.Detector.cusum_k cfg.Detector.cusum_h
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") series)))

let prop_detector_run_matches_reference =
  QCheck.Test.make ~name:"Detector.run == reference on arbitrary series, by bits"
    ~count:300
    (QCheck.make ~print:print_detector_case gen_detector_case)
    (fun (baseline, cfg, series) ->
      let det = Detector.create ~config:cfg ~baseline () in
      let rdet = Ref_detector.create cfg ~baseline in
      let ran = ref [] and reference = ref [] in
      Detector.run det series ~len:(Array.length series) (fun e ->
          ran := event_bits e :: !ran);
      Array.iteri
        (fun i v ->
          reference :=
            List.rev_append (List.map event_bits (Ref_detector.step rdet ~at:i ~v)) !reference)
        series;
      !ran = !reference && same_detector det rdet)

(* The list and callback forms kept for callers outside the kernel —
   [Detector.step], [Telemetry.synthesize] — and the kernel's
   [Detector.run], against the reference detector and the buffer
   form. *)
let prop_wrappers_match_reference =
  QCheck.Test.make ~name:"step/run/synthesize wrappers == reference"
    ~count:100
    (QCheck.make ~print:print_kernel_case gen_kernel_case) (fun c ->
      let topo = Lazy.force kernel_topo in
      let baseline = Telemetry.baseline_loss topo (c.k_fiber mod Topology.num_fibers topo) in
      let len = 300 in
      let synth () =
        Telemetry.synthesize ~seed:c.k_seed ~baseline ~healthy_s:(len / 3)
          ?degradation:c.k_truth
          ?cut_at_s:(if c.k_cut then Some (2 * len / 3) else None)
          ~total_s:len ()
      in
      let tr = synth () in
      let buf = Array.make len nan in
      Telemetry.synthesize_into ~seed:c.k_seed ~baseline ~healthy_s:(len / 3)
        ?degradation:c.k_truth
        ?cut_at_s:(if c.k_cut then Some (2 * len / 3) else None)
        buf;
      let same_floats a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b
      in
      (* Detector.step and Detector.run against the reference. *)
      let det = Detector.create ~config:c.k_det ~baseline () in
      let rdet = Ref_detector.create c.k_det ~baseline in
      let stepped = ref [] and reference = ref [] in
      Array.iteri
        (fun i v ->
          stepped := List.rev_append (Detector.step det ~at:i ~v) !stepped;
          reference := List.rev_append (Ref_detector.step rdet ~at:i ~v) !reference)
        tr.Telemetry.samples;
      let run_det = Detector.create ~config:c.k_det ~baseline () in
      let ran = ref [] in
      Detector.run run_det tr.Telemetry.samples ~len (fun e -> ran := e :: !ran);
      let same_state = same_detector det rdet in
      let bits = List.map event_bits in
      same_floats buf tr.Telemetry.samples
      && same_floats (synth ()).Telemetry.samples tr.Telemetry.samples
      && bits !stepped = bits !reference && bits !ran = bits !reference && same_state)

(* ------------------------------------------------------------------ *)
(* Predictor server                                                    *)
(* ------------------------------------------------------------------ *)

let test_predictor_stale_and_swap () =
  let model = Fiber_model.generate (Topology.by_name "grid3") in
  let p = Predictor.create ~fallback:(Predictor.prior model) (fun _ -> 0.9) in
  let v, fb = Predictor.predict p degr_feats in
  Alcotest.(check (float 0.0)) "serving model" 0.9 v;
  Alcotest.(check bool) "no fallback" false fb;
  Predictor.mark_stale p;
  let v, fb = Predictor.predict p degr_feats in
  Alcotest.(check (float 0.0)) "stale falls back to prior"
    model.Fiber_model.mean_hazard v;
  Alcotest.(check bool) "fallback flagged" true fb;
  Predictor.swap p (fun _ -> 0.7);
  let v, fb = Predictor.predict p degr_feats in
  Alcotest.(check (float 0.0)) "swapped model serves" 0.7 v;
  Alcotest.(check bool) "staleness cleared" false fb;
  Alcotest.(check string) "version bumped" "v1" (Predictor.version p);
  let served, fell_back, swaps = Predictor.stats p in
  Alcotest.(check (list int)) "stats" [ 3; 1; 1 ] [ served; fell_back; swaps ]

(* ------------------------------------------------------------------ *)
(* The engine: determinism, replay, policy ordering                    *)
(* ------------------------------------------------------------------ *)

let rt_config =
  {
    Runtime.default_config with
    Runtime.topology = "grid3";
    epochs = 12;
    seed = 3;
    stale_after = Some 2;
  }

let run_at ~domains cfg =
  Prete_exec.Pool.with_pool ~domains (fun pool -> Shard.run ~pool cfg)

let shared = lazy (run_at ~domains:1 rt_config)

let test_runtime_deterministic_across_domains () =
  let r1 = Lazy.force shared in
  let core1 = Shard.deterministic_core r1 in
  List.iter
    (fun domains ->
      let r = run_at ~domains rt_config in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical core at %d domains" domains)
        true
        (String.equal core1 (Shard.deterministic_core r)))
    [ 2; 4 ]

(* A replay that must succeed: the dump reads and its core matches. *)
let replay_ok ~domains dump =
  match Prete_exec.Pool.with_pool ~domains (fun pool -> Shard.replay ~pool dump) with
  | Ok (_, ok) -> ok
  | Error e -> Alcotest.failf "replay rejected the dump: %s" e

let config_ok dump =
  match Runtime.config_of_dump dump with
  | Ok (cfg, _) -> cfg
  | Error e -> Alcotest.failf "config_of_dump: %s" e

(* Replace a top-level section's field of a dump ([None] drops it). *)
let edit_field dump section key v =
  let set ms k v =
    let ms = List.filter (fun (k', _) -> k' <> k) ms in
    match v with None -> ms | Some v -> ms @ [ (k, v) ]
  in
  match dump, J.member section dump with
  | J.Object top, Some (J.Object ms) ->
    J.Object (List.map (fun (k, x) -> if k = section then (k, J.Object (set ms key v)) else (k, x)) top)
  | _ -> Alcotest.failf "dump lacks a %s object" section

let test_runtime_replay () =
  let r = Lazy.force shared in
  let json = Shard.dump r in
  let cfg = config_ok json in
  Alcotest.(check int) "config roundtrip: epochs" 12 cfg.Runtime.epochs;
  Alcotest.(check (option int)) "config roundtrip: stale_after" (Some 2)
    cfg.Runtime.stale_after;
  Alcotest.(check bool) "replay reproduces the deterministic core" true
    (replay_ok ~domains:2 json);
  (* Through the printer and the reader, as a dump file goes. *)
  Alcotest.(check bool) "dump text reads back" true
    (J.parse (J.to_string json) = Ok json)

(* A dump written by an earlier build (committed beside the tests) still
   reads, and replays to the same core: the core's bytes did not move. *)
let read_fixture name =
  match J.parse (In_channel.with_open_bin name In_channel.input_all) with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name e

let test_fixture_replays () =
  let dump = read_fixture "fixtures/stream_grid3_s3.json" in
  Alcotest.(check bool) "replays the committed core" true (replay_ok ~domains:2 dump);
  match J.member "core" dump with
  | Some core ->
    Alcotest.(check string) "core prints to the bytes of the file"
      (Shard.deterministic_core (run_at ~domains:1 (config_ok dump)))
      (J.to_string core)
  | None -> Alcotest.fail "fixture has no core"

(* Dumps from before the LU engine name the retired eta-file engine
   ("revised") or no engine at all, and dumps run under the dense
   tableau (now a test oracle) name "dense": all replay under LU, after
   a note.  The dump was made under LU, so the core still matches. *)
let test_pre_lu_dumps_replay_under_lu () =
  let json = Shard.dump (Lazy.force shared) in
  List.iter
    (fun (label, dump) ->
      (match Runtime.config_of_dump dump with
      | Ok (_, note) -> Alcotest.(check bool) (label ^ ": note") true (note <> None)
      | Error e -> Alcotest.failf "%s: %s" label e);
      Alcotest.(check bool) (label ^ ": replays the core") true
        (replay_ok ~domains:1 dump))
    [
      ("lp_engine revised", edit_field json "config" "lp_engine" (Some (J.String "revised")));
      ("no lp_engine", edit_field json "config" "lp_engine" None);
      ("lp_engine dense", edit_field json "config" "lp_engine" (Some (J.String "dense")));
    ];
  Alcotest.(check bool) "a current dump has no note" true
    (Result.map snd (Runtime.config_of_dump json) = Ok None)

(* Dumps from before the single pricing rule carry a per-rule solve
   tally, ["pricing_solves"], in their solver section.  It is telemetry
   outside the core: such a dump still replays with a matching core. *)
let test_pricing_tally_dumps_replay () =
  let json = Shard.dump (Lazy.force shared) in
  let dump =
    edit_field json "solver" "pricing_solves"
      (Some (J.Object [ ("dantzig", J.int 14) ]))
  in
  Alcotest.(check bool) "replays the core" true (replay_ok ~domains:1 dump)

(* A damaged dump is rejected with one message, before any run: each
   case edits one config field of a real dump. *)
let test_damaged_dumps_rejected () =
  let json = Shard.dump (Lazy.force shared) in
  let cfg key v = edit_field json "config" key (Some v) in
  List.iter
    (fun (label, dump, expect) ->
      match Shard.replay dump with
      | Ok _ -> Alcotest.failf "%s: replayed" label
      | Error e -> Alcotest.(check string) label expect e)
    [
      ("no config", J.Object [ ("core", J.Object []) ],
       "not a stream dump (no config section)");
      ("scalar config", J.Object [ ("config", J.int 3); ("core", J.Object []) ],
       "not a stream dump (no config section)");
      ("no core", J.Object [ ("config", Runtime.config_to_json Runtime.default_config) ],
       "not a stream dump (no core section)");
      ("string seed", cfg "seed" (J.String "x"), "config: seed must be an integer (got \"x\")");
      ("fractional seed", cfg "seed" (J.Number "1.5"), "config: seed must be an integer (got 1.5)");
      ("numeric detour", cfg "detour" (J.int 1), "config: detour must be a boolean (got 1)");
      ("zero epochs", cfg "epochs" (J.int 0), "--epochs must be positive (got 0)");
      ("unknown engine", cfg "lp_engine" (J.String "foo"), "unknown LP engine foo (lu | dense)");
      ("unknown predictor", cfg "predictor" (J.String "zzz"), "config: unknown predictor \"zzz\"");
      ("ewma_alpha 7", cfg "ewma_alpha" (J.int 7), "--ewma-alpha must be in (0, 1] (got 7)");
      ("ewma_alpha -3", cfg "ewma_alpha" (J.int (-3)), "--ewma-alpha must be in (0, 1] (got -3)");
      ("negative gap rate", cfg "gap_rate" (J.float (-0.5)),
       "impairments: gap_rate must be in [0, 1] (got -0.5)");
      ("negative retrain", cfg "retrain_every" (J.int (-1)),
       "--retrain-every must be non-negative (got -1)");
      ( "armed retrain without pairs",
        edit_field (cfg "retrain_every" (J.int 2)) "config" "retrain_pairs" (Some (J.int 0)),
        "--retrain-pairs must be positive (got 0)" );
      ("infinite cusum_k", cfg "cusum_k" (J.Number "1e999"),
       "--cusum-k must be finite (got inf)");
      ("infinite degr_threshold", cfg "degr_threshold" (J.Number "1e999"),
       "degr_threshold must be finite (got inf)");
      ("infinite cut_threshold", cfg "cut_threshold" (J.Number "-1e999"),
       "cut_threshold must be finite (got -inf)");
      ("infinite fluct_threshold", cfg "fluct_threshold" (J.Number "1e999"),
       "fluct_threshold must be finite (got inf)");
      ("degr above cut", cfg "degr_threshold" (J.int 12),
       "degr_threshold must not exceed cut_threshold (got 12 > 10)");
      ("negative fluct_threshold", cfg "fluct_threshold" (J.float (-0.5)),
       "fluct_threshold must be non-negative (got -0.5)");
    ];
  (match
     Shard.replay
       (J.Object [ ("config", J.Object [ ("x", J.int 1) ]); ("core", J.Object []) ])
   with
  | Error e ->
    Alcotest.(check bool) "config without fields: a field named" true
      (contains e "config: missing ")
  | Ok _ -> Alcotest.fail "config without fields replayed");
  match Shard.replay (cfg "topology" (J.String "nosuch")) with
  | Error e ->
    Alcotest.(check bool) "unknown topology named" true (contains e "unknown topology nosuch")
  | Ok _ -> Alcotest.fail "unknown topology replayed"

(* The run's stale window (epochs 2-3) ends before the evaluation, so
   its scheme serves the plain hazard model. *)
let test_runtime_policies_and_simulate_parity () =
  let r = Lazy.force shared in
  Alcotest.(check bool) "pipeline saw degradations" true (r.Shard.s_degr_epochs > 0);
  Alcotest.(check bool) "detections fired" true (r.Shard.s_detections <> []);
  Alcotest.(check bool) "streaming >= periodic-only" true
    (r.Shard.s_avail_stream >= r.Shard.s_avail_periodic -. 1e-9);
  let topo = Topology.by_name "grid3" in
  let env = Availability.make_env topo in
  let scheme =
    Schemes.prete_default
      ~predictor:(Runtime.Internal.build_model Runtime.Hazard_oracle env topo)
      ()
  in
  let sim =
    Prete_exec.Pool.with_pool ~domains:2 (fun pool ->
        Simulate.run ~seed:3 ~epochs:12 ~pool env scheme ~scale:2.0)
  in
  Alcotest.(check int64) "instant == Simulate.run on the same seed, bitwise"
    (Int64.bits_of_float sim.Simulate.availability)
    (Int64.bits_of_float r.Shard.s_avail_instant)

let test_runtime_event_log_consistent () =
  let r = Lazy.force shared in
  let entries = Ring.entries r.Shard.s_ring in
  Alcotest.(check bool) "event log non-empty" true (Array.length entries > 0);
  (* At the default capacity the ring must hold the whole event log:
     zero drops, and the surfaced counter agrees. *)
  Alcotest.(check int) "no ring drops at default capacity" 0
    (Ring.dropped r.Shard.s_ring);
  Alcotest.(check bool) "ring not overflowed" false
    (Ring.overflowed r.Shard.s_ring);
  Alcotest.(check int) "ring_dropped counter is zero" 0
    (Metrics.counter r.Shard.s_metrics "ring_dropped");
  let m = r.Shard.s_metrics in
  let count kind =
    Array.fold_left
      (fun acc e -> if e.Ring.kind = kind then acc + 1 else acc)
      0 entries
  in
  let installed =
    List.length
      (List.filter (fun d -> d.Runtime.d_install <> None) r.Shard.s_detections)
  in
  Alcotest.(check int) "one react event per installed detection" installed
    (count "react");
  Alcotest.(check int) "one install event per react event" (count "react")
    (count "install");
  Alcotest.(check int) "alarm events match the alarm counter"
    (Metrics.counter m "alarms") (count "alarm");
  Alcotest.(check bool) "at least one reaction batch ran" true
    (Metrics.counter m "reactions" > 0);
  (* Every detection's alarm never precedes its onset, and installs come
     strictly after alarms. *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "alarm after onset" true (d.Runtime.d_alarm >= d.Runtime.d_onset);
      match d.Runtime.d_install with
      | Some i -> Alcotest.(check bool) "install after alarm" true (i > d.Runtime.d_alarm)
      | None -> ())
    r.Shard.s_detections

(* Bits of the retired single-loop engine, recorded on its last build
   for configs that exercise both transports, three traffic models,
   four topologies and the long B4 runs where the detour tier rescues
   missed cuts.  One shard must reproduce its stream, periodic, instant
   and stream+detour availabilities and its reacted/missed counts.  The
   single loop streamed only degrading fibers, from other substreams, so
   alarm counts may differ, and so may a detour rescue that hangs on one
   alarm tick (the one moved value is marked below). *)
let late = { Stream.gap_rate = 0.3; dup_rate = 0.5; reorder_rate = 1.0; max_delay = 5 }

let legacy_bits =
  let d = Runtime.default_config in
  [
    ( "grid3 s3", { d with Runtime.topology = "grid3"; epochs = 12; seed = 3 },
      ("0x1.fc8dcf796caa9p-1", "0x1.fc62c6a5fa89cp-1", "0x1.fc8dcf796caa9p-1", "0x1.fc8dcf796caa9p-1"), (0, 0) );
    ( "grid3 s3 all late",
      { d with Runtime.topology = "grid3"; epochs = 12; seed = 3; impairments = late },
      ("0x1.fc8dcf796caa9p-1", "0x1.fc62c6a5fa89cp-1", "0x1.fc8dcf796caa9p-1", "0x1.fc8dcf796caa9p-1"), (0, 0) );
    ( "Abilene coremelt s3", { d with Runtime.topology = "Abilene"; traffic = "coremelt"; seed = 3 },
      ("0x1.ee28994ab5263p-1", "0x1.ee38d7cf855p-1", "0x1.ee28994ab5263p-1", "0x1.ee28994ab5263p-1"), (0, 0) );
    ( "grid4 flash s3", { d with Runtime.topology = "grid4"; traffic = "flash"; seed = 3 },
      ("0x1.df197b0a7fab5p-1", "0x1.ddfba3cb68ea3p-1", "0x1.dfe9666bb5bb6p-1", "0x1.df197b0a7fab5p-1"), (0, 1) );
    ( "B4 diurnal s7", { d with Runtime.traffic = "diurnal"; seed = 7 },
      ("0x1.f756e5dfa8393p-1", "0x1.f756e5dfa8393p-1", "0x1.f756e5dfa8393p-1", "0x1.f756e5dfa8393p-1"), (0, 0) );
    ( "TWAN s41", { d with Runtime.topology = "TWAN"; seed = 41 },
      ("0x1p+0", "0x1p+0", "0x1p+0", "0x1p+0"), (3, 1) );
    ( "B4 s123 x800", { d with Runtime.epochs = 800; seed = 123 },
      ("0x1.fff23cf98330ap-1", "0x1.ffef21c70adbcp-1", "0x1.fff2bfd473588p-1", "0x1.fff2bfd473588p-1"), (2, 1) );
    ( "B4 s41 x800", { d with Runtime.epochs = 800; seed = 41 },
      ("0x1.ffed8f2562fecp-1", "0x1.ffec571b4db34p-1", "0x1.fff0aa57db53ap-1", "0x1.ffee94db434e9p-1"), (6, 5) );
    (* stream+detour moves here, from the single loop's
       0x1.ffe67ba59f87ap-1: its epoch-54 trace of fiber 14 alarmed one
       tick before a cut two ticks after onset, and the patch rescued
       the epoch; the per-fiber substreams of one shard synthesize no
       alarm before that cut, so four epochs are rescued, not five. *)
    ( "B4 s5 x800", { d with Runtime.epochs = 800; seed = 5 },
      ("0x1.ffe51b582ca61p-1", "0x1.ffe4987d3c7e3p-1", "0x1.ffe7c7d1639e1p-1", "0x1.ffe6210e0cf5dp-1"), (5, 5) );
  ]

let test_legacy_bits () =
  List.iter
    (fun (name, cfg, (stream, periodic, instant, detour), (reacted, missed)) ->
      let r = run_at ~domains:1 cfg in
      let bits what expect v =
        Alcotest.(check string) (Printf.sprintf "%s: %s" name what) expect (Printf.sprintf "%h" v)
      in
      bits "stream" stream r.Shard.s_avail_stream;
      bits "periodic" periodic r.Shard.s_avail_periodic;
      bits "instant" instant r.Shard.s_avail_instant;
      bits "stream+detour" detour (Option.get r.Shard.s_avail_detour);
      Alcotest.(check (pair int int))
        (name ^ ": reacted, missed")
        (reacted, missed)
        (r.Shard.s_reacted_in_time, r.Shard.s_missed))
    legacy_bits

let () =
  Alcotest.run "prete_rt"
    [
      ( "equeue",
        [
          Alcotest.test_case "ordering + FIFO ties" `Quick test_equeue_order;
          Alcotest.test_case "pop_until" `Quick test_equeue_pop_until;
        ]
        @ qsuite [ prop_equeue_sorted; prop_equeue_model ] );
      ( "stream",
        qsuite [ prop_schedule_matches_reference ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick test_metrics_counters;
          Alcotest.test_case "histograms + wall split" `Quick test_metrics_histogram;
          Alcotest.test_case "histogram quantiles" `Quick test_metrics_quantile;
          Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
        ]
        @ qsuite [ prop_metrics_match_reference ] );
      ( "online.props",
        qsuite
          [
            prop_ingest_matches_offline;
            prop_ingest_counts_dups;
            prop_ingest_ring_model;
            prop_drain_iter_is_drain;
            prop_acc_matches_offline;
          ] );
      ( "online",
        [
          Alcotest.test_case "gap edges" `Quick test_ingest_leading_trailing_gaps;
        ] );
      ( "detector",
        [
          Alcotest.test_case "segments == offline segmentation" `Quick
            test_detector_segments_match_offline;
          Alcotest.test_case "alarm at onset" `Quick test_detector_alarm_at_onset;
          Alcotest.test_case "quiet on healthy" `Quick test_detector_quiet_on_healthy;
        ] );
      ( "fiber",
        qsuite
          [
            prop_kernel_matches_reference;
            prop_wrappers_match_reference;
            prop_kernel_invariants;
            prop_detector_run_matches_reference;
          ] );
      ( "predictor",
        [
          Alcotest.test_case "stale fallback + hot swap" `Quick
            test_predictor_stale_and_swap;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "bit-identical at 1/2/4 domains" `Slow
            test_runtime_deterministic_across_domains;
          Alcotest.test_case "dump -> replay roundtrip" `Slow test_runtime_replay;
          Alcotest.test_case "pre-LU dumps replay under lu" `Slow
            test_pre_lu_dumps_replay_under_lu;
          Alcotest.test_case "policy ordering + Simulate parity" `Slow
            test_runtime_policies_and_simulate_parity;
          Alcotest.test_case "event log consistent" `Quick
            test_runtime_event_log_consistent;
          Alcotest.test_case "legacy engine bits on one shard" `Slow test_legacy_bits;
          Alcotest.test_case "dump written by an earlier build replays" `Slow
            test_fixture_replays;
          Alcotest.test_case "damaged dumps rejected with one message" `Slow
            test_damaged_dumps_rejected;
          Alcotest.test_case "dumps with a pricing tally replay" `Slow
            test_pricing_tally_dumps_replay;
        ] );
    ]
