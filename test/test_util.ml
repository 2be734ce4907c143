(* Tests for the prete_util substrate: RNG, special functions,
   distributions, statistics, hypothesis tests, matrices, time series,
   the JSON codec. *)

open Prete_util

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xa = List.init 8 (fun _ -> Rng.int64 a) in
  let xb = List.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "different seeds differ" true (xa <> xb)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = List.init 8 (fun _ -> Rng.int64 a) in
  let xb = List.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

(* Literal pins of the splitmix64 streams.  The other Rng tests check
   relations between streams, which a change of state representation
   that altered every stream would still satisfy; these constants fix
   the streams themselves.  One generator, drawn in this exact order. *)
let test_rng_stream_pins () =
  let r = Rng.create 42 in
  List.iter
    (fun want -> Alcotest.(check int64) "int64" want (Rng.int64 r))
    [
      -7450291807549245335L;
      2958219263312191191L;
      3069497704473277141L;
      885919558081284366L;
    ];
  let bits x = Int64.bits_of_float x in
  Alcotest.(check int64) "float" (bits 0x1.f62d40dca5d82p-1) (bits (Rng.float r));
  Alcotest.(check int64) "gaussian" (bits (-0x1.3f61e37709eaap-2))
    (bits (Rng.gaussian r));
  List.iter (fun want -> Alcotest.(check int) "int 7" want (Rng.int r 7)) [ 2; 5; 4 ];
  List.iter
    (fun want -> Alcotest.(check bool) "bernoulli 0.3" want (Rng.bernoulli r 0.3))
    [ false; false; true; true ];
  let child = Rng.split r in
  Alcotest.(check int64) "split child" 1927135764792488630L (Rng.int64 child);
  Alcotest.(check int64) "parent after split" 1249937263032049875L (Rng.int64 r)

let test_rng_float_range () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_bounds () =
  let r = Rng.create 12 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_int_uniformity () =
  let r = Rng.create 13 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Rng.int r 5 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (Float.abs (freq -. 0.2) < 0.01))
    counts

let test_rng_bernoulli_freq () =
  let r = Rng.create 14 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check_close 0.01 "bernoulli(0.3)" 0.3 freq

let test_rng_gaussian_moments () =
  let r = Rng.create 15 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian r) in
  check_close 0.03 "mean 0" 0.0 (Stats.mean xs);
  check_close 0.03 "std 1" 1.0 (Stats.std xs)

let test_rng_shuffle_permutation () =
  let r = Rng.create 16 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle r b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check (array int)) "multiset preserved" a sb

let test_rng_choice_member () =
  let r = Rng.create 17 in
  let a = [| 2; 4; 8; 16 |] in
  for _ = 1 to 100 do
    let x = Rng.choice r a in
    Alcotest.(check bool) "element of array" true (Array.exists (( = ) x) a)
  done

let test_rng_invalid_args () =
  let r = Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "choice empty" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice r [||]))

(* The block form of the generator: [fill_block] hands out what [int64]
   would, [give_back] steps back exactly, and the decoders reproduce
   [bernoulli] and [int] from raw outputs. *)
let prop_block_is_int64 =
  QCheck.Test.make ~name:"fill_block == int64 draws, then give_back repeats"
    ~count:300
    QCheck.(triple int (int_range 0 64) (int_range 0 64))
    (fun (seed, n, k) ->
      let k = min k n in
      let r = Rng.create seed and c = Rng.create seed in
      let b = Rng.block_create 64 in
      Rng.fill_block r b ~n;
      let block = List.init n (fun i -> Rng.unsafe_block_get b (8 * i)) in
      let direct = List.init n (fun _ -> Rng.int64 c) in
      let same_after = Rng.int64 (Rng.copy r) = Rng.int64 (Rng.copy c) in
      Rng.give_back r k;
      let again = List.init k (fun _ -> Rng.int64 r) in
      block = direct && same_after
      && again = List.filteri (fun i _ -> i >= n - k) block
      && Rng.int64 r = Rng.int64 c)

let dyadic_edges =
  [ 0.0; -0.0; ldexp 1.0 (-53); ldexp 1.0 (-54); 0.5; 1.0 -. ldexp 1.0 (-53); 1.0;
    -1.0; 1.5; infinity; neg_infinity; nan; 0.3; 0.05; 1e-300 ]

let bits53 x = Int64.to_int (Int64.shift_right_logical x 11)

let prop_bernoulli_decoder =
  QCheck.Test.make ~name:"bernoulli t p == decoded (x lsr 11) < threshold p"
    ~count:500
    QCheck.(pair int (oneof [ oneofl dyadic_edges; float_range 0.0 1.0; float ]))
    (fun (seed, p) ->
      let r = Rng.create seed in
      let c = Rng.copy r in
      List.for_all
        (fun _ -> Rng.bernoulli r p = (bits53 (Rng.int64 c) < Rng.bernoulli_threshold p))
        (List.init 16 Fun.id))

(* The threshold is exact where it matters, at the draws either side of
   it: u·2⁻⁵³ < p for u = threshold - 1 and not for u = threshold. *)
let test_bernoulli_threshold_edges () =
  let scaled u = Int64.to_float (Int64.of_int u) *. ldexp 1.0 (-53) in
  List.iter
    (fun p ->
      let thr = Rng.bernoulli_threshold p in
      Alcotest.(check bool) (Printf.sprintf "%h in range" p) true
        (thr >= 0 && thr <= 1 lsl 53);
      List.iter
        (fun u ->
          if u >= 0 && u < 1 lsl 53 then
            Alcotest.(check bool)
              (Printf.sprintf "p %h u %d" p u)
              (scaled u < p) (u < thr))
        [ thr - 2; thr - 1; thr; thr + 1; 0; (1 lsl 53) - 1 ])
    (dyadic_edges @ [ 0.1; 0.7; 1.0 /. 3.0; ldexp 3.0 (-60) ]);
  Alcotest.(check int) "p = 2^-53" 1 (Rng.bernoulli_threshold (ldexp 1.0 (-53)));
  Alcotest.(check int) "p = 1 - 2^-53" ((1 lsl 53) - 1)
    (Rng.bernoulli_threshold (1.0 -. ldexp 1.0 (-53)));
  Alcotest.(check int) "p = 0.5" (1 lsl 52) (Rng.bernoulli_threshold 0.5);
  Alcotest.(check int) "NaN never" 0 (Rng.bernoulli_threshold nan)

let prop_int_decoder =
  QCheck.Test.make ~name:"int t n == first raw x with x land mask < n"
    ~count:500
    QCheck.(pair int (oneof [ int_range 1 9; int_range 1 1000; int_range 1 max_int ]))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let c = Rng.copy r in
      let mask = Rng.int_mask n in
      List.for_all
        (fun _ ->
          let want = Rng.int r n in
          let v = ref (Int64.to_int (Rng.int64 c) land mask) in
          while !v >= n do
            v := Int64.to_int (Rng.int64 c) land mask
          done;
          want = !v)
        (List.init 8 Fun.id)
      && Rng.int64 r = Rng.int64 c)

let test_int_mask () =
  List.iter
    (fun (n, m) -> Alcotest.(check int) (Printf.sprintf "mask %d" n) m (Rng.int_mask n))
    [ (1, 1); (2, 1); (3, 3); (4, 3); (5, 7); (7, 7); (8, 7); (9, 15); (1 lsl 40, (1 lsl 40) - 1) ];
  Alcotest.check_raises "mask 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int_mask 0))

(* Property tests for the split-stream contract prete_exec relies on:
   the k-th substream split from a seed is a pure function of (seed, k),
   sibling substreams are pairwise distinct, splitting does not disturb
   what the parent would have produced by further splits, and substream
   output stays statistically unbiased. *)

let nth_split seed k =
  let m = Rng.create seed in
  for _ = 1 to k do
    ignore (Rng.split m)
  done;
  Rng.split m

let draws n rng = List.init n (fun _ -> Rng.int64 rng)

let prop_split_function_of_seed_and_index =
  QCheck.Test.make ~name:"split stream is a function of (seed, index)" ~count:100
    QCheck.(pair small_int (int_bound 12))
    (fun (seed, k) -> draws 8 (nth_split seed k) = draws 8 (nth_split seed k))

let prop_split_siblings_distinct =
  QCheck.Test.make ~name:"sibling split streams pairwise distinct" ~count:60
    QCheck.small_int
    (fun seed ->
      let m = Rng.create seed in
      let streams = List.init 8 (fun _ -> draws 4 (Rng.split m)) in
      let rec pairwise = function
        | [] -> true
        | x :: rest -> List.for_all (( <> ) x) rest && pairwise rest
      in
      pairwise streams)

let prop_split_count_does_not_reorder =
  QCheck.Test.make ~name:"earlier splits unaffected by later ones" ~count:60
    QCheck.(pair small_int (int_bound 10))
    (fun (seed, extra) ->
      (* Stream k from a master that splits k+1 times equals stream k from
         one that splits k+1+extra times: adding components later never
         perturbs existing ones. *)
      let take n m = List.init n (fun _ -> Rng.split m) in
      let a = take 3 (Rng.create seed) in
      let b =
        let m = Rng.create seed in
        let first = take 3 m in
        ignore (take extra m);
        first
      in
      List.for_all2 (fun x y -> draws 4 x = draws 4 y) a b)

let prop_split_stream_unbiased =
  QCheck.Test.make ~name:"split streams remain unbiased" ~count:40
    QCheck.(pair small_int (int_bound 12))
    (fun (seed, k) ->
      let rng = nth_split seed k in
      let n = 2000 in
      let hits = ref 0 in
      for _ = 1 to n do
        if Rng.bool rng then incr hits
      done;
      Float.abs ((float_of_int !hits /. float_of_int n) -. 0.5) < 0.06)

let prop_split_independent_of_parent_tail =
  QCheck.Test.make ~name:"substream differs from parent remainder" ~count:60
    QCheck.small_int
    (fun seed ->
      let m = Rng.create seed in
      let sub = Rng.split m in
      draws 8 sub <> draws 8 m)

(* ------------------------------------------------------------------ *)
(* Special                                                              *)
(* ------------------------------------------------------------------ *)

let test_log_gamma_values () =
  check_close 1e-10 "Γ(1)=1" 0.0 (Special.log_gamma 1.0);
  check_close 1e-10 "Γ(5)=24" (log 24.0) (Special.log_gamma 5.0);
  check_close 1e-10 "Γ(0.5)=√π" (0.5 *. log Float.pi) (Special.log_gamma 0.5);
  check_close 1e-9 "Γ(10)=362880" (log 362880.0) (Special.log_gamma 10.0)

let test_gamma_recurrence () =
  (* Γ(x+1) = x·Γ(x) over a grid. *)
  List.iter
    (fun x ->
      check_close 1e-8
        (Printf.sprintf "recurrence at %g" x)
        (Special.log_gamma (x +. 1.0))
        (log x +. Special.log_gamma x))
    [ 0.3; 0.7; 1.5; 2.25; 6.0; 11.5 ]

let test_gamma_pq_complement () =
  List.iter
    (fun (a, x) ->
      check_close 1e-10
        (Printf.sprintf "P+Q=1 at a=%g x=%g" a x)
        1.0
        (Special.gamma_p a x +. Special.gamma_q a x))
    [ (0.5, 0.2); (1.0, 1.0); (2.5, 4.0); (10.0, 3.0); (10.0, 30.0) ]

let test_chi2_sf_known () =
  (* Classic critical values: P(χ²_1 > 3.841) ≈ 0.05, etc. *)
  check_close 1e-3 "df=1" 0.05 (Special.chi2_sf ~df:1 3.841);
  check_close 1e-3 "df=2" 0.05 (Special.chi2_sf ~df:2 5.991);
  check_close 1e-3 "df=5" 0.05 (Special.chi2_sf ~df:5 11.070);
  check_close 1e-4 "df=2 exact" (exp (-1.0)) (Special.chi2_sf ~df:2 2.0)

let test_chi2_sf_bounds () =
  Alcotest.(check bool) "sf(0)=1" true (Special.chi2_sf ~df:3 0.0 = 1.0);
  Alcotest.(check bool)
    "sf decreasing" true
    (Special.chi2_sf ~df:3 1.0 > Special.chi2_sf ~df:3 5.0)

let test_log_chi2_sf_consistency () =
  List.iter
    (fun x ->
      check_close 1e-8
        (Printf.sprintf "log sf at %g" x)
        (log (Special.chi2_sf ~df:4 x))
        (Special.log_chi2_sf ~df:4 x))
    [ 0.5; 2.0; 10.0; 25.0 ]

let test_log_chi2_sf_extreme () =
  (* Must stay finite where the plain p-value underflows (paper: p<1e-50). *)
  let lp = Special.log_chi2_sf ~df:1 300.0 in
  Alcotest.(check bool) "finite" true (Float.is_finite lp);
  Alcotest.(check bool) "deep tail" true (lp /. log 10.0 < -50.0)

let test_erf_known () =
  check_close 1e-6 "erf 0" 0.0 (Special.erf 0.0);
  check_close 1e-4 "erf 1" 0.8427007 (Special.erf 1.0);
  check_close 1e-4 "erf -1" (-0.8427007) (Special.erf (-1.0));
  check_close 1e-6 "erf big" 1.0 (Special.erf 6.0)

let prop_gamma_p_monotone =
  QCheck.Test.make ~name:"gamma_p monotone in x" ~count:200
    QCheck.(pair (float_range 0.1 20.0) (pair (float_range 0.0 30.0) (float_range 0.0 5.0)))
    (fun (a, (x, dx)) ->
      Special.gamma_p a (x +. dx) +. 1e-12 >= Special.gamma_p a x)

(* ------------------------------------------------------------------ *)
(* Dist                                                                 *)
(* ------------------------------------------------------------------ *)

let test_weibull_cdf_quantile () =
  let w = Dist.Weibull.create ~shape:0.8 ~scale:0.002 in
  List.iter
    (fun p ->
      check_close 1e-9
        (Printf.sprintf "cdf(quantile %g)" p)
        p
        (Dist.Weibull.cdf w (Dist.Weibull.quantile w p)))
    [ 0.01; 0.25; 0.5; 0.9; 0.999 ]

let test_weibull_sample_mean () =
  let w = Dist.Weibull.create ~shape:1.5 ~scale:2.0 in
  let r = Rng.create 21 in
  let xs = Array.init 100_000 (fun _ -> Dist.Weibull.sample w r) in
  check_close 0.02 "sample mean ≈ analytic" (Dist.Weibull.mean w) (Stats.mean xs)

let test_weibull_exponential_special_case () =
  (* shape = 1 is Exponential(1/scale). *)
  let w = Dist.Weibull.create ~shape:1.0 ~scale:2.0 in
  check_close 1e-12 "cdf matches exponential"
    (Dist.Exponential.cdf ~rate:0.5 3.0)
    (Dist.Weibull.cdf w 3.0)

let test_weibull_fit_recovers () =
  let w = Dist.Weibull.create ~shape:0.8 ~scale:0.002 in
  let r = Rng.create 22 in
  let xs = Array.init 20_000 (fun _ -> Dist.Weibull.sample w r) in
  let fitted = Dist.Weibull.fit_mle xs in
  check_close 0.05 "shape" 0.8 fitted.Dist.Weibull.shape;
  check_close 0.0005 "scale" 0.002 fitted.Dist.Weibull.scale

let test_weibull_pdf_integrates () =
  let w = Dist.Weibull.create ~shape:2.0 ~scale:1.0 in
  (* Trapezoid integral of the pdf approximates the cdf. *)
  let n = 2000 and hi = 3.0 in
  let h = hi /. float_of_int n in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let x0 = float_of_int i *. h and x1 = float_of_int (i + 1) *. h in
    acc := !acc +. (0.5 *. h *. (Dist.Weibull.pdf w x0 +. Dist.Weibull.pdf w x1))
  done;
  check_close 1e-4 "∫pdf = cdf" (Dist.Weibull.cdf w hi) !acc

let test_geometric_mean () =
  let r = Rng.create 23 in
  let p = 0.2 in
  let xs = Array.init 100_000 (fun _ -> float_of_int (Dist.Geometric.sample ~p r)) in
  check_close 0.1 "mean = (1-p)/p" ((1.0 -. p) /. p) (Stats.mean xs)

let test_geometric_pmf_sums () =
  let p = 0.3 in
  let total = ref 0.0 in
  for k = 0 to 200 do
    total := !total +. Dist.Geometric.pmf ~p k
  done;
  check_close 1e-9 "pmf sums to 1" 1.0 !total

let test_poisson_mean () =
  let r = Rng.create 24 in
  List.iter
    (fun mean ->
      let xs = Array.init 50_000 (fun _ -> float_of_int (Dist.Poisson.sample ~mean r)) in
      check_close (0.05 *. (mean +. 1.0)) (Printf.sprintf "poisson %g" mean) mean (Stats.mean xs))
    [ 0.5; 3.0; 50.0 ]

let test_categorical_freq () =
  let r = Rng.create 25 in
  let weights = [| 1.0; 3.0; 6.0 |] in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Dist.Categorical.sample ~weights r in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.01 "w0" 0.1 (float_of_int counts.(0) /. float_of_int n);
  check_close 0.01 "w1" 0.3 (float_of_int counts.(1) /. float_of_int n);
  check_close 0.01 "w2" 0.6 (float_of_int counts.(2) /. float_of_int n)

let prop_weibull_cdf_monotone =
  QCheck.Test.make ~name:"weibull cdf monotone" ~count:200
    QCheck.(triple (float_range 0.2 5.0) (float_range 0.001 10.0) (pair (float_range 0.0 20.0) (float_range 0.0 5.0)))
    (fun (shape, scale, (x, dx)) ->
      let w = Dist.Weibull.create ~shape ~scale in
      Dist.Weibull.cdf w (x +. dx) +. 1e-12 >= Dist.Weibull.cdf w x)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_close 1e-9 "variance" (32.0 /. 7.0) (Stats.variance xs);
  check_float "median" 4.5 (Stats.median xs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0);
  check_float "p50" 2.5 (Stats.percentile xs 50.0);
  check_float "p25" 1.75 (Stats.percentile xs 25.0)

let test_stats_percentile_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile xs 50.0);
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_stats_ecdf () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  let pts = Stats.ecdf xs in
  Alcotest.(check int) "len" 3 (Array.length pts);
  check_float "first val" 1.0 (fst pts.(0));
  check_close 1e-12 "last prob" 1.0 (snd pts.(2));
  check_close 1e-12 "cdf_at" (2.0 /. 3.0) (Stats.cdf_at xs 2.5)

let test_stats_histogram () =
  let xs = [| 0.0; 0.1; 0.9; 1.0; 0.5 |] in
  let h = Stats.histogram ~bins:2 xs in
  let total = Array.fold_left (fun a (_, _, c) -> a + c) 0 h in
  Alcotest.(check int) "counts sum" 5 total;
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bin" 2 c0;
  Alcotest.(check int) "high bin" 3 c1

let test_stats_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_close 1e-12 "perfect corr" 1.0 (Stats.pearson xs ys);
  let ys_neg = Array.map (fun x -> -.x) xs in
  check_close 1e-12 "anti corr" (-1.0) (Stats.pearson xs ys_neg)

let test_stats_linear_fit () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) -. 1.0) xs in
  let a, b = Stats.linear_fit xs ys in
  check_close 1e-12 "slope" 3.0 a;
  check_close 1e-12 "intercept" (-1.0) b

let test_stats_normalize () =
  let xs = [| 2.0; 4.0; 6.0 |] in
  Alcotest.(check (array (float 1e-12))) "scaled" [| 0.0; 0.5; 1.0 |] (Stats.normalize xs);
  Alcotest.(check (array (float 1e-12))) "constant -> zeros" [| 0.0; 0.0 |]
    (Stats.normalize [| 5.0; 5.0 |])

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (array_of_size (Gen.int_range 1 40) (float_range (-100.) 100.)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let lo, hi = Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance non-negative" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 40) (float_range (-50.) 50.))
    (fun xs -> Stats.variance xs >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Hypothesis                                                           *)
(* ------------------------------------------------------------------ *)

let test_chi2_contingency_known () =
  (* Textbook 2x2 example: chi2 = N (ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)). *)
  let table = [| [| 20.0; 30.0 |]; [| 30.0; 20.0 |] |] in
  let r = Hypothesis.chi2_contingency table in
  check_close 1e-9 "statistic" 4.0 r.Hypothesis.statistic;
  Alcotest.(check int) "df" 1 r.Hypothesis.df;
  check_close 1e-3 "p" 0.0455 r.Hypothesis.p_value

let test_chi2_contingency_independent () =
  (* Perfectly proportional table: statistic 0, p-value 1. *)
  let table = [| [| 10.0; 20.0 |]; [| 30.0; 60.0 |] |] in
  let r = Hypothesis.chi2_contingency table in
  check_close 1e-9 "statistic 0" 0.0 r.Hypothesis.statistic;
  check_close 1e-9 "p = 1" 1.0 r.Hypothesis.p_value;
  Alcotest.(check bool) "not rejected" false (Hypothesis.reject r)

let test_chi2_paper_table6 () =
  (* The paper's Table 6 normalized counts must reject decisively. *)
  let table = [| [| 1.0; 2.6 |]; [| 1.5; 6516.7 |] |] in
  let r = Hypothesis.chi2_contingency table in
  Alcotest.(check bool) "rejected" true (Hypothesis.reject r);
  Alcotest.(check bool) "extreme p-value" true (r.Hypothesis.log10_p < -50.0)

let test_chi2_paper_table7 () =
  (* Table 7: expected counts under independence -> should NOT reject. *)
  let table = [| [| 1.2; 3151.8 |]; [| 2144.8; 5655630.2 |] |] in
  let r = Hypothesis.chi2_contingency table in
  Alcotest.(check bool) "not rejected" false (Hypothesis.reject r)

let test_chi2_binned_correlated () =
  let rng = Rng.create 31 in
  let n = 5000 in
  let values = Array.init n (fun _ -> Rng.float rng) in
  let outcomes = Array.map (fun v -> Rng.bernoulli rng (0.1 +. (0.8 *. v))) values in
  let r = Hypothesis.chi2_binned ~bins:10 ~values ~outcomes in
  Alcotest.(check bool) "correlated rejected" true (Hypothesis.reject r)

let test_chi2_binned_uncorrelated () =
  let rng = Rng.create 32 in
  let n = 5000 in
  let values = Array.init n (fun _ -> Rng.float rng) in
  let outcomes = Array.init n (fun _ -> Rng.bernoulli rng 0.4) in
  let r = Hypothesis.chi2_binned ~bins:10 ~values ~outcomes in
  Alcotest.(check bool) "independent not rejected at 1e-4" false
    (Hypothesis.reject ~alpha:1e-4 r)

let test_chi2_invalid () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Hypothesis.chi2_contingency: ragged table") (fun () ->
      ignore (Hypothesis.chi2_contingency [| [| 1.0; 2.0 |]; [| 1.0 |] |]))

(* ------------------------------------------------------------------ *)
(* Matrix                                                               *)
(* ------------------------------------------------------------------ *)

let test_matrix_identity () =
  let rng = Rng.create 41 in
  let a = Matrix.random rng 4 4 1.0 in
  Alcotest.(check bool) "A·I = A" true (Matrix.equal a (Matrix.matmul a (Matrix.identity 4)));
  Alcotest.(check bool) "I·A = A" true (Matrix.equal a (Matrix.matmul (Matrix.identity 4) a))

let test_matrix_matmul_known () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.matmul a b in
  Alcotest.(check (array (array (float 1e-12)))) "product"
    [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]
    (Matrix.to_arrays c)

let test_matrix_transpose_involution () =
  let rng = Rng.create 42 in
  let a = Matrix.random rng 3 5 2.0 in
  Alcotest.(check bool) "(Aᵀ)ᵀ = A" true (Matrix.equal a (Matrix.transpose (Matrix.transpose a)))

let test_matrix_gemv () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "gemv" [| 14.0; 32.0 |]
    (Matrix.gemv a [| 1.0; 2.0; 3.0 |])

let test_matrix_add_sub () =
  let rng = Rng.create 43 in
  let a = Matrix.random rng 3 3 1.0 and b = Matrix.random rng 3 3 1.0 in
  Alcotest.(check bool) "a+b-b = a" true
    (Matrix.equal ~eps:1e-12 a (Matrix.sub (Matrix.add a b) b))

let test_matrix_dim_checks () =
  let a = Matrix.create 2 3 and b = Matrix.create 2 3 in
  Alcotest.check_raises "matmul mismatch"
    (Invalid_argument "Matrix.matmul: dimension mismatch") (fun () ->
      ignore (Matrix.matmul a b))

let test_vec_softmax () =
  let p = Matrix.Vec.softmax [| 1.0; 2.0; 3.0 |] in
  check_close 1e-12 "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Alcotest.(check int) "argmax last" 2 (Matrix.Vec.argmax p);
  (* Shift invariance. *)
  let q = Matrix.Vec.softmax [| 1001.0; 1002.0; 1003.0 |] in
  Array.iteri (fun i x -> check_close 1e-9 "shift invariant" x q.(i)) p

let prop_matmul_transpose =
  QCheck.Test.make ~name:"(AB)ᵀ = BᵀAᵀ" ~count:50
    QCheck.(triple small_nat small_nat small_nat)
    (fun (m, n, k) ->
      let m = 1 + (m mod 6) and n = 1 + (n mod 6) and k = 1 + (k mod 6) in
      let rng = Rng.create ((m * 100) + (n * 10) + k) in
      let a = Matrix.random rng m n 1.0 and b = Matrix.random rng n k 1.0 in
      Matrix.equal ~eps:1e-9
        (Matrix.transpose (Matrix.matmul a b))
        (Matrix.matmul (Matrix.transpose b) (Matrix.transpose a)))

(* ------------------------------------------------------------------ *)
(* Timeseries                                                           *)
(* ------------------------------------------------------------------ *)

let test_interpolate_inner_gap () =
  let xs = [| Some 1.0; None; None; Some 4.0 |] in
  Alcotest.(check (array (float 1e-12))) "linear"
    [| 1.0; 2.0; 3.0; 4.0 |]
    (Timeseries.interpolate_missing xs)

let test_interpolate_edges () =
  let xs = [| None; Some 2.0; None; Some 4.0; None |] in
  Alcotest.(check (array (float 1e-12))) "edges clamp"
    [| 2.0; 2.0; 3.0; 4.0; 4.0 |]
    (Timeseries.interpolate_missing xs)

let test_interpolate_all_missing () =
  Alcotest.check_raises "no samples"
    (Invalid_argument "Timeseries.interpolate_missing: no samples present")
    (fun () -> ignore (Timeseries.interpolate_missing [| None; None |]))

let test_fill_gaps_in_place () =
  let xs = [| nan; 2.0; nan; 4.0; nan; 9.0 |] in
  let present = [| false; true; false; true; false; true |] in
  Alcotest.(check int) "filled count" 3 (Timeseries.fill_gaps ~present xs ~len:5);
  Alcotest.(check (array (float 0.0))) "edges clamp, interior lerps, past len untouched"
    [| 2.0; 2.0; 3.0; 4.0; 4.0; 9.0 |] xs;
  Alcotest.(check int) "empty prefix" 0 (Timeseries.fill_gaps ~present:[||] [||] ~len:0);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Timeseries.fill_gaps: no samples present")
    (fun () -> ignore (Timeseries.fill_gaps ~present:[| false |] [| 1.0 |] ~len:1))

let test_degree () =
  check_float "max excursion" 5.0
    (Timeseries.degree ~baseline:1.0 [| 2.0; 6.0; 3.0 |]);
  check_float "never below baseline -> 0" 0.0
    (Timeseries.degree ~baseline:10.0 [| 2.0; 6.0 |])

let test_gradient () =
  check_float "flat" 0.0 (Timeseries.mean_abs_gradient [| 3.0; 3.0; 3.0 |]);
  check_float "steps" 2.0 (Timeseries.mean_abs_gradient [| 0.0; 2.0; 0.0 |]);
  check_float "short" 0.0 (Timeseries.mean_abs_gradient [| 1.0 |])

let test_fluctuation () =
  Alcotest.(check int) "filters small changes" 2
    (Timeseries.fluctuation_count ~threshold:0.01 [| 0.0; 0.005; 0.5; 0.505; 1.0 |]);
  Alcotest.(check int) "default threshold" 1
    (Timeseries.fluctuation_count [| 0.0; 0.02 |])

let test_downsample () =
  let xs = Array.init 10 float_of_int in
  let s = Timeseries.downsample ~period:3 xs in
  Alcotest.(check int) "count" 4 (Array.length s);
  check_float "first" 0.0 s.(0).Timeseries.v;
  check_float "second" 3.0 s.(1).Timeseries.v;
  check_float "last" 9.0 s.(3).Timeseries.v

let test_max_windows () =
  let xs = [| 1.0; 9.0; 2.0; 3.0; 0.0 |] in
  Alcotest.(check (array (float 1e-12))) "maxes" [| 9.0; 3.0; 0.0 |]
    (Timeseries.max_over_windows ~period:2 xs)

let test_moving_average_constant () =
  let xs = Array.make 10 4.0 in
  Alcotest.(check (array (float 1e-12))) "constant preserved" xs
    (Timeseries.moving_average ~window:3 xs)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let parse_ok s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e

(* Values as the emitters build them: numbers only through the number
   constructors, strings over every byte (quotes, backslashes and
   control characters included), objects and arrays nested. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let num =
    oneof
      [
        map Json.int int;
        map Json.float float;
        map2 Json.g (int_range 1 17) float;
        map2 Json.fixed (int_bound 9) (float_range (-1e6) 1e6);
      ]
  in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; num; map (fun s -> Json.String s) str ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Array l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Object l)
                   (list_size (int_bound 4) (pair str (self (n - 1)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let test_json_number_text () =
  let check label expect v = Alcotest.(check string) label expect (Json.to_string v) in
  check "int" "-42" (Json.int (-42));
  check "%.17g" "0.050000000000000003" (Json.float 0.05);
  check "%.17g integral" "2" (Json.float 2.0);
  check "%.9g" "0.333333333" (Json.g 9 (1.0 /. 3.0));
  check "%.6f" "0.250000" (Json.fixed 6 0.25);
  check "%.4f" "0.6667" (Json.fixed 4 (2.0 /. 3.0));
  List.iter
    (fun x -> check "non-finite is null" "null" (Json.float x))
    [ nan; infinity; neg_infinity ];
  check "g non-finite" "null" (Json.g 9 nan);
  check "fixed non-finite" "null" (Json.fixed 6 infinity);
  check "layout" {|{"a": [1, true, null], "b": {}, "c": [], "d": "x\"\\\n\u0001"}|}
    (Json.Object
       [
         ("a", Json.Array [ Json.int 1; Json.Bool true; Json.Null ]);
         ("b", Json.Object []);
         ("c", Json.Array []);
         ("d", Json.String "x\"\\\n\001");
       ])

let test_json_reader () =
  Alcotest.check json "whitespace and escapes"
    (Json.Array
       [ Json.String "\"\\/\b\012\n\r\t"; Json.String "\xc3\xa9"; Json.String "\xf0\x9f\x98\x80" ])
    (parse_ok " [ \"\\\"\\\\\\/\\b\\f\\n\\r\\t\" ,\"\\u00e9\",\"\\ud83d\\ude00\" ]\n");
  Alcotest.check json "numbers keep their text"
    (Json.Array [ Json.Number "-0"; Json.Number "1.50"; Json.Number "2E+3"; Json.Number "1e-7" ])
    (parse_ok "[-0, 1.50, 2E+3, 1e-7]");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      ""; "  "; "{"; "[1, 2"; "{\"a\": 1,}"; "[1,]"; "[1 2]"; "{\"a\" 1}"; "{1: 2}";
      "01"; "1."; ".5"; "-"; "1e"; "+1"; "nul"; "True"; "\"abc"; "\"\\x\"";
      "\"\\u12\""; "\"\\ud800\""; "\"\\udc00\""; "\"a\tb\""; "nan"; "{} {}";
      "[1] x"; "'a'"; String.make 300 '[' ^ String.make 300 ']';
    ];
  Alcotest.check json "nesting within the limit"
    (Json.Array [ Json.Array [ Json.Array [] ] ]) (parse_ok "[[[]]]")

(* Every proper prefix of a real dump is an error, and so is the dump
   with anything but whitespace after it. *)
let test_json_strict_on_dump () =
  let text = String.trim (In_channel.with_open_bin "fixtures/stream_grid3_s3.json" In_channel.input_all) in
  ignore (parse_ok text);
  for k = 0 to String.length text - 1 do
    match Json.parse (String.sub text 0 k) with
    | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" k
    | Error _ -> ()
  done;
  List.iter
    (fun tail ->
      Alcotest.(check bool) ("trailing " ^ String.escaped tail) true
        (Result.is_error (Json.parse (text ^ tail))))
    [ "x"; "}"; ","; " {}"; "\n0" ];
  ignore (parse_ok (text ^ " \n\t\r"))

(* [member] reads the object's own keys only: a nested object carrying
   the same key earlier, and string text containing the key between
   quotes, are both passed over. *)
let test_json_member_scoping () =
  let get s key = Json.member key (parse_ok s) in
  let nested =
    {|{"core": {"seed": 9, "inner": {"seed": 8}}, "tags": [{"seed": 6}],
       "seed": 42, "topology": "IBM"}|}
  in
  let some = Alcotest.(check (option json)) in
  some "outermost seed" (Some (Json.int 42)) (get nested "seed");
  some "string value" (Some (Json.String "IBM")) (get nested "topology");
  some "nested-only key" None (get nested "inner");
  let quoted = {|{"note": "a \"seed\": 7 \"x\":", "the \"seed": 5, "seed": 41}|} in
  some "seed past strings" (Some (Json.int 41)) (get quoted "seed");
  some "key only inside a string" None (get quoted "x");
  some "key with a quote" (Some (Json.int 5)) (get quoted {|the "seed|});
  some "outermost config" (Some (Json.Object [ ("b", Json.int 2) ]))
    (get {|{"core": {"config": {"a": 1}}, "config": {"b": 2}}|} "config");
  some "past strings" (Some (Json.Object [ ("c", Json.String "}") ]))
    (get {|{"note": "\"config\": {\"x\": 0}", "config": {"c": "}"}}|} "config");
  some "nested-only config" None (get {|{"core": {"config": {"a": 1}}}|} "config");
  some "scalar field" (Some (Json.int 3)) (get {|{"config": 3}|} "config");
  some "no object" None (get "[1]" "config")

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "prete_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "stream pins" `Quick test_rng_stream_pins;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "bernoulli freq" `Quick test_rng_bernoulli_freq;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choice member" `Quick test_rng_choice_member;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "bernoulli threshold edges" `Quick test_bernoulli_threshold_edges;
          Alcotest.test_case "int mask" `Quick test_int_mask;
        ] );
      qsuite "rng.block.props" [ prop_block_is_int64; prop_bernoulli_decoder; prop_int_decoder ];
      qsuite "rng.split.props"
        [
          prop_split_function_of_seed_and_index;
          prop_split_siblings_distinct;
          prop_split_count_does_not_reorder;
          prop_split_stream_unbiased;
          prop_split_independent_of_parent_tail;
        ];
      ( "special",
        [
          Alcotest.test_case "log_gamma values" `Quick test_log_gamma_values;
          Alcotest.test_case "gamma recurrence" `Quick test_gamma_recurrence;
          Alcotest.test_case "P+Q=1" `Quick test_gamma_pq_complement;
          Alcotest.test_case "chi2 critical values" `Quick test_chi2_sf_known;
          Alcotest.test_case "chi2 bounds" `Quick test_chi2_sf_bounds;
          Alcotest.test_case "log sf consistency" `Quick test_log_chi2_sf_consistency;
          Alcotest.test_case "log sf deep tail" `Quick test_log_chi2_sf_extreme;
          Alcotest.test_case "erf" `Quick test_erf_known;
        ] );
      qsuite "special.props" [ prop_gamma_p_monotone ];
      ( "dist",
        [
          Alcotest.test_case "weibull cdf/quantile" `Quick test_weibull_cdf_quantile;
          Alcotest.test_case "weibull sample mean" `Slow test_weibull_sample_mean;
          Alcotest.test_case "weibull shape=1 is exp" `Quick test_weibull_exponential_special_case;
          Alcotest.test_case "weibull MLE fit" `Slow test_weibull_fit_recovers;
          Alcotest.test_case "weibull pdf integrates" `Quick test_weibull_pdf_integrates;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "geometric pmf sums" `Quick test_geometric_pmf_sums;
          Alcotest.test_case "poisson mean" `Slow test_poisson_mean;
          Alcotest.test_case "categorical freq" `Slow test_categorical_freq;
        ] );
      qsuite "dist.props" [ prop_weibull_cdf_monotone ];
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile no mutation" `Quick test_stats_percentile_does_not_mutate;
          Alcotest.test_case "ecdf" `Quick test_stats_ecdf;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          Alcotest.test_case "normalize" `Quick test_stats_normalize;
        ] );
      qsuite "stats.props" [ prop_percentile_bounded; prop_variance_nonneg ];
      ( "hypothesis",
        [
          Alcotest.test_case "2x2 known statistic" `Quick test_chi2_contingency_known;
          Alcotest.test_case "independent table" `Quick test_chi2_contingency_independent;
          Alcotest.test_case "paper Table 6 rejects" `Quick test_chi2_paper_table6;
          Alcotest.test_case "paper Table 7 holds" `Quick test_chi2_paper_table7;
          Alcotest.test_case "binned correlated" `Quick test_chi2_binned_correlated;
          Alcotest.test_case "binned independent" `Quick test_chi2_binned_uncorrelated;
          Alcotest.test_case "invalid input" `Quick test_chi2_invalid;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity" `Quick test_matrix_identity;
          Alcotest.test_case "matmul known" `Quick test_matrix_matmul_known;
          Alcotest.test_case "transpose involution" `Quick test_matrix_transpose_involution;
          Alcotest.test_case "gemv" `Quick test_matrix_gemv;
          Alcotest.test_case "add/sub" `Quick test_matrix_add_sub;
          Alcotest.test_case "dimension checks" `Quick test_matrix_dim_checks;
          Alcotest.test_case "softmax" `Quick test_vec_softmax;
        ] );
      qsuite "matrix.props" [ prop_matmul_transpose ];
      ( "timeseries",
        [
          Alcotest.test_case "interpolate inner gap" `Quick test_interpolate_inner_gap;
          Alcotest.test_case "interpolate edges" `Quick test_interpolate_edges;
          Alcotest.test_case "interpolate all missing" `Quick test_interpolate_all_missing;
          Alcotest.test_case "fill_gaps in place" `Quick test_fill_gaps_in_place;
          Alcotest.test_case "degree" `Quick test_degree;
          Alcotest.test_case "gradient" `Quick test_gradient;
          Alcotest.test_case "fluctuation" `Quick test_fluctuation;
          Alcotest.test_case "downsample" `Quick test_downsample;
          Alcotest.test_case "max windows" `Quick test_max_windows;
          Alcotest.test_case "moving average" `Quick test_moving_average_constant;
        ] );
      ( "json",
        [
          Alcotest.test_case "number text and layout" `Quick test_json_number_text;
          Alcotest.test_case "reader accepts and rejects" `Quick test_json_reader;
          Alcotest.test_case "strict on a real dump" `Quick test_json_strict_on_dump;
          Alcotest.test_case "member reads the object's own keys" `Quick
            test_json_member_scoping;
        ] );
      qsuite "json.props" [ prop_json_round_trip ];
    ]
