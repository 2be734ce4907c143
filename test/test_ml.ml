(* Tests for prete_ml: corpus splitting/oversampling, encoder, metrics,
   decision tree, baselines and the MLP (Table 5 / Table 8 behaviour). *)

open Prete_ml
open Prete_optics

let check_close eps = Alcotest.(check (float eps))

(* Shared fixtures (generated once; tests are read-only on them). *)
let dataset =
  lazy
    (let topo = Prete_net.Topology.twan () in
     let model = Fiber_model.generate topo in
     (topo, model, Dataset.generate ~model ~horizon_days:200 topo))

let corpus = lazy (let _, _, ds = Lazy.force dataset in Corpus.of_dataset ds)

let trained_mlp =
  lazy
    (let c = Lazy.force corpus in
     Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 15 } c.Corpus.train)

let sample_feature () =
  let topo, _, _ = Lazy.force dataset in
  let rng = Prete_util.Rng.create 5 in
  Hazard.sample_features rng ~topo ~fiber:2 ~epoch:50

(* ------------------------------------------------------------------ *)
(* Corpus                                                               *)
(* ------------------------------------------------------------------ *)

let test_corpus_split_sizes () =
  let _, _, ds = Lazy.force dataset in
  let c = Lazy.force corpus in
  let total = Array.length c.Corpus.train + Array.length c.Corpus.test in
  Alcotest.(check int) "no events lost" (Array.length ds.Dataset.degradations) total;
  let frac =
    float_of_int (Array.length c.Corpus.train) /. float_of_int total
  in
  Alcotest.(check bool) "~80% train" true (frac >= 0.75 && frac <= 0.85)

let test_corpus_split_chronological_per_fiber () =
  (* For each fiber, every training example predates every test example. *)
  let _, _, ds = Lazy.force dataset in
  let c = Lazy.force corpus in
  let durations_key (e : Corpus.example) = e.Corpus.features.Hazard.duration_s in
  ignore durations_key;
  let last_train = Hashtbl.create 64 and first_test = Hashtbl.create 64 in
  (* Recover epochs by matching duration_s (unique w.h.p.) back to the
     dataset — instead, recompute split directly. *)
  let per_fiber = Hashtbl.create 64 in
  Array.iter
    (fun (d : Dataset.degradation) ->
      let k = d.Dataset.d_fiber in
      Hashtbl.replace per_fiber k
        (d :: (try Hashtbl.find per_fiber k with Not_found -> [])))
    ds.Dataset.degradations;
  Hashtbl.iter
    (fun k l ->
      let arr = Array.of_list (List.rev l) in
      let cut = Array.length arr * 8 / 10 in
      if cut > 0 && cut < Array.length arr then begin
        Hashtbl.replace last_train k arr.(cut - 1).Dataset.d_epoch;
        Hashtbl.replace first_test k arr.(cut).Dataset.d_epoch
      end)
    per_fiber;
  Hashtbl.iter
    (fun k lt ->
      match Hashtbl.find_opt first_test k with
      | Some ft -> Alcotest.(check bool) "train before test" true (lt <= ft)
      | None -> ())
    last_train;
  ignore c

let test_oversample_balances () =
  let c = Lazy.force corpus in
  let balanced = Corpus.oversample ~seed:17 c.Corpus.train in
  let b = Corpus.class_balance balanced in
  check_close 0.02 "balanced" 0.5 b;
  Alcotest.(check bool) "larger or equal" true
    (Array.length balanced >= Array.length c.Corpus.train)

let test_oversample_same_seed_bit_identical () =
  let c = Lazy.force corpus in
  let a = Corpus.oversample ~seed:99 c.Corpus.train in
  let b = Corpus.oversample ~seed:99 c.Corpus.train in
  Alcotest.(check bool) "same seed, same corpus" true (a = b);
  (* A different seed must shuffle differently (equal multisets, so only
     the order can differ — and with hundreds of examples it does). *)
  let d = Corpus.oversample ~seed:100 c.Corpus.train in
  Alcotest.(check int) "same size" (Array.length a) (Array.length d);
  Alcotest.(check bool) "different seed, different order" true (a <> d)

let test_oversample_degenerate () =
  let c = Lazy.force corpus in
  let pos = Array.of_list (List.filter (fun e -> e.Corpus.label) (Array.to_list c.Corpus.train)) in
  let out = Corpus.oversample ~seed:17 pos in
  Alcotest.(check int) "single class unchanged" (Array.length pos) (Array.length out);
  Alcotest.(check int) "empty ok" 0 (Array.length (Corpus.oversample ~seed:17 [||]))

(* ------------------------------------------------------------------ *)
(* Encoder                                                              *)
(* ------------------------------------------------------------------ *)

let test_encoder_dense_shape () =
  let c = Lazy.force corpus in
  let enc = Encoder.fit c.Corpus.train in
  let e = Encoder.encode enc (sample_feature ()) in
  Alcotest.(check int) "dense width" (Encoder.dense_width enc) (Array.length e.Encoder.dense);
  Alcotest.(check int) "5 numerics + 24 hours + 4 vendors" (5 + 24 + 4)
    (Encoder.dense_width enc)

let test_encoder_scaling_bounds () =
  let c = Lazy.force corpus in
  let enc = Encoder.fit c.Corpus.train in
  Array.iter
    (fun (ex : Corpus.example) ->
      let e = Encoder.encode enc ex.Corpus.features in
      Array.iter
        (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0.0 && v <= 1.0))
        e.Encoder.dense)
    c.Corpus.test

let test_encoder_onehot () =
  let c = Lazy.force corpus in
  let enc = Encoder.fit c.Corpus.train in
  let f = { (sample_feature ()) with Hazard.time_of_day = 13.4; Hazard.vendor = 2 } in
  let e = Encoder.encode enc f in
  (* Exactly one hour bit and one vendor bit set. *)
  let hours = Array.sub e.Encoder.dense Encoder.num_numeric 24 in
  let vendors = Array.sub e.Encoder.dense (Encoder.num_numeric + 24) 4 in
  check_close 1e-12 "one hour" 1.0 (Prete_util.Stats.sum hours);
  check_close 1e-12 "hour 13" 1.0 hours.(13);
  check_close 1e-12 "one vendor" 1.0 (Prete_util.Stats.sum vendors);
  check_close 1e-12 "vendor 2" 1.0 vendors.(2)

(* The hour wraps as the vendor index does, by floor: a negative time of
   day is the evening before, past 24 the next day; a non-finite one is
   rejected. *)
let test_encoder_hour_wraps () =
  let c = Lazy.force corpus in
  let enc = Encoder.fit c.Corpus.train in
  let hour tod =
    let e = Encoder.encode enc { (sample_feature ()) with Hazard.time_of_day = tod } in
    e.Encoder.time_col - Encoder.num_numeric
  in
  List.iter
    (fun (tod, want) -> Alcotest.(check int) (Printf.sprintf "hour of %g" tod) want (hour tod))
    [ (-2.0, 22); (30.0, 6); (23.999, 23); (0.0, 0); (-0.0, 0); (-0.5, 23); (24.0, 0);
      (-24.0, 0); (13.4, 13) ];
  let far = hour 1e300 in
  Alcotest.(check bool) "a huge time of day still lands in a bucket" true (far >= 0 && far < 24);
  List.iter
    (fun tod ->
      match hour tod with
      | _ -> Alcotest.failf "time of day %g accepted" tod
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "Encoder.encode: prefix" true
          (String.length msg > 16 && String.sub msg 0 16 = "Encoder.encode: "))
    [ nan; infinity; neg_infinity ]

let test_encoder_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Encoder.fit: empty training set")
    (fun () -> ignore (Encoder.fit [||]))

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_confusion () =
  let predicted = [| true; true; false; false; true |] in
  let actual = [| true; false; false; true; true |] in
  let c = Metrics.confusion ~predicted ~actual in
  Alcotest.(check int) "tp" 2 c.Metrics.tp;
  Alcotest.(check int) "fp" 1 c.Metrics.fp;
  Alcotest.(check int) "tn" 1 c.Metrics.tn;
  Alcotest.(check int) "fn" 1 c.Metrics.fn;
  check_close 1e-9 "precision" (2.0 /. 3.0) (Metrics.precision c);
  check_close 1e-9 "recall" (2.0 /. 3.0) (Metrics.recall c);
  check_close 1e-9 "accuracy" 0.6 (Metrics.accuracy c);
  check_close 1e-9 "f1" (2.0 /. 3.0) (Metrics.f1 c)

let test_metrics_degenerate () =
  let c = Metrics.confusion ~predicted:[| false; false |] ~actual:[| true; false |] in
  check_close 1e-9 "precision 0 when no positives predicted" 0.0 (Metrics.precision c);
  check_close 1e-9 "f1 0" 0.0 (Metrics.f1 c)

let test_metrics_mae () =
  check_close 1e-9 "mae" 0.25
    (Metrics.mean_abs_error ~predicted:[| 0.5; 1.0 |] ~actual:[| 0.75; 0.75 |])

(* ------------------------------------------------------------------ *)
(* Decision tree                                                        *)
(* ------------------------------------------------------------------ *)

let test_dtree_separable () =
  (* A perfectly separable toy problem: degree > 6.5 always cuts. *)
  let base = sample_feature () in
  let mk degree label =
    { Corpus.features = { base with Hazard.degree };
      Corpus.label = label;
      Corpus.true_hazard = (if label then 1.0 else 0.0) }
  in
  let examples =
    Array.init 200 (fun i ->
        let d = 3.0 +. (float_of_int i /. 199.0 *. 7.0) in
        mk d (d > 6.5))
  in
  let t = Dtree.train examples in
  Alcotest.(check bool) "classifies low" false
    (Dtree.predict_label t { base with Hazard.degree = 4.0 });
  Alcotest.(check bool) "classifies high" true
    (Dtree.predict_label t { base with Hazard.degree = 9.0 })

let test_dtree_depth_bounded () =
  let c = Lazy.force corpus in
  let t = Dtree.train ~config:{ Dtree.default_config with Dtree.max_depth = 4 } c.Corpus.train in
  Alcotest.(check bool) "depth <= 4" true (Dtree.depth t <= 4);
  Alcotest.(check bool) "has structure" true (Dtree.num_leaves t >= 2)

let test_dtree_beats_baselines () =
  let _, model, _ = Lazy.force dataset in
  let c = Lazy.force corpus in
  let t = Dtree.train c.Corpus.train in
  let dt_c = Metrics.evaluate ~predict:(Dtree.predict_label t) c.Corpus.test in
  let st = Baselines.statistic_train c.Corpus.train in
  let st_c = Metrics.evaluate ~predict:(Baselines.statistic_label st) c.Corpus.test in
  ignore model;
  Alcotest.(check bool) "DT F1 > statistic F1 (Table 5 ordering)" true
    (Metrics.f1 dt_c > Metrics.f1 st_c)

let test_dtree_proba_range () =
  let c = Lazy.force corpus in
  let t = Dtree.train c.Corpus.train in
  Array.iter
    (fun (e : Corpus.example) ->
      let p = Dtree.predict_proba t e.Corpus.features in
      Alcotest.(check bool) "in [0,1]" true (p >= 0.0 && p <= 1.0))
    c.Corpus.test

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)
(* ------------------------------------------------------------------ *)

let test_naive_never_fires () =
  (* Table 5: the static-probability approach has P ≈ R ≈ 0. *)
  let _, model, _ = Lazy.force dataset in
  let c = Lazy.force corpus in
  let n = Baselines.naive_train model in
  let conf = Metrics.evaluate ~predict:(Baselines.naive_label n) c.Corpus.test in
  Alcotest.(check int) "no positives" 0 (conf.Metrics.tp + conf.Metrics.fp);
  check_close 1e-9 "P=0" 0.0 (Metrics.precision conf);
  check_close 1e-9 "R=0" 0.0 (Metrics.recall conf)

let test_statistic_uses_fiber_rates () =
  let c = Lazy.force corpus in
  let s = Baselines.statistic_train c.Corpus.train in
  (* Probabilities must vary across fibers (the fiber-identity signal). *)
  let f = sample_feature () in
  let ps =
    List.init 20 (fun fid -> Baselines.statistic_proba s { f with Hazard.fiber = fid })
  in
  Alcotest.(check bool) "heterogeneous" true
    (List.exists (fun p -> Float.abs (p -. List.hd ps) > 0.05) ps)

let test_statistic_partial_recall () =
  (* The statistic model catches some but not all cuts (Table 5). *)
  let c = Lazy.force corpus in
  let s = Baselines.statistic_train c.Corpus.train in
  let conf = Metrics.evaluate ~predict:(Baselines.statistic_label s) c.Corpus.test in
  let r = Metrics.recall conf in
  Alcotest.(check bool) (Printf.sprintf "0 < recall %.2f < 0.6" r) true (r > 0.0 && r < 0.6)

(* ------------------------------------------------------------------ *)
(* MLP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mlp_learns_separable () =
  let base = sample_feature () in
  let mk degree label =
    { Corpus.features = { base with Hazard.degree };
      Corpus.label = label;
      Corpus.true_hazard = (if label then 1.0 else 0.0) }
  in
  let examples =
    Array.init 300 (fun i ->
        let d = 3.0 +. (float_of_int i /. 299.0 *. 7.0) in
        mk d (d > 6.5))
  in
  let t = Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 40 } examples in
  Alcotest.(check bool) "low degree -> no cut" false
    (Mlp.predict_label t { base with Hazard.degree = 3.5 });
  Alcotest.(check bool) "high degree -> cut" true
    (Mlp.predict_label t { base with Hazard.degree = 9.5 })

let test_mlp_proba_valid () =
  let t = Lazy.force trained_mlp in
  let c = Lazy.force corpus in
  Array.iter
    (fun (e : Corpus.example) ->
      let p = Mlp.predict_proba t e.Corpus.features in
      Alcotest.(check bool) "in (0,1)" true (p > 0.0 && p < 1.0))
    c.Corpus.test

let test_mlp_table5_performance () =
  (* Table 5 ordering and magnitude: NN reaches ~0.8 P/R, the best of all
     models. *)
  let _, model, _ = Lazy.force dataset in
  let c = Lazy.force corpus in
  let t = Lazy.force trained_mlp in
  let nn_c = Metrics.evaluate ~predict:(Mlp.predict_label t) c.Corpus.test in
  let p = Metrics.precision nn_c and r = Metrics.recall nn_c in
  Alcotest.(check bool) (Printf.sprintf "precision %.2f >= 0.7" p) true (p >= 0.7);
  Alcotest.(check bool) (Printf.sprintf "recall %.2f >= 0.7" r) true (r >= 0.7);
  let dt = Dtree.train c.Corpus.train in
  let dt_c = Metrics.evaluate ~predict:(Dtree.predict_label dt) c.Corpus.test in
  Alcotest.(check bool) "NN F1 >= DT F1" true (Metrics.f1 nn_c >= Metrics.f1 dt_c);
  let n = Baselines.naive_train model in
  let nv_c = Metrics.evaluate ~predict:(Baselines.naive_label n) c.Corpus.test in
  Alcotest.(check bool) "NN beats naive" true (Metrics.f1 nn_c > Metrics.f1 nv_c)

let test_mlp_prediction_error_beats_naive () =
  (* Fig. 14: the NN's probability error against the true hazard is far
     below the static-probability baseline's. *)
  let _, model, _ = Lazy.force dataset in
  let c = Lazy.force corpus in
  let t = Lazy.force trained_mlp in
  let actual = Array.map (fun e -> e.Corpus.true_hazard) c.Corpus.test in
  let nn_pred =
    Array.map (fun (e : Corpus.example) -> Mlp.predict_proba t e.Corpus.features) c.Corpus.test
  in
  let n = Baselines.naive_train model in
  let naive_pred =
    Array.map (fun (e : Corpus.example) -> Baselines.naive_proba n e.Corpus.features) c.Corpus.test
  in
  let nn_mae = Metrics.mean_abs_error ~predicted:nn_pred ~actual in
  let naive_mae = Metrics.mean_abs_error ~predicted:naive_pred ~actual in
  Alcotest.(check bool)
    (Printf.sprintf "NN MAE %.3f < naive MAE %.3f / 2" nn_mae naive_mae)
    true
    (nn_mae < naive_mae /. 2.0)

let test_mlp_ablation_fiber_id_worst () =
  (* Table 8: removing the fiber id hurts the most. *)
  let c = Lazy.force corpus in
  let cfg = { Mlp.default_config with Mlp.epochs = 15 } in
  let f1_of ablate =
    let t = Mlp.train ~config:cfg ?ablate c.Corpus.train in
    Metrics.f1 (Metrics.evaluate ~predict:(Mlp.predict_label t) c.Corpus.test)
  in
  let full = f1_of None in
  let wo_fiber = f1_of (Some Mlp.Fiber_id) in
  let wo_vendor = f1_of (Some Mlp.Vendor) in
  Alcotest.(check bool)
    (Printf.sprintf "w/o fiber id %.2f < full %.2f" wo_fiber full)
    true (wo_fiber < full);
  Alcotest.(check bool)
    (Printf.sprintf "w/o fiber id %.2f <= w/o vendor %.2f" wo_fiber wo_vendor)
    true (wo_fiber <= wo_vendor)

let test_mlp_batch_matches_single () =
  let t = Lazy.force trained_mlp in
  let c = Lazy.force corpus in
  let fs = Array.map (fun (e : Corpus.example) -> e.Corpus.features) (Array.sub c.Corpus.test 0 20) in
  let batch = Mlp.predict_batch t fs in
  Array.iteri
    (fun i f -> check_close 1e-12 "batch = single" (Mlp.predict_proba t f) batch.(i))
    fs

let test_mlp_deterministic () =
  let c = Lazy.force corpus in
  let cfg = { Mlp.default_config with Mlp.epochs = 3 } in
  let t1 = Mlp.train ~config:cfg c.Corpus.train in
  let t2 = Mlp.train ~config:cfg c.Corpus.train in
  let f = sample_feature () in
  check_close 1e-12 "same seed same model" (Mlp.predict_proba t1 f) (Mlp.predict_proba t2 f)

let test_mlp_invalid_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Mlp.train: empty training set")
    (fun () -> ignore (Mlp.train [||]));
  let base = sample_feature () in
  let ex = { Corpus.features = base; Corpus.label = true; Corpus.true_hazard = 1.0 } in
  Alcotest.check_raises "single class"
    (Invalid_argument "Mlp.train: single-class training set") (fun () ->
      ignore (Mlp.train [| ex; ex |]));
  (* Bad configs are rejected before any data is read: batch <= 0 would
     loop forever, a NaN rate would return an all-NaN model. *)
  let two = [| ex; { ex with Corpus.label = false } |] in
  let cfg = { Mlp.default_config with Mlp.epochs = 1; hidden = 4 } in
  List.iter
    (fun (msg, config) ->
      Alcotest.check_raises msg (Invalid_argument ("Mlp.train: " ^ msg)) (fun () ->
          ignore (Mlp.train ~config two)))
    [
      ("batch must be >= 1", { cfg with Mlp.batch = 0 });
      ("batch must be >= 1", { cfg with Mlp.batch = -3 });
      ("hidden must be >= 1", { cfg with Mlp.hidden = 0 });
      ("embedding widths must be >= 0", { cfg with Mlp.embed_fiber = -1 });
      ("embedding widths must be >= 0", { cfg with Mlp.embed_region = -2 });
      ("epochs must be >= 0", { cfg with Mlp.epochs = -1 });
      ("learning rate must be finite and > 0", { cfg with Mlp.learning_rate = Float.nan });
      ("learning rate must be finite and > 0", { cfg with Mlp.learning_rate = 0.0 });
      ("learning rate must be finite and > 0", { cfg with Mlp.learning_rate = -1e-3 });
      ("learning rate must be finite and > 0", { cfg with Mlp.learning_rate = Float.infinity });
      ("l2 must be finite and >= 0", { cfg with Mlp.l2 = Float.nan });
      ("l2 must be finite and >= 0", { cfg with Mlp.l2 = -1e-4 });
      ("l2 must be finite and >= 0", { cfg with Mlp.l2 = Float.infinity });
    ];
  Alcotest.check_raises "empty set, bad config"
    (Invalid_argument "Mlp.train: batch must be >= 1") (fun () ->
      ignore (Mlp.train ~config:{ cfg with Mlp.batch = 0 } [||]));
  (* Zero epochs and zero-width embeddings are valid. *)
  let m = Mlp.train ~config:{ cfg with Mlp.epochs = 0; embed_fiber = 0; embed_region = 0 } two in
  Alcotest.(check bool) "0 epochs: a probability" true
    (let p = Mlp.predict_proba m base in p > 0.0 && p < 1.0);
  let targets = [| (base, 0.5) |] in
  List.iter
    (fun (msg, run) ->
      Alcotest.check_raises msg (Invalid_argument ("Mlp.finetune: " ^ msg)) (fun () ->
          ignore (run ())))
    [
      ("epochs must be >= 0", fun () -> Mlp.finetune ~epochs:(-1) m ~targets);
      ("learning rate must be finite and > 0", fun () -> Mlp.finetune ~lr:Float.nan m ~targets);
      ("learning rate must be finite and > 0", fun () -> Mlp.finetune ~lr:0.0 m ~targets);
      ("learning rate must be finite and > 0", fun () ->
          Mlp.finetune ~lr:Float.neg_infinity m ~targets);
    ]

let test_mlp_nll_decreases () =
  (* More training epochs must not make the fit (on train) worse. *)
  let c = Lazy.force corpus in
  let small = Array.sub c.Corpus.train 0 400 in
  let t1 = Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 1 } small in
  let t20 = Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 20 } small in
  Alcotest.(check bool) "nll improves" true
    (Mlp.average_nll t20 small < Mlp.average_nll t1 small)

(* ------------------------------------------------------------------ *)
(* MLP golden pins                                                      *)
(* ------------------------------------------------------------------ *)

(* The MD5 of the exact bits ([%h]) of [predict_proba] over every train
   and test example: any change to the trained parameters, however
   small, moves it. *)
let proba_digest predict (c : Corpus.t) =
  let buf = Buffer.create 65536 in
  Array.iter
    (fun (e : Corpus.example) ->
      Buffer.add_string buf (Printf.sprintf "%h\n" (predict e.Corpus.features)))
    (Array.append c.Corpus.train c.Corpus.test);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let env_corpus name =
  let env = Prete.Availability.make_env (Prete_net.Topology.by_name name) in
  Corpus.of_dataset
    (Dataset.generate ~model:env.Prete.Availability.model
       env.Prete.Availability.ts.Prete_net.Tunnels.topo)

(* The model the react-ibm perfbench workload trains in its set-up. *)
let test_golden_ibm () =
  let c = env_corpus "IBM" in
  let t = Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 25 } c.Corpus.train in
  Alcotest.(check string) "IBM, 25 epochs" "7efe589a7bd99e3cde93b6528f4603a6"
    (proba_digest (Mlp.predict_proba t) c)

(* test_dfl's model, and a soft-target distillation of it. *)
let test_golden_grid3_and_finetune () =
  let c = env_corpus "grid3" in
  let t = Mlp.train ~config:{ Mlp.default_config with Mlp.epochs = 3 } c.Corpus.train in
  Alcotest.(check string) "grid3, 3 epochs" "1e3071ee52e9e8641fce4ce0cecc2f09"
    (proba_digest (Mlp.predict_proba t) c);
  let targets =
    Array.mapi
      (fun i (e : Corpus.example) ->
        (e.Corpus.features, float_of_int ((i * 7) mod 11) /. 10.0))
      (Array.sub c.Corpus.train 0 (min 40 (Array.length c.Corpus.train)))
  in
  let t' = Mlp.finetune ~epochs:60 ~lr:3e-3 t ~targets in
  Alcotest.(check string) "grid3 finetune, soft targets" "9eeca32523d927b9a5860ac767e8c0c7"
    (proba_digest (Mlp.predict_proba t') c)

let test_golden_twan_ablations () =
  let c = Lazy.force corpus in
  let cfg = { Mlp.default_config with Mlp.epochs = 10 } in
  List.iter
    (fun (ablate, expected) ->
      let t = Mlp.train ~config:cfg ?ablate c.Corpus.train in
      let name =
        match ablate with None -> "none" | Some f -> Mlp.feature_name f
      in
      Alcotest.(check string) ("TWAN, 10 epochs, ablate " ^ name) expected
        (proba_digest (Mlp.predict_proba t) c))
    [
      (None, "69be36539aac9bbeafc11f45dd98c423");
      (Some Mlp.Time, "85e88cf81b7cb658a21bd58931b8e553");
      (Some Mlp.Degree, "9e2479471e2496f158eccf41668dd83d");
      (Some Mlp.Gradient, "10d5f6d4b40b142d22beb4f9a5d34c6a");
      (Some Mlp.Fluctuation, "8841922e432d1d46d9d0247ca822e581");
      (Some Mlp.Region, "4d90c1ede02d7e246ec8f24ca2af8981");
      (Some Mlp.Fiber_id, "469e6b9d3a1473723296d3b87e1c395b");
      (Some Mlp.Vendor, "4e10abad990825216ae575842814bc02");
    ]

(* ------------------------------------------------------------------ *)
(* Reference trainer                                                    *)
(* ------------------------------------------------------------------ *)

(* The dense reference trainer, copied verbatim below the type
   re-exports: nested-array parameters, a dense forward and backward
   over the whole input row, each example re-encoded on every step.
   Mlp's kernel must reproduce it bit for bit. *)
module Ref_mlp = struct
  open Prete_util

  type feature = Mlp.feature =
    | Time
    | Degree
    | Gradient
    | Fluctuation
    | Region
    | Fiber_id
    | Vendor

  type config = Mlp.config = {
    hidden : int;
    embed_fiber : int;
    embed_region : int;
    learning_rate : float;
    l2 : float;
    epochs : int;
    batch : int;
    seed : int;
  }

  let default_config = Mlp.default_config

  (* Replace the ablated feature with a constant: same architecture, no
     information content (Table 8). *)
  let neutralize ablate (f : Hazard.features) =
    match ablate with
    | None -> f
    | Some Time -> { f with Hazard.time_of_day = 12.0 }
    | Some Degree -> { f with Hazard.degree = 6.5 }
    | Some Gradient -> { f with Hazard.gradient = 0.1 }
    | Some Fluctuation -> { f with Hazard.fluctuation = 5 }
    | Some Region -> { f with Hazard.region = 0 }
    | Some Fiber_id -> { f with Hazard.fiber = 0 }
    | Some Vendor -> { f with Hazard.vendor = 0 }

  (* ------------------------------------------------------------------ *)
  (* Parameters and Adam state                                            *)
  (* ------------------------------------------------------------------ *)

  type mat = float array array

  type params = {
    w1 : mat;  (* hidden x d_in *)
    b1 : float array;
    w2 : mat;  (* 2 x hidden *)
    b2 : float array;
    ef : mat;  (* n_fibers x embed_fiber *)
    er : mat;  (* n_regions x embed_region *)
  }

  type t = {
    config : config;
    encoder : Encoder.t;
    ablate : feature option;
    p : params;
  }

  let zeros_like (m : mat) = Array.map (fun r -> Array.make (Array.length r) 0.0) m

  let mat_init rng rows cols scale =
    Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.uniform rng (-.scale) scale))

  (* One Adam state per parameter matrix (vectors are 1-row matrices). *)
  type adam = { mutable t : int; m : mat; v : mat }

  let adam_of (p : mat) = { t = 0; m = zeros_like p; v = zeros_like p }

  let adam_step ~lr st (p : mat) (g : mat) =
    st.t <- st.t + 1;
    let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
    let bc1 = 1.0 -. (beta1 ** float_of_int st.t) in
    let bc2 = 1.0 -. (beta2 ** float_of_int st.t) in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j gij ->
            st.m.(i).(j) <- (beta1 *. st.m.(i).(j)) +. ((1.0 -. beta1) *. gij);
            st.v.(i).(j) <- (beta2 *. st.v.(i).(j)) +. ((1.0 -. beta2) *. gij *. gij);
            let mhat = st.m.(i).(j) /. bc1 and vhat = st.v.(i).(j) /. bc2 in
            row.(j) <- row.(j) -. (lr *. mhat /. (sqrt vhat +. eps)))
          g.(i))
      p

  (* ------------------------------------------------------------------ *)
  (* Forward / backward                                                   *)
  (* ------------------------------------------------------------------ *)

  let build_input t (e : Encoder.encoded) =
    let dw = Array.length e.Encoder.dense in
    let x = Array.make (dw + t.config.embed_fiber + t.config.embed_region) 0.0 in
    Array.blit e.Encoder.dense 0 x 0 dw;
    Array.blit t.p.ef.(e.Encoder.fiber) 0 x dw t.config.embed_fiber;
    Array.blit t.p.er.(e.Encoder.region) 0 x (dw + t.config.embed_fiber) t.config.embed_region;
    x

  let forward t x =
    let hidden = t.config.hidden in
    let z1 = Array.make hidden 0.0 in
    for i = 0 to hidden - 1 do
      let w = t.p.w1.(i) in
      let acc = ref t.p.b1.(i) in
      for j = 0 to Array.length x - 1 do
        acc := !acc +. (w.(j) *. x.(j))
      done;
      z1.(i) <- !acc
    done;
    let h = Array.map (fun z -> if z > 0.0 then z else 0.0) z1 in
    let logits =
      Array.init 2 (fun k ->
          let w = t.p.w2.(k) in
          let acc = ref t.p.b2.(k) in
          for i = 0 to hidden - 1 do
            acc := !acc +. (w.(i) *. h.(i))
          done;
          !acc)
    in
    (z1, h, Matrix.Vec.softmax logits)

  let proba t (f : Hazard.features) =
    let f = neutralize t.ablate f in
    let e = Encoder.encode t.encoder f in
    let x = build_input t e in
    let _, _, p = forward t x in
    p.(1)

  (* ------------------------------------------------------------------ *)
  (* Training                                                             *)
  (* ------------------------------------------------------------------ *)

  type grads = {
    gw1 : mat;
    gb1 : mat;
    gw2 : mat;
    gb2 : mat;
    gef : mat;
    ger : mat;
  }

  let copy_params p =
    {
      w1 = Array.map Array.copy p.w1;
      b1 = Array.copy p.b1;
      w2 = Array.map Array.copy p.w2;
      b2 = Array.copy p.b2;
      ef = Array.map Array.copy p.ef;
      er = Array.map Array.copy p.er;
    }

  let make_grads config p =
    {
      gw1 = zeros_like p.w1;
      gb1 = [| Array.make config.hidden 0.0 |];
      gw2 = zeros_like p.w2;
      gb2 = [| Array.make 2 0.0 |];
      gef = zeros_like p.ef;
      ger = zeros_like p.er;
    }

  let zero_grads g =
    let z (m : mat) = Array.iter (fun r -> Array.fill r 0 (Array.length r) 0.0) m in
    z g.gw1; z g.gb1; z g.gw2; z g.gb2; z g.gef; z g.ger

  (* Accumulate one example's gradient.  [target] is a distribution over
     the two classes — one-hot for log-loss training, soft for the
     decision-focused distillation pass — and dL/dlogits = p - target for
     cross-entropy against either. *)
  let accumulate_example t g (feats : Hazard.features) ~(target : float array) =
    let config = t.config in
    let f = neutralize t.ablate feats in
    let e = Encoder.encode t.encoder f in
    let dw = Encoder.dense_width t.encoder in
    let x = build_input t e in
    let z1, h, probs = forward t x in
    let dy = Array.mapi (fun k pk -> pk -. target.(k)) probs in
    (* Output layer. *)
    for k = 0 to 1 do
      let gw = g.gw2.(k) in
      for i = 0 to config.hidden - 1 do
        gw.(i) <- gw.(i) +. (dy.(k) *. h.(i))
      done;
      g.gb2.(0).(k) <- g.gb2.(0).(k) +. dy.(k)
    done;
    (* Hidden layer. *)
    let dh = Array.make config.hidden 0.0 in
    for i = 0 to config.hidden - 1 do
      dh.(i) <- (t.p.w2.(0).(i) *. dy.(0)) +. (t.p.w2.(1).(i) *. dy.(1));
      if z1.(i) <= 0.0 then dh.(i) <- 0.0
    done;
    let dx = Array.make (Array.length x) 0.0 in
    for i = 0 to config.hidden - 1 do
      if dh.(i) <> 0.0 then begin
        let gw = g.gw1.(i) and w = t.p.w1.(i) in
        for j = 0 to Array.length x - 1 do
          gw.(j) <- gw.(j) +. (dh.(i) *. x.(j));
          dx.(j) <- dx.(j) +. (dh.(i) *. w.(j))
        done;
        g.gb1.(0).(i) <- g.gb1.(0).(i) +. dh.(i)
      end
    done;
    (* Embedding gradients. *)
    let gef = g.gef.(e.Encoder.fiber) in
    for j = 0 to config.embed_fiber - 1 do
      gef.(j) <- gef.(j) +. dx.(dw + j)
    done;
    let ger = g.ger.(e.Encoder.region) in
    for j = 0 to config.embed_region - 1 do
      ger.(j) <- ger.(j) +. dx.(dw + config.embed_fiber + j)
    done

  type adam_set = { aw1 : adam; ab1 : adam; aw2 : adam; ab2 : adam; aef : adam; aer : adam }

  let adams_of p =
    {
      aw1 = adam_of p.w1;
      ab1 = adam_of [| p.b1 |];
      aw2 = adam_of p.w2;
      ab2 = adam_of [| p.b2 |];
      aef = adam_of p.ef;
      aer = adam_of p.er;
    }

  let apply_batch t g a ~lr ~batch_size =
    let config = t.config in
    let p = t.p in
    let inv = 1.0 /. float_of_int batch_size in
    let finish (gm : mat) (pm : mat) =
      Array.iteri
        (fun i row ->
          Array.iteri (fun j v -> row.(j) <- (v *. inv) +. (config.l2 *. pm.(i).(j))) row)
        gm
    in
    finish g.gw1 p.w1;
    finish g.gb1 [| p.b1 |];
    finish g.gw2 p.w2;
    finish g.gb2 [| p.b2 |];
    finish g.gef p.ef;
    finish g.ger p.er;
    adam_step ~lr a.aw1 p.w1 g.gw1;
    adam_step ~lr a.ab1 [| p.b1 |] g.gb1;
    adam_step ~lr a.aw2 p.w2 g.gw2;
    adam_step ~lr a.ab2 [| p.b2 |] g.gb2;
    adam_step ~lr a.aef p.ef g.gef;
    adam_step ~lr a.aer p.er g.ger

  let train ?(config = default_config) ?ablate examples =
    if Array.length examples = 0 then invalid_arg "Mlp.train: empty training set";
    let pos = Corpus.positives examples in
    if pos = 0 || pos = Array.length examples then
      invalid_arg "Mlp.train: single-class training set";
    let data = Corpus.oversample ~seed:(config.seed + 1) examples in
    let encoder = Encoder.fit data in
    let dw = Encoder.dense_width encoder in
    let d_in = dw + config.embed_fiber + config.embed_region in
    let rng = Rng.create config.seed in
    let scale = 1.0 /. sqrt (float_of_int d_in) in
    let p =
      {
        w1 = mat_init rng config.hidden d_in scale;
        b1 = Array.make config.hidden 0.0;
        w2 = mat_init rng 2 config.hidden (1.0 /. sqrt (float_of_int config.hidden));
        b2 = Array.make 2 0.0;
        ef = mat_init rng (Encoder.num_fibers encoder) config.embed_fiber 0.1;
        er = mat_init rng (Encoder.num_regions encoder) config.embed_region 0.1;
      }
    in
    let t = { config; encoder; ablate; p } in
    let g = make_grads config p in
    let a = adams_of p in
    let one_hot = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
    let n = Array.length data in
    let order = Array.init n (fun i -> i) in
    for _epoch = 1 to config.epochs do
      Rng.shuffle rng order;
      let i = ref 0 in
      while !i < n do
        let batch_size = min config.batch (n - !i) in
        zero_grads g;
        for k = !i to !i + batch_size - 1 do
          let e = data.(order.(k)) in
          accumulate_example t g e.Corpus.features
            ~target:one_hot.(if e.Corpus.label then 1 else 0)
        done;
        apply_batch t g a ~lr:config.learning_rate ~batch_size;
        i := !i + batch_size
      done
    done;
    t

  let finetune ?(epochs = 300) ?lr t ~targets =
    if Array.length targets = 0 then invalid_arg "Mlp.finetune: empty target set";
    Array.iter
      (fun (_, q) ->
        if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
          invalid_arg "Mlp.finetune: target outside [0, 1]")
      targets;
    let lr = match lr with Some l -> l | None -> t.config.learning_rate in
    (* Deep-copy: train/finetune update parameter matrices in place, and
       the warm-start model must survive as the fallback the trainer can
       return when the distilled model does not beat it. *)
    let t = { t with p = copy_params t.p } in
    let g = make_grads t.config t.p in
    let a = adams_of t.p in
    (* Full-batch descent on soft-label cross-entropy: the target sets are
       one event per fiber, far smaller than a training corpus, and
       full batches keep the pass free of shuffling state entirely. *)
    let n = Array.length targets in
    for _epoch = 1 to epochs do
      zero_grads g;
      Array.iter
        (fun (feats, q) -> accumulate_example t g feats ~target:[| 1.0 -. q; q |])
        targets;
      apply_batch t g a ~lr ~batch_size:n
    done;
    t

  let predict_proba t f = proba t f

  let predict_label t f = proba t f >= 0.5

  let predict_batch t fs = Array.map (fun f -> proba t f) fs

  let average_nll t examples =
    if Array.length examples = 0 then invalid_arg "Mlp.average_nll: empty set";
    let total =
      Array.fold_left
        (fun acc e ->
          let p1 = proba t e.Corpus.features in
          let p = if e.Corpus.label then p1 else 1.0 -. p1 in
          acc -. log (Float.max 1e-12 p))
        0.0 examples
    in
    total /. float_of_int (Array.length examples)
end

(* Random small corpora: numerics drawn from a few values, so many sit
   exactly at their training minimum (which encodes to 0.0), NaN
   numerics on a third of the cases, unseen fibers and negative or
   out-of-range categorical values among the probes. *)
let random_mlp_case seed =
  let rng = Prete_util.Rng.create (1000 + seed) in
  let pick a = a.(Prete_util.Rng.int rng (Array.length a)) in
  let nan_case = seed mod 3 = 0 in
  let num vals =
    if nan_case && Prete_util.Rng.int rng 8 = 0 then Float.nan else pick vals
  in
  let n_fibers = 1 + Prete_util.Rng.int rng 5 in
  let feat () =
    {
      Hazard.fiber = Prete_util.Rng.int rng n_fibers;
      region = Prete_util.Rng.int rng 5 - 1;
      vendor = Prete_util.Rng.int rng 7 - 2;
      length_km = num [| 40.0; 40.0; 120.0; 300.5 |];
      time_of_day = pick [| 0.0; 3.5; 11.0; 23.9; -2.0; 30.0 |];
      degree = num [| 3.0; 3.0; 4.5; 9.75 |];
      gradient = num [| 0.0; 0.0; 0.05; 0.4 |];
      fluctuation = pick [| 0; 0; 3; 17 |];
      duration_s = num [| 10.0; 10.0; 60.0; 900.0 |];
    }
  in
  let n = 6 + Prete_util.Rng.int rng 35 in
  let examples =
    Array.init n (fun i ->
        let label = if i < 2 then i = 0 else Prete_util.Rng.int rng 3 = 0 in
        { Corpus.features = feat (); label; true_hazard = 0.0 })
  in
  let config =
    {
      Mlp.hidden = 1 + Prete_util.Rng.int rng 9;
      embed_fiber = Prete_util.Rng.int rng 4;
      embed_region = Prete_util.Rng.int rng 3;
      learning_rate = pick [| 1e-3; 1e-2; 0.05 |];
      l2 = pick [| 0.0; 2e-4; 1e-2 |];
      epochs = 1 + Prete_util.Rng.int rng 3;
      batch = pick [| 1; 3; 4; 7; 64 |];
      seed = Prete_util.Rng.int rng 1000;
    }
  in
  let ablate = pick (Array.of_list (None :: List.map Option.some Mlp.all_features)) in
  let probes =
    Array.append
      (Array.map (fun e -> e.Corpus.features) examples)
      (Array.init 8 (fun _ -> { (feat ()) with Hazard.fiber = Prete_util.Rng.int rng 9 - 2 }))
  in
  let targets =
    Array.init (1 + Prete_util.Rng.int rng 6) (fun _ ->
        (pick probes, pick [| 0.0; 0.25; 0.5; 0.9; 1.0 |]))
  in
  let ft_epochs = Prete_util.Rng.int rng 5 in
  let ft_lr = pick [| None; Some 3e-3; Some 0.02 |] in
  (examples, config, ablate, probes, targets, ft_epochs, ft_lr)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = reference trainer, bit for bit" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let examples, config, ablate, probes, targets, epochs, lr = random_mlp_case seed in
      let m = Mlp.train ~config ?ablate examples in
      let r = Ref_mlp.train ~config ?ablate examples in
      let agree predict_m predict_r =
        Array.for_all (fun f -> same_bits (predict_m f) (predict_r f)) probes
      in
      agree (Mlp.predict_proba m) (Ref_mlp.predict_proba r)
      && Array.for_all2 same_bits (Mlp.predict_batch m probes) (Ref_mlp.predict_batch r probes)
      && Array.for_all (fun f -> Mlp.predict_label m f = Ref_mlp.predict_label r f) probes
      && same_bits (Mlp.average_nll m examples) (Ref_mlp.average_nll r examples)
      && agree
           (Mlp.predict_proba (Mlp.finetune ~epochs ?lr m ~targets))
           (Ref_mlp.predict_proba (Ref_mlp.finetune ~epochs ?lr r ~targets)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prete_ml"
    [
      ( "corpus",
        [
          Alcotest.test_case "split sizes" `Slow test_corpus_split_sizes;
          Alcotest.test_case "chronological per fiber" `Slow test_corpus_split_chronological_per_fiber;
          Alcotest.test_case "oversample balances" `Slow test_oversample_balances;
          Alcotest.test_case "oversample degenerate" `Slow test_oversample_degenerate;
          Alcotest.test_case "oversample same-seed bit-identical" `Slow
            test_oversample_same_seed_bit_identical;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "dense shape" `Slow test_encoder_dense_shape;
          Alcotest.test_case "scaling bounds" `Slow test_encoder_scaling_bounds;
          Alcotest.test_case "one-hot" `Slow test_encoder_onehot;
          Alcotest.test_case "empty raises" `Quick test_encoder_empty_raises;
          Alcotest.test_case "hour wraps" `Slow test_encoder_hour_wraps;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "confusion" `Quick test_metrics_confusion;
          Alcotest.test_case "degenerate" `Quick test_metrics_degenerate;
          Alcotest.test_case "mae" `Quick test_metrics_mae;
        ] );
      ( "dtree",
        [
          Alcotest.test_case "separable" `Quick test_dtree_separable;
          Alcotest.test_case "depth bounded" `Slow test_dtree_depth_bounded;
          Alcotest.test_case "beats baselines" `Slow test_dtree_beats_baselines;
          Alcotest.test_case "proba range" `Slow test_dtree_proba_range;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "naive never fires (Table 5)" `Slow test_naive_never_fires;
          Alcotest.test_case "statistic fiber rates" `Slow test_statistic_uses_fiber_rates;
          Alcotest.test_case "statistic partial recall" `Slow test_statistic_partial_recall;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "learns separable" `Slow test_mlp_learns_separable;
          Alcotest.test_case "proba valid" `Slow test_mlp_proba_valid;
          Alcotest.test_case "Table 5 performance" `Slow test_mlp_table5_performance;
          Alcotest.test_case "Fig 14 error vs naive" `Slow test_mlp_prediction_error_beats_naive;
          Alcotest.test_case "Table 8 fiber-id ablation" `Slow test_mlp_ablation_fiber_id_worst;
          Alcotest.test_case "batch = single" `Slow test_mlp_batch_matches_single;
          Alcotest.test_case "deterministic" `Slow test_mlp_deterministic;
          Alcotest.test_case "invalid input" `Quick test_mlp_invalid_input;
          Alcotest.test_case "nll decreases" `Slow test_mlp_nll_decreases;
        ] );
      ( "mlp golden",
        [
          Alcotest.test_case "IBM react-ibm model" `Slow test_golden_ibm;
          Alcotest.test_case "grid3 and soft finetune" `Slow test_golden_grid3_and_finetune;
          Alcotest.test_case "TWAN every ablation" `Slow test_golden_twan_ablations;
        ] );
      ("mlp kernel", [ QCheck_alcotest.to_alcotest ~long:false prop_kernel_matches_reference ]);
    ]
