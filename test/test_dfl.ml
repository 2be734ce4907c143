(* Decision-focused training: the TE-loss oracle, the perturbation
   gradient estimator, the output-space trainer + distillation, and the
   runtime's online retrain/hot-swap loop. *)

open Prete_net
open Prete_optics
open Prete
open Prete_ml
module Rng = Prete_util.Rng
module Pool = Prete_exec.Pool

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let env = lazy (Availability.make_env (Topology.by_name "grid3"))

let corpus =
  lazy
    (let env = Lazy.force env in
     let topo = env.Availability.ts.Tunnels.topo in
     Corpus.of_dataset (Dataset.generate ~model:env.Availability.model topo))

let mlp =
  lazy
    (Mlp.train
       ~config:{ Mlp.default_config with Mlp.epochs = 3 }
       (Lazy.force corpus).Corpus.train)

let some_features =
  {
    Hazard.fiber = 0;
    region = 0;
    vendor = 0;
    length_km = 120.0;
    time_of_day = 2.0;
    degree = 6.0;
    gradient = 0.2;
    fluctuation = 8;
    duration_s = 60.0;
  }

(* A synthetic quadratic surrogate over [0,1]^n with analytic gradient
   2 a_i (p_i - b_i): the estimator contract says FD is exact on these
   up to rounding. *)
let quadratic ~a ~b p =
  let s = ref 0.0 in
  Array.iteri (fun i pi -> s := !s +. (a.(i) *. (pi -. b.(i)) ** 2.0)) p;
  !s

let grad_quadratic ~a ~b p = Array.mapi (fun i pi -> 2.0 *. a.(i) *. (pi -. b.(i))) p

let random_case seed =
  let rng = Rng.create (seed + 1) in
  let n = 1 + Rng.int rng 8 in
  let a = Array.init n (fun _ -> Rng.uniform rng 0.5 3.0) in
  let b = Array.init n (fun _ -> Rng.float rng) in
  (* Interior point: both probes of the default c = 0.05 stay two-sided. *)
  let p = Array.init n (fun _ -> Rng.uniform rng 0.1 0.9) in
  (a, b, p)

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)
(* ------------------------------------------------------------------ *)

let prop_fd_quadratic =
  QCheck.Test.make ~name:"FD on quadratics: sign agreement, <=10% magnitude"
    ~count:80
    QCheck.(small_int)
    (fun seed ->
      let a, b, p = random_case seed in
      let loss = quadratic ~a ~b in
      let g =
        Dfl.Estimator.estimate ~c:0.02 ~seed ~method_:Dfl.Estimator.Fd ~loss p
      in
      let exact = grad_quadratic ~a ~b p in
      Array.for_all2
        (fun gi ei ->
          if Float.abs ei < 1e-6 then Float.abs gi < 1e-3
          else
            (* Central differences are exact on quadratics, so 10% is a
               loose ceiling; sign must match outright. *)
            gi *. ei > 0.0 && Float.abs (gi -. ei) <= 0.1 *. Float.abs ei)
        g exact)

let test_fd_one_sided_clamp () =
  (* A probe at the boundary goes one-sided but still divides by the
     realized width: the estimate stays finite and sign-correct. *)
  let a = [| 1.0 |] and b = [| 0.5 |] in
  let loss = quadratic ~a ~b in
  let g =
    Dfl.Estimator.estimate ~c:0.1 ~seed:1 ~method_:Dfl.Estimator.Fd ~loss
      [| 0.0 |]
  in
  Alcotest.(check bool) "finite" true (Float.is_finite g.(0));
  Alcotest.(check bool) "descends toward 0.5" true (g.(0) < 0.0)

let test_spsa_1d_exact () =
  (* In one dimension SPSA collapses to a central difference: exact on a
     quadratic regardless of the Rademacher draw. *)
  let a = [| 2.0 |] and b = [| 0.3 |] in
  let loss = quadratic ~a ~b in
  let p = [| 0.6 |] in
  let g =
    Dfl.Estimator.estimate ~c:0.05 ~seed:42
      ~method_:(Dfl.Estimator.Spsa { pairs = 1 })
      ~loss p
  in
  let exact = (grad_quadratic ~a ~b p).(0) in
  Alcotest.(check (float 1e-9)) "exact in 1d" exact g.(0)

let test_spsa_sign_agreement () =
  (* Fixed-seed multi-dimensional case with enough pairs to average the
     cross-coordinate noise below the smallest gradient component. *)
  let a = [| 1.0; 2.0; 1.5 |] and b = [| 0.2; 0.9; 0.5 |] in
  let loss = quadratic ~a ~b in
  let p = [| 0.7; 0.3; 0.8 |] in
  let g =
    Dfl.Estimator.estimate ~c:0.02 ~seed:7
      ~method_:(Dfl.Estimator.Spsa { pairs = 400 })
      ~loss p
  in
  let exact = grad_quadratic ~a ~b p in
  Array.iteri
    (fun i gi ->
      Alcotest.(check bool)
        (Printf.sprintf "sign at %d" i)
        true
        (gi *. exact.(i) > 0.0))
    g

let test_estimator_deterministic () =
  let a, b, p = random_case 99 in
  let loss = quadratic ~a ~b in
  let est seed =
    Dfl.Estimator.estimate ~seed ~method_:(Dfl.Estimator.Spsa { pairs = 3 })
      ~loss p
  in
  Alcotest.(check bool) "same seed, same estimate" true (est 5 = est 5);
  if Array.length p > 1 then
    Alcotest.(check bool) "different seed, different estimate" true (est 5 <> est 6)

let test_estimator_validation () =
  let loss p = p.(0) in
  Alcotest.check_raises "empty vector"
    (Invalid_argument "Dfl.Estimator.estimate: empty vector") (fun () ->
      ignore (Dfl.Estimator.estimate ~seed:1 ~method_:Dfl.Estimator.Fd ~loss [||]));
  Alcotest.check_raises "bad c"
    (Invalid_argument "Dfl.Estimator.estimate: c must be positive") (fun () ->
      ignore
        (Dfl.Estimator.estimate ~c:0.0 ~seed:1 ~method_:Dfl.Estimator.Fd ~loss
           [| 0.5 |]));
  Alcotest.check_raises "bad pairs"
    (Invalid_argument "Dfl.Estimator.estimate: pairs must be positive")
    (fun () ->
      ignore
        (Dfl.Estimator.estimate ~seed:1
           ~method_:(Dfl.Estimator.Spsa { pairs = 0 })
           ~loss [| 0.5 |]))

(* ------------------------------------------------------------------ *)
(* Trainer.tune on synthetic losses (no oracle)                        *)
(* ------------------------------------------------------------------ *)

let tune_cfg =
  { Dfl.Trainer.default_config with Dfl.Trainer.steps = 6; pairs = 2; seed = 11 }

let test_tune_improves_quadratic () =
  let a = [| 1.0; 1.0; 1.0; 1.0 |] and b = [| 0.2; 0.8; 0.5; 0.35 |] in
  let loss = quadratic ~a ~b in
  let q0 = [| 0.6; 0.4; 0.3; 0.7 |] in
  let q, best, calls, trace = Dfl.Trainer.tune tune_cfg ~loss q0 in
  Alcotest.(check bool) "improved" true (best < loss q0);
  Alcotest.(check bool) "best matches returned point" true
    (Float.abs (best -. loss q) < 1e-12);
  Alcotest.(check bool) "calls counted" true (calls > 0);
  (* The trace is (step, loss) at init plus each accepted step, strictly
     decreasing. *)
  let rec decreasing = function
    | (_, l1) :: ((_, l2) :: _ as rest) -> l1 > l2 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "trace decreasing" true (decreasing trace);
  Alcotest.(check bool) "trace starts at step 0" true
    (match trace with (0, _) :: _ -> true | _ -> false)

let test_tune_never_regresses () =
  (* A hostile loss surface: tune must return something no worse than
     the (clamped) start. *)
  let rng = Rng.create 4 in
  let noise = Array.init 64 (fun _ -> Rng.float rng) in
  let loss p =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i pi -> noise.(i mod 64) *. Float.abs (pi -. 0.5)) p)
  in
  let q0 = [| 0.1; 0.9; 0.5 |] in
  let _, best, _, _ = Dfl.Trainer.tune tune_cfg ~loss q0 in
  Alcotest.(check bool) "no regression" true (best <= loss (Array.map (fun x -> x) q0) +. 1e-9)

let test_tune_deterministic () =
  let a = [| 1.5; 0.7 |] and b = [| 0.25; 0.75 |] in
  let loss = quadratic ~a ~b in
  let q0 = [| 0.5; 0.5 |] in
  let r1 = Dfl.Trainer.tune tune_cfg ~loss q0 in
  let r2 = Dfl.Trainer.tune tune_cfg ~loss q0 in
  Alcotest.(check bool) "bit-identical" true (r1 = r2)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let test_oracle_shape_and_calls () =
  let env = Lazy.force env in
  Pool.with_pool ~domains:1 (fun pool ->
      let o = Dfl.Oracle.create ~pool ~scale:2.0 env in
      let nf =
        Topology.num_fibers env.Availability.ts.Tunnels.topo
      in
      Alcotest.(check int) "dim = fibers" nf (Dfl.Oracle.dim o);
      Alcotest.(check int) "events per fiber" nf
        (Array.length (Dfl.Oracle.events o));
      Array.iteri
        (fun i f -> Alcotest.(check int) "event fiber id" i f.Hazard.fiber)
        (Dfl.Oracle.events o);
      Alcotest.(check int) "no calls yet" 0 (Dfl.Oracle.calls o);
      let probs = Array.make nf 0.4 in
      let av = Dfl.Oracle.availability o probs in
      Alcotest.(check bool) "availability in [0,1]" true (av >= 0.0 && av <= 1.0);
      let l = Dfl.Oracle.loss o probs in
      Alcotest.(check (float 1e-12)) "loss = 1 - availability" (1.0 -. av) l;
      Alcotest.(check int) "calls counted" 2 (Dfl.Oracle.calls o);
      Alcotest.check_raises "wrong dimension"
        (Invalid_argument "Dfl.Oracle: probability vector has wrong dimension")
        (fun () -> ignore (Dfl.Oracle.availability o [| 0.5 |])))

let test_oracle_pure_in_probs () =
  (* The anchored warm start makes the oracle a pure function of the
     probability vector: re-evaluating the same vector — on the same
     oracle or a fresh one — reproduces the value bit-for-bit, first
     call included. *)
  let env = Lazy.force env in
  Pool.with_pool ~domains:1 (fun pool ->
      let nf = Topology.num_fibers env.Availability.ts.Tunnels.topo in
      let probs = Array.init nf (fun i -> 0.1 +. (0.05 *. float_of_int (i mod 5))) in
      let o1 = Dfl.Oracle.create ~pool ~scale:2.0 env in
      let first = Dfl.Oracle.availability o1 probs in
      let again = Dfl.Oracle.availability o1 probs in
      Alcotest.(check (float 0.0)) "re-evaluation identical" first again;
      let o2 = Dfl.Oracle.create ~pool ~scale:2.0 env in
      Alcotest.(check (float 0.0))
        "fresh oracle agrees" first
        (Dfl.Oracle.availability o2 probs))

(* ------------------------------------------------------------------ *)
(* Model fine-tuning primitives                                        *)
(* ------------------------------------------------------------------ *)

let test_mlp_finetune_tracks_targets () =
  let m = Lazy.force mlp in
  let c = Lazy.force corpus in
  let feats =
    Array.sub (Array.map (fun e -> e.Corpus.features) c.Corpus.train) 0 6
  in
  let goal = [| 0.9; 0.1; 0.8; 0.2; 0.7; 0.3 |] in
  let before = Array.map (Mlp.predict_proba m) feats in
  let targets = Array.map2 (fun f q -> (f, q)) feats goal in
  let m' = Mlp.finetune ~epochs:400 m ~targets in
  let after = Array.map (Mlp.predict_proba m') feats in
  (* The source model is never mutated. *)
  Alcotest.(check bool) "source unchanged" true
    (before = Array.map (Mlp.predict_proba m) feats);
  let err xs =
    Array.fold_left ( +. ) 0.0
      (Array.map2 (fun p q -> Float.abs (p -. q)) xs goal)
  in
  Alcotest.(check bool) "outputs moved toward targets" true
    (err after < err before)

let test_mlp_finetune_rejects () =
  let m = Lazy.force mlp in
  let f = (Lazy.force corpus).Corpus.train.(0).Corpus.features in
  Alcotest.check_raises "empty target set"
    (Invalid_argument "Mlp.finetune: empty target set") (fun () ->
      ignore (Mlp.finetune m ~targets:[||]));
  Alcotest.check_raises "target outside [0,1]"
    (Invalid_argument "Mlp.finetune: target outside [0, 1]") (fun () ->
      ignore (Mlp.finetune m ~targets:[| (f, 1.5) |]))

(* ------------------------------------------------------------------ *)
(* End-to-end trainer: bit-identical at any domain count               *)
(* ------------------------------------------------------------------ *)

let test_trainer_bit_identical_across_domains () =
  let env = Lazy.force env in
  let m = Lazy.force mlp in
  let cfg =
    { Dfl.Trainer.default_config with Dfl.Trainer.steps = 1; pairs = 1; seed = 3 }
  in
  let go domains =
    Pool.with_pool ~domains (fun pool ->
        let oracle = Dfl.Oracle.create ~pool ~scale:2.0 env in
        let m', report = Dfl.Trainer.finetune_mlp ~config:cfg ~oracle m in
        let outs = Array.map (Mlp.predict_proba m') (Dfl.Oracle.events oracle) in
        (report, outs))
  in
  let r1, o1 = go 1 in
  let r4, o4 = go 4 in
  Alcotest.(check bool) "report bit-identical at 1 vs 4 domains" true (r1 = r4);
  Alcotest.(check bool) "model outputs bit-identical" true (o1 = o4);
  Alcotest.(check bool) "tuned never worse than initial" true
    (r1.Dfl.Trainer.tuned_loss <= r1.Dfl.Trainer.initial_loss);
  (* The guard: a kept model's distilled loss beats the warm start;
     otherwise the warm start itself is returned. *)
  if r1.Dfl.Trainer.kept then
    Alcotest.(check bool) "kept only when distillation held" true
      (r1.Dfl.Trainer.distilled_loss < r1.Dfl.Trainer.initial_loss)

(* ------------------------------------------------------------------ *)
(* Predictor: hot swap under concurrent predicts                       *)
(* ------------------------------------------------------------------ *)

let test_swap_under_concurrent_predicts () =
  let server =
    Prete_rt.Predictor.create ~fallback:(fun _ -> 0.5) (fun _ -> 0.3)
  in
  let n_workers = 3 and per_worker = 20_000 and n_swaps = 16 in
  let bad = Atomic.make 0 in
  let workers =
    List.init n_workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_worker do
              let p, fell_back = Prete_rt.Predictor.predict server some_features in
              (* Every answer comes from a live model version — never the
                 fallback, never a torn value. *)
              if fell_back || not (p = 0.3 || p = 0.7) then Atomic.incr bad
            done))
  in
  for i = 1 to n_swaps do
    Prete_rt.Predictor.swap
      ~name:(Printf.sprintf "dfl-v%d" i)
      server
      (fun _ -> if i mod 2 = 0 then 0.3 else 0.7)
  done;
  List.iter Domain.join workers;
  let served, fell_back, swaps = Prete_rt.Predictor.stats server in
  Alcotest.(check int) "every predict served" (n_workers * per_worker) served;
  Alcotest.(check int) "no fallback spike during swaps" 0 fell_back;
  Alcotest.(check int) "all swaps recorded" n_swaps swaps;
  Alcotest.(check int) "no torn predictions" 0 (Atomic.get bad);
  Alcotest.(check string)
    "latest version serving"
    (Printf.sprintf "dfl-v%d" n_swaps)
    (Prete_rt.Predictor.version server)

(* ------------------------------------------------------------------ *)
(* Runtime config: retrain dump/replay tolerance                       *)
(* ------------------------------------------------------------------ *)

(* A [{"config": ...}] dump of [cfg], read back. *)
let config_dump cfg =
  Prete_util.Json.Object [ ("config", Prete_rt.Runtime.config_to_json cfg) ]

let config_back dump =
  match Prete_rt.Runtime.config_of_dump dump with
  | Ok (cfg, _) -> cfg
  | Error e -> Alcotest.failf "config_of_dump: %s" e

let test_retrain_config_roundtrip () =
  let rc =
    { Prete_rt.Runtime.rt_every = 5; rt_steps = 3; rt_pairs = 2; rt_min_events = 4 }
  in
  let cfg = { Prete_rt.Runtime.default_config with Prete_rt.Runtime.retrain = Some rc } in
  let back = config_back (config_dump cfg) in
  Alcotest.(check bool) "retrain roundtrips" true (back.Prete_rt.Runtime.retrain = Some rc);
  (* Off serializes as retrain_every 0 and parses back off. *)
  let off = config_back (config_dump Prete_rt.Runtime.default_config) in
  Alcotest.(check bool) "off roundtrips" true (off.Prete_rt.Runtime.retrain = None)

(* Drop config fields from a [{"config": ...}] dump. *)
let strip_fields dump keys =
  let module J = Prete_util.Json in
  match dump with
  | J.Object [ ("config", J.Object ms) ] ->
    J.Object [ ("config", J.Object (List.filter (fun (k, _) -> not (List.mem k keys)) ms)) ]
  | _ -> Alcotest.fail "not a config dump"

let test_retrain_legacy_dump_parses_off () =
  let legacy =
    strip_fields (config_dump Prete_rt.Runtime.default_config)
      [ "retrain_every"; "retrain_steps"; "retrain_pairs"; "retrain_min_events" ]
  in
  Alcotest.(check bool) "fields gone" true
    (Option.bind (Prete_util.Json.member "config" legacy)
       (Prete_util.Json.member "retrain_every")
    = None);
  let back = config_back legacy in
  Alcotest.(check bool) "legacy dump parses as off" true
    (back.Prete_rt.Runtime.retrain = None)

let test_retrain_shard_invariant () =
  (* The online retrain loop is part of the deterministic core: the same
     armed config must produce byte-identical cores — retrains counter
     included — at any (shards x domains) combination. *)
  let cfg =
    {
      Prete_rt.Runtime.default_config with
      Prete_rt.Runtime.topology = "grid3";
      epochs = 8;
      seed = 3;
      predictor = Prete_rt.Runtime.Nn 2;
      retrain =
        Some
          {
            Prete_rt.Runtime.rt_every = 4;
            rt_steps = 1;
            rt_pairs = 1;
            rt_min_events = 1;
          };
    }
  in
  let run ~domains ~shards =
    Pool.with_pool ~domains (fun pool ->
        Prete_rt.Shard.run ~pool { cfg with Prete_rt.Runtime.shards })
  in
  let r1 = run ~domains:1 ~shards:1 in
  let retrains =
    Prete_rt.Metrics.counter r1.Prete_rt.Shard.s_metrics "retrains"
  in
  Alcotest.(check bool) "retrain fired" true (retrains >= 1);
  let r2 = run ~domains:2 ~shards:2 in
  Alcotest.(check bool)
    "core bit-identical at 2 shards x 2 domains" true
    (String.equal
       (Prete_rt.Shard.deterministic_core r1)
       (Prete_rt.Shard.deterministic_core r2))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_dfl"
    [
      ("estimator.props", qsuite [ prop_fd_quadratic ]);
      ( "estimator",
        [
          Alcotest.test_case "FD one-sided clamp" `Quick test_fd_one_sided_clamp;
          Alcotest.test_case "SPSA exact in 1d" `Quick test_spsa_1d_exact;
          Alcotest.test_case "SPSA sign agreement" `Quick test_spsa_sign_agreement;
          Alcotest.test_case "deterministic" `Quick test_estimator_deterministic;
          Alcotest.test_case "validation" `Quick test_estimator_validation;
        ] );
      ( "tune",
        [
          Alcotest.test_case "improves a quadratic" `Quick test_tune_improves_quadratic;
          Alcotest.test_case "never regresses" `Quick test_tune_never_regresses;
          Alcotest.test_case "deterministic" `Quick test_tune_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "shape and call accounting" `Slow test_oracle_shape_and_calls;
          Alcotest.test_case "pure in probs" `Slow test_oracle_pure_in_probs;
        ] );
      ( "finetune",
        [
          Alcotest.test_case "mlp tracks targets" `Slow test_mlp_finetune_tracks_targets;
          Alcotest.test_case "mlp rejects bad targets" `Quick test_mlp_finetune_rejects;
          Alcotest.test_case "bit-identical at 1 vs 4 domains" `Slow
            test_trainer_bit_identical_across_domains;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "swap under concurrent predicts" `Quick
            test_swap_under_concurrent_predicts;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "retrain config roundtrip" `Quick
            test_retrain_config_roundtrip;
          Alcotest.test_case "legacy dump parses off" `Quick
            test_retrain_legacy_dump_parses_off;
          Alcotest.test_case "retrain shard-invariant" `Slow
            test_retrain_shard_invariant;
        ] );
    ]
