(* PreTE benchmark harness: regenerates every table and figure of the
   paper's measurement and evaluation sections (see DESIGN.md for the
   per-experiment index), plus Bechamel micro-benchmarks of the hot
   kernels.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --only fig13,table4
     dune exec bench/main.exe -- --quick      -- smaller grids
     dune exec bench/main.exe -- --kernels    -- micro-benchmarks only *)

open Prete
open Prete_net
open Prete_optics
open Prete_util

let quick = ref false

(* The dense-tableau oracle leg of lp_scale is opt-in: it adds minutes at
   full sizes while the LU engine is the one every production path uses.
   CI keeps it on at the --quick sizes (see bench/dune). *)
let dense_oracle = ref false

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

(* ------------------------------------------------------------------ *)
(* Shared fixtures (lazy; computed once per run)                        *)
(* ------------------------------------------------------------------ *)

let twan_dataset =
  lazy
    (let topo = Topology.twan () in
     let model = Fiber_model.generate topo in
     (topo, model, Dataset.generate ~model ~horizon_days:365 topo))

let twan_corpus = lazy (let _, _, ds = Lazy.force twan_dataset in Prete_ml.Corpus.of_dataset ds)

let nn_epochs () = if !quick then 10 else 25

let twan_nn =
  lazy
    (let c = Lazy.force twan_corpus in
     Prete_ml.Mlp.train
       ~config:{ Prete_ml.Mlp.default_config with Prete_ml.Mlp.epochs = nn_epochs () }
       c.Prete_ml.Corpus.train)

(* Per-topology availability environment plus an NN trained on that
   topology's own synthetic telemetry (fiber-id embeddings are
   topology-specific). *)
let make_bundle topo_name =
  let topo = Topology.by_name topo_name in
  let env = Availability.make_env topo in
  let ds = Dataset.generate ~model:env.Availability.model ~horizon_days:365 topo in
  let corpus = Prete_ml.Corpus.of_dataset ds in
  let nn =
    Prete_ml.Mlp.train
      ~config:{ Prete_ml.Mlp.default_config with Prete_ml.Mlp.epochs = nn_epochs () }
      corpus.Prete_ml.Corpus.train
  in
  (env, ds, corpus, nn)

let bundle_cache : (string, Availability.env * Dataset.t * Prete_ml.Corpus.t * Prete_ml.Mlp.t) Hashtbl.t =
  Hashtbl.create 4

let bundle name =
  match Hashtbl.find_opt bundle_cache name with
  | Some b -> b
  | None ->
    let b = make_bundle name in
    Hashtbl.add bundle_cache name b;
    b

let nn_predictor nn f = Prete_ml.Mlp.predict_proba nn f

let fig13_scales () =
  if !quick then [| 1.0; 2.0; 3.5; 5.0 |] else [| 1.0; 1.5; 2.0; 2.5; 3.0; 4.0; 5.0; 6.0 |]

let fig13_schemes nn =
  [
    Schemes.Ecmp;
    Schemes.Smore;
    Schemes.Ffc 1;
    Schemes.Ffc 2;
    Schemes.Teavar;
    Schemes.Arrow;
    Schemes.Flexile;
    Schemes.prete_default ~predictor:(nn_predictor nn) ();
    Schemes.Oracle;
  ]

(* Fig. 13 curves are reused by Table 4, so cache them. *)
let fig13_cache : (string, (string * (float * float) array) list) Hashtbl.t =
  Hashtbl.create 4

let fig13_curves topo_name =
  match Hashtbl.find_opt fig13_cache topo_name with
  | Some c -> c
  | None ->
    let env, _, _, nn = bundle topo_name in
    let scales = fig13_scales () in
    let curves =
      List.map
        (fun s ->
          let t0 = Unix.gettimeofday () in
          let curve = Availability.availability_curve env s ~scales in
          Printf.printf "  [%s] %-11s computed in %.1f s\n%!" topo_name (Schemes.name s)
            (Unix.gettimeofday () -. t0);
          (Schemes.name s, curve))
        (fig13_schemes nn)
    in
    Hashtbl.add fig13_cache topo_name curves;
    curves

(* ------------------------------------------------------------------ *)
(* Measurement-section experiments                                      *)
(* ------------------------------------------------------------------ *)

let fig1a () =
  section "Fig. 1a — transmission loss of four fibers that encounter cuts";
  let topo, _, ds = Lazy.force twan_dataset in
  (* Pick four fibers with a predictable cut and synthesize the trace
     around the event. *)
  let events =
    Array.to_list ds.Dataset.degradations
    |> List.filter (fun d -> d.Dataset.led_to_cut)
    |> List.filteri (fun i _ -> i < 4)
  in
  List.iter
    (fun (d : Dataset.degradation) ->
      let baseline = Telemetry.baseline_loss topo d.Dataset.d_fiber in
      let cut_at = 60 + int_of_float d.Dataset.gap_to_cut_s in
      let tr =
        Telemetry.synthesize ~seed:d.Dataset.d_fiber ~baseline ~healthy_s:60
          ~degradation:d.Dataset.features ~cut_at_s:cut_at ~total_s:(cut_at + 120) ()
      in
      let states = Telemetry.states tr in
      let count st = Array.fold_left (fun a s -> if s = st then a + 1 else a) 0 states in
      Printf.printf
        "fiber %2d: baseline %.1f dB | healthy %ds, degraded %ds (degree %.1f dB), cut at t=%ds (loss +%.0f dB)\n"
        d.Dataset.d_fiber baseline (count Telemetry.Healthy) (count Telemetry.Degraded)
        d.Dataset.features.Hazard.degree cut_at
        (Telemetry.cut_threshold +. 8.0))
    events;
  Printf.printf "(cuts are rare: %.2f per fiber-week on average across the year)\n"
    (float_of_int (Array.length ds.Dataset.cuts)
    /. float_of_int (Topology.num_fibers topo)
    /. 52.0)

let fig1b () =
  section "Fig. 1b — CDF of IP capacity lost per fiber cut (three regions)";
  Printf.printf "%-6s %8s %8s %8s %8s %8s\n" "topo" "p10" "median" "p90" "max" ">=4Tbps";
  List.iter
    (fun topo ->
      let losses =
        Array.init (Topology.num_fibers topo) (fun f ->
            Topology.capacity_lost_on_cut topo f /. 1000.0 (* Tbps *))
      in
      Printf.printf "%-6s %7.2fT %7.2fT %7.2fT %7.2fT %7.0f%%\n" topo.Topology.name
        (Stats.percentile losses 10.0) (Stats.median losses) (Stats.percentile losses 90.0)
        (snd (Stats.min_max losses))
        (100.0 *. (1.0 -. Stats.cdf_at losses 4.0)))
    (Topology.all ())

let fig1c () =
  section "Fig. 1c — flows / tunnels affected by a single fiber cut";
  Printf.printf "%-6s %14s %14s\n" "topo" "flows affected" "tunnels affected";
  List.iter
    (fun topo ->
      let traffic = Traffic.generate topo in
      let ts = Tunnels.build topo traffic.Traffic.pairs in
      let f_fr = ref [] and t_fr = ref [] in
      for fb = 0 to Topology.num_fibers topo - 1 do
        let ff, tf = Tunnels.affected_fraction ts fb in
        f_fr := ff :: !f_fr;
        t_fr := tf :: !t_fr
      done;
      Printf.printf "%-6s %13.0f%% %13.0f%%\n" topo.Topology.name
        (100.0 *. Stats.mean (Array.of_list !f_fr))
        (100.0 *. Stats.mean (Array.of_list !t_fr)))
    (Topology.all ());
  Printf.printf "(paper, B4: 33%% of flows, 13%% of tunnels)\n"

let fig4a () =
  section "Fig. 4a — length distribution of fiber degradations";
  let _, _, ds = Lazy.force twan_dataset in
  let durations = Dataset.durations ds in
  Printf.printf "events: %d\n" (Array.length durations);
  List.iter
    (fun p ->
      Printf.printf "  p%-3.0f %8.1f s\n" p (Stats.percentile durations p))
    [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0 ];
  Printf.printf "  fraction under 10 s: %.0f%% (paper: 50%%)\n"
    (100.0 *. Stats.cdf_at durations 10.0)

let fig4b () =
  section "Fig. 4b — a degradation preceding a cut; 3-minute polling misses it";
  let topo, _, _ = Lazy.force twan_dataset in
  let rng = Rng.create 404 in
  let f = { (Hazard.sample_features rng ~topo ~fiber:1 ~epoch:0) with
            Hazard.degree = 6.0; Hazard.duration_s = 45.0 } in
  let baseline = Telemetry.baseline_loss topo 1 in
  let tr =
    Telemetry.synthesize ~baseline ~healthy_s:65 ~degradation:f ~cut_at_s:110
      ~total_s:400 ()
  in
  Printf.printf "1 Hz telemetry: healthy 0-65 s, degraded 65-110 s, cut 110-400 s\n";
  Printf.printf "degradation visible at 1 s polling:   %b\n"
    (Telemetry.degradation_visible ~granularity_s:1 tr);
  Printf.printf "degradation visible at 180 s polling: %b\n"
    (Telemetry.degradation_visible ~granularity_s:180 tr);
  Printf.printf "180 s observer sees:";
  Array.iter
    (fun (t, st) ->
      Printf.printf " t=%.0fs:%s" t
        (match st with
        | Telemetry.Healthy -> "healthy"
        | Telemetry.Degraded -> "DEGRADED"
        | Telemetry.Cut -> "CUT"))
    (Telemetry.observed_states ~granularity_s:180 tr);
  print_newline ()

let fig5a () =
  section "Fig. 5a — time from degradation to the next cut";
  let _, _, ds = Lazy.force twan_dataset in
  let gaps = Dataset.gaps_to_next_cut ds in
  List.iter
    (fun t ->
      Printf.printf "  <= %8.0f s: %5.1f%%\n" t (100.0 *. Stats.cdf_at gaps t))
    [ 10.0; 100.0; 300.0; 1000.0; 10000.0; 86400.0 ];
  Printf.printf "  beyond one day: %.1f%% (paper: ~20%%; 60%% within 1e3 s)\n"
    (100.0 *. (1.0 -. Stats.cdf_at gaps 86400.0))

let fig5b () =
  section "Fig. 5b — normalized number of fiber events";
  let _, _, ds = Lazy.force twan_dataset in
  let cuts = float_of_int (Array.length ds.Dataset.cuts) in
  let degr = float_of_int (Array.length ds.Dataset.degradations) in
  let pred = float_of_int (Dataset.num_predictable ds) in
  Printf.printf "  fiber cuts        %.2f (normalized 1.00)\n" 1.0;
  Printf.printf "  degradations      %.2f\n" (degr /. cuts);
  Printf.printf "  predictable cuts  %.2f (paper: ~0.25)\n" (pred /. cuts);
  Printf.printf "  P(cut | degradation) = %.2f (paper: ~0.40)\n"
    (Dataset.hazard_fraction ds)

let fig6 () =
  section "Fig. 6 — failure proportion vs critical features";
  let _, _, ds = Lazy.force twan_dataset in
  let binned which bins =
    let values, outcomes = Dataset.feature_outcome ds which in
    let lo, hi = Stats.min_max values in
    let pos = Array.make bins 0 and tot = Array.make bins 0 in
    Array.iteri
      (fun i v ->
        let b = Stats.equal_width_bins ~bins ~lo ~hi v in
        tot.(b) <- tot.(b) + 1;
        if outcomes.(i) then pos.(b) <- pos.(b) + 1)
      values;
    (lo, hi, pos, tot)
  in
  List.iter
    (fun (name, which, bins) ->
      let lo, hi, pos, tot = binned which bins in
      Printf.printf "%s (range %.2f .. %.2f):\n " name lo hi;
      Array.iteri
        (fun b p ->
          if tot.(b) > 0 then
            Printf.printf " %2.0f%%" (100.0 *. float_of_int p /. float_of_int tot.(b))
          else Printf.printf "   -")
        pos;
      print_newline ())
    [ ("time of day", `Time, 12); ("degree (dB)", `Degree, 7);
      ("gradient", `Gradient, 8); ("fluctuation", `Fluctuation, 8) ]

let table1 () =
  section "Table 1 — chi-square tests on critical features";
  let _, _, ds = Lazy.force twan_dataset in
  Printf.printf "%-12s %-12s %s\n" "feature" "p-value" "verdict";
  List.iter
    (fun (name, which) ->
      let values, outcomes = Dataset.feature_outcome ds which in
      let r = Hypothesis.chi2_binned ~bins:10 ~values ~outcomes in
      Printf.printf "%-12s %-12.2e %s\n" name r.Hypothesis.p_value
        (if Hypothesis.reject r then "rejected (feature matters)" else "not rejected"))
    [ ("gradient", `Gradient); ("time", `Time); ("degree", `Degree);
      ("fluctuation", `Fluctuation) ];
  Printf.printf "(paper: 1.1e-7, 1e-6, 2.2e-13, 1e-11 — all rejected at 0.01)\n"

let table3 () =
  section "Table 3 — topologies";
  Printf.printf "%-6s %7s %9s %9s %8s %15s\n" "topo" "fibers" "IP links" "tunnels" "flows" "traffic matrices";
  List.iter
    (fun topo ->
      let traffic = Traffic.generate topo in
      let ts = Tunnels.build topo traffic.Traffic.pairs in
      Printf.printf "%-6s %7d %9d %9d %8d %15d\n" topo.Topology.name
        (Topology.num_fibers topo)
        (Topology.num_links topo / 2)
        (Array.length ts.Tunnels.tunnels)
        (Array.length ts.Tunnels.flows)
        (Array.length traffic.Traffic.matrices))
    (Topology.all ())

let table6 () =
  section "Table 6/7 — epoch contingency of degradations and cuts";
  let _, _, ds = Lazy.force twan_dataset in
  let tbl = Dataset.epoch_contingency ds in
  Printf.printf "                 #degradation   #no degradation\n";
  Printf.printf "  #failure      %10.0f %16.0f\n" tbl.(0).(0) tbl.(0).(1);
  Printf.printf "  #no failure   %10.0f %16.0f\n" tbl.(1).(0) tbl.(1).(1);
  let r = Hypothesis.chi2_contingency tbl in
  Printf.printf "chi-square %.1f, log10 p = %.0f => %s (paper: p < 1e-50)\n"
    r.Hypothesis.statistic r.Hypothesis.log10_p
    (if Hypothesis.reject r then "dependence confirmed" else "independent");
  (* Table 7: expected counts under independence (null not rejected). *)
  let total = tbl.(0).(0) +. tbl.(0).(1) +. tbl.(1).(0) +. tbl.(1).(1) in
  let row0 = tbl.(0).(0) +. tbl.(0).(1) and col0 = tbl.(0).(0) +. tbl.(1).(0) in
  Printf.printf "Under independence the joint cell would hold %.1f epochs (observed %.0f)\n"
    (row0 *. col0 /. total) tbl.(0).(0)

let fig10 () =
  section "Fig. 10/§5 — testbed scenario: healthy -> degraded -> cut";
  let topo, _, _ = Lazy.force twan_dataset in
  let rng = Rng.create 42 in
  let f = { (Hazard.sample_features rng ~topo ~fiber:0 ~epoch:0) with
            Hazard.degree = 5.5; Hazard.duration_s = 45.0; Hazard.gradient = 0.08;
            Hazard.fluctuation = 6 } in
  let baseline = Telemetry.baseline_loss topo 0 in
  let tr =
    Telemetry.synthesize ~baseline ~healthy_s:65 ~degradation:f ~cut_at_s:110
      ~total_s:400 ()
  in
  let states = Telemetry.states tr in
  let first st =
    let rec go i = if i >= Array.length states then -1 else if states.(i) = st then i else go (i + 1) in
    go 0
  in
  Printf.printf "VOA-emulated event on a %.0f dB-baseline span:\n" baseline;
  Printf.printf "  degradation detected at t = %d s (ground truth 65 s)\n"
    (first Telemetry.Degraded);
  Printf.printf "  cut detected at t = %d s (ground truth 110 s)\n" (first Telemetry.Cut)

let fig11 () =
  section "Fig. 11 — controller pipeline latency (testbed)";
  let env, _, _, nn = bundle "B4" in
  let topo = env.Availability.ts.Tunnels.topo in
  let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:12 in
  let events = Array.sub env.Availability.degr_events 0 8 in
  let update = Tunnel_update.react env.Availability.ts ~degraded_fiber:3 () in
  let probs =
    Calibrate.probabilities
      (Calibrate.Calibrated (nn_predictor nn))
      env.Availability.model
      { Calibrate.degraded = [ (3, env.Availability.degr_events.(3)) ]; Calibrate.will_cut = [] }
  in
  let merged = Tunnel_update.merged update in
  let (), report =
    Controller.run
      ~infer:(fun () -> ignore (Prete_ml.Mlp.predict_batch nn events))
      ~regen:(fun () -> ignore (Scenario.enumerate ~probs ()))
      ~te:(fun () ->
        ignore
          (Te.solve ~relaxation_start:false
             (Te.make_problem ~ts:merged ~demands ~probs ~beta:0.999 ())))
      ~n_new_tunnels:(Tunnel_update.num_new update)
      ()
  in
  Printf.printf "(a) pipeline timeline for a degradation on fiber 3 of %s:\n"
    topo.Topology.name;
  List.iter
    (fun t ->
      Printf.printf "  %-24s start %7.3f s   duration %7.3f s%s\n"
        (Controller.stage_name t.Controller.stage)
        t.Controller.start_s t.Controller.duration_s
        (match t.Controller.stage with
        | Controller.Detection | Controller.Tunnel_update -> "  [testbed constant]"
        | _ -> "  [measured]"))
    report.Controller.timeline;
  Printf.printf "  end-to-end: %.2f s (software stages excl. tunnel install: %.3f s)\n"
    report.Controller.end_to_end_s
    (report.Controller.end_to_end_s
    -. Controller.tunnel_update_time (Tunnel_update.num_new update));
  Printf.printf "(b) tunnel-update time (linear model and switch simulation):\n";
  Printf.printf "  %8s %10s %12s %12s\n" "tunnels" "linear" "simulated" "batch of 12";
  let serialized =
    Switchsim.fig11b_curve env.Availability.ts ~counts:[ 1; 5; 10; 20; 50; 100 ]
  in
  let batched =
    Switchsim.fig11b_curve ~batch:12 env.Availability.ts ~counts:[ 1; 5; 10; 20; 50; 100 ]
  in
  List.iter2
    (fun (n, t1) (_, t2) ->
      Printf.printf "  %8d %8.2f s %10.2f s %10.2f s\n" n
        (Controller.tunnel_update_time n) t1 t2)
    serialized batched;
  Printf.printf "  (paper: ~5 s for 20 tunnels serialized, linear; batching is the §5 mitigation)\n"

let fig12 () =
  section "Fig. 12 — degradation/cut linearity and degradation-probability CDF";
  let _, _, ds = Lazy.force twan_dataset in
  let counts = Dataset.per_fiber_counts ds in
  let xs = Array.map (fun (d, _) -> float_of_int d) counts in
  let ys = Array.map (fun (_, c) -> float_of_int c) counts in
  let slope, intercept = Stats.linear_fit xs ys in
  Printf.printf "(a) cuts vs degradations per fiber: slope %.2f, intercept %.2f, r = %.3f\n"
    slope intercept (Stats.pearson xs ys);
  Printf.printf "    (generative slope h/alpha = 1.6)\n";
  let model = Fiber_model.generate (Topology.twan ()) in
  let pd = model.Fiber_model.p_degrade in
  Printf.printf "(b) degradation probability across fibers (Weibull shape 0.8 scale 0.002):\n";
  List.iter
    (fun p -> Printf.printf "    p%-3.0f %.5f\n" p (Stats.percentile pd p))
    [ 10.0; 50.0; 90.0; 99.0 ];
  let fitted = Dist.Weibull.fit_mle pd in
  Printf.printf "    MLE fit of the generated values: shape %.2f scale %.4f\n"
    fitted.Dist.Weibull.shape fitted.Dist.Weibull.scale

(* ------------------------------------------------------------------ *)
(* Evaluation-section experiments                                       *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Fig. 13 — availability vs demand scale (all schemes, all topologies)";
  let scales = fig13_scales () in
  List.iter
    (fun topo_name ->
      let curves = fig13_curves topo_name in
      Printf.printf "\n[%s] availability %% by demand scale:\n" topo_name;
      Printf.printf "%-12s" "scheme";
      Array.iter (fun s -> Printf.printf " %8.1fx" s) scales;
      print_newline ();
      List.iter
        (fun (name, curve) ->
          Printf.printf "%-12s" name;
          Array.iter (fun (_, a) -> Printf.printf " %9.4f" (100.0 *. a)) curve;
          print_newline ())
        curves)
    [ "IBM"; "B4"; "TWAN" ]

let table4 () =
  section "Table 4 — PreTE's satisfied-demand gain on IBM";
  let curves = fig13_curves "IBM" in
  let curve name = List.assoc name curves in
  let prete = curve "PreTE" in
  Printf.printf "%-14s" "availability";
  List.iter (fun n -> Printf.printf " %9s" n) [ "Flexile"; "FFC-1"; "FFC-2"; "TeaVar"; "ARROW" ];
  print_newline ();
  List.iter
    (fun target ->
      Printf.printf "%-14s" (Printf.sprintf "%.2f%%" (100.0 *. target));
      let prete_scale = Availability.max_scale_at prete ~target in
      List.iter
        (fun name ->
          let s = Availability.max_scale_at (curve name) ~target in
          if s <= 0.0 || prete_scale <= 0.0 then Printf.printf " %9s" "NA"
          else Printf.printf " %8.1fx" (prete_scale /. s))
        [ "Flexile"; "FFC-1"; "FFC-2"; "TeaVar"; "ARROW" ];
      Printf.printf "   (PreTE sustains %.1fx)\n" prete_scale)
    [ 0.9995; 0.999; 0.995; 0.99 ];
  Printf.printf "(paper, 99%%: Flexile 1.5x  FFC-1 3.4x  FFC-2 2.4x  TeaVar 2.4x  ARROW 2.8x)\n"

let table5 () =
  section "Table 5 — failure-prediction accuracy";
  let _, model, _ = Lazy.force twan_dataset in
  let corpus = Lazy.force twan_corpus in
  let eval name predict =
    let c = Prete_ml.Metrics.evaluate ~predict corpus.Prete_ml.Corpus.test in
    Printf.printf "%-10s P %.2f   R %.2f\n" name (Prete_ml.Metrics.precision c)
      (Prete_ml.Metrics.recall c)
  in
  let naive = Prete_ml.Baselines.naive_train model in
  eval "TeaVar" (Prete_ml.Baselines.naive_label naive);
  let st = Prete_ml.Baselines.statistic_train (Lazy.force twan_corpus).Prete_ml.Corpus.train in
  eval "Statistic" (Prete_ml.Baselines.statistic_label st);
  let dt = Prete_ml.Dtree.train (Lazy.force twan_corpus).Prete_ml.Corpus.train in
  eval "DT" (Prete_ml.Dtree.predict_label dt);
  eval "NN (ours)" (Prete_ml.Mlp.predict_label (Lazy.force twan_nn));
  Printf.printf "(paper: TeaVar ~0/~0, Statistic .45/.37, DT .68/.53, NN .81/.81)\n"

let fig14 () =
  section "Fig. 14 — prediction-error distribution (|p_hat - p*|)";
  let _, model, _ = Lazy.force twan_dataset in
  let corpus = Lazy.force twan_corpus in
  let nn = Lazy.force twan_nn in
  let actual =
    Array.map (fun (e : Prete_ml.Corpus.example) -> e.Prete_ml.Corpus.true_hazard)
      corpus.Prete_ml.Corpus.test
  in
  let report name predicted =
    let errs = Array.mapi (fun i p -> Float.abs (p -. actual.(i))) predicted in
    Printf.printf "%-8s mean %.3f   median %.3f   p90 %.3f\n" name (Stats.mean errs)
      (Stats.median errs) (Stats.percentile errs 90.0)
  in
  report "PreTE"
    (Array.map
       (fun (e : Prete_ml.Corpus.example) ->
         Prete_ml.Mlp.predict_proba nn e.Prete_ml.Corpus.features)
       corpus.Prete_ml.Corpus.test);
  let naive = Prete_ml.Baselines.naive_train model in
  report "TeaVar"
    (Array.map
       (fun (e : Prete_ml.Corpus.example) ->
         Prete_ml.Baselines.naive_proba naive e.Prete_ml.Corpus.features)
       corpus.Prete_ml.Corpus.test)

let fig15 () =
  section "Fig. 15 — impact of the prediction model on availability (IBM)";
  let env, _, _, nn = bundle "IBM" in
  let topo = env.Availability.ts.Tunnels.topo in
  let nf = Topology.num_fibers topo in
  let scales = if !quick then [| 1.0; 2.5; 4.0 |] else [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let static_prob = Stats.mean env.Availability.model.Fiber_model.p_cut in
  let variants =
    [
      ("TeaVar-pred", Schemes.prete_naive ~predictor:(fun _ -> static_prob) ());
      ("Statistic", Schemes.prete_default ~predictor:(fun _ -> env.Availability.model.Fiber_model.mean_hazard) ());
      ("PreTE (NN)", Schemes.prete_default ~predictor:(nn_predictor nn) ());
      ("Oracle-pred", Schemes.prete_default ~predictor:(Hazard.eval ~num_fibers:nf) ());
    ]
  in
  Printf.printf "%-12s" "model";
  Array.iter (fun s -> Printf.printf " %8.1fx" s) scales;
  print_newline ();
  List.iter
    (fun (name, scheme) ->
      Printf.printf "%-12s" name;
      Array.iter
        (fun scale ->
          let a = Availability.availability env scheme ~scale in
          Printf.printf " %9.4f" (100.0 *. a))
        scales;
      Printf.printf "\n%!")
    variants;
  Printf.printf "(availability in %%; paper: oracle > NN > statistic > TeaVar's static model)\n"

let fig16a () =
  section "Fig. 16a — impact of the new-tunnel ratio on availability (IBM)";
  let env, _, _, nn = bundle "IBM" in
  let scale = 3.0 in
  List.iter
    (fun ratio ->
      let scheme =
        if ratio <= 0.0 then Schemes.prete_naive ~predictor:(nn_predictor nn) ()
        else
          Schemes.Prete
            { Schemes.predictor = nn_predictor nn; Schemes.ratio; Schemes.update_tunnels = true }
      in
      let a = Availability.availability env scheme ~scale in
      Printf.printf "  ratio %.1f (%s): availability %.4f%% (%.2f nines)\n%!" ratio
        (if ratio <= 0.0 then "PreTE-naive" else "PreTE")
        (100.0 *. a) (Availability.nines a))
    [ 0.0; 0.5; 1.0; 2.0; 3.0 ];
  Printf.printf "(paper: PreTE-naive ~2 nines; ratio >= 1 lifts past 3 nines, then flattens)\n"

let fig16b () =
  section "Fig. 16b — impact of the new-tunnel ratio on TE runtime";
  let env, _, _, nn = bundle "B4" in
  let demands = Traffic.demand env.Availability.traffic ~scale:3.0 ~epoch:12 in
  List.iter
    (fun ratio ->
      let t0 = Unix.gettimeofday () in
      let update =
        if ratio > 0.0 then Some (Tunnel_update.react ~ratio env.Availability.ts ~degraded_fiber:3 ())
        else None
      in
      let ts =
        match update with Some u -> Tunnel_update.merged u | None -> env.Availability.ts
      in
      let probs =
        Calibrate.probabilities
          (Calibrate.Calibrated (nn_predictor nn))
          env.Availability.model
          { Calibrate.degraded = [ (3, env.Availability.degr_events.(3)) ];
            Calibrate.will_cut = [] }
      in
      let p = Te.make_problem ~ts ~demands ~probs ~beta:env.Availability.beta () in
      ignore (Te.solve ~relaxation_start:false p);
      let compute_s = Unix.gettimeofday () -. t0 in
      let n_new = match update with Some u -> Tunnel_update.num_new u | None -> 0 in
      let install_s = Controller.tunnel_update_time n_new in
      Printf.printf
        "  ratio %.1f: %3d new tunnels, optimization %.2f s + serialized install %.2f s = %.2f s\n%!"
        ratio n_new compute_s install_s (compute_s +. install_s))
    [ 0.0; 1.0; 2.0; 5.0 ];
  Printf.printf "(paper: <1 s with no updates, seconds at ratio 1, tens of seconds at ratio 5)\n"

let fig17 () =
  section "Fig. 17 — workload vs capacity uncertainty (B4)";
  let env, _, _, nn = bundle "B4" in
  let scales = [| 1.0; 2.7 |] in
  let pts = Uncertainty.fig17 env ~predictor:(nn_predictor nn) ~scales in
  Printf.printf "%-10s %6s  %s\n" "scheme" "scale" "availability";
  List.iter
    (fun (p : Uncertainty.fig17_point) ->
      Printf.printf "%-10s %5.1fx  %.4f%% (%.2f nines)\n"
        (p.Uncertainty.scheme ^ if p.Uncertainty.demand_prediction then "*" else "")
        p.Uncertainty.scale
        (100.0 *. p.Uncertainty.availability)
        (Availability.nines p.Uncertainty.availability))
    pts;
  Printf.printf "(paper: at scale 2.7 failure prediction gains far more than demand prediction)\n"

let fig18 () =
  section "Fig. 18 — production case (see examples/production_case.exe for the narrative)";
  (* Condensed: the numbers that matter. *)
  let fibers = [| (0, 1, 600.0); (1, 2, 700.0); (0, 2, 1200.0); (0, 3, 900.0); (3, 2, 950.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 1000.0, [ f ]); (b, a, 1000.0, [ f ]) ])
         [ (0, (0, 1)); (1, (1, 2)); (2, (0, 2)); (3, (0, 3)); (4, (3, 2)) ])
  in
  let topo = Topology.make ~name:"fig18" ~node_names:[| "s1"; "s2"; "s3"; "s4" |] ~fibers ~links in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2); (3, 2) ] in
  let demands = [| 700.0; 600.0; 300.0 |] in
  Printf.printf "traditional backup s1-s2-s3: link s1-s2 loaded to %.0fG/1000G -> %.0fG sustained loss\n"
    (demands.(0) +. demands.(1))
    (Float.max 0.0 (demands.(0) +. demands.(1) -. 1000.0));
  let update = Tunnel_update.react ts ~degraded_fiber:2 () in
  let merged = Tunnel_update.merged update in
  let p = Te.make_problem ~ts:merged ~demands ~probs:[| 0.001; 0.001; 0.4; 0.001; 0.001 |] ~beta:0.99 () in
  let sol = Te.solve p in
  let delivered flow =
    Float.min demands.(flow)
      (List.fold_left
         (fun acc tid ->
           let tn = merged.Tunnels.tunnels.(tid) in
           if Routing.uses_fiber topo tn.Tunnels.links 2 then acc else acc +. sol.Te.alloc.(tid))
         0.0 merged.Tunnels.of_flow.(flow))
  in
  Printf.printf "PreTE after the s1-s3 cut: delivers %.0f + %.0f + %.0f = %.0fG of %.0fG (no loss)\n"
    (delivered 0) (delivered 1) (delivered 2)
    (delivered 0 +. delivered 1 +. delivered 2)
    (Stats.sum demands)

let fig19 () =
  section "Fig. 19 — tunnel traffic variation by uncertainty type (B4)";
  let env, _, _, _ = bundle "B4" in
  let w = Uncertainty.workload_variation env ~scale:1.5 ~jitter:0.05 in
  let c = Uncertainty.capacity_variation env ~scale:1.5 in
  Printf.printf "%-28s %10s %10s\n" "source" "affected" "unaffected";
  Printf.printf "%-28s %9.3f %10.3f   (mean |delta|/demand)\n" "workload uncertainty"
    w.Uncertainty.affected_mean w.Uncertainty.unaffected_mean;
  Printf.printf "%-28s %9.3f %10.3f\n" "capacity uncertainty"
    c.Uncertainty.affected_mean c.Uncertainty.unaffected_mean;
  Printf.printf "%-28s %9.3f %10.3f   (p95)\n" "capacity uncertainty (p95)"
    c.Uncertainty.affected_p95 c.Uncertainty.unaffected_p95;
  Printf.printf "(paper: capacity uncertainty dominates for affected flows)\n"

let fig20a () =
  section "Fig. 20a — predictable cuts vs telemetry granularity";
  let _, _, ds = Lazy.force twan_dataset in
  Printf.printf "%10s %10s %11s\n" "polling" "coverage" "occurrence";
  List.iter
    (fun g ->
      let cov, occ = Telemetry.coverage_occurrence ~granularity_s:g ds in
      Printf.printf "%8d s %9.1f%% %10.1f%%\n" g (100.0 *. cov) (100.0 *. occ))
    [ 1; 5; 10; 30; 60; 180; 300 ];
  Printf.printf "(paper: 25%% coverage at 1 s falling to 2%% at 5 min)\n"

let fig20b () =
  section "Fig. 20b — impact of the predictable-cut share alpha (IBM)";
  let base_env, _, _, nn = bundle "IBM" in
  let topo = base_env.Availability.ts.Tunnels.topo in
  let scales = if !quick then [| 2.0; 4.0 |] else [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Printf.printf "%-10s" "alpha";
  Array.iter (fun s -> Printf.printf " %8.1fx" s) scales;
  print_newline ();
  List.iter
    (fun alpha ->
      let model = Fiber_model.generate ~alpha topo in
      let env =
        Availability.make_env ~model ~traffic:base_env.Availability.traffic
          ~tunnels:base_env.Availability.ts topo
      in
      Printf.printf "%-10s" (Printf.sprintf "%.0f%%" (100.0 *. alpha));
      Array.iter
        (fun scale ->
          let a =
            Availability.availability env
              (Schemes.prete_default ~predictor:(nn_predictor nn) ())
              ~scale
          in
          Printf.printf " %9.4f" (100.0 *. a))
        scales;
      Printf.printf "\n%!")
    [ 0.0; 0.25; 0.5; 1.0 ];
  Printf.printf "(availability in %%; paper: alpha = 1 keeps 3 nines even at 6x demand)\n"

let table8 () =
  section "Table 8 — NN feature ablation";
  let corpus = Lazy.force twan_corpus in
  let cfg = { Prete_ml.Mlp.default_config with Prete_ml.Mlp.epochs = nn_epochs () } in
  let eval name ablate =
    let nn = Prete_ml.Mlp.train ~config:cfg ?ablate corpus.Prete_ml.Corpus.train in
    let c =
      Prete_ml.Metrics.evaluate ~predict:(Prete_ml.Mlp.predict_label nn)
        corpus.Prete_ml.Corpus.test
    in
    Printf.printf "%-20s P %.2f   R %.2f   F1 %.2f   Acc %.2f\n%!" name
      (Prete_ml.Metrics.precision c) (Prete_ml.Metrics.recall c) (Prete_ml.Metrics.f1 c)
      (Prete_ml.Metrics.accuracy c)
  in
  List.iter
    (fun feat ->
      eval ("NN w/o " ^ Prete_ml.Mlp.feature_name feat) (Some feat))
    Prete_ml.Mlp.all_features;
  eval "NN-all" None;
  Printf.printf "(paper: NN-all best at 0.81; w/o fiber ID worst at F1 0.68)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of our own design choices (DESIGN.md §4)                   *)
(* ------------------------------------------------------------------ *)

let mc_check () =
  section "Cross-check — Monte-Carlo simulator vs analytic availability (B4)";
  let env, _, _, nn = bundle "B4" in
  let scale = 3.0 in
  List.iter
    (fun scheme ->
      let a = Availability.availability env scheme ~scale in
      let r = Simulate.run ~epochs:(if !quick then 10_000 else 40_000) env scheme ~scale in
      Printf.printf
        "  %-12s analytic %.5f   MC %.5f   (%d cut epochs, %d multi-cut truncated analytically)\n%!"
        (Schemes.name scheme) a r.Simulate.availability r.Simulate.cut_epochs
        r.Simulate.multi_cut_epochs)
    [ Schemes.Ecmp; Schemes.Teavar; Schemes.Flexile;
      Schemes.prete_default ~predictor:(nn_predictor nn) () ]

let ablate_cutoff () =
  section "Ablation — scenario cutoff / order";
  let env, _, _, _ = bundle "B4" in
  let demands = Traffic.demand env.Availability.traffic ~scale:3.0 ~epoch:12 in
  let probs = env.Availability.model.Fiber_model.p_cut in
  List.iter
    (fun (label, max_order, cutoff) ->
      let t0 = Unix.gettimeofday () in
      let p =
        Te.make_problem ~ts:env.Availability.ts ~demands ~probs ~max_order ~cutoff
          ~beta:0.999 ()
      in
      let sol = Te.solve ~relaxation_start:false p in
      Printf.printf
        "  %-28s %4d scenarios  phi %.4f  served %.4f  %2d LPs %6d pivots  %.2f s\n%!"
        label
        (Array.length p.Te.scenarios.Scenario.scenarios)
        sol.Te.phi sol.Te.expected_served sol.Te.stats.Te.lp_solves
        sol.Te.stats.Te.lp_pivots
        (Unix.gettimeofday () -. t0))
    [
      ("single cuts", 1, 0.0);
      ("single cuts, cutoff 1e-3", 1, 1e-3);
      ("double cuts", 2, 0.0);
      ("double cuts, cutoff 1e-5", 2, 1e-5);
    ]

let ablate_mip () =
  section "Ablation — MIP strategy: heuristic vs Benders vs branch-and-bound";
  let fibers = [| (0, 1, 100.0); (0, 2, 100.0); (1, 2, 100.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (0, 2)); (2, (1, 2)) ])
  in
  let topo = Topology.make ~name:"fig2" ~node_names:[| "s1"; "s2"; "s3" |] ~fibers ~links in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2) ] in
  Printf.printf "small instance (the paper's Fig. 2 network):\n";
  List.iter
    (fun (d1, d2) ->
      let p =
        Te.make_problem ~ts ~demands:[| d1; d2 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.9 ()
      in
      let time f = let t0 = Unix.gettimeofday () in let r = f () in (r, Unix.gettimeofday () -. t0) in
      let h, th = time (fun () -> (Te.solve ~second_phase:false p).Te.phi) in
      let b, tb = time (fun () -> (Te.solve_benders p).Te.phi) in
      let e, te_ = time (fun () -> (Te.solve_mip p).Te.phi) in
      Printf.printf
        "  demands (%4.1f, %4.1f): heuristic %.4f (%.3fs)  benders %.4f (%.3fs)  b&b %.4f (%.3fs)\n%!"
        d1 d2 h th b tb e te_)
    [ (10.0, 10.0); (15.0, 15.0); (12.0, 18.0) ];
  Printf.printf "\nB4 instance (heuristic vs Benders):\n";
  let env, _, _, _ = bundle "B4" in
  let demands = Traffic.demand env.Availability.traffic ~scale:4.0 ~epoch:12 in
  let p =
    Te.make_problem ~ts:env.Availability.ts ~demands
      ~probs:env.Availability.model.Fiber_model.p_cut ~beta:0.999 ()
  in
  let t0 = Unix.gettimeofday () in
  let h = Te.solve ~second_phase:false p in
  let th = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let b = Te.solve_benders ~max_iters:10 p in
  let tb = Unix.gettimeofday () -. t0 in
  Printf.printf "  heuristic phi %.4f (%.2f s, %d LPs)  benders phi %.4f (%.2f s, %d LPs, %d nodes)\n"
    h.Te.phi th h.Te.stats.Te.lp_solves b.Te.phi tb b.Te.stats.Te.lp_solves
    b.Te.stats.Te.mip_nodes


(* ------------------------------------------------------------------ *)
(* Warm-start ablation + BENCH_PR2.json evidence                        *)
(* ------------------------------------------------------------------ *)

(* Experiment-specific JSON sections picked up by the entry point when it
   writes the bench file.  [None] until the experiment has run. *)
module J = Json

let warmstart_json = ref None
let chaos_cache_json = ref None

let warmstart () =
  section "Warm-start ablation — cold vs warm simplex pivots (ablate_mip instances)";
  let fibers = [| (0, 1, 100.0); (0, 2, 100.0); (1, 2, 100.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (0, 2)); (2, (1, 2)) ])
  in
  let topo = Topology.make ~name:"fig2" ~node_names:[| "s1"; "s2"; "s3" |] ~fibers ~links in
  let ts = Tunnels.build ~per_flow:2 topo [ (0, 1); (0, 2) ] in
  let demand_pairs = [ (10.0, 10.0); (15.0, 15.0); (12.0, 18.0) ] in
  let problem (d1, d2) =
    Te.make_problem ~ts ~demands:[| d1; d2 |] ~probs:[| 0.02; 0.03; 0.01 |] ~beta:0.9 ()
  in
  let open Prete_lp in
  (* Cold: every LP from scratch.  Warm: bases threaded across δ-fixpoint
     rounds / Benders iterations within a call, and across the successive
     instances (the controller-epoch pattern: each solve seeds the next). *)
  let entries = ref [] in
  let tot_cold = ref 0 and tot_warm = ref 0 in
  let run_strategy name solve_cold solve_warm =
    let carry = ref None in
    List.iter
      (fun pair ->
        let p = problem pair in
        let cold = solve_cold p in
        let warm = solve_warm ?warm:!carry p in
        carry := warm.Te.basis;
        let cst = cold.Te.solver and wst = warm.Te.solver in
        tot_cold := !tot_cold + cst.Solver_stats.pivots;
        tot_warm := !tot_warm + wst.Solver_stats.pivots;
        let dphi = Float.abs (cold.Te.phi -. warm.Te.phi) in
        if dphi > 1e-6 then
          Printf.printf "  WARNING: %s phi mismatch %.2e on (%g, %g)\n" name dphi
            (fst pair) (snd pair);
        Printf.printf
          "  %-9s demands (%4.1f, %4.1f): phi %.4f  cold %4d pivots  warm %4d pivots  \
           (p1 skips %d, repairs %d)\n%!"
          name (fst pair) (snd pair) warm.Te.phi cst.Solver_stats.pivots
          wst.Solver_stats.pivots wst.Solver_stats.phase1_skips
          wst.Solver_stats.repairs;
        entries :=
          J.Object
            [ ("strategy", J.String name); ("demands", J.Array [ J.g 6 (fst pair); J.g 6 (snd pair) ]);
              ("phi_cold", J.fixed 6 cold.Te.phi); ("phi_warm", J.fixed 6 warm.Te.phi);
              ("phi_delta", J.g 4 dphi); ("cold", Solver_stats.to_json cst);
              ("warm", Solver_stats.to_json wst) ]
          :: !entries)
      demand_pairs
  in
  run_strategy "fixpoint"
    (fun p -> Te.solve ~second_phase:false ~relaxation_start:false ~warm_start:false p)
    (fun ?warm p -> Te.solve ~second_phase:false ~relaxation_start:false ?warm p);
  run_strategy "benders"
    (fun p -> Te.solve_benders ~warm_start:false p)
    (fun ?warm p -> Te.solve_benders ?warm p);
  run_strategy "mip"
    (fun p -> Te.solve_mip ~warm_start:false p)
    (fun ?warm p -> Te.solve_mip ?warm p);
  let ratio = float_of_int !tot_cold /. float_of_int (max 1 !tot_warm) in
  Printf.printf "  total: cold %d pivots, warm %d pivots — %.2fx fewer warm\n%!"
    !tot_cold !tot_warm ratio;
  warmstart_json :=
    Some
      (J.Object
         [ ("instances", J.Array (List.rev !entries)); ("total_cold_pivots", J.int !tot_cold);
           ("total_warm_pivots", J.int !tot_warm); ("pivot_ratio", J.fixed 3 ratio) ]);
  (* Plan-cache hit rate: replay chaos epochs (no faults) through the
     controller's structural plan cache. *)
  let env, _, _, nn = bundle "B4" in
  let scheme = Schemes.prete_default ~predictor:(nn_predictor nn) () in
  let r = Simulate.run_chaos ~epochs:(if !quick then 20 else 60) env scheme ~scale:2.0 in
  let hit_rate =
    let tot = r.Simulate.c_cache_hits + r.Simulate.c_cache_misses in
    if tot = 0 then 0.0 else float_of_int r.Simulate.c_cache_hits /. float_of_int tot
  in
  Printf.printf "  plan cache over %d chaos epochs: %d hits / %d misses (%.1f%%)\n%!"
    r.Simulate.c_epochs r.Simulate.c_cache_hits r.Simulate.c_cache_misses
    (100.0 *. hit_rate);
  chaos_cache_json :=
    Some
      (J.Object
         [ ("epochs", J.int r.Simulate.c_epochs); ("cache_hits", J.int r.Simulate.c_cache_hits);
           ("cache_misses", J.int r.Simulate.c_cache_misses); ("hit_rate", J.fixed 4 hit_rate) ])

let fallback () =
  section "Fallback-path latency (Resilience ladder rungs, B4)";
  let env, _, _, nn = bundle "B4" in
  let ts = env.Availability.ts in
  let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:12 in
  let scheme = Schemes.prete_default ~predictor:(nn_predictor nn) () in
  let primary ?deadline ~warm () =
    Availability.Internal.plan_alloc_warm ?deadline ?warm env scheme ~demands
      ~degraded:None
  in
  let time ?(reps = 1) label f =
    let _, d = Controller.wall (fun () -> for _ = 1 to reps do f () done) in
    Printf.printf "  %-32s %10.3f ms\n%!" label (1000.0 *. d /. float_of_int reps)
  in
  let ladder = Resilience.create () in
  (* Rung 1: full primary solve (also warms the last-good cache). *)
  time "primary solve" (fun () ->
      ignore (Resilience.plan_epoch ladder ~ts ~demands ~primary:(primary ?deadline:None) ()));
  (* Same solve handed the ladder's retained basis (rung 0). *)
  time "primary solve, warm basis" (fun () ->
      ignore (Resilience.plan_epoch ladder ~ts ~demands ~primary:(primary ?deadline:None) ()));
  (* Anytime degraded incumbent under a 50 ms budget. *)
  time "primary, 50 ms budget" (fun () ->
      ignore
        (Resilience.plan_epoch ladder ~ts ~demands
           ~primary:(fun ~warm () ->
             primary ~deadline:(Prete_util.Clock.deadline_after 0.05) ~warm ())
           ()));
  (* Rung 2: primary times out instantly, last-good plan is revalidated. *)
  time ~reps:100 "cached fallback" (fun () ->
      ignore
        (Resilience.plan_epoch ladder ~ts ~demands
           ~primary:(fun ~warm:_ () -> raise Prete_lp.Simplex.Timeout)
           ()));
  (* Rung 3: cold ladder, straight to the equal split. *)
  time ~reps:100 "equal-split fallback (cold)" (fun () ->
      let cold = Resilience.create () in
      ignore
        (Resilience.plan_epoch cold ~ts ~demands
           ~primary:(fun ~warm:_ () -> raise Prete_lp.Simplex.Timeout)
           ()))

(* ------------------------------------------------------------------ *)
(* Parallel execution: pool scaling + determinism evidence              *)
(* ------------------------------------------------------------------ *)

let parallel_json = ref None

let parallel () =
  section "Parallel — domain-pool scaling for simulate / availability / Benders (B4)";
  let env, _, _, nn = bundle "B4" in
  let scheme = Schemes.prete_default ~predictor:(nn_predictor nn) () in
  let epochs = if !quick then 2_000 else 6_000 in
  let demands = Traffic.demand env.Availability.traffic ~scale:4.0 ~epoch:12 in
  let bp =
    Te.make_problem ~ts:env.Availability.ts ~demands
      ~probs:env.Availability.model.Fiber_model.p_cut ~beta:0.999 ()
  in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf "  host reports %d usable core(s)\n%!" host_cores;
  let runs = ref [] in
  let results = ref [] in
  List.iter
    (fun domains ->
      let pool = Prete_exec.Pool.create ~domains () in
      let time f = let r, w = Controller.wall f in (r, w) in
      let sim, sim_w = time (fun () -> Simulate.run ~epochs ~pool env scheme ~scale:2.0) in
      let avail, avail_w =
        time (fun () -> Availability.availability ~pool env scheme ~scale:3.0)
      in
      let bsol, benders_w =
        time (fun () -> Te.solve_benders ~max_iters:10 ~pool bp)
      in
      let stats = Prete_exec.Pool.stats pool in
      Prete_exec.Pool.shutdown pool;
      Printf.printf
        "  domains %d: simulate %6.2f s   availability %6.2f s   benders %6.2f s   \
         (%d tasks, %d steals)\n%!"
        domains sim_w avail_w benders_w stats.Prete_exec.Pool_stats.tasks
        stats.Prete_exec.Pool_stats.steals;
      results := (sim.Simulate.availability, avail, bsol.Te.phi) :: !results;
      runs :=
        J.Object
          [ ("domains", J.int domains); ("simulate_wall_s", J.fixed 3 sim_w);
            ("availability_wall_s", J.fixed 3 avail_w); ("benders_wall_s", J.fixed 3 benders_w);
            ("simulate_mc", J.fixed 9 sim.Simulate.availability); ("availability", J.fixed 9 avail);
            ("benders_phi", J.fixed 9 bsol.Te.phi); ("pool", Prete_exec.Pool_stats.to_json stats) ]
        :: !runs)
    [ 1; 2; 4 ];
  (* Determinism evidence: the three result triples must be bit-identical
     across domain counts. *)
  let identical =
    match !results with
    | [] -> true
    | r0 :: rest -> List.for_all (fun r -> r = r0) rest
  in
  Printf.printf "  results bit-identical across domain counts: %b\n%!" identical;
  parallel_json :=
    Some
      (J.Object
         [ ("host_cores", J.int host_cores); ("epochs", J.int epochs);
           ("bit_identical", J.Bool identical); ("runs", J.Array (List.rev !runs)) ])

(* ------------------------------------------------------------------ *)
(* lp_scale: the LU engine on scaled TE LPs, dense tableau as oracle   *)
(* ------------------------------------------------------------------ *)

let lp_scale_json = ref None

(* A size-s instance: s flows spread over a k x k grid (one fiber per
   undirected edge), s scenarios (the no-failure state plus single cuts
   of the first s-1 fibers). *)
let lp_scale_instance ~k ~size =
  let topo = Topology.grid k in
  let n = k * k in
  let pairs =
    List.init size (fun i ->
        let src = i * 13 mod n in
        let dst = (src + 1 + (i * 29 mod (n - 1))) mod n in
        (src, dst))
  in
  let ts = Tunnels.build ~per_flow:3 topo pairs in
  (* Heavy enough that capacity binds and phi ends up strictly positive:
     the engine cross-check then compares a non-trivial optimum. *)
  let demands = Array.init size (fun f -> 12.0 +. (3.0 *. float_of_int (f mod 7))) in
  let cuts = Array.init size (fun q -> if q = 0 then None else Some (q - 1)) in
  (topo, ts, demands, cuts)

(* The fixed-delta TE LP with every scenario covered, built directly so
   both engines see the {e same} model: min phi s.t. capacity rows and,
   per (flow, scenario), surviving_alloc + d*phi >= d.  [cap_scale]
   scales link capacities only — an rhs-only perturbation, which is the
   warm-start case the LU engine must answer without a Phase-1
   restart. *)
let lp_scale_model ~cap_scale (topo, ts, demands, cuts) =
  let open Prete_lp in
  let m = Lp.create () in
  let nt = Array.length ts.Tunnels.tunnels in
  let a = Array.init nt (fun t -> Lp.add_var m (Printf.sprintf "a%d" t)) in
  let phi = Lp.add_var m ~ub:1.0 "phi" in
  List.iter
    (fun (lid, terms) ->
      let terms = List.map (fun (tid, c) -> (c, a.(tid))) terms in
      ignore
        (Lp.add_constraint m terms Lp.Le
           (cap_scale *. (Topology.link topo lid).Topology.capacity)))
    (Te.capacity_terms ts);
  let survives tid cut =
    match cut with
    | None -> true
    | Some fb ->
      not (Routing.uses_fiber topo ts.Tunnels.tunnels.(tid).Tunnels.links fb)
  in
  Array.iteri
    (fun f _ ->
      let d = demands.(f) in
      Array.iter
        (fun cut ->
          let terms =
            List.filter_map
              (fun tid -> if survives tid cut then Some (1.0, a.(tid)) else None)
              ts.Tunnels.of_flow.(f)
          in
          ignore (Lp.add_constraint m ((d, phi) :: terms) Lp.Ge d))
        cuts)
    ts.Tunnels.flows;
  Lp.set_objective m Lp.Minimize [ (1.0, phi) ];
  m

let lp_scale () =
  section "LP engine scaling — LU, with the dense tableau as oracle";
  let open Prete_lp in
  let sizes =
    if !quick then [ (8, 3); (16, 4) ]
    else [ (8, 3); (16, 4); (32, 5); (64, 7); (128, 10); (256, 14) ]
  in
  (* Affordability cap: the dense oracle is O(rows^2 * cols) per pivot
     and opt-in, so the larger instances run the LU engine only, and each
     engine's scaling exponent is fitted over its own points. *)
  let dense_cap = 32 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt in
  (* The timing window is strictly the solve call — models are built,
     stats recorded and solutions certified outside it, so warm-vs-cold
     speedups stay honest at sizes where instance construction alone
     costs seconds.  Every LU solution must pass the KKT certificate,
     which reaches the sizes the dense oracle cannot. *)
  let solve ?warm m =
    let st = Solver_stats.create () in
    let t0 = Unix.gettimeofday () in
    match Simplex.solve ?warm m with
    | Simplex.Optimal sol ->
      let w = Unix.gettimeofday () -. t0 in
      Solver_stats.record st sol;
      Solver_stats.add_wall st "solve" w;
      (match Prete_lp_oracle.Kkt.certify m sol with
      | Ok () -> ()
      | Error e -> fail "KKT certificate: %s" e);
      (sol, st, w)
    | Simplex.Infeasible | Simplex.Unbounded -> fail "LP not optimal"
  in
  let solve_dense m =
    let t0 = Unix.gettimeofday () in
    match Prete_lp_oracle.Dense.solve m with
    | Prete_lp_oracle.Dense.Optimal sol -> (sol, Unix.gettimeofday () -. t0)
    | Prete_lp_oracle.Dense.Infeasible | Prete_lp_oracle.Dense.Unbounded ->
      fail "dense oracle: LP not optimal"
  in
  let entries = ref [] in
  let pts_lu = ref [] and pts_dense = ref [] in
  let largest = ref (0, 0.0) in
  List.iter
    (fun (size, k) ->
      let inst = lp_scale_instance ~k ~size in
      let model = lp_scale_model ~cap_scale:1.0 inst in
      let rows = Lp.num_constraints model in
      let sol_l, st_l, w_l = solve model in
      let dense =
        if !dense_oracle && size <= dense_cap then Some (solve_dense model) else None
      in
      let dphi_dense =
        match dense with
        | Some (s, _) ->
          Float.abs (s.Prete_lp_oracle.Dense.objective -. sol_l.Simplex.objective)
        | None -> 0.0
      in
      if dphi_dense > 1e-9 then
        fail "LU/dense objective mismatch %.3e at size %d" dphi_dense size;
      (* Warm re-solve of the rhs-only perturbation under the LU engine,
         against its own cold baseline. *)
      let model' = lp_scale_model ~cap_scale:0.95 inst in
      let sol_c, _, _ = solve model' in
      let sol_w, st_w, w_w = solve ~warm:sol_l.Simplex.basis model' in
      let dwarm = Float.abs (sol_w.Simplex.objective -. sol_c.Simplex.objective) in
      if dwarm > 1e-9 then
        fail "warm/cold objective mismatch %.3e at size %d" dwarm size;
      if st_w.Solver_stats.phase1_skips < 1 then
        fail "warm rhs-only re-solve restarted Phase 1 at size %d" size;
      if st_w.Solver_stats.refactorizations < 1 then
        fail "warm re-solve never refactorized at size %d" size;
      let dense_col =
        match dense with
        | Some (s, w_d) ->
          Printf.sprintf "dense %8.3f s / %5d pivots" w_d s.Prete_lp_oracle.Dense.iterations
        | None when not !dense_oracle -> "dense (off; --dense-oracle)"
        | None -> Printf.sprintf "dense (capped at %d)" dense_cap
      in
      Printf.printf
        "  %3dx%-3d (%5d rows): lu %8.3f s / %5d pivots (%d factors, %d ft, \
         %d flips, fill %d)   %s   warm %8.3f s / %4d pivots   phi %.6f\n%!"
        size size rows w_l st_l.Solver_stats.pivots
        st_l.Solver_stats.refactorizations st_l.Solver_stats.ft_updates
        st_l.Solver_stats.bound_flips st_l.Solver_stats.lu_fill_nnz
        dense_col w_w st_w.Solver_stats.pivots sol_l.Simplex.objective;
      let r = float_of_int rows in
      pts_lu := (r, w_l) :: !pts_lu;
      largest := (size, w_l);
      (match dense with
      | Some (_, w_d) -> pts_dense := (r, w_d) :: !pts_dense
      | None -> ());
      entries :=
        J.Object
          [ ("size", J.int size); ("rows", J.int rows); ("phi", J.fixed 9 sol_l.Simplex.objective);
            ("phi_delta_dense", J.g 4 dphi_dense); ("warm_phi_delta", J.g 4 dwarm);
            ("lu", Solver_stats.to_json st_l);
            ( "dense",
              J.option
                (fun (s, w_d) ->
                  J.Object
                    [ ("pivots", J.int s.Prete_lp_oracle.Dense.iterations);
                      ("wall_s", J.fixed 6 w_d) ])
                dense );
            ("warm", Solver_stats.to_json st_w) ]
        :: !entries)
    sizes;
  (* Least-squares slope of ln(wall) vs ln(rows), fitted per engine over
     the points that engine actually ran. *)
  let exponent pts =
    let pts = List.rev_map (fun (r, w) -> (log r, log (Float.max 1e-6 w))) pts in
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    (sxy -. (sx *. sy /. n)) /. (sxx -. (sx *. sx /. n))
  in
  let exp_lu = exponent !pts_lu in
  let exp_dense =
    if List.length !pts_dense >= 2 then Some (exponent !pts_dense) else None
  in
  let largest_size, largest_wall = !largest in
  Printf.printf
    "  scaling exponent: lu %.2f, dense %s; cold lu wall %.3f s at the \
     largest instance (%d)\n%!"
    exp_lu
    (J.to_string (J.option (J.fixed 3) exp_dense))
    largest_wall largest_size;
  (* Absolute gates on the full ladder: LU walls grow at most slightly
     faster than the row count, and the 256x256 instance solves cold in
     2 s. *)
  if not !quick then begin
    if exp_lu > 1.2 then fail "LU scaling exponent %.3f > 1.2" exp_lu;
    if largest_wall > 2.0 then
      fail "cold LU wall %.3f s > 2 s at %dx%d" largest_wall largest_size
        largest_size
  end;
  lp_scale_json :=
    Some
      (J.Object
         [ ("sizes", J.Array (List.rev !entries)); ("dense_oracle", J.Bool !dense_oracle);
           ("dense_cap", J.int dense_cap); ("exponent_lu", J.fixed 3 exp_lu);
           ("exponent_dense", J.option (J.fixed 3) exp_dense); ("largest_size", J.int largest_size);
           ("largest_lu_wall_s", J.fixed 3 largest_wall) ])

(* ------------------------------------------------------------------ *)
(* Streaming runtime: detection latency, reaction latency, availability *)
(* ------------------------------------------------------------------ *)

let stream_json = ref None

let stream () =
  section "Streaming runtime — online detection -> prediction -> reaction (B4)";
  let env, _, _, _ = bundle "B4" in
  let epochs = if !quick then 200 else 800 in
  let cfg =
    {
      Prete_rt.Runtime.default_config with
      Prete_rt.Runtime.topology = "B4";
      epochs;
      seed = 123;
      scale = 2.0;
      predictor = Prete_rt.Runtime.Nn (nn_epochs ());
    }
  in
  Prete_exec.Pool.with_pool (fun pool ->
      let module Sh = Prete_rt.Shard in
      let t0 = Unix.gettimeofday () in
      let r = Sh.run ~pool ~env cfg in
      let stream_w = Unix.gettimeofday () -. t0 in
      let m = r.Sh.s_metrics in
      Printf.printf
        "  %d epochs: %d with degradations, %d with cuts; %d alarms, %d reactions \
         (%.1f s)\n%!"
        r.Sh.s_epochs r.Sh.s_degr_epochs r.Sh.s_cut_epochs r.Sh.s_alarms
        (Prete_rt.Metrics.counter m "reactions")
        stream_w;
      Printf.printf
        "  detection latency mean %.1f s (%d detections); reaction-to-plan mean %.2f s\n%!"
        (Prete_rt.Metrics.hist_mean m "detection_latency_s")
        (Prete_rt.Metrics.hist_count m "detection_latency_s")
        (Prete_rt.Metrics.hist_mean m "reaction_latency_s");
      Printf.printf "  state-fiber cuts: %d reacted in time, %d missed\n%!"
        r.Sh.s_reacted_in_time r.Sh.s_missed;
      (* Cross-check: the instant policy must reproduce Simulate.run's
         availability bitwise — same seed, same env, a scheme over the
         model the run served (no stale window, no retraining). *)
      let t0 = Unix.gettimeofday () in
      let scheme =
        Schemes.prete_default
          ~predictor:
            (Prete_rt.Runtime.Internal.build_model cfg.Prete_rt.Runtime.predictor env
               env.Availability.ts.Tunnels.topo)
          ()
      in
      let sim =
        Simulate.run ~seed:cfg.Prete_rt.Runtime.seed ~epochs ~pool env scheme
          ~scale:cfg.Prete_rt.Runtime.scale
      in
      let sim_w = Unix.gettimeofday () -. t0 in
      let d_instant = Float.abs (r.Sh.s_avail_instant -. sim.Simulate.availability) in
      Printf.printf
        "  availability: stream %.5f / periodic-only %.5f / instant %.5f \
         (Simulate.run %.5f, |delta| %.1e)\n%!"
        r.Sh.s_avail_stream r.Sh.s_avail_periodic r.Sh.s_avail_instant
        sim.Simulate.availability d_instant;
      if d_instant > 1e-9 then begin
        Printf.printf "  FAIL: instant policy diverged from Simulate.run\n%!";
        exit 1
      end;
      if r.Sh.s_avail_stream < r.Sh.s_avail_periodic -. 1e-9 then begin
        Printf.printf "  FAIL: streaming availability below periodic-only\n%!";
        exit 1
      end;
      (* Detour tier: stream+detour must dominate plain stream, and the
         activation path must stay under the modeled latency bound — no
         solver wall anywhere on it. *)
      let avail_detour =
        match r.Sh.s_avail_detour with
        | Some v -> v
        | None ->
          Printf.printf "  FAIL: detour tier unexpectedly disarmed\n%!";
          exit 1
      in
      let bound = Detours.latency_bound_s (Detours.build env.Availability.ts) in
      let install_max = Prete_rt.Metrics.hist_max m "detour_install_s" in
      Printf.printf
        "  detour tier: %d activations, %d flows patched, install max %.3f s \
         (bound %.3f s), handoff mean %.1f s; stream+detour %.5f\n%!"
        (Prete_rt.Metrics.counter m "detour_activations")
        (Prete_rt.Metrics.counter m "detour_flows_patched")
        install_max bound
        (Prete_rt.Metrics.hist_mean m "detour_handoff_s")
        avail_detour;
      if avail_detour < r.Sh.s_avail_stream -. 1e-9 then begin
        Printf.printf "  FAIL: stream+detour availability below stream\n%!";
        exit 1
      end;
      if install_max > bound +. 1e-9 then begin
        Printf.printf "  FAIL: detour install latency above modeled bound\n%!";
        exit 1
      end;
      (* The tier's claim, in the regime where it applies: runs long
         enough that a state-fiber cut's reactive plan misses its
         deadline (oracle predictor, default topology, 800 epochs).  It
         must never lose on a seed, and must strictly win on at least
         two of the three; a seed with no missed cut ties by
         construction. *)
      let sweep_seeds = [ 123; 41; 5 ] in
      let sweep =
        List.map
          (fun seed ->
            let scfg = { Prete_rt.Runtime.default_config with Prete_rt.Runtime.epochs = 800; seed } in
            let sr = Sh.run ~pool scfg in
            let s_stream = sr.Sh.s_avail_stream in
            let s_detour = Option.value ~default:neg_infinity sr.Sh.s_avail_detour in
            if s_detour < s_stream -. 1e-9 then begin
              Printf.printf "  FAIL: stream+detour below stream at seed %d\n%!" seed;
              exit 1
            end;
            Printf.printf
              "  seed %4d: stream %.7f -> stream+detour %.7f (%d missed, %d rescued)\n%!"
              seed s_stream s_detour sr.Sh.s_missed
              (Prete_rt.Metrics.counter sr.Sh.s_metrics "detour_rescued_epochs");
            (seed, s_stream, s_detour))
          sweep_seeds
      in
      let wins = List.length (List.filter (fun (_, s, d) -> d > s) sweep) in
      if wins < 2 then begin
        Printf.printf "  FAIL: stream+detour strictly beats stream on %d of %d seeds (need 2)\n%!"
          wins (List.length sweep);
        exit 1
      end;
      let avail = J.fixed 9 and counter k = J.int (Prete_rt.Metrics.counter m k) in
      let sweep_json (seed, s, d) =
        J.Object [ ("seed", J.int seed); ("stream", avail s); ("stream_detour", avail d) ]
      in
      stream_json :=
        Some
          (J.Object
             [ ("epochs", J.int epochs); ("seed", J.int cfg.Prete_rt.Runtime.seed);
               ("scale", J.fixed 2 cfg.Prete_rt.Runtime.scale);
               ("degr_epochs", J.int r.Sh.s_degr_epochs); ("cut_epochs", J.int r.Sh.s_cut_epochs);
               ("reacted_in_time", J.int r.Sh.s_reacted_in_time); ("missed", J.int r.Sh.s_missed);
               ( "availability",
                 J.Object
                   [ ("stream", avail r.Sh.s_avail_stream); ("periodic", avail r.Sh.s_avail_periodic);
                     ("instant", avail r.Sh.s_avail_instant); ("stream_detour", avail avail_detour);
                     ("simulate_run", avail sim.Simulate.availability) ] );
               ( "detour",
                 J.Object
                   [ ("activations", counter "detour_activations");
                     ("flows_patched", counter "detour_flows_patched");
                     ("install_max_s", J.fixed 6 install_max); ("latency_bound_s", J.fixed 6 bound);
                     ("handoff_mean_s", J.fixed 3 (Prete_rt.Metrics.hist_mean m "detour_handoff_s"));
                     ("sweep", J.Array (List.map sweep_json sweep)); ("sweep_wins", J.int wins) ] );
               ("wall_s", J.Object [ ("stream", J.fixed 3 stream_w); ("simulate", J.fixed 3 sim_w) ]);
               ("metrics", Prete_rt.Metrics.to_json ~walls:false m);
               ("solver", Prete_lp.Solver_stats.to_json r.Sh.s_solver) ]))

(* ------------------------------------------------------------------ *)
(* Detour tier vs fallback ladder: chaos-harness ablation               *)
(* ------------------------------------------------------------------ *)

let detour_json = ref None

let detour () =
  section "Detour tier vs ladder — chaos-harness ablation (B4)";
  let env, _, _, nn = bundle "B4" in
  let scheme = Schemes.prete_default ~predictor:(nn_predictor nn) () in
  let epochs = if !quick then 20 else 60 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt in
  let dt = Detours.build env.Availability.ts in
  (* Same seeds and ground truth twice: once on the plain ladder, once
     with the Detour rung armed — every degradation epoch then answers
     with the precomputed patch instead of a fresh solve. *)
  let run detours =
    let t0 = Unix.gettimeofday () in
    (* Seed 3 yields degradation observations at both the quick and the
       full epoch counts; the default seed happens to see none in 20. *)
    let r = Simulate.run_chaos ~seed:3 ~epochs ?detours env scheme ~scale:2.0 in
    (r, Unix.gettimeofday () -. t0)
  in
  let base, base_w = run None in
  let armed, armed_w = run (Some dt) in
  let rungs (r : Simulate.chaos_result) =
    Printf.sprintf
      "detour %d / primary %d / cached %d / equal-split %d"
      r.Simulate.c_detour r.Simulate.c_primary r.Simulate.c_cached
      r.Simulate.c_equal_split
  in
  Printf.printf "  ladder only : avail %.5f in %6.1f s  (%s)\n%!"
    base.Simulate.c_availability base_w (rungs base);
  Printf.printf "  detour armed: avail %.5f in %6.1f s  (%s)\n%!"
    armed.Simulate.c_availability armed_w (rungs armed);
  let sum (r : Simulate.chaos_result) =
    r.Simulate.c_detour + r.Simulate.c_primary + r.Simulate.c_cached
    + r.Simulate.c_equal_split
  in
  if sum base <> base.Simulate.c_epochs || sum armed <> armed.Simulate.c_epochs
  then fail "rung counts do not sum to epochs";
  if base.Simulate.c_detour <> 0 then fail "detour rung fired while disarmed";
  if armed.Simulate.c_detour = 0 then
    fail "detour rung never fired while armed over %d epochs" epochs;
  let emit (r : Simulate.chaos_result) w =
    J.Object
      [ ("availability", J.fixed 9 r.Simulate.c_availability); ("detour", J.int r.Simulate.c_detour);
        ("primary", J.int r.Simulate.c_primary); ("cached", J.int r.Simulate.c_cached);
        ("equal_split", J.int r.Simulate.c_equal_split);
        ("degraded_plans", J.int r.Simulate.c_degraded_plans); ("wall_s", J.fixed 3 w) ]
  in
  detour_json :=
    Some
      (J.Object
         [ ("epochs", J.int armed.Simulate.c_epochs); ("ladder", emit base base_w);
           ("detour_armed", emit armed armed_w);
           ("avail_delta", J.fixed 9 (armed.Simulate.c_availability -. base.Simulate.c_availability)) ])

(* ------------------------------------------------------------------ *)
(* Scenario sweep: per-workload-class availability floors               *)
(* ------------------------------------------------------------------ *)

let sweep_json = ref None

(* Stream-policy availability floors per workload class, pinned with
   margin below the minima measured across the default matrix at seed 3
   / 12 epochs / scale 2 (gravity 0.9610, diurnal 0.9887, flash 0.9289,
   coremelt 0.8876 — grid4 is the minimum for every class, so the
   floors hold for the --quick sub-matrix too). *)
let sweep_floors =
  [ ("gravity", 0.95); ("diurnal", 0.98); ("flash", 0.91); ("coremelt", 0.87) ]

let sweep_bench () =
  section "Scenario sweep — topology x traffic x profile x policy portfolio";
  let module Sweep = Prete_rt.Sweep in
  let topologies =
    if !quick then [ "Abilene"; "grid4" ] else [ "Abilene"; "B4"; "grid4" ]
  in
  let traffic = [ "gravity"; "diurnal"; "flash"; "coremelt" ] in
  let profiles = if !quick then [ "clean" ] else Sweep.profile_names in
  let epochs = 12 and seed = 3 and scale = 2.0 in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt
  in
  let class_of_spec spec =
    match String.index_opt spec ':' with
    | None -> spec
    | Some i -> String.sub spec 0 i
  in
  Prete_exec.Pool.with_pool @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  let p = Sweep.run ~pool ~seed ~epochs ~scale ~topologies ~traffic ~profiles () in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "  %d topologies x %d traffic x %d profiles x %d policies: %d \
                 cells in %.1f s\n%!"
    (List.length topologies) (List.length traffic) (List.length profiles)
    (List.length Sweep.policies)
    (List.length p.Sweep.pt_cells)
    wall;
  (* Per-class stream minima vs the pinned floors. *)
  let stream_min =
    List.map
      (fun (cls, floor) ->
        let m =
          List.fold_left
            (fun acc (c : Sweep.cell) ->
              if c.Sweep.cl_policy = "stream" && class_of_spec c.Sweep.cl_traffic = cls
              then Float.min acc c.Sweep.cl_availability
              else acc)
            infinity p.Sweep.pt_cells
        in
        Printf.printf "  %-9s stream min %.5f (floor %.2f)\n%!" cls m floor;
        if m < floor then
          fail "%s stream availability %.5f under the %.2f floor" cls m floor;
        (cls, m, floor))
      sweep_floors
  in
  (* The detour tier must never cost availability, on any cell of the
     matrix. *)
  let detour_delta =
    let lookup policy (c : Sweep.cell) =
      List.find
        (fun (o : Sweep.cell) ->
          o.Sweep.cl_topology = c.Sweep.cl_topology
          && o.Sweep.cl_traffic = c.Sweep.cl_traffic
          && o.Sweep.cl_profile = c.Sweep.cl_profile
          && o.Sweep.cl_policy = policy)
        p.Sweep.pt_cells
    in
    List.fold_left
      (fun acc (c : Sweep.cell) ->
        if c.Sweep.cl_policy <> "stream" then acc
        else begin
          let d = (lookup "stream+detour" c).Sweep.cl_availability in
          let delta = d -. c.Sweep.cl_availability in
          if delta < -1e-9 then
            fail "stream+detour below stream on %s/%s/%s" c.Sweep.cl_topology
              c.Sweep.cl_traffic c.Sweep.cl_profile;
          Float.min acc delta
        end)
      infinity p.Sweep.pt_cells
  in
  Printf.printf "  stream+detour minimum delta over stream: %+.2e\n%!" detour_delta;
  (* Bit-identity: the whole portfolio JSON must not depend on the
     domain count. *)
  let j = J.to_string (Sweep.to_json p) in
  let j1 =
    Prete_exec.Pool.with_pool ~domains:1 (fun pool1 ->
        J.to_string @@ Sweep.to_json
          (Sweep.run ~pool:pool1 ~seed ~epochs ~scale ~topologies ~traffic
             ~profiles ()))
  in
  if j <> j1 then fail "portfolio JSON not bit-identical at a single domain";
  Printf.printf "  portfolio bit-identical at a single domain (%d bytes)\n%!"
    (String.length j);
  let count l = J.int (List.length l) in
  sweep_json :=
    Some
      (J.Object
         [ ("seed", J.int seed); ("epochs", J.int epochs); ("scale", J.fixed 2 scale);
           ( "matrix",
             J.Object
               [ ("topologies", count topologies); ("traffic", count traffic);
                 ("profiles", count profiles); ("policies", count Sweep.policies) ] );
           ("cells", count p.Sweep.pt_cells);
           ("class_stream_min", J.Object (List.map (fun (c, m, _) -> (c, J.fixed 9 m)) stream_min));
           ("floors", J.Object (List.map (fun (c, _, f) -> (c, J.fixed 2 f)) stream_min));
           ("detour_min_delta", J.fixed 9 detour_delta); ("single_domain_identical", J.Bool true);
           ("wall_s", J.fixed 3 wall) ])

(* ------------------------------------------------------------------ *)
(* stream_scale: fleet-scale sharded streaming throughput               *)
(* ------------------------------------------------------------------ *)

let stream_scale_json = ref None

(* Every fiber of a wan-family topology streams 1 Hz telemetry through
   regional shards.  Gates: bit-identical deterministic cores at every
   shard count and repeat, the accounting identity
   alarms = debounced + shed + batched on every run, >= 4x single-shard
   aggregate throughput (samples/s, per-shard busy-time denominators)
   and >= 4x sustained ticks/s at 4 shards, and the modeled reaction
   latency quantiles (Metrics.hist_quantile) within the ladder budget
   on the backpressure leg. *)
let stream_scale () =
  section "Sharded streaming — fleet throughput, coalescing, backpressure (wan26)";
  let module Rt = Prete_rt.Runtime in
  let module Sh = Prete_rt.Shard in
  let module M = Prete_rt.Metrics in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt
  in
  let epochs = if !quick then 3 else 6 in
  let repeats = if !quick then 2 else 3 in
  let base =
    { Rt.default_config with Rt.topology = "wan26"; epochs; seed = 11 }
  in
  Prete_exec.Pool.with_pool @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  let legs =
    List.map
      (fun shards ->
        (shards, List.init repeats (fun _ -> Sh.run ~pool { base with Rt.shards })))
      [ 1; 4 ]
  in
  let all = List.concat_map snd legs in
  List.iter
    (fun r ->
      if not (Sh.accounted r) then
        fail "unaccounted reactions: %d alarms <> %d debounced + %d shed + %d batched"
          r.Sh.s_alarms r.Sh.s_debounced r.Sh.s_shed r.Sh.s_batched)
    all;
  let core = Sh.deterministic_core (List.hd all) in
  List.iter
    (fun r ->
      if not (String.equal core (Sh.deterministic_core r)) then
        fail "deterministic core differs at %d shards"
          r.Sh.s_partition.Sh.pt_shards)
    all;
  let best f rs = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 rs in
  let rate1 = best Sh.aggregate_rate (List.assoc 1 legs) in
  let rate4 = best Sh.aggregate_rate (List.assoc 4 legs) in
  let tick1 = best Sh.tick_rate (List.assoc 1 legs) in
  let tick4 = best Sh.tick_rate (List.assoc 4 legs) in
  let ratio = rate4 /. Float.max 1e-9 rate1 in
  let tick_ratio = tick4 /. Float.max 1e-9 tick1 in
  let show = List.hd (List.assoc 4 legs) in
  let fibers = Array.length show.Sh.s_partition.Sh.pt_region_of in
  Array.iter
    (fun ss ->
      Printf.printf "  shard %d: %2d fibers, %6d samples, busy %.3f s (%.2f Msamples/s)\n%!"
        ss.Sh.ss_region ss.Sh.ss_fibers ss.Sh.ss_samples ss.Sh.ss_busy_s
        (float_of_int ss.Sh.ss_samples /. Float.max ss.Sh.ss_busy_s 1e-9 /. 1e6))
    show.Sh.s_shards;
  Printf.printf
    "  %d fibers x %d flows, %d epochs: aggregate %.2f -> %.2f Msamples/s \
     (%.2fx), ticks/s %.0f -> %.0f (%.2fx)\n%!"
    fibers show.Sh.s_flows epochs (rate1 /. 1e6) (rate4 /. 1e6) ratio tick1
    tick4 tick_ratio;
  Printf.printf "  fibers x flows bandwidth: %.1f Mflow-samples/s at 4 shards\n%!"
    (rate4 *. float_of_int show.Sh.s_flows /. 1e6);
  if ratio < 4.0 then
    fail "aggregate throughput %.2fx single-shard < 4x at 4 shards" ratio;
  if tick_ratio < 4.0 then
    fail "sustained tick rate %.2fx single-shard < 4x at 4 shards" tick_ratio;
  (* Backpressure leg: a hair-trigger detector floods the coalescer so
     the bounded backlog and both shed policies actually fire. *)
  let bp_cfg policy =
    {
      base with
      Rt.epochs = 3;
      shards = 4;
      queue_bound = 2;
      debounce_s = 0;
      shed_policy = policy;
      detector =
        { Prete_rt.Detector.default_config with
          Prete_rt.Detector.cusum_k = 0.0; cusum_h = 0.01 };
    }
  in
  let bp = Sh.run ~pool (bp_cfg Rt.Drop_newest) in
  let bp_old = Sh.run ~pool (bp_cfg Rt.Drop_oldest) in
  List.iter
    (fun (name, r) ->
      if not (Sh.accounted r) then
        fail "unaccounted reactions on the %s backpressure leg" name;
      if r.Sh.s_shed = 0 then fail "%s backpressure leg shed nothing" name)
    [ ("drop-newest", bp); ("drop-oldest", bp_old) ];
  if bp.Sh.s_deferred = 0 then fail "backpressure leg deferred nothing";
  (* Shedding must stay partition-invariant: the same overloaded
     config at 1 shard sheds the same reactions. *)
  let bp1 = Sh.run ~pool { (bp_cfg Rt.Drop_newest) with Rt.shards = 1 } in
  if not (String.equal (Sh.deterministic_core bp) (Sh.deterministic_core bp1))
  then fail "shedding differs between 1 and 4 shards";
  let m = bp.Sh.s_metrics in
  let p50 = M.hist_quantile m "reaction_latency_s" 0.5 in
  let p99 = M.hist_quantile m "reaction_latency_s" 0.99 in
  let wait99 = M.hist_quantile m "queue_wait_s" 0.99 in
  Printf.printf
    "  backpressure: %d alarms = %d debounced + %d shed + %d batched; %d \
     batches, %d deferred (drop-oldest: %d shed)\n%!"
    bp.Sh.s_alarms bp.Sh.s_debounced bp.Sh.s_shed bp.Sh.s_batched
    bp.Sh.s_batches bp.Sh.s_deferred bp_old.Sh.s_shed;
  Printf.printf
    "  modeled reaction latency p50 %.2f s / p99 %.2f s; queue wait p99 %.1f s\n%!"
    p50 p99 wait99;
  if not (p50 > 0.0 && p50 <= p99) then
    fail "reaction latency quantiles inconsistent (p50 %.3f, p99 %.3f)" p50 p99;
  if p99 > 60.0 then fail "p99 modeled reaction latency %.1f s > 60 s" p99;
  let wall = Unix.gettimeofday () -. t0 in
  stream_scale_json :=
    Some
      (J.Object
         [ ("topology", J.String "wan26"); ("fibers", J.int fibers); ("flows", J.int show.Sh.s_flows);
           ("epochs", J.int epochs); ("repeats", J.int repeats); ("rate_1shard", J.fixed 0 rate1);
           ("rate_4shard", J.fixed 0 rate4); ("ratio", J.fixed 3 ratio);
           ("tick_rate_1shard", J.fixed 0 tick1); ("tick_rate_4shard", J.fixed 0 tick4);
           ("tick_ratio", J.fixed 3 tick_ratio);
           ("flow_samples_per_s", J.fixed 0 (rate4 *. float_of_int show.Sh.s_flows));
           ("cores_identical", J.Bool true); ("accounted", J.Bool true);
           ( "backpressure",
             J.Object
               [ ("alarms", J.int bp.Sh.s_alarms); ("debounced", J.int bp.Sh.s_debounced);
                 ("shed", J.int bp.Sh.s_shed); ("batched", J.int bp.Sh.s_batched);
                 ("batches", J.int bp.Sh.s_batches); ("deferred", J.int bp.Sh.s_deferred);
                 ("shed_drop_oldest", J.int bp_old.Sh.s_shed);
                 ("partition_invariant_shed", J.Bool true); ("reaction_p50_s", J.fixed 3 p50);
                 ("reaction_p99_s", J.fixed 3 p99); ("queue_wait_p99_s", J.fixed 3 wait99) ] );
           ("wall_s", J.fixed 3 wall) ])

(* ------------------------------------------------------------------ *)
(* dfl: decision-focused training — AUC vs delivered availability       *)
(* ------------------------------------------------------------------ *)

let dfl_json = ref None

(* The proxy-vs-objective experiment: fine-tune the log-loss warm start
   against the TE-loss oracle, then score BOTH models on BOTH axes —
   ranking quality (AUC on held-out telemetry) and delivered stream
   availability on identical sample paths (one stream run fixes which
   reactive plans installed in time; each model's scheme scores that
   state vector).  Gates: the
   decision-focused model's stream availability is never below the
   log-loss model's on any sweep seed (the trainer's keep-the-warm-start
   guard makes ties the worst case); training is bit-identical at 1 and
   4 domains; and the online retrain leg hot-swaps at least one version
   with zero fallback predictions. *)
let dfl_bench () =
  section "Decision-focused training — AUC vs delivered availability (grid3)";
  let module Rt = Prete_rt.Runtime in
  let module M = Prete_rt.Metrics in
  let module Dfl = Prete_ml.Dfl in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt
  in
  let env, _, corpus, nn = bundle "grid3" in
  let t0 = Unix.gettimeofday () in
  let tcfg =
    {
      Dfl.Trainer.default_config with
      Dfl.Trainer.steps = (if !quick then 2 else 4);
      pairs = (if !quick then 1 else 2);
      seed = 7;
    }
  in
  let train domains =
    Prete_exec.Pool.with_pool ~domains @@ fun pool ->
    let oracle = Dfl.Oracle.create ~pool ~scale:2.0 env in
    Dfl.Trainer.finetune_mlp ~config:tcfg ~oracle nn
  in
  let df, report = train 4 in
  Printf.printf
    "  trainer: oracle loss %.6f -> tuned %.6f -> distilled %.6f (%s, %d \
     oracle calls)\n%!"
    report.Dfl.Trainer.initial_loss report.Dfl.Trainer.tuned_loss
    report.Dfl.Trainer.distilled_loss
    (if report.Dfl.Trainer.kept then "kept" else "reverted to warm start")
    report.Dfl.Trainer.loss_calls;
  (* Same seeded descent on one domain must reproduce the run above
     bit-for-bit — gradient evaluations are sequential by design. *)
  let df1, report1 = train 1 in
  let outputs m =
    Array.map
      (fun (e : Prete_ml.Corpus.example) ->
        Prete_ml.Mlp.predict_proba m e.Prete_ml.Corpus.features)
      corpus.Prete_ml.Corpus.test
  in
  if report1 <> report || outputs df1 <> outputs df then
    fail "training differs between 1 and 4 domains";
  Printf.printf "  determinism: 1-domain retrain bit-identical to 4-domain\n%!";
  let auc m =
    Prete_ml.Metrics.auc_examples ~scores:(outputs m) corpus.Prete_ml.Corpus.test
  in
  let ll_auc = auc nn and df_auc = auc df in
  (* Same sample path, two served models.  Which epochs' reactive plans
     installed in time is model-free (detection, batching and install
     ticks never read a prediction), so one run per seed fixes the stream
     policy's state vector, and each model's scheme scores it with the
     runtime's arithmetic: an epoch's state fiber counts when a reaction
     to it installed before its cut, or before the epoch ended. *)
  let epochs = if !quick then 12 else 24 in
  let sweep_seeds = if !quick then [ 7 ] else [ 7; 41; 991 ] in
  let stream_avail seed =
    Prete_exec.Pool.with_pool @@ fun pool ->
    let cfg = { Rt.default_config with Rt.topology = "grid3"; epochs; seed } in
    let r = Prete_rt.Shard.run ~pool ~env cfg in
    let module Sim = Simulate.Internal in
    let samples = Array.map (Sim.sample_epoch env) (Sim.epoch_streams ~seed ~epochs) in
    let in_time e fb =
      List.exists
        (fun (d : Rt.detection) ->
          d.Rt.d_epoch = e && d.Rt.d_fiber = fb
          &&
          match d.Rt.d_install with
          | Some i ->
            i <= (match d.Rt.d_cut with Some c -> c - 1 | None -> ((e + 1) * Rt.Internal.epoch_len) - 1)
          | None -> false)
        r.Prete_rt.Shard.s_detections
    in
    let state =
      Array.mapi
        (fun e s -> match s.Sim.es_state with Some fb when in_time e fb -> Some fb | _ -> None)
        samples
    in
    let epoch_cuts = Array.map (fun s -> s.Sim.es_cuts) samples in
    let demands =
      Traffic.demand env.Availability.traffic ~scale:cfg.Rt.scale ~epoch:env.Availability.epoch
    in
    let avail m =
      Sim.eval_epochs pool env
        (Schemes.prete_default ~predictor:(Prete_ml.Mlp.predict_proba m) ())
        ~demands ~state ~epoch_cuts
    in
    (avail nn, avail df)
  in
  let sweep =
    List.map
      (fun seed ->
        let ll, dfa = stream_avail seed in
        Printf.printf "  seed %4d: log-loss %.5f -> decision-focused %.5f\n%!"
          seed ll dfa;
        if dfa < ll -. 1e-9 then
          fail "decision-focused availability below log-loss at seed %d" seed;
        (seed, ll, dfa))
      sweep_seeds
  in
  Printf.printf
    "  AUC: log-loss %.4f, decision-focused %.4f (availability is the \
     objective; ranking may give ground)\n%!"
    ll_auc df_auc;
  (* Online retrain leg: the runtime owns its model, consumes the
     measured alarm stream, and must hot-swap at least one dfl-v<n>
     version with zero dropped or fallback predictions. *)
  let retrain_cfg =
    {
      Rt.default_config with
      Rt.topology = "grid3";
      epochs;
      seed = 3;
      predictor = Rt.Nn 3;
      retrain =
        Some
          {
            Rt.rt_every = max 1 (epochs / 4);
            rt_steps = 1;
            rt_pairs = 1;
            rt_min_events = 1;
          };
    }
  in
  let rr =
    Prete_exec.Pool.with_pool (fun pool -> Prete_rt.Shard.run ~pool ~env retrain_cfg)
  in
  let m = rr.Prete_rt.Shard.s_metrics in
  let retrains = M.counter m "retrains" in
  let swaps = M.counter rr.Prete_rt.Shard.s_aux "predictor_swaps" in
  let fallbacks = M.counter m "predictor_fallbacks" in
  Printf.printf
    "  retrain leg: %d retrains, %d swaps, %d fallbacks, swap latency max \
     %.6f s, stream availability %.5f\n%!"
    retrains swaps fallbacks
    (M.wall_hist_max m "swap_s")
    rr.Prete_rt.Shard.s_avail_stream;
  if retrains < 1 || swaps < 1 then
    fail "online retrain never swapped a model version in %d epochs" epochs;
  if fallbacks > 0 then fail "predictions fell back during hot swaps";
  let wall = Unix.gettimeofday () -. t0 in
  let avg f = List.fold_left (fun a x -> a +. f x) 0.0 sweep
              /. float_of_int (List.length sweep) in
  let module T = Dfl.Trainer in
  let nine = J.fixed 9 in
  let model auc avail = J.Object [ ("auc", J.fixed 6 auc); ("availability", nine avail) ] in
  let seed_json (seed, ll, d) =
    J.Object [ ("seed", J.int seed); ("logloss", nine ll); ("decision", nine d) ]
  in
  dfl_json :=
    Some
      (J.Object
         [ ("topology", J.String "grid3"); ("epochs", J.int epochs);
           ( "trainer",
             J.Object
               [ ("steps", J.int tcfg.T.steps); ("pairs", J.int tcfg.T.pairs);
                 ("seed", J.int tcfg.T.seed); ("initial_loss", nine report.T.initial_loss);
                 ("tuned_loss", nine report.T.tuned_loss);
                 ("distilled_loss", nine report.T.distilled_loss); ("kept", J.Bool report.T.kept);
                 ("oracle_calls", J.int report.T.loss_calls) ] );
           ("domains_bit_identical", J.Bool true);
           ( "models",
             J.Object
               [ ("logloss", model ll_auc (avg (fun (_, ll, _) -> ll)));
                 ("decision", model df_auc (avg (fun (_, _, d) -> d))) ] );
           ("sweep", J.Array (List.map seed_json sweep));
           ( "retrain",
             J.Object
               [ ("retrains", J.int retrains); ("swaps", J.int swaps); ("fallbacks", J.int fallbacks);
                 ("availability", nine rr.Prete_rt.Shard.s_avail_stream) ] );
           ("wall_s", J.fixed 3 wall) ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let env, _, _, nn = bundle "B4" in
  let topo = env.Availability.ts.Tunnels.topo in
  let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:12 in
  let probs = env.Availability.model.Fiber_model.p_cut in
  let problem = Te.make_problem ~ts:env.Availability.ts ~demands ~probs ~beta:0.999 () in
  let event = env.Availability.degr_events.(0) in
  let batch = Array.sub env.Availability.degr_events 0 8 in
  let small_lp () =
    let m = Prete_lp.Lp.create () in
    let x = Prete_lp.Lp.add_var m "x" and y = Prete_lp.Lp.add_var m "y" in
    ignore (Prete_lp.Lp.add_constraint m [ (1.0, x) ] Prete_lp.Lp.Le 4.0);
    ignore (Prete_lp.Lp.add_constraint m [ (2.0, y) ] Prete_lp.Lp.Le 12.0);
    ignore (Prete_lp.Lp.add_constraint m [ (3.0, x); (2.0, y) ] Prete_lp.Lp.Le 18.0);
    Prete_lp.Lp.set_objective m Prete_lp.Lp.Maximize [ (3.0, x); (5.0, y) ];
    ignore (Prete_lp.Simplex.solve m)
  in
  let tests =
    [
      Test.make ~name:"simplex_tiny" (Staged.stage small_lp);
      Test.make ~name:"te_solve_b4"
        (Staged.stage (fun () -> ignore (Te.solve ~relaxation_start:false problem)));
      Test.make ~name:"nn_inference"
        (Staged.stage (fun () -> ignore (Prete_ml.Mlp.predict_proba nn event)));
      Test.make ~name:"nn_inference_batch8"
        (Staged.stage (fun () -> ignore (Prete_ml.Mlp.predict_batch nn batch)));
      Test.make ~name:"scenario_enumeration"
        (Staged.stage (fun () -> ignore (Scenario.enumerate ~probs ())));
      Test.make ~name:"yen_k4_b4"
        (Staged.stage (fun () -> ignore (Routing.k_shortest topo ~k:4 ~src:0 ~dst:11 ())));
      Test.make ~name:"algorithm1_react"
        (Staged.stage (fun () ->
             ignore (Tunnel_update.react env.Availability.ts ~degraded_fiber:3 ())));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"g" [ test ]) in
      let a = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-24s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n%!" name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* Registry and driver                                                  *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1a", "loss time series of fibers that cut", fig1a);
    ("fig1b", "CDF of IP capacity lost per cut", fig1b);
    ("fig1c", "flows/tunnels affected per cut", fig1c);
    ("fig4a", "degradation length distribution", fig4a);
    ("fig4b", "coarse polling misses degradations", fig4b);
    ("fig5a", "degradation-to-cut delay distribution", fig5a);
    ("fig5b", "normalized event counts", fig5b);
    ("fig6", "failure proportion vs features", fig6);
    ("table1", "feature chi-square tests", table1);
    ("table3", "topology inventory", table3);
    ("table6", "epoch contingency + chi-square", table6);
    ("fig10", "testbed scenario timeline", fig10);
    ("fig11", "controller pipeline latency", fig11);
    ("fig12", "degradation/cut linearity, Weibull CDF", fig12);
    ("fig13", "availability vs demand scale", fig13);
    ("table4", "PreTE satisfied-demand gains", table4);
    ("table5", "predictor precision/recall", table5);
    ("fig14", "prediction error distribution", fig14);
    ("fig15", "prediction model vs availability", fig15);
    ("fig16a", "new-tunnel ratio vs availability", fig16a);
    ("fig16b", "new-tunnel ratio vs TE runtime", fig16b);
    ("fig17", "workload vs capacity uncertainty", fig17);
    ("fig18", "production case", fig18);
    ("fig19", "tunnel traffic variation", fig19);
    ("fig20a", "telemetry granularity", fig20a);
    ("fig20b", "predictable share alpha sweep", fig20b);
    ("table8", "NN feature ablation", table8);
    ("mc_check", "Monte-Carlo vs analytic cross-check", mc_check);
    ("ablate_cutoff", "scenario cutoff ablation", ablate_cutoff);
    ("ablate_mip", "MIP strategy ablation", ablate_mip);
    ("warmstart", "warm vs cold solver pivots + plan-cache hit rate", warmstart);
    ("fallback", "fallback-path latency per ladder rung", fallback);
    ("parallel", "domain-pool scaling: 1/2/4-domain walls + determinism", parallel);
    ("lp_scale", "LU simplex scaling on TE LPs, dense as oracle", lp_scale);
    ("stream", "streaming runtime: detection/reaction latency + availability", stream);
    ("stream_scale", "sharded fleet streaming: throughput, coalescing, backpressure", stream_scale);
    ("detour", "precomputed detour tier vs ladder: chaos ablation", detour);
    ("sweep", "scenario matrix portfolio: per-class floors + determinism", sweep_bench);
    ("dfl", "decision-focused training: AUC vs delivered availability", dfl_bench);
  ]

let () =
  let only = ref [] in
  let run_kernels = ref false in
  let list_only = ref false in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--kernels" :: rest ->
      run_kernels := true;
      parse rest
    | "--dense-oracle" :: rest ->
      dense_oracle := true;
      parse rest
    | "--list" :: rest ->
      list_only := true;
      parse rest
    | "--only" :: ids :: rest ->
      only := String.split_on_char ',' ids;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  parse args;
  if !list_only then begin
    List.iter (fun (id, desc, _) -> Printf.printf "%-14s %s\n" id desc) experiments;
    Printf.printf "%-14s %s\n" "kernels" "Bechamel micro-benchmarks";
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  let selected =
    if !only = [] then experiments
    else
      List.map
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some e -> e
          | None when id = "kernels" -> ("kernels", "micro-benchmarks", kernels)
          | None ->
            Printf.eprintf "unknown experiment id %s (try --list)\n" id;
            exit 2)
        !only
  in
  let walls = ref [] in
  List.iter
    (fun (id, _, run) ->
      let w0 = Unix.gettimeofday () in
      run ();
      walls := (id, Unix.gettimeofday () -. w0) :: !walls)
    selected;
  if !run_kernels || !only = [] then kernels ();
  (* Machine-readable perf trajectory: per-experiment wall times plus
     each detailed section that actually ran (experiments that did not
     run are omitted instead of emitted as nulls). *)
  let json =
    let exps =
      List.rev_map
        (fun (id, w) -> J.Object [ ("id", J.String id); ("wall_s", J.fixed 3 w) ])
        !walls
    in
    let sections =
      List.filter_map
        (fun (name, r) -> Option.map (fun v -> (name, v)) !r)
        [
          ("warmstart", warmstart_json);
          ("plan_cache", chaos_cache_json);
          ("parallel", parallel_json);
          ("lp_scale", lp_scale_json);
          ("stream", stream_json);
          ("stream_scale", stream_scale_json);
          ("detour", detour_json);
          ("sweep", sweep_json);
          ("dfl", dfl_json);
        ]
    in
    J.Object ([ ("pr", J.int 10); ("experiments", J.Array exps) ] @ sections)
  in
  Out_channel.with_open_bin "BENCH_PR10.json" (fun oc ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "\nWrote BENCH_PR10.json\n";
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
