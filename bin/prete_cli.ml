(* Command-line front end for the PreTE library.

   Subcommands:
     topology      — show a topology's inventory
     dataset       — generate a synthetic optical event log and summarize it
     train         — train and evaluate the failure predictors
     solve         — run the PreTE optimization for one TE period
     availability  — availability of a TE scheme at a demand scale
     simulate      — Monte-Carlo epoch simulation (cross-check)
     pipeline      — controller reaction timeline for a degradation *)

open Cmdliner
open Prete
open Prete_net

(* Reject bad user input with a one-line error and exit 1, instead of
   cmdliner's uncaught-exception banner (exit 125). *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("prete: " ^ msg);
      exit 1)
    fmt

(* A named topology; an unknown name is bad input, not an internal error. *)
let topology name =
  try Topology.by_name name with Invalid_argument msg -> fail "%s" msg

let require_positive flag n =
  if n <= 0 then fail "%s must be positive (got %d)" flag n

let require_nonnegative flag n =
  if n < 0 then fail "%s must be non-negative (got %d)" flag n

(* A fiber id of [topo]: out-of-range ids are bad input, not wrapped. *)
let require_fiber flag topo fb =
  let nf = Topology.num_fibers topo in
  if fb < 0 || fb >= nf then
    fail "%s must be a fiber id in [0, %d) (got %d)" flag nf fb

(* A name the library rejects with [Invalid_argument] (a traffic model,
   a fault profile) is bad input too. *)
let checked f x = try f x with Invalid_argument msg -> fail "%s" msg

(* Write a JSON file (one value, then a newline). *)
let write_json path v =
  try
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Prete_util.Json.to_string v);
        output_char oc '\n')
  with Sys_error msg -> fail "%s" msg

let topo_arg =
  let doc = "Topology: B4, IBM or TWAN." in
  Arg.(value & opt string "B4" & info [ "t"; "topology" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Demand scale factor (non-negative)." in
  let check scale =
    if Float.is_nan scale || scale < 0.0 then
      fail "--scale must be non-negative (got %g)" scale;
    scale
  in
  Term.(
    const check
    $ Arg.(value & opt float 2.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc))

let beta_arg =
  let doc = "Availability level beta for the optimization, in (0, 1)." in
  let check beta =
    if not (beta > 0.0 && beta < 1.0) then fail "--beta must be in (0, 1) (got %g)" beta;
    beta
  in
  Term.(
    const check
    $ Arg.(value & opt float 0.999 & info [ "b"; "beta" ] ~docv:"BETA" ~doc))

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Worker domains for parallel evaluation (defaults to the \
     $(b,PRETE_DOMAINS) environment variable, else 1).  Results are \
     bit-identical at any value."
  in
  let check domains =
    Option.iter (require_positive "--domains") domains;
    domains
  in
  Term.(
    const check
    $ Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc))

(* Evaluation commands run against a pool sized by --domains (or
   PRETE_DOMAINS), shut down when the command finishes. *)
let with_pool domains f = Prete_exec.Pool.with_pool ?domains f

let scheme_of_string ~predictor name =
  match String.lowercase_ascii name with
  | "ecmp" -> Schemes.Ecmp
  | "smore" -> Schemes.Smore
  | "ffc1" -> Schemes.Ffc 1
  | "ffc2" -> Schemes.Ffc 2
  | "teavar" -> Schemes.Teavar
  | "arrow" -> Schemes.Arrow
  | "flexile" -> Schemes.Flexile
  | "prete" -> Schemes.prete_default ~predictor ()
  | "prete-naive" -> Schemes.prete_naive ~predictor ()
  | "oracle" -> Schemes.Oracle
  | other ->
    fail
      "unknown scheme %s (known: ecmp, smore, ffc1, ffc2, teavar, arrow, \
       flexile, prete, prete-naive, oracle)"
      other

(* ------------------------------------------------------------------ *)

let topology_cmd =
  let run name file export =
    (* An unreadable, malformed or unwritable file is bad input. *)
    let io f x = try f x with Sys_error msg -> fail "%s" msg in
    let load path =
      try io Topology_io.load path with
      | Topology_io.Parse_error (line, msg) -> fail "%s:%d: %s" path line msg
      | Invalid_argument msg -> fail "%s: %s" path msg
    in
    let topo = match file with Some path -> load path | None -> topology name in
    (match export with
    | Some path ->
      io (Topology_io.save topo) path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    Format.printf "%a@." Topology.pp_summary topo;
    let traffic = Traffic.generate topo in
    let ts = Tunnels.build topo traffic.Traffic.pairs in
    Printf.printf "flows: %d, tunnels: %d, traffic matrices: %d\n"
      (Array.length ts.Tunnels.flows)
      (Array.length ts.Tunnels.tunnels)
      (Array.length traffic.Traffic.matrices);
    Printf.printf "worst single-cut capacity loss: %.1f Tbps\n"
      (Array.init (Topology.num_fibers topo) (fun f ->
           Topology.capacity_lost_on_cut topo f)
      |> Array.fold_left Float.max 0.0
      |> fun x -> x /. 1000.0)
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Load a custom topology file instead of a built-in.")
  in
  let export =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"PATH" ~doc:"Also write the topology to a file.")
  in
  let doc = "Show a topology's inventory (Table 3); optionally import/export files." in
  Cmd.v (Cmd.info "topology" ~doc) Term.(const run $ topo_arg $ file $ export)

let dataset_cmd =
  let run name seed days =
    require_positive "--days" days;
    let topo = topology name in
    let ds = Prete_optics.Dataset.generate ~seed ~horizon_days:days topo in
    Printf.printf "%d degradations, %d cuts over %d days\n"
      (Array.length ds.Prete_optics.Dataset.degradations)
      (Array.length ds.Prete_optics.Dataset.cuts)
      days;
    Printf.printf "predictable cuts: %.1f%% (alpha); P(cut|degradation) = %.2f\n"
      (100.0 *. Prete_optics.Dataset.predictable_fraction ds)
      (Prete_optics.Dataset.hazard_fraction ds);
    let r = Prete_util.Hypothesis.chi2_contingency (Prete_optics.Dataset.epoch_contingency ds) in
    Printf.printf "degradation/cut dependence: log10 p = %.0f\n"
      r.Prete_util.Hypothesis.log10_p
  in
  let days =
    Arg.(value & opt int 365 & info [ "days" ] ~docv:"DAYS" ~doc:"Horizon in days.")
  in
  let doc = "Generate and summarize a synthetic optical event log." in
  Cmd.v (Cmd.info "dataset" ~doc) Term.(const run $ topo_arg $ seed_arg $ days)

let train_cmd =
  let run name seed epochs =
    require_positive "--epochs" epochs;
    let topo = topology name in
    let ds = Prete_optics.Dataset.generate ~seed topo in
    let corpus = Prete_ml.Corpus.of_dataset ds in
    Printf.printf "training on %d events (%.0f%% positive), testing on %d\n"
      (Array.length corpus.Prete_ml.Corpus.train)
      (100.0 *. Prete_ml.Corpus.class_balance corpus.Prete_ml.Corpus.train)
      (Array.length corpus.Prete_ml.Corpus.test);
    let eval label predict =
      let c = Prete_ml.Metrics.evaluate ~predict corpus.Prete_ml.Corpus.test in
      Printf.printf "%-10s P %.2f  R %.2f  F1 %.2f  Acc %.2f\n" label
        (Prete_ml.Metrics.precision c) (Prete_ml.Metrics.recall c)
        (Prete_ml.Metrics.f1 c) (Prete_ml.Metrics.accuracy c)
    in
    let nn =
      Prete_ml.Mlp.train
        ~config:{ Prete_ml.Mlp.default_config with Prete_ml.Mlp.epochs }
        corpus.Prete_ml.Corpus.train
    in
    eval "NN" (Prete_ml.Mlp.predict_label nn);
    let dt = Prete_ml.Dtree.train corpus.Prete_ml.Corpus.train in
    eval "DT" (Prete_ml.Dtree.predict_label dt);
    let st = Prete_ml.Baselines.statistic_train corpus.Prete_ml.Corpus.train in
    eval "Statistic" (Prete_ml.Baselines.statistic_label st)
  in
  let epochs =
    Arg.(value & opt int 25 & info [ "epochs" ] ~docv:"N" ~doc:"Training epochs.")
  in
  let doc = "Train and evaluate the failure predictors (Table 5)." in
  Cmd.v (Cmd.info "train" ~doc) Term.(const run $ topo_arg $ seed_arg $ epochs)

let solve_cmd =
  let run name scale beta degraded =
    let topo = topology name in
    Option.iter (require_fiber "--degraded" topo) degraded;
    let traffic = Traffic.generate topo in
    let ts = Tunnels.build topo traffic.Traffic.pairs in
    let model = Prete_optics.Fiber_model.generate topo in
    let demands = Traffic.demand traffic ~scale ~epoch:12 in
    let rng = Prete_util.Rng.create 5 in
    let obs =
      match degraded with
      | None -> { Calibrate.degraded = []; Calibrate.will_cut = [] }
      | Some fb ->
        let feats = Prete_optics.Hazard.sample_features rng ~topo ~fiber:fb ~epoch:48 in
        { Calibrate.degraded = [ (fb, feats) ]; Calibrate.will_cut = [] }
    in
    let predictor = Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo) in
    let probs = Calibrate.probabilities (Calibrate.Calibrated predictor) model obs in
    let ts =
      match degraded with
      | Some fb -> Tunnel_update.merged (Tunnel_update.react ts ~degraded_fiber:fb ())
      | None -> ts
    in
    let p = Te.make_problem ~ts ~demands ~probs ~beta () in
    let sol, elapsed = Controller.wall (fun () -> Te.solve p) in
    Printf.printf "phi = %.4f, expected served = %.4f (%.2f s, %d LPs, %d pivots)\n"
      sol.Te.phi sol.Te.expected_served elapsed
      sol.Te.stats.Te.lp_solves sol.Te.stats.Te.lp_pivots;
    Format.printf "solver: %a@." Prete_lp.Solver_stats.pp sol.Te.solver
  in
  let degraded =
    Arg.(
      value
      & opt (some int) None
      & info [ "degraded" ] ~docv:"FIBER" ~doc:"Fiber currently degrading (triggers Algorithm 1).")
  in
  let doc = "Run the PreTE optimization for one TE period." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(const run $ topo_arg $ scale_arg $ beta_arg $ degraded)

let availability_cmd =
  let run name scale scheme_name domains =
    let topo = topology name in
    let env = Availability.make_env topo in
    let predictor = Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo) in
    let scheme = scheme_of_string ~predictor scheme_name in
    let a =
      with_pool domains (fun pool -> Availability.availability ~pool env scheme ~scale)
    in
    Printf.printf "%s on %s at %.1fx demand: availability %.4f%% (%.2f nines)\n"
      (Schemes.name scheme) name scale (100.0 *. a) (Availability.nines a)
  in
  let scheme =
    Arg.(
      value & opt string "prete"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"ecmp | smore | ffc1 | ffc2 | teavar | arrow | flexile | prete | prete-naive | oracle")
  in
  let doc = "Evaluate a TE scheme's availability (Fig. 13)." in
  Cmd.v (Cmd.info "availability" ~doc)
    Term.(const run $ topo_arg $ scale_arg $ scheme $ domains_arg)

let pipeline_cmd =
  let run name fiber =
    let topo = topology name in
    require_fiber "--fiber" topo fiber;
    let env = Availability.make_env topo in
    let nf = Topology.num_fibers topo in
    let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:12 in
    let update = Tunnel_update.react env.Availability.ts ~degraded_fiber:fiber () in
    let merged = Tunnel_update.merged update in
    let predictor = Prete_optics.Hazard.eval ~num_fibers:nf in
    let probs =
      Calibrate.probabilities (Calibrate.Calibrated predictor) env.Availability.model
        { Calibrate.degraded = [ (fiber, env.Availability.degr_events.(fiber)) ];
          Calibrate.will_cut = [] }
    in
    let _sol, report =
      Controller.run
        ~infer:(fun () -> ignore (predictor env.Availability.degr_events.(fiber)))
        ~regen:(fun () -> ignore (Scenario.enumerate ~probs ()))
        ~te:(fun () ->
          Te.solve ~relaxation_start:false
            (Te.make_problem ~ts:merged ~demands ~probs ~beta:env.Availability.beta ()))
        ~n_new_tunnels:(Tunnel_update.num_new update)
        ()
    in
    List.iter
      (fun t ->
        Printf.printf "%-24s %7.3f s\n" (Controller.stage_name t.Controller.stage)
          t.Controller.duration_s)
      report.Controller.timeline;
    Printf.printf "end-to-end: %.2f s (%d new tunnels)\n" report.Controller.end_to_end_s
      (Tunnel_update.num_new update)
  in
  let fiber =
    Arg.(value & opt int 3 & info [ "fiber" ] ~docv:"FIBER" ~doc:"Degrading fiber id.")
  in
  let doc = "Controller reaction timeline for a degradation (Fig. 11)." in
  Cmd.v (Cmd.info "pipeline" ~doc) Term.(const run $ topo_arg $ fiber)

let simulate_cmd =
  let run name scale scheme_name epochs domains =
    require_positive "--epochs" epochs;
    let topo = topology name in
    let env = Availability.make_env topo in
    let predictor = Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo) in
    let scheme = scheme_of_string ~predictor scheme_name in
    with_pool domains (fun pool ->
        let analytic = Availability.availability ~pool env scheme ~scale in
        let r = Simulate.run ~epochs ~pool env scheme ~scale in
        Printf.printf
          "%s on %s at %.1fx over %d epochs:\n  Monte-Carlo availability %.5f (analytic %.5f)\n"
          (Schemes.name scheme) name scale epochs r.Simulate.availability analytic;
        Printf.printf
          "  %d epochs with cuts (%d with simultaneous cuts), %d with degradations\n"
          r.Simulate.cut_epochs r.Simulate.multi_cut_epochs r.Simulate.degradation_epochs;
        if Prete_exec.Pool.domains pool > 1 then
          Format.printf "  pool: %a@." Prete_exec.Pool_stats.pp
            (Prete_exec.Pool.stats pool))
  in
  let scheme =
    Arg.(
      value & opt string "prete"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"ecmp | smore | ffc1 | teavar | arrow | flexile | prete | oracle")
  in
  let epochs =
    Arg.(value & opt int 20000 & info [ "epochs" ] ~docv:"N" ~doc:"Epochs to simulate.")
  in
  let doc = "Monte-Carlo epoch simulation (cross-check of the analytic evaluator)." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const run $ topo_arg $ scale_arg $ scheme $ epochs $ domains_arg)

let chaos_cmd =
  let run name scale scheme_name seed epochs domains =
    require_positive "--epochs" epochs;
    let topo = topology name in
    let env = Availability.make_env topo in
    let predictor = Prete_optics.Hazard.eval ~num_fibers:(Topology.num_fibers topo) in
    let scheme = scheme_of_string ~predictor scheme_name in
    let baseline, entries =
      with_pool domains (fun pool ->
          Simulate.chaos_sweep ~seed ~epochs ~pool env scheme ~scale)
    in
    Printf.printf "%s on %s at %.1fx demand, %d epochs per run\n"
      (Schemes.name scheme) name scale epochs;
    Printf.printf "fault-free baseline: availability %.5f (%d/%d/%d primary/cached/equal-split)\n\n"
      baseline.Simulate.c_availability baseline.Simulate.c_primary
      baseline.Simulate.c_cached baseline.Simulate.c_equal_split;
    Printf.printf "%-20s %12s %9s %8s %8s %8s %6s\n" "fault class" "availability"
      "delta" "primary" "cached" "equal" "gaps";
    Array.iter
      (fun e ->
        let r = e.Simulate.sw_result in
        Printf.printf "%-20s %12.5f %+9.5f %8d %8d %8d %6d\n"
          (Prete.Faults.class_name e.Simulate.sw_class)
          r.Simulate.c_availability e.Simulate.sw_delta r.Simulate.c_primary
          r.Simulate.c_cached r.Simulate.c_equal_split r.Simulate.c_gap_epochs)
      entries;
    let causes =
      List.sort_uniq compare
        (List.concat_map
           (fun e -> List.map fst e.Simulate.sw_result.Simulate.c_causes)
           (Array.to_list entries))
    in
    if causes <> [] then
      Printf.printf "\nfallback causes seen: %s\n" (String.concat ", " causes)
  in
  let scheme =
    Arg.(
      value & opt string "prete"
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"ecmp | smore | ffc1 | ffc2 | teavar | arrow | flexile | prete | prete-naive | oracle")
  in
  let epochs =
    Arg.(value & opt int 400 & info [ "epochs" ] ~docv:"N" ~doc:"Epochs per fault class.")
  in
  let doc =
    "Fault-injection sweep: availability delta vs a fault-free baseline per fault class."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ topo_arg $ scale_arg $ scheme $ seed_arg $ epochs $ domains_arg)

let stream_cmd =
  let print_result (r : Prete_rt.Shard.result) =
    let m = r.Prete_rt.Shard.s_metrics in
    let pt = r.Prete_rt.Shard.s_partition in
    Printf.printf
      "%d epochs, %d fibers x %d flows across %d shards (seed %d): %d with \
       degradations, %d with cuts\n"
      r.Prete_rt.Shard.s_epochs
      (Array.length pt.Prete_rt.Shard.pt_region_of)
      r.Prete_rt.Shard.s_flows pt.Prete_rt.Shard.pt_shards
      r.Prete_rt.Shard.s_config.Prete_rt.Runtime.seed
      r.Prete_rt.Shard.s_degr_epochs r.Prete_rt.Shard.s_cut_epochs;
    Printf.printf
      "samples %d; alarms %d = debounced %d + shed %d + batched %d (%s); \
       %d batches, %d deferred\n"
      (Prete_rt.Metrics.counter m "samples")
      r.Prete_rt.Shard.s_alarms r.Prete_rt.Shard.s_debounced
      r.Prete_rt.Shard.s_shed r.Prete_rt.Shard.s_batched
      (if Prete_rt.Shard.accounted r then "accounted" else "UNACCOUNTED")
      r.Prete_rt.Shard.s_batches r.Prete_rt.Shard.s_deferred;
    Printf.printf
      "reaction latency p50 %.2f s / p99 %.2f s; aggregate %.0f samples/s, \
       slowest shard %.0f ticks/s\n"
      (Prete_rt.Metrics.hist_quantile m "reaction_latency_s" 0.5)
      (Prete_rt.Metrics.hist_quantile m "reaction_latency_s" 0.99)
      (Prete_rt.Shard.aggregate_rate r)
      (Prete_rt.Shard.tick_rate r);
    Printf.printf "state-fiber cuts: %d reacted in time, %d missed\n"
      r.Prete_rt.Shard.s_reacted_in_time r.Prete_rt.Shard.s_missed;
    Printf.printf
      "availability: stream %.5f / periodic-only %.5f / instant %.5f\n"
      r.Prete_rt.Shard.s_avail_stream r.Prete_rt.Shard.s_avail_periodic
      r.Prete_rt.Shard.s_avail_instant;
    (match r.Prete_rt.Shard.s_avail_detour with
    | Some v ->
      Printf.printf
        "detour tier: %d activations, %d flows patched, %d epochs rescued, \
         handoff mean %.1f s; stream+detour %.5f\n"
        (Prete_rt.Metrics.counter m "detour_activations")
        (Prete_rt.Metrics.counter m "detour_flows_patched")
        (Prete_rt.Metrics.counter m "detour_rescued_epochs")
        (Prete_rt.Metrics.hist_mean m "detour_handoff_s")
        v
    | None -> print_endline "detour tier: disarmed (--no-detour)");
    (let retrains = Prete_rt.Metrics.counter m "retrains" in
     if retrains > 0 then
       Printf.printf
         "online retrain: %d versions swapped in, swap latency mean %.6f s / \
          max %.6f s\n"
         retrains
         (Prete_rt.Metrics.wall_hist_mean m "swap_s")
         (Prete_rt.Metrics.wall_hist_max m "swap_s"));
    Array.iter
      (fun ss ->
        Printf.printf
          "  shard %d: %d fibers, %d samples, %d alarms, busy %.3f s\n"
          ss.Prete_rt.Shard.ss_region ss.Prete_rt.Shard.ss_fibers
          ss.Prete_rt.Shard.ss_samples ss.Prete_rt.Shard.ss_alarms
          ss.Prete_rt.Shard.ss_busy_s)
      r.Prete_rt.Shard.s_shards
  in
  let run name traffic epochs seed scale ewma_alpha cusum_k cusum_h debounce
      gap_rate dup_rate reorder_rate max_delay deadline predictor stale_after
      no_detour shards queue_bound shed_policy retrain_every retrain_steps
      retrain_pairs retrain_min_events shard_check trace_out replay_path
      domains =
    match replay_path with
    | Some path ->
      (* Replay mode: re-run a dumped configuration and verify the
         deterministic core.  A file that is no dump, or a dump whose
         config the flags would reject, is bad input: reject it before
         any run.  A dump of the retired single-loop engine reads, but
         its core has another shape: it replays as a mismatch. *)
      let text =
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error msg -> fail "%s" msg
      in
      let dump =
        match Prete_util.Json.parse text with
        | Ok v -> v
        | Error e -> fail "%s: not a stream dump (%s)" path e
      in
      let replayed = function Ok v -> v | Error e -> fail "%s: %s" path e in
      let _, note = replayed (Prete_rt.Runtime.config_of_dump dump) in
      Option.iter (fun n -> prerr_endline ("prete: note: " ^ n)) note;
      let r, ok =
        replayed (with_pool domains (fun pool -> Prete_rt.Shard.replay ~pool dump))
      in
      Printf.printf
        "replayed %d epochs on %d shards: availability stream %.5f / \
         periodic %.5f / instant %.5f\n"
        r.Prete_rt.Shard.s_epochs
        r.Prete_rt.Shard.s_partition.Prete_rt.Shard.pt_shards
        r.Prete_rt.Shard.s_avail_stream r.Prete_rt.Shard.s_avail_periodic
        r.Prete_rt.Shard.s_avail_instant;
      if ok then print_endline "MATCH: deterministic core identical to the dump"
      else begin
        print_endline "MISMATCH: deterministic core differs from the dump";
        exit 1
      end
    | None ->
      let shed_policy =
        try Prete_rt.Runtime.shed_policy_of_string shed_policy
        with Failure _ ->
          fail "unknown shed policy %s (drop-newest | drop-oldest)" shed_policy
      in
      let cfg =
        {
          Prete_rt.Runtime.default_config with
          Prete_rt.Runtime.topology = name;
          traffic;
          epochs;
          seed;
          scale;
          detector =
            {
              Prete_rt.Detector.default_config with
              Prete_rt.Detector.ewma_alpha;
              cusum_k;
              cusum_h;
            };
          impairments =
            {
              Prete_rt.Stream.gap_rate;
              dup_rate;
              reorder_rate;
              max_delay;
            };
          debounce_s = debounce;
          deadline_s = deadline;
          predictor =
            (try Prete_rt.Runtime.predictor_kind_of_string predictor
             with Failure _ ->
               fail "unknown predictor %s (hazard | prior | nn:<epochs>)" predictor);
          stale_after;
          detour = not no_detour;
          shards;
          queue_bound;
          shed_policy;
          retrain =
            (if retrain_every = 0 then None
             else
               Some
                 {
                   Prete_rt.Runtime.rt_every = retrain_every;
                   rt_steps = retrain_steps;
                   rt_pairs = retrain_pairs;
                   rt_min_events = retrain_min_events;
                 });
        }
      in
      checked Prete_rt.Runtime.check_config cfg;
      let r = with_pool domains (fun pool -> Prete_rt.Shard.run ~pool cfg) in
      print_result r;
      (match trace_out with
      | Some path ->
        write_json path (Prete_rt.Shard.dump r);
        Printf.printf "wrote %s (replay with --replay %s)\n" path path
      | None -> ());
      match shard_check with
      | Some m ->
        let cfg' = { cfg with Prete_rt.Runtime.shards = max 1 m } in
        let r' = with_pool domains (fun pool -> Prete_rt.Shard.run ~pool cfg') in
        if
          String.equal
            (Prete_rt.Shard.deterministic_core r)
            (Prete_rt.Shard.deterministic_core r')
        then
          Printf.printf "CHECK OK: core bit-identical at %d and %d shards\n"
            cfg.Prete_rt.Runtime.shards cfg'.Prete_rt.Runtime.shards
        else begin
          Printf.printf "CHECK FAILED: core differs between %d and %d shards\n"
            cfg.Prete_rt.Runtime.shards cfg'.Prete_rt.Runtime.shards;
          exit 1
        end
      | None -> ()
  in
  let epochs =
    Arg.(value & opt int 40 & info [ "epochs" ] ~docv:"N" ~doc:"TE periods to stream.")
  in
  let traffic =
    Arg.(
      value & opt string "fixed"
      & info [ "traffic" ] ~docv:"MODEL"
          ~doc:
            "Demand model: fixed (the static gravity matrix) or a \
             Traffic_model spec — gravity | diurnal | flash | coremelt, \
             optionally suffixed :SEED (e.g. flash:7).")
  in
  let seed =
    Arg.(value & opt int 123 & info [ "seed" ] ~docv:"SEED" ~doc:"Sample-path seed.")
  in
  let ewma_alpha =
    Arg.(
      value
      & opt float Prete_rt.Detector.default_config.Prete_rt.Detector.ewma_alpha
      & info [ "ewma-alpha" ] ~docv:"A" ~doc:"EWMA baseline smoothing factor.")
  in
  let cusum_k =
    Arg.(
      value
      & opt float Prete_rt.Detector.default_config.Prete_rt.Detector.cusum_k
      & info [ "cusum-k" ] ~docv:"K" ~doc:"CUSUM slack per sample (dB).")
  in
  let cusum_h =
    Arg.(
      value
      & opt float Prete_rt.Detector.default_config.Prete_rt.Detector.cusum_h
      & info [ "cusum-h" ] ~docv:"H" ~doc:"CUSUM alarm threshold (dB).")
  in
  let debounce =
    Arg.(
      value & opt int 30
      & info [ "debounce" ] ~docv:"S" ~doc:"Min seconds between reactions to one fiber.")
  in
  let gap_rate =
    Arg.(
      value
      & opt float Prete_rt.Stream.default_impairments.Prete_rt.Stream.gap_rate
      & info [ "gap-rate" ] ~docv:"P" ~doc:"P(sample never arrives).")
  in
  let dup_rate =
    Arg.(
      value
      & opt float Prete_rt.Stream.default_impairments.Prete_rt.Stream.dup_rate
      & info [ "dup-rate" ] ~docv:"P" ~doc:"P(sample delivered twice).")
  in
  let reorder_rate =
    Arg.(
      value
      & opt float Prete_rt.Stream.default_impairments.Prete_rt.Stream.reorder_rate
      & info [ "reorder-rate" ] ~docv:"P" ~doc:"P(sample delayed past its tick).")
  in
  let max_delay =
    Arg.(
      value
      & opt int Prete_rt.Stream.default_impairments.Prete_rt.Stream.max_delay
      & info [ "max-delay" ] ~docv:"TICKS" ~doc:"Max delivery delay (ingest horizon).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S" ~doc:"Anytime budget per reactive solve, seconds.")
  in
  let predictor =
    Arg.(
      value & opt string "hazard"
      & info [ "predictor" ] ~docv:"KIND"
          ~doc:"hazard (ground-truth oracle) | prior (mean hazard) | nn:N (MLP, N training epochs).")
  in
  let stale_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stale-after" ] ~docv:"EPOCH"
          ~doc:"Mark the model stale at this epoch and hot-swap a fresh one at twice it.")
  in
  let no_detour =
    Arg.(
      value & flag
      & info [ "no-detour" ]
          ~doc:
            "Disarm the localized fast-recovery tier (precomputed per-fiber \
             detours installed at Detector-alarm time).")
  in
  let shards =
    Arg.(
      value
      & opt int Prete_rt.Runtime.default_config.Prete_rt.Runtime.shards
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Regional shards: the fiber set splits into N connected \
             regions, each streaming its fibers' telemetry; alarms \
             coalesce into batched re-solves.  The shard count never \
             changes the deterministic core.")
  in
  let queue_bound =
    Arg.(
      value
      & opt int Prete_rt.Runtime.default_config.Prete_rt.Runtime.queue_bound
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Coalescer backpressure: max reactions staged behind a busy \
             controller before the shed policy fires.")
  in
  let shed_policy =
    Arg.(
      value & opt string "drop-newest"
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:"drop-newest | drop-oldest — what to shed at the bound.")
  in
  let retrain_every =
    Arg.(
      value & opt int 0
      & info [ "retrain-every" ] ~docv:"N"
          ~doc:
            "Arm online decision-focused retraining: every N epochs, tune \
             the serving model's outputs against realized TE loss on the \
             measured alarm events and hot-swap the new version in. \
             0 (the default) is off.")
  in
  let retrain_steps =
    Arg.(
      value
      & opt int Prete_rt.Runtime.default_retrain.Prete_rt.Runtime.rt_steps
      & info [ "retrain-steps" ] ~docv:"N" ~doc:"SPSA descent steps per retrain.")
  in
  let retrain_pairs =
    Arg.(
      value
      & opt int Prete_rt.Runtime.default_retrain.Prete_rt.Runtime.rt_pairs
      & info [ "retrain-pairs" ] ~docv:"N"
          ~doc:"Perturbation pairs per gradient estimate.")
  in
  let retrain_min_events =
    Arg.(
      value
      & opt int Prete_rt.Runtime.default_retrain.Prete_rt.Runtime.rt_min_events
      & info [ "retrain-min-events" ] ~docv:"N"
          ~doc:"Measured events required before a due retrain fires.")
  in
  let shard_check =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-check" ] ~docv:"M"
          ~doc:
            "Re-run with M shards and verify the deterministic core is \
             byte-identical; exits 1 on mismatch.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH" ~doc:"Dump the replayable run JSON here.")
  in
  let replay_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:"Replay a dumped run and verify its deterministic core; exits 1 on mismatch.")
  in
  let doc =
    "Stream 1 Hz telemetry through online detection, prediction and reaction \
     (the prete_rt runtime)."
  in
  Cmd.v (Cmd.info "stream" ~doc)
    Term.(
      const run $ topo_arg $ traffic $ epochs $ seed $ scale_arg
      $ ewma_alpha $ cusum_k $ cusum_h $ debounce $ gap_rate $ dup_rate
      $ reorder_rate $ max_delay $ deadline $ predictor $ stale_after
      $ no_detour $ shards $ queue_bound $ shed_policy $ retrain_every
      $ retrain_steps $ retrain_pairs $ retrain_min_events $ shard_check
      $ trace_out $ replay_path $ domains_arg)

let dfl_cmd =
  let run name nn_epochs steps pairs scale seed check stream_epochs
      expect_swap out domains =
    require_nonnegative "--nn-epochs" nn_epochs;
    require_nonnegative "--steps" steps;
    require_positive "--pairs" pairs;
    Option.iter (require_positive "--check") check;
    Option.iter (require_positive "--stream") stream_epochs;
    let topo = topology name in
    let env = Availability.make_env topo in
    let ds =
      Prete_optics.Dataset.generate ~model:env.Availability.model topo
    in
    let corpus = Prete_ml.Corpus.of_dataset ds in
    let mlp =
      Prete_ml.Mlp.train
        ~config:{ Prete_ml.Mlp.default_config with Prete_ml.Mlp.epochs = nn_epochs }
        corpus.Prete_ml.Corpus.train
    in
    let tcfg =
      { Prete_ml.Dfl.Trainer.default_config with Prete_ml.Dfl.Trainer.steps; pairs; seed }
    in
    let tune pool =
      let oracle = Prete_ml.Dfl.Oracle.create ~pool ~scale env in
      Prete_ml.Dfl.Trainer.finetune_mlp ~config:tcfg ~oracle mlp
    in
    let df, report = with_pool domains tune in
    let test = corpus.Prete_ml.Corpus.test in
    let auc_of m =
      Prete_ml.Metrics.auc_examples
        ~scores:
          (Array.map
             (fun (e : Prete_ml.Corpus.example) ->
               Prete_ml.Mlp.predict_proba m e.Prete_ml.Corpus.features)
             test)
        test
    in
    let ll_auc = auc_of mlp and df_auc = auc_of df in
    let ll_avail = 1.0 -. report.Prete_ml.Dfl.Trainer.initial_loss in
    let df_avail =
      if report.Prete_ml.Dfl.Trainer.kept then
        1.0 -. report.Prete_ml.Dfl.Trainer.distilled_loss
      else ll_avail
    in
    Printf.printf
      "decision-focused fine-tune on %s (seed %d, scale %g): %d steps x %d \
       pairs, %d loss evals, tuned loss %.6f\n"
      name seed scale steps pairs report.Prete_ml.Dfl.Trainer.loss_calls
      report.Prete_ml.Dfl.Trainer.tuned_loss;
    Printf.printf "%-10s %9s %13s\n" "model" "AUC" "availability";
    Printf.printf "%-10s %9.5f %13.5f\n" "log-loss" ll_auc ll_avail;
    Printf.printf "%-10s %9.5f %13.5f  (%s)\n" "decision" df_auc df_avail
      (if report.Prete_ml.Dfl.Trainer.kept then "kept" else "reverted");
    if df_avail < ll_avail then begin
      print_endline "GATE FAILED: decision-focused availability regressed";
      exit 1
    end;
    (* The AUC can legitimately drop while availability improves — that
       gap is the whole point of training against the optimizer. *)
    let module J = Prete_util.Json in
    let stream_json = ref J.Null in
    (match stream_epochs with
    | None -> ()
    | Some n ->
      let cfg =
        {
          Prete_rt.Runtime.default_config with
          Prete_rt.Runtime.topology = name;
          epochs = n;
          seed;
          scale;
          predictor = Prete_rt.Runtime.Nn nn_epochs;
          retrain =
            Some
              {
                Prete_rt.Runtime.rt_every = max 1 (n / 4);
                rt_steps = steps;
                rt_pairs = pairs;
                rt_min_events = 1;
              };
        }
      in
      let r = with_pool domains (fun pool -> Prete_rt.Shard.run ~pool cfg) in
      let m = r.Prete_rt.Shard.s_metrics in
      let retrains = Prete_rt.Metrics.counter m "retrains" in
      (* Swaps sum over the regional servers, one at the default one
         shard. *)
      let swaps = Prete_rt.Metrics.counter r.Prete_rt.Shard.s_aux "predictor_swaps" in
      let fallbacks = Prete_rt.Metrics.counter m "predictor_fallbacks" in
      Printf.printf
        "stream leg: %d epochs, %d retrains, %d swaps, %d fallbacks, swap \
         latency max %.6f s, stream availability %.5f\n"
        n retrains swaps fallbacks
        (Prete_rt.Metrics.wall_hist_max m "swap_s")
        r.Prete_rt.Shard.s_avail_stream;
      stream_json :=
        J.Object
          [ ("epochs", J.int n); ("retrains", J.int retrains); ("swaps", J.int swaps);
            ("fallbacks", J.int fallbacks);
            ("avail_stream", J.float r.Prete_rt.Shard.s_avail_stream) ];
      if expect_swap && (retrains < 1 || swaps < 1) then begin
        print_endline
          "GATE FAILED: no model version was swapped during the stream leg";
        exit 1
      end;
      if expect_swap && fallbacks > 0 then begin
        print_endline "GATE FAILED: predictions fell back during hot swaps";
        exit 1
      end);
    (match check with
    | None -> ()
    | Some md ->
      let df2, report2 = Prete_exec.Pool.with_pool ~domains:md tune in
      let outputs m =
        Array.map
          (fun (e : Prete_ml.Corpus.example) ->
            Prete_ml.Mlp.predict_proba m e.Prete_ml.Corpus.features)
          test
      in
      if
        report2.Prete_ml.Dfl.Trainer.initial_loss
          = report.Prete_ml.Dfl.Trainer.initial_loss
        && report2.Prete_ml.Dfl.Trainer.tuned_loss
             = report.Prete_ml.Dfl.Trainer.tuned_loss
        && report2.Prete_ml.Dfl.Trainer.distilled_loss
             = report.Prete_ml.Dfl.Trainer.distilled_loss
        && outputs df2 = outputs df
      then Printf.printf "CHECK OK: training bit-identical at %d domains\n" md
      else begin
        Printf.printf "CHECK FAILED: training differs at %d domains\n" md;
        exit 1
      end);
    match out with
    | None -> ()
    | Some path ->
      let model auc avail = J.Object [ ("auc", J.float auc); ("availability", J.float avail) ] in
      write_json path
        (J.Object
           [ ("topology", J.String name); ("seed", J.int seed); ("scale", J.float scale);
             ( "trainer",
               J.Object
                 [ ("steps", J.int steps); ("pairs", J.int pairs);
                   ("loss_calls", J.int report.Prete_ml.Dfl.Trainer.loss_calls);
                   ("kept", J.Bool report.Prete_ml.Dfl.Trainer.kept) ] );
             ("models", J.Object [ ("logloss", model ll_auc ll_avail); ("decision", model df_auc df_avail) ]);
             ("stream", !stream_json) ]);
      Printf.printf "wrote %s\n" path
  in
  let nn_epochs =
    Arg.(
      value & opt int 15
      & info [ "nn-epochs" ] ~docv:"N"
          ~doc:"Training epochs for the log-loss warm-start MLP.")
  in
  let steps =
    Arg.(
      value
      & opt int Prete_ml.Dfl.Trainer.default_config.Prete_ml.Dfl.Trainer.steps
      & info [ "steps" ] ~docv:"N" ~doc:"SPSA descent steps.")
  in
  let pairs =
    Arg.(
      value
      & opt int Prete_ml.Dfl.Trainer.default_config.Prete_ml.Dfl.Trainer.pairs
      & info [ "pairs" ] ~docv:"N" ~doc:"Perturbation pairs per gradient estimate.")
  in
  let seed =
    Arg.(
      value
      & opt int Prete_ml.Dfl.Trainer.default_config.Prete_ml.Dfl.Trainer.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Trainer seed (also the stream leg's sample-path seed).")
  in
  let check =
    Arg.(
      value
      & opt (some int) None
      & info [ "check" ] ~docv:"M"
          ~doc:
            "Re-run the fine-tune with M worker domains and verify losses \
             and model outputs are bit-identical; exits 1 on mismatch.")
  in
  let stream_epochs =
    Arg.(
      value
      & opt (some int) None
      & info [ "stream" ] ~docv:"N"
          ~doc:
            "Also stream N TE periods through the runtime with online \
             retraining armed (retrain every N/4 epochs) and report \
             retrains, hot swaps and fallbacks.")
  in
  let expect_swap =
    Arg.(
      value & flag
      & info [ "expect-swap" ]
          ~doc:
            "Exit 1 unless the stream leg hot-swapped at least one retrained \
             model version with zero fallback predictions (smoke-test gate).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Write the JSON report here.")
  in
  let doc =
    "Decision-focused fine-tuning: train the MLP on log-loss, tune it \
     end-to-end against realized TE availability (SPSA over the predictor's \
     outputs through warm-started solves), and report AUC next to delivered \
     availability for both models."
  in
  Cmd.v (Cmd.info "dfl" ~doc)
    Term.(
      const run $ topo_arg $ nn_epochs $ steps $ pairs $ scale_arg
      $ seed $ check $ stream_epochs $ expect_swap $ out $ domains_arg)

let sweep_cmd =
  let run topos traffic profiles epochs seed scale out check domains =
    require_positive "--epochs" epochs;
    let split s =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    let topologies = split topos in
    List.iter (fun t -> ignore (topology t)) topologies;
    let traffic = split traffic in
    List.iter
      (fun m ->
        List.iter
          (fun t -> ignore (checked (Traffic_model.by_name m) (topology t)))
          topologies)
      traffic;
    let profiles = split profiles in
    List.iter (fun p -> ignore (checked Prete_rt.Sweep.profile_by_name p)) profiles;
    let go pool =
      Prete_rt.Sweep.run ~pool ~seed ~epochs ~scale ~topologies ~traffic
        ~profiles ()
    in
    let p = with_pool domains go in
    let json = Prete_rt.Sweep.to_json p in
    write_json out json;
    Printf.printf
      "sweep: %d topologies x %d traffic models x %d profiles x %d policies = \
       %d cells (seed %d, %d epochs, scale %g)\n"
      (List.length topologies) (List.length traffic) (List.length profiles)
      (List.length Prete_rt.Sweep.policies)
      (List.length p.Prete_rt.Sweep.pt_cells)
      seed epochs scale;
    Printf.printf "%-10s %-11s %-6s %8s %9s %9s %9s %9s\n" "topology" "traffic"
      "prof" "phi" "periodic" "stream" "st+det" "instant";
    let by_policy combo_cells policy =
      match
        List.find_opt
          (fun c -> c.Prete_rt.Sweep.cl_policy = policy)
          combo_cells
      with
      | Some c -> c.Prete_rt.Sweep.cl_availability
      | None -> nan
    in
    List.iter
      (fun (cb : Prete_rt.Sweep.combo) ->
        let mine =
          List.filter
            (fun (c : Prete_rt.Sweep.cell) ->
              c.Prete_rt.Sweep.cl_topology = cb.Prete_rt.Sweep.cb_topology
              && c.Prete_rt.Sweep.cl_traffic = cb.Prete_rt.Sweep.cb_traffic
              && c.Prete_rt.Sweep.cl_profile = cb.Prete_rt.Sweep.cb_profile)
            p.Prete_rt.Sweep.pt_cells
        in
        let phi =
          match mine with c :: _ -> c.Prete_rt.Sweep.cl_phi | [] -> nan
        in
        Printf.printf "%-10s %-11s %-6s %8.5f %9.5f %9.5f %9.5f %9.5f\n"
          cb.Prete_rt.Sweep.cb_topology cb.Prete_rt.Sweep.cb_traffic
          cb.Prete_rt.Sweep.cb_profile phi (by_policy mine "periodic")
          (by_policy mine "stream")
          (by_policy mine "stream+detour")
          (by_policy mine "instant"))
      p.Prete_rt.Sweep.pt_combos;
    Printf.printf "wrote %s\n" out;
    if check then begin
      let p1 = with_pool (Some 1) go in
      if Prete_rt.Sweep.to_json p1 = json then
        print_endline "CHECK OK: portfolio bit-identical at 1 domain"
      else begin
        print_endline "CHECK FAILED: portfolio differs at 1 domain";
        exit 1
      end
    end
  in
  let topos =
    Arg.(
      value
      & opt string "Abilene,B4,grid4"
      & info [ "t"; "topologies" ] ~docv:"NAMES"
          ~doc:"Comma-separated Topology.by_name names.")
  in
  let traffic =
    Arg.(
      value
      & opt string "gravity,diurnal,flash,coremelt"
      & info [ "traffic" ] ~docv:"MODELS"
          ~doc:"Comma-separated Traffic_model.by_name specs.")
  in
  let profiles =
    Arg.(
      value
      & opt string "clean,lossy"
      & info [ "profiles" ] ~docv:"PROFILES"
          ~doc:"Comma-separated fault profiles (clean, lossy).")
  in
  let epochs =
    Arg.(
      value & opt int 12
      & info [ "epochs" ] ~docv:"N" ~doc:"TE periods per combo run.")
  in
  let seed =
    Arg.(value & opt int 3 & info [ "seed" ] ~docv:"SEED" ~doc:"Ground-truth seed.")
  in
  let out =
    Arg.(
      value
      & opt string "sweep_portfolio.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Portfolio JSON output path.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-run the matrix single-domain and fail (exit 1) unless the \
             portfolio JSON is byte-identical — the determinism contract.")
  in
  let doc =
    "Run the {topology x traffic x fault profile x policy} scenario matrix \
     and emit one portfolio JSON."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ topos $ traffic $ profiles $ epochs $ seed
      $ scale_arg $ out $ check $ domains_arg)

let () =
  let doc = "PreTE: traffic engineering with predictive failures (SIGCOMM 2025 reproduction)" in
  let info = Cmd.info "prete" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topology_cmd;
            dataset_cmd;
            train_cmd;
            solve_cmd;
            availability_cmd;
            simulate_cmd;
            pipeline_cmd;
            chaos_cmd;
            stream_cmd;
            dfl_cmd;
            sweep_cmd;
          ]))
