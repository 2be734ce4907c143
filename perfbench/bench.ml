(* The repository benchmark: two workloads over the reaction and
   telemetry-ingest paths, timed from outside the program through its
   public functions.

   bench.exe --workload <react-ibm|stream-twan>
             --seed N --seconds S --trace <0|1> [--pin] [--trace-out F]

   One caller, closed loop, one workload per process.  With --trace 0 the
   last stdout line is a JSON object carrying the end-to-end metrics; with
   --trace 1 it carries the per-layer metrics of a traced run, whose spans
   are written as Chrome trace_event JSON.  See perfbench/README.md. *)

open Prete
module Rt = Prete_rt
module Clock = Prete_util.Clock
module Rng = Prete_util.Rng
module Pool = Prete_exec.Pool
module Tunnels = Prete_net.Tunnels
module Topology = Prete_net.Topology
module Traffic = Prete_net.Traffic
module Hazard = Prete_optics.Hazard
module Telemetry = Prete_optics.Telemetry
module Sstats = Prete_lp.Solver_stats

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Host diagnostics and timing helpers                                  *)
(* ------------------------------------------------------------------ *)

(* A fixed arithmetic loop: its wall time reads the host's speed at the
   moment, independent of the program under test. *)
let host_ref_ms () =
  let t0 = Clock.now () in
  let x = ref 0.0 in
  for i = 1 to 30_000_000 do
    x := !x +. (float_of_int (i land 1023) *. 1e-3)
  done;
  ignore (Sys.opaque_identity !x);
  Clock.elapsed_since t0 *. 1e3

(* Process CPU seconds (user + system).  The end-to-end timings are read
   on this clock: the workloads run on one thread that never waits, so it
   equals wall time on an idle host, but unlike wall time it does not
   count the time other processes hold the CPU (runs at CPU/wall 0.60
   read half the wall-clock throughput of their neighbours). *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run [f] [k] times, each from a compacted heap so that one run's
   garbage is not collected on the next one's time; the median CPU
   seconds and the last result. *)
let repeat_setup k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    Gc.compact ();
    let c0 = cpu_seconds () in
    let r = f () in
    times := (cpu_seconds () -. c0) :: !times;
    last := Some r
  done;
  say "set-up CPU seconds: %s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !times));
  (Quant.median !times, Option.get !last)

type 'a timed = {
  results : ('a, exn) result list;  (** In operation order. *)
  lat : float list;  (** CPU seconds per operation, in order. *)
  wall : float;
  cpu : float;
  cpu_share : float;
}

(* Closed loop: the next operation starts when the previous one returns,
   until [seconds] have elapsed.  [between i] runs before operation [i],
   outside its time and outside the timed phase's CPU total.  Checks run
   after the loop, never inside it, so they cost the measurement
   nothing. *)
let closed_loop ?(between = ignore) ~seconds f =
  let out = ref [] and lat = ref [] and i = ref 0 and untimed = ref 0.0 in
  let c0 = cpu_seconds () in
  let t0 = Clock.now () in
  let t_end = t0 +. seconds in
  while Clock.now () < t_end do
    let b = cpu_seconds () in
    between !i;
    let a = cpu_seconds () in
    untimed := !untimed +. (a -. b);
    let r = try Ok (f !i) with e -> Error e in
    lat := (cpu_seconds () -. a) :: !lat;
    out := r :: !out;
    incr i
  done;
  let wall = Clock.elapsed_since t0 and cpu = cpu_seconds () -. c0 -. !untimed in
  { results = List.rev !out; lat = List.rev !lat; wall; cpu; cpu_share = cpu /. wall }

(* Replay [n] operations with no time limit, for the traced run's
   untraced comparison. *)
let replay ?(between = ignore) n f =
  let lat = ref [] in
  let res =
    List.init n (fun i ->
        between i;
        let a = cpu_seconds () in
        let r = try Ok (f i) with e -> Error e in
        lat := (cpu_seconds () -. a) :: !lat;
        r)
  in
  (res, List.fold_left ( +. ) 0.0 !lat)

let sum = List.fold_left ( +. ) 0.0
let take n l = List.filteri (fun i _ -> i < n) l

(* ------------------------------------------------------------------ *)
(* What a workload run reports                                          *)
(* ------------------------------------------------------------------ *)

type run = {
  tally : Quant.Tally.t;
  lat : float list;  (** CPU seconds per timed operation. *)
  wall : float;  (** Timed-phase wall seconds. *)
  cpu : float;  (** Timed-phase CPU seconds. *)
  work : float;  (** Throughput numerator (reactions, samples, calls). *)
  setup_s : float;  (** Median CPU seconds of the repeated set-ups. *)
  cpu_share : float;
  checks : (string * bool) list;  (** Run-level checks. *)
  layers : (string * float) list;  (** Traced run only. *)
}

(* The per-layer metrics every traced run prints, with their units; a
   layer a workload does not exercise reads 0 (only count, share and rate
   metrics can; every time metric is measured on every workload). *)
let per_layer =
  [
    ("lp.solve_ms", "ms");
    ("lp.solves_per_op", "count");
    ("lp.pivots_per_solve", "count");
    ("lp.refactorizations_per_solve", "count");
    ("lp.ft_updates_per_solve", "count");
    ("lp.bound_flips_per_solve", "count");
    ("lp.lu_fill_nnz_per_solve", "count");
    ("lp.presolve_rows_per_solve", "count");
    ("lp.warm_share", "fraction");
    ("lp.phase1_skip_share", "fraction");
    ("lp.repair_share", "fraction");
    ("core.plan_alloc_ms", "ms");
    ("core.calibrate_us", "us");
    ("core.scenario_ms", "ms");
    ("core.scenarios_per_op", "count");
    ("core.classes_per_flow", "count");
    ("core.tunnel_update_ms", "ms");
    ("core.ladder_self_share", "fraction");
    ("core.plan_key_share", "fraction");
    ("core.cache_lookup_share", "fraction");
    ("core.cache_hit_ratio", "fraction");
    ("core.primary_rung_share", "fraction");
    ("core.env_s", "s");
    ("ml.predict_share", "fraction");
    ("ml.train_share", "fraction");
    ("optics.synth_msamples_per_s", "Msamples/s");
    ("rt.schedule_msamples_per_s", "Msamples/s");
    ("rt.ingest_msamples_per_s", "Msamples/s");
    ("rt.detector_msamples_per_s", "Msamples/s");
    ("rt.loop_busy_share", "fraction");
    ("rt.te_compute_share", "fraction");
    ("rt.samples_per_op", "count");
    ("rt.alarms_per_op", "count");
    ("rt.batches_per_op", "count");
    ("bench.host_ref_ms", "ms");
    ("bench.cpu_share", "fraction");
    ("bench.unattributed_share", "fraction");
    ("bench.trace_overhead", "fraction");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* The reaction path (react-ibm, stream reaction replay)                 *)
(* ------------------------------------------------------------------ *)

type react_ctx = {
  env : Availability.env;
  srv : Rt.Predictor.t;
  predictor : Hazard.features -> float;
  scheme : Schemes.t;
  demands : float array array;  (** By hour of day. *)
}

let react_ctx env model =
  let srv =
    Rt.Predictor.create ~fallback:(Rt.Predictor.prior env.Availability.model) model
  in
  let predictor f = fst (Rt.Predictor.predict srv f) in
  {
    env;
    srv;
    predictor;
    scheme = Schemes.prete_default ~predictor ();
    demands =
      Array.init 24 (fun h ->
          Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:h);
  }

type react_state = {
  ladder : Resilience.t;
  mutable cache : Availability.plan Controller.cache;
  solver : Sstats.t;
  meta : (Controller.cache_key, Resilience.rung * bool * bool) Hashtbl.t;
      (** Per stored plan: rung, degraded, feasible — so a cache hit is
          judged by the reaction that produced it. *)
}

let new_cache () = Controller.cache ~capacity:4096 ()

let fresh_state () =
  {
    ladder = Resilience.create ();
    cache = new_cache ();
    solver = Sstats.create ();
    meta = Hashtbl.create 64;
  }

(* Counters of the decomposed plan computations. *)
type lp_acc = {
  st : Sstats.t;
  mutable te_solves : int;
  mutable lp_solves : int;
  mutable scenarios : int;
  mutable classes : int;
  mutable flows : int;
}

let lp_acc () =
  { st = Sstats.create (); te_solves = 0; lp_solves = 0; scenarios = 0; classes = 0; flows = 0 }

type reaction = {
  key : Controller.cache_key;
  plan : Availability.plan;
  outcome : Resilience.outcome option;  (** [None] on a cache hit. *)
}

(* [Availability.Internal.plan_alloc_warm] for the PreTE scheme, split
   into the public calls it makes, each in its own span.  The traced run
   checks that it yields the identical plan. *)
let decomposed sp (env : Availability.env) ~predictor acc ~demands ~fb ~warm () =
  let w name f = Span.with_ sp name f in
  w "core.plan_alloc" (fun () ->
      let obs =
        {
          Calibrate.degraded = [ (fb, env.Availability.degr_events.(fb)) ];
          will_cut = [];
        }
      in
      let probs =
        w "core.calibrate" (fun () ->
            Calibrate.probabilities (Calibrate.Calibrated predictor)
              env.Availability.model obs)
      in
      let ts =
        w "core.tunnel_update" (fun () ->
            Tunnel_update.merged
              (Tunnel_update.react ~ratio:1.0 env.Availability.ts ~degraded_fiber:fb ()))
      in
      let p =
        w "core.scenario" (fun () ->
            Te.make_problem ~ts ~demands ~probs ~beta:env.Availability.beta ())
      in
      let sol = w "lp.solve" (fun () -> Te.solve ~relaxation_start:false ?warm p) in
      Sstats.merge_into ~dst:acc.st sol.Te.solver;
      acc.te_solves <- acc.te_solves + 1;
      acc.lp_solves <- acc.lp_solves + sol.Te.stats.Te.lp_solves;
      acc.scenarios <- acc.scenarios + Array.length p.Te.scenarios.Scenario.scenarios;
      Array.iter (fun c -> acc.classes <- acc.classes + Array.length c) sol.Te.classes;
      acc.flows <- acc.flows + Array.length sol.Te.classes;
      ( {
          Availability.p_alloc = sol.Te.alloc;
          p_ts = ts;
          p_admitted = None;
          p_degraded = sol.Te.degraded;
        },
        sol.Te.basis ))

(* One reaction, call for call as the sharded runtime's reaction block:
   predict, plan key, Algorithm 1, cache lookup, and on a miss the
   resilience ladder under the controller with the PreTE primary, then
   the cache store.  With a live span recorder the primary is the
   decomposed one. *)
let react sp ctx st acc ~root (fb, hour) =
  let w name f = Span.with_ sp name f in
  w root (fun () ->
      let env = ctx.env in
      let ts = env.Availability.ts in
      let demands = ctx.demands.(hour) in
      ignore
        (w "ml.predict" (fun () ->
             Rt.Predictor.predict ctx.srv env.Availability.degr_events.(fb)));
      let key =
        w "core.plan_key" (fun () ->
            Controller.plan_key ~ts ~demands
              ~probs:env.Availability.model.Prete_optics.Fiber_model.p_cut
              ~salt:[ 2000 + fb ] ())
      in
      let upd =
        w "core.tunnel_update" (fun () ->
            Tunnel_update.react ts ~degraded_fiber:fb ())
      in
      match w "core.cache_lookup" (fun () -> Controller.cache_find st.cache key) with
      | Some plan -> { key; plan; outcome = None }
      | None ->
        let primary =
          if Span.enabled sp then
            decomposed sp env ~predictor:ctx.predictor acc ~demands ~fb
          else fun ~warm () ->
            Availability.Internal.plan_alloc_warm ?warm env ctx.scheme ~demands
              ~degraded:(Some fb)
        in
        let outcome, _report =
          w "core.controller" (fun () ->
              Controller.run ~solver_stats:st.solver ~infer:ignore ~regen:ignore
                ~te:(fun () ->
                  w "core.ladder" (fun () ->
                      Resilience.plan_epoch st.ladder ~ts ~demands ~primary ()))
                ~n_new_tunnels:(Tunnel_update.num_new upd) ())
        in
        w "core.cache_store" (fun () ->
            Controller.cache_store st.cache key
              ~degraded:(Resilience.degraded outcome)
              outcome.Resilience.plan);
        { key; plan = outcome.Resilience.plan; outcome = Some outcome })

(* Failure rules: a reaction fails if it raised, its rung is not
   Primary, its plan is degraded, or the plan fails
   [Resilience.plan_feasible] against its own tunnel set.  A hit is judged
   by the reaction that stored the plan. *)
let check_reaction st tally = function
  | Error e -> Quant.Tally.fail tally ("raised " ^ Printexc.to_string e)
  | Ok r -> (
    (match r.outcome with
    | Some o ->
      let plan = o.Resilience.plan in
      Hashtbl.replace st.meta r.key
        ( o.Resilience.rung,
          Resilience.degraded o,
          Resilience.plan_feasible plan.Availability.p_ts plan )
    | None -> ());
    match Hashtbl.find_opt st.meta r.key with
    | None -> Quant.Tally.fail tally "hit on a plan of unknown origin"
    | Some (rung, _, _) when rung <> Resilience.Primary ->
      Quant.Tally.fail tally ("rung " ^ Resilience.rung_name rung)
    | Some (_, true, _) -> Quant.Tally.fail tally "degraded plan"
    | Some (_, _, false) -> Quant.Tally.fail tally "plan_feasible"
    | Some _ -> Quant.Tally.ok tally)

let plan_digest (p : Availability.plan) =
  Digest.string
    (Marshal.to_string
       (p.Availability.p_alloc, Array.length p.Availability.p_ts.Tunnels.tunnels,
        p.Availability.p_degraded)
       [])

let reaction_digest = function
  | Ok r -> plan_digest r.plan
  | Error e -> "raised " ^ Printexc.to_string e

let mean_of agg name scale =
  match Hashtbl.find_opt agg name with
  | Some a when a.Span.count > 0 -> a.Span.total_s /. float_of_int a.Span.count *. scale
  | _ -> 0.0

let agg_field agg name f =
  match Hashtbl.find_opt agg name with Some a -> f a | None -> 0.0

(* Per-layer metrics of the reaction path.  Means per call come from
   every recorded span (warm-up and replays included); shares are self
   time over the wall of the timed operations ("op" roots). *)
let path_layers sp acc ~ops ~timed_solves ~timed_scenarios =
  let all = Span.aggregate sp in
  let timed = Span.aggregate ~root:"op" sp in
  let op_wall = agg_field timed "op" (fun a -> a.Span.total_s) in
  let share name = ratio (agg_field timed name (fun a -> a.Span.self_s)) op_wall in
  let st = acc.st in
  let per_solve x = ratio (float_of_int x) (float_of_int st.Sstats.solves) in
  let ops = float_of_int ops in
  [
    ("lp.solve_ms", mean_of all "lp.solve" 1e3);
    ("lp.solves_per_op", ratio (float_of_int timed_solves) ops);
    ("lp.pivots_per_solve", per_solve st.Sstats.pivots);
    ("lp.refactorizations_per_solve", per_solve st.Sstats.refactorizations);
    ("lp.ft_updates_per_solve", per_solve st.Sstats.ft_updates);
    ("lp.bound_flips_per_solve", per_solve st.Sstats.bound_flips);
    ("lp.lu_fill_nnz_per_solve", per_solve st.Sstats.lu_fill_nnz);
    ("lp.presolve_rows_per_solve", per_solve st.Sstats.presolve_rows);
    ("lp.warm_share", per_solve st.Sstats.warm_solves);
    ("lp.phase1_skip_share", per_solve st.Sstats.phase1_skips);
    ("lp.repair_share", per_solve st.Sstats.repairs);
    ("core.plan_alloc_ms", mean_of all "core.plan_alloc" 1e3);
    ("core.calibrate_us", mean_of all "core.calibrate" 1e6);
    ("core.scenario_ms", mean_of all "core.scenario" 1e3);
    ("core.scenarios_per_op", ratio (float_of_int timed_scenarios) ops);
    ("core.classes_per_flow", ratio (float_of_int acc.classes) (float_of_int acc.flows));
    ("core.tunnel_update_ms", mean_of all "core.tunnel_update" 1e3);
    ("core.ladder_self_share", share "core.ladder");
    ("core.plan_key_share", share "core.plan_key");
    ("core.cache_lookup_share", share "core.cache_lookup");
    ("ml.predict_share", share "ml.predict");
    ("bench.unattributed_share", share "op");
  ]

(* A fresh reaction state that has served [warmup] (traced as "warmup"). *)
let warm_up sp ctx warmup =
  let st = fresh_state () and acc = lp_acc () in
  let res =
    List.map
      (fun o -> try Ok (react sp ctx st acc ~root:"warmup" o) with e -> Error e)
      warmup
  in
  (st, acc, res)

(* Timed reactions over [ops], checked; with tracing, then replayed
   untraced from the same starting state to check that every decomposed
   plan is bit-identical and to measure the tracing overhead.
   [warmup] reactions run before the timed phase (traced as "warmup").
   Each pass over [ops] after the first starts with an empty plan cache,
   outside the timed operations, so a faster program that cycles through
   [ops] still runs cold reactions instead of replaying cached plans. *)
let react_timed ?sp ~seconds ~trace ~ctx ~warmup ~ops () =
  let sp = match sp with Some sp -> sp | None -> Span.create ~enabled:trace in
  let st, acc, warm_res = warm_up sp ctx warmup in
  let warm_solves = acc.lp_solves and warm_scen = acc.scenarios in
  let nops = Array.length ops in
  let new_pass st i = if i > 0 && i mod nops = 0 then st.cache <- new_cache () in
  let t =
    closed_loop ~between:(new_pass st) ~seconds (fun i ->
        react sp ctx st acc ~root:"op" ops.(i mod nops))
  in
  let tally = Quant.Tally.create () in
  let wtally = Quant.Tally.create () in
  List.iter (check_reaction st wtally) warm_res;
  List.iter (check_reaction st tally) t.results;
  let hits =
    List.length
      (List.filter (function Ok { outcome = None; _ } -> true | _ -> false) t.results)
  in
  let primary =
    List.length
      (List.filter
         (function
           | Ok r -> (
             match Hashtbl.find_opt st.meta r.key with
             | Some (Resilience.Primary, _, _) -> true
             | _ -> false)
           | Error _ -> false)
         t.results)
  in
  let n = List.length t.results in
  let checks = [ ("warm-up reactions pass", wtally.Quant.Tally.failed = 0) ] in
  let checks, layers =
    if not trace then (checks, [])
    else begin
      (* Untraced replay from a fresh state: same warm-up, same ops. *)
      let none = Span.create ~enabled:false in
      let ust, uacc, uwarm = warm_up none ctx warmup in
      let ures, uwall =
        replay ~between:(new_pass ust) n (fun i ->
            react none ctx ust uacc ~root:"op" ops.(i mod nops))
      in
      let same a b = List.map reaction_digest a = List.map reaction_digest b in
      let identical = same warm_res uwarm && same t.results ures in
      say "bit-identical: %d decomposed plans vs untraced replay: %b" acc.te_solves
        identical;
      let layers =
        path_layers sp acc ~ops:n ~timed_solves:(acc.lp_solves - warm_solves)
          ~timed_scenarios:(acc.scenarios - warm_scen)
        @ [
            ("core.cache_hit_ratio", ratio (float_of_int hits) (float_of_int n));
            ("core.primary_rung_share", ratio (float_of_int primary) (float_of_int n));
            ("bench.trace_overhead", ratio (sum t.lat) uwall -. 1.0);
          ]
      in
      (checks @ [ ("decomposed plans bit-identical", identical) ], layers)
    end
  in
  say "reactions: %d timed (%d cache hits, %d passes over %d inputs), %d warm-up" n hits
    (if nops = 0 then 0 else (n + nops - 1) / nops)
    nops (List.length warmup);
  (sp, t, tally, checks, layers)

let react_workload ~seed ~seconds ~trace =
  (* Inputs from the seed: rounds of every fiber once, in a seeded order
     per round; fiber [f] in round [r] alarms at hour
     [(pi r + tau f) mod 24], so the first 24 rounds are a permutation of
     all (fiber, hour) pairs and every run, whatever its seed, alarms each
     fiber equally often. *)
  let topo_name = "IBM" in
  let n = Topology.num_fibers (Topology.by_name topo_name) in
  let rng = Rng.create seed in
  let pi = Array.init 24 Fun.id in
  Rng.shuffle rng pi;
  let tau = Array.init n (fun _ -> Rng.int rng 24) in
  let ops =
    Array.concat
      (List.init 24 (fun r ->
           let order = Array.init n Fun.id in
           Rng.shuffle rng order;
           Array.map (fun f -> (f, (pi.(r) + tau.(f)) mod 24)) order))
  in
  let env_s = ref 0.0 and train_s = ref 0.0 in
  let setup () =
    let c0 = cpu_seconds () in
    let env = Availability.make_env (Topology.by_name topo_name) in
    let c1 = cpu_seconds () in
    let model =
      Rt.Runtime.Internal.build_model (Rt.Runtime.Nn 25) env env.Availability.ts.Tunnels.topo
    in
    env_s := c1 -. c0;
    train_s := cpu_seconds () -. c1;
    react_ctx env model
  in
  let setup_s, ctx = repeat_setup 9 setup in
  let sp, t, tally, checks, layers =
    react_timed ~seconds ~trace ~ctx ~warmup:[] ~ops ()
  in
  let layers =
    if trace then
      layers
      @ [
          ("core.env_s", !env_s);
          ("ml.train_share", ratio !train_s setup_s);
          ("bench.cpu_share", t.cpu_share);
        ]
    else []
  in
  ( sp,
    {
      tally;
      lat = t.lat;
      wall = t.wall;
      cpu = t.cpu;
      work = float_of_int (List.length t.results);
      setup_s;
      cpu_share = t.cpu_share;
      checks;
      layers;
    } )

(* ------------------------------------------------------------------ *)
(* stream-twan: the sharded runtime at one shard                        *)
(* ------------------------------------------------------------------ *)

(* The timed phase runs windows of [window_epochs] epochs, each with its
   own seed from a seeded cycle of [window_cycle]; a run at the nominal
   rate (about one window a second) sees every window of the cycle at
   most once, so one seed's mix of quiet and alarming windows weighs
   little in its throughput. *)
let window_epochs = 12
let window_cycle = 64

let window_seeds seed =
  let rng = Rng.create (seed lxor 0x5eed) in
  Array.init window_cycle (fun _ -> Rng.int rng 1_000_000_000)

let stream_cfg ~seed ~epochs =
  { Rt.Runtime.default_config with topology = "TWAN"; epochs; seed; shards = 1 }

let summary (r : Rt.Shard.result) =
  let open Rt.Shard in
  ( [| r.s_alarms; r.s_batches; r.s_batched; r.s_shed; r.s_deferred; r.s_debounced;
       r.s_degr_epochs; r.s_cut_epochs; r.s_missed; r.s_reacted_in_time |],
    [| r.s_avail_stream; r.s_avail_periodic; r.s_avail_instant |] )

let samples_of (r : Rt.Shard.result) =
  Array.fold_left (fun a s -> a + s.Rt.Shard.ss_samples) 0 r.Rt.Shard.s_shards

(* Component replay of the ingest path on TWAN traces with the runtime's
   impairments: synthesize → schedule → ingest (offer/drain) → detect,
   each phase timed over every (epoch, fiber) trace. *)
let ingest_replay sp ~seed ~epochs =
  let topo = Topology.by_name "TWAN" in
  let env = Availability.make_env topo in
  let n = Topology.num_fibers topo in
  let cfg = stream_cfg ~seed ~epochs:1 in
  let imp = cfg.Rt.Runtime.impairments in
  let len = Rt.Runtime.Internal.epoch_len in
  let rng = Rng.create (seed lxor 0x1e57) in
  let samples = ref 0 in
  let w name f = Span.with_ sp name f in
  for _ = 1 to epochs do
    for fb = 0 to n - 1 do
      let baseline = Telemetry.baseline_loss topo fb in
      let trace_seed = Rng.int rng 1_000_000 in
      let degraded = Rng.float rng < 0.1 in
      let trace =
        w "optics.synth" (fun () ->
            if degraded then
              Telemetry.synthesize ~seed:trace_seed ~baseline ~healthy_s:120
                ~degradation:env.Availability.degr_events.(fb) ~total_s:len ()
            else
              Telemetry.synthesize ~seed:trace_seed ~baseline ~healthy_s:len
                ~total_s:len ())
      in
      let arrivals = w "rt.schedule" (fun () -> Rt.Stream.schedule rng imp trace) in
      samples := !samples + List.length arrivals;
      let horizon = imp.Rt.Stream.max_delay in
      let drained =
        w "rt.ingest" (fun () ->
            let ing = Rt.Online.ingest_create ~horizon () in
            let q = Rt.Equeue.create () in
            List.iter (fun a -> Rt.Equeue.push q ~time:a.Rt.Stream.a_tick a) arrivals;
            let out = ref [] in
            for now = 0 to len - 1 + horizon do
              List.iter
                (fun (_, a) -> Rt.Online.offer ing ~t:a.Rt.Stream.a_t ~v:a.Rt.Stream.a_v)
                (Rt.Equeue.pop_until q ~time:now);
              out := List.rev_append (Rt.Online.drain ing ~now) !out
            done;
            if arrivals <> [] then
              out := List.rev_append (Rt.Online.flush ing ~upto:(len - 1)) !out;
            List.rev !out)
      in
      w "rt.detector" (fun () ->
          let det = Rt.Detector.create ~config:cfg.Rt.Runtime.detector ~baseline () in
          List.iter (fun (t, v) -> ignore (Rt.Detector.step det ~at:t ~v)) drained)
    done
  done;
  !samples

let stream_workload ~seed ~seconds ~trace ~pins =
  let pool = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let seeds = window_seeds seed in
  (* Set-up is the cold start of a 1-epoch run on one fixed input, the
     default seed's first window, so that set-up time reads the engine and
     not whether a seed's first epoch happens to raise an alarm. *)
  let setup_s, _ =
    let cfg = stream_cfg ~seed:(window_seeds Pins.default_seed).(0) ~epochs:1 in
    repeat_setup 9 (fun () -> ignore (Rt.Shard.run ~pool cfg))
  in
  let sp = Span.create ~enabled:trace in
  let window i = stream_cfg ~seed:seeds.(i mod window_cycle) ~epochs:window_epochs in
  let t =
    closed_loop ~seconds (fun i ->
        Span.with_ sp "op" (fun () -> Rt.Shard.run ~pool (window i)))
  in
  (* Failure rule: the whole run fails unless every window is accounted
     and its deterministic core is the one pinned for the seed (or, for
     an unpinned seed, the one the window produced the first time). *)
  let tally = Quant.Tally.create () in
  let first = Hashtbl.create 8 in
  let reasons = ref [] in
  List.iteri
    (fun i r ->
      match r with
      | Error e ->
        reasons := ("raised " ^ Printexc.to_string e) :: !reasons;
        Quant.Tally.ok tally
      | Ok r ->
        Quant.Tally.ok tally;
        let k = i mod window_cycle in
        if not (Rt.Shard.accounted r) then reasons := "accounted" :: !reasons;
        let core = Digest.string (Rt.Shard.deterministic_core r) in
        (match Hashtbl.find_opt first k with
        | None -> Hashtbl.replace first k core
        | Some c -> if c <> core then reasons := "core differs on repeat" :: !reasons);
        (match List.assoc_opt seed pins with
        | None -> ()
        | Some (p : (int array * float array) array) ->
          let counts, avails = summary r in
          let pc, pa = p.(k) in
          if counts <> pc then reasons := "pinned counts" :: !reasons;
          if
            not
              (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) avails pa)
          then reasons := "pinned availabilities" :: !reasons))
    t.results;
  List.iter (fun r -> Quant.Tally.fail_all tally r) (List.sort_uniq compare !reasons);
  let oks = List.filter_map Result.to_option t.results in
  let work = float_of_int (List.fold_left (fun a r -> a + samples_of r) 0 oks) in
  let layers, checks =
    if not trace then ([], [])
    else begin
      let nops = float_of_int (List.length oks) in
      let busy =
        List.fold_left
          (fun a r ->
            Array.fold_left (fun a s -> a +. s.Rt.Shard.ss_busy_s) a r.Rt.Shard.s_shards)
          0.0 oks
      in
      let te =
        List.fold_left
          (fun a r ->
            a +. Option.value ~default:0.0
                   (List.assoc_opt "te_compute" r.Rt.Shard.s_solver.Sstats.walls))
          0.0 oks
      in
      let count f = float_of_int (List.fold_left (fun a r -> a + f r) 0 oks) in
      (* The ingest path, component by component. *)
      let nsamp = ingest_replay sp ~seed ~epochs:4 in
      let all = Span.aggregate sp in
      let rate name =
        ratio (float_of_int nsamp) (agg_field all name (fun a -> a.Span.total_s)) /. 1e6
      in
      (* The controller path on the stream's own alarms: each detected
         fiber's reaction replayed through the reaction block with spans,
         at the stream's demand hour. *)
      let c0 = cpu_seconds () in
      let env = Availability.make_env (Topology.by_name "TWAN") in
      let env_s = cpu_seconds () -. c0 in
      let model =
        Rt.Runtime.Internal.build_model Rt.Runtime.Hazard_oracle env
          env.Availability.ts.Tunnels.topo
      in
      let ctx = react_ctx env model in
      let alarms =
        List.concat_map
          (fun r ->
            List.map
              (fun d -> (d.Rt.Runtime.d_fiber, env.Availability.epoch))
              r.Rt.Shard.s_detections)
          (take window_cycle oks)
        |> take 24
      in
      let _, _, _, rchecks, rlayers =
        react_timed ~sp ~seconds:0.0 ~trace:true ~ctx ~warmup:alarms ~ops:[||] ()
      in
      (* The tracing overhead on this workload: two windows again,
         untraced, checked against the traced cores. *)
      let k = min 2 (List.length oks) in
      let ures, uwall = replay k (fun i -> Rt.Shard.run ~pool (window i)) in
      let same =
        List.for_all2
          (fun a b ->
            match b with
            | Ok b ->
              Rt.Shard.deterministic_core a = Rt.Shard.deterministic_core b
            | Error _ -> false)
          (take k oks) ures
      in
      let layers =
        List.filter
          (fun (name, _) ->
            List.mem name
              [ "lp.solve_ms"; "lp.pivots_per_solve"; "lp.refactorizations_per_solve";
                "lp.ft_updates_per_solve"; "lp.bound_flips_per_solve";
                "lp.lu_fill_nnz_per_solve"; "lp.presolve_rows_per_solve";
                "lp.warm_share"; "lp.phase1_skip_share"; "lp.repair_share";
                "core.plan_alloc_ms"; "core.calibrate_us"; "core.scenario_ms";
                "core.classes_per_flow"; "core.tunnel_update_ms" ])
          rlayers
        @ [
            ("core.env_s", env_s);
            ("optics.synth_msamples_per_s", rate "optics.synth");
            ("rt.schedule_msamples_per_s", rate "rt.schedule");
            ("rt.ingest_msamples_per_s", rate "rt.ingest");
            ("rt.detector_msamples_per_s", rate "rt.detector");
            ("rt.loop_busy_share", ratio busy (sum t.lat));
            ("rt.te_compute_share", ratio te (sum t.lat));
            ("rt.samples_per_op", ratio work nops);
            ("rt.alarms_per_op", ratio (count (fun r -> r.Rt.Shard.s_alarms)) nops);
            ("rt.batches_per_op", ratio (count (fun r -> r.Rt.Shard.s_batches)) nops);
            ("bench.unattributed_share", 1.0);
            ("bench.cpu_share", t.cpu_share);
            ("bench.trace_overhead", ratio (sum (take k t.lat)) uwall -. 1.0);
          ]
      in
      say "stream reaction replay: %d alarms" (List.length alarms);
      (layers, rchecks @ [ ("untraced windows reproduce traced cores", same) ])
    end
  in
  ( sp,
    { tally; lat = t.lat; wall = t.wall; cpu = t.cpu; work; setup_s; cpu_share = t.cpu_share;
      checks; layers } )

(* ------------------------------------------------------------------ *)
(* Pinning                                                               *)
(* ------------------------------------------------------------------ *)

let pin_stream ~seed =
  let pool = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let seeds = window_seeds seed in
  let rows =
    Array.map
      (fun s ->
        let r = Rt.Shard.run ~pool (stream_cfg ~seed:s ~epochs:window_epochs) in
        let c, a = summary r in
        Printf.sprintf "([| %s |], [| %s |])"
          (String.concat "; " (Array.to_list (Array.map string_of_int c)))
          (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))))
      seeds
  in
  say "(%d, [| %s |]);" seed (String.concat ";\n    " (Array.to_list rows))

(* ------------------------------------------------------------------ *)
(* Main                                                                  *)
(* ------------------------------------------------------------------ *)

(* Each workload with its nominal operation rate on the reference host.
   The tail percentile is fixed per workload from the operations a run of
   the given length nominally makes, not re-chosen from each run's own
   count: a percentile that moved between runs would make the tail jump
   (p99 vs p99.9 at 10000 operations) whenever a run crossed a threshold. *)
let workloads = [ ("react-ibm", 3.0); ("stream-twan", 1.0) ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric"

let () =
  let workload = ref "" and seed = ref Pins.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and pin = ref false and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed-phase length");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--pin", Arg.Set pin, " print pinned references for the seed and exit");
      ("--trace-out", Arg.Set_string trace_out, " Chrome trace file (traced run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !pin then begin
    (match !workload with
    | "stream-twan" -> pin_stream ~seed:!seed
    | w -> say "%s has no pinned references" w);
    exit 0
  end;
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  (* The first loops after an idle spell run up to twice as slow while
     the vCPU ramps up; the reading that counts is the last of four. *)
  let host_before = List.fold_left (fun _ () -> host_ref_ms ()) 0.0 [ (); (); (); () ] in
  let sp, r =
    match !workload with
    | "react-ibm" -> react_workload ~seed ~seconds ~trace:traced
    | _ -> stream_workload ~seed ~seconds ~trace:traced ~pins:Pins.stream_twan
  in
  let host_after = host_ref_ms () in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let lat = Array.of_list r.lat in
  Array.sort compare lat;
  let nlat = Array.length lat in
  let tail_q =
    Quant.tail_pct (int_of_float (List.assoc !workload workloads *. seconds))
  in
  say "workload %s seed %d: %d operations in %.3f s wall, %.3f s CPU (%s)" !workload
    seed nlat r.wall r.cpu (if traced then "traced" else "untraced");
  say "wall-clock throughput %.6g/s" (r.work /. r.wall);
  say "host_ref_ms before %.1f after %.1f; cpu_share %.3f" host_before host_after
    r.cpu_share;
  say "tail percentile p%g over %d samples (%d beyond)" tail_q nlat
    (Quant.beyond nlat tail_q);
  say "failed_share %.4f (%d of %d)" (Quant.Tally.failed_share r.tally)
    r.tally.Quant.Tally.failed r.tally.Quant.Tally.attempted;
  List.iter (fun (why, n) -> say "FAILED check %s: %d operations" why n)
    r.tally.Quant.Tally.reasons;
  List.iter
    (fun (name, ok) -> say "check %s: %s" name (if ok then "ok" else "FAILED"))
    r.checks;
  let metrics =
    if not traced then
      [
        ("setup_s", r.setup_s, "s");
        ("latency_cpu_p50_ms", Quant.percentile lat 50.0 *. 1e3, "ms");
        ("latency_cpu_tail_ms", Quant.percentile lat tail_q *. 1e3, "ms");
        ("throughput_per_cpu_s", r.work /. r.cpu, "1/s");
        ("heap_peak_mb", heap_mb, "MB");
      ]
    else begin
      let layers =
        ("bench.host_ref_ms", (host_before +. host_after) /. 2.0) :: r.layers
      in
      let m =
        List.map
          (fun (name, unit) ->
            (name, Option.value ~default:0.0 (List.assoc_opt name layers), unit))
          per_layer
      in
      List.iter (fun (n, v, u) -> say "  %-32s %14.6g %s" n v u) m;
      let out =
        if !trace_out <> "" then !trace_out
        else Printf.sprintf "perfbench/out/trace-%s-%d.json" !workload seed
      in
      (try
         (try Unix.mkdir (Filename.dirname out) 0o755 with Unix.Unix_error _ -> ());
         let oc = open_out out in
         output_string oc (Span.to_chrome_json sp);
         close_out oc;
         say "trace written to %s (%d spans)" out (List.length (Span.spans sp))
       with Sys_error e -> say "trace not written: %s" e);
      m
    end
  in
  let correct =
    r.tally.Quant.Tally.failed = 0 && List.for_all snd r.checks && nlat > 0
  in
  let body =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (json_number v) u)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.tally.Quant.Tally.attempted r.tally.Quant.Tally.failed body
