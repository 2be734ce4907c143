open Prete_net
open Prete_optics
open Prete
module Rng = Prete_util.Rng
module Pool = Prete_exec.Pool

type predictor_kind = Hazard_oracle | Prior_only | Nn of int

let predictor_kind_name = function
  | Hazard_oracle -> "hazard"
  | Prior_only -> "prior"
  | Nn n -> Printf.sprintf "nn:%d" n

let predictor_kind_of_string s =
  match s with
  | "hazard" -> Hazard_oracle
  | "prior" -> Prior_only
  | _ ->
    (match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "nn" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n when n > 0 -> Nn n
      | _ -> failwith ("Runtime.predictor_kind_of_string: " ^ s))
    | _ -> failwith ("Runtime.predictor_kind_of_string: " ^ s))

type shed_policy = Drop_newest | Drop_oldest

let shed_policy_name = function
  | Drop_newest -> "drop-newest"
  | Drop_oldest -> "drop-oldest"

let shed_policy_of_string = function
  | "drop-newest" -> Drop_newest
  | "drop-oldest" -> Drop_oldest
  | s -> failwith ("Runtime.shed_policy_of_string: " ^ s)

type retrain = {
  rt_every : int;
  rt_steps : int;
  rt_pairs : int;
  rt_min_events : int;
}

let default_retrain = { rt_every = 10; rt_steps = 2; rt_pairs = 2; rt_min_events = 1 }

type config = {
  topology : string;
  traffic : string;
  epochs : int;
  seed : int;
  scale : float;
  detector : Detector.config;
  impairments : Stream.impairments;
  debounce_s : int;
  deadline_s : float option;
  predictor : predictor_kind;
  stale_after : int option;
  detour : bool;
  ring_capacity : int;
  shards : int;
  queue_bound : int;
  shed_policy : shed_policy;
  retrain : retrain option;
}

let default_config =
  {
    topology = "B4";
    traffic = "fixed";
    epochs = 40;
    seed = 123;
    scale = 2.0;
    detector = Detector.default_config;
    impairments = Stream.default_impairments;
    debounce_s = 30;
    deadline_s = None;
    predictor = Hazard_oracle;
    stale_after = None;
    detour = true;
    ring_capacity = 4096;
    shards = 1;
    queue_bound = 64;
    shed_policy = Drop_newest;
    retrain = None;
  }

type detection = {
  d_epoch : int;
  d_fiber : int;
  d_onset : int;
  d_alarm : int;
  d_install : int option;
  d_prob : float;
  d_fallback : bool;
  d_cut : int option;
}

type result = {
  r_config : config;
  r_epochs : int;
  r_degr_epochs : int;
  r_cut_epochs : int;
  r_detections : detection list;
  r_reacted_in_time : int;
  r_missed : int;
  r_avail_stream : float;
  r_avail_periodic : float;
  r_avail_instant : float;
  r_avail_detour : float option;
  r_metrics : Metrics.t;
  r_ring : Ring.t;
  r_solver : Prete_lp.Solver_stats.t;
  r_scheme : Schemes.t;
}

(* ------------------------------------------------------------------ *)
(* Per-epoch detection (parallel, pure)                                *)
(* ------------------------------------------------------------------ *)

(* The per-fiber records ([fr_*] fields) and [epoch_len] come from the
   streaming kernel both engines share. *)
open Fiber

let process_epoch cfg ~topo ~rng (s : Simulate.Internal.epoch_sample) =
  List.map
    (fun (fb, truth) ->
      fst
        (Fiber.process ~detector:cfg.detector ~impairments:cfg.impairments ~topo
           ~rng ~fb ~truth:(Some truth)
           ~cut:(List.mem fb s.Simulate.Internal.es_cuts)))
    s.Simulate.Internal.es_degraded

(* ------------------------------------------------------------------ *)
(* Predictor construction                                              *)
(* ------------------------------------------------------------------ *)

let build_model kind (env : Availability.env) topo =
  match kind with
  | Hazard_oracle ->
    let nf = Topology.num_fibers topo in
    fun f -> Hazard.eval ~num_fibers:nf f
  | Prior_only -> Predictor.prior env.Availability.model
  | Nn train_epochs ->
    let ds = Dataset.generate ~model:env.Availability.model topo in
    let corpus = Prete_ml.Corpus.of_dataset ds in
    let mlp =
      Prete_ml.Mlp.train
        ~config:{ Prete_ml.Mlp.default_config with epochs = train_epochs }
        corpus.Prete_ml.Corpus.train
    in
    Prete_ml.Mlp.predict_proba mlp

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let measured_features (truth : Hazard.features) = function
  | Some (deg, grad, fluct, dur) ->
    {
      truth with
      Hazard.degree = deg;
      gradient = grad;
      fluctuation = fluct;
      duration_s = float_of_int dur;
    }
  | None ->
    (* CUSUM early warning before any sample classified as degraded:
       no measured excursion yet. *)
    { truth with Hazard.degree = 0.0; gradient = 0.0; fluctuation = 0; duration_s = 0.0 }

(* ------------------------------------------------------------------ *)
(* Evaluation, shared with the sharded engine                          *)
(* ------------------------------------------------------------------ *)

(* A reactive plan counts for its epoch when it installed by the tick
   before the fiber's cut, or by the epoch's last tick when no cut
   follows. *)
let deadline ~epoch cut_at =
  match cut_at with
  | Some c -> (epoch * epoch_len) + c - 1
  | None -> (epoch * epoch_len) + epoch_len - 1

(* [cut_at e fb]: fiber [fb]'s cut tick in epoch [e], if it streamed one. *)
let stream_states samples ~installs ~cut_at =
  let reacted = ref 0 and missed = ref 0 in
  let states =
    Array.mapi
      (fun e (s : Simulate.Internal.epoch_sample) ->
        match s.es_state with
        | None -> None
        | Some fb ->
          let in_time =
            match Hashtbl.find_opt installs (e, fb) with
            | Some i -> i <= deadline ~epoch:e (cut_at e fb)
            | None -> false
          in
          let cut = List.mem fb s.es_cuts in
          if cut then if in_time then incr reacted else incr missed;
          if in_time then Some fb else None)
      samples
  in
  (states, !reacted, !missed)

let epoch_counts samples =
  let count p = Array.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 samples in
  ( count (fun (s : Simulate.Internal.epoch_sample) -> s.es_degraded <> []),
    count (fun (s : Simulate.Internal.epoch_sample) -> s.es_cuts <> []) )

(* Every policy of a run passes the same [plans] table, so each state's
   plan is looked up once per run; the env's plan memo solves it once
   per env, which later windows on the same topology and traffic
   reuse. *)
let evaluate ?epoch_plan ~plans ~pool ~env ~scheme ~demands ~scale ~tm samples state =
  let epoch_cuts = Array.map (fun s -> s.Simulate.Internal.es_cuts) samples in
  match tm with
  | None ->
    Simulate.Internal.eval_epochs ?epoch_plan ~plans pool env scheme ~demands ~state
      ~epoch_cuts
  | Some m ->
    let class_demands =
      Array.map (Array.map (fun d -> d *. scale)) m.Traffic_model.tm_classes
    in
    Simulate.Internal.eval_epochs_classes ?epoch_plan ~plans pool env scheme
      ~class_demands ~class_of:(Traffic_model.class_of m) ~state ~epoch_cuts

(* ------------------------------------------------------------------ *)
(* Online decision-focused retraining                                   *)
(* ------------------------------------------------------------------ *)

(* Shared by the single-node run and the sharded runtime: consumes the
   measured event stream (detector at-alarm features, not oracle truth),
   and at epoch boundaries tunes the current model's outputs against the
   realized TE loss ({!Prete_ml.Dfl}), installing the tuned vector as a
   per-fiber delta on top of the running closure.  Everything here is a
   pure function of (seed, epoch, collected events) — the measured set
   is keyed per fiber with explicit tick tie-breaking, so the retrain
   decision and the produced model are identical at any shard or domain
   count. *)
module Retrain = struct
  type state = {
    rc : retrain;
    seed : int;
    measured : (int, int * Hazard.features) Hashtbl.t;
    mutable events : int;
    mutable count : int;
    mutable model : Hazard.features -> float;
    oracle : Prete_ml.Dfl.Oracle.t Lazy.t;
  }

  let create ~pool ~seed ~scale ~env rc model =
    {
      rc;
      seed;
      measured = Hashtbl.create 32;
      events = 0;
      count = 0;
      model;
      oracle = lazy (Prete_ml.Dfl.Oracle.create ~pool ~scale env);
    }

  (* Latest measured features win; on equal ticks the later record wins,
     which is safe because equal-tick records for one fiber carry the
     same detector snapshot. *)
  let record st ~tick ~fiber feats =
    (match Hashtbl.find_opt st.measured fiber with
    | Some (t, _) when t > tick -> ()
    | _ -> Hashtbl.replace st.measured fiber (tick, feats));
    st.events <- st.events + 1

  let due st ~epoch =
    st.rc.rt_every > 0
    && (epoch + 1) mod st.rc.rt_every = 0
    && st.events >= st.rc.rt_min_events

  (* When due, tune and return the composed model plus its version name.
     The swap is unconditional on a fired retrain: if descent found no
     improving step the delta is zero and the new version is functionally
     identical, but the version history still records the attempt. *)
  let step st ~epoch =
    if not (due st ~epoch) then None
    else begin
      let oracle = Lazy.force st.oracle in
      let reps = Prete_ml.Dfl.Oracle.events oracle in
      let nf = Array.length reps in
      let evs =
        Array.init nf (fun i ->
            match Hashtbl.find_opt st.measured i with
            | Some (_, f) -> f
            | None -> reps.(i))
      in
      let q0 = Array.map st.model evs in
      let tcfg =
        {
          Prete_ml.Dfl.Trainer.default_config with
          steps = st.rc.rt_steps;
          pairs = st.rc.rt_pairs;
          seed = st.seed lxor (0xdf1 + epoch);
        }
      in
      let qstar, _, _, _ =
        Prete_ml.Dfl.Trainer.tune tcfg
          ~loss:(Prete_ml.Dfl.Oracle.loss oracle)
          q0
      in
      let delta = Array.init nf (fun i -> qstar.(i) -. q0.(i)) in
      let prev = st.model in
      let model f =
        let fb = ((f.Hazard.fiber mod nf) + nf) mod nf in
        Float.max 1e-4 (Float.min 0.9999 (prev f +. delta.(fb)))
      in
      st.model <- model;
      st.count <- st.count + 1;
      st.events <- 0;
      Some (model, Printf.sprintf "dfl-v%d" st.count)
    end
end

let traffic_model spec topo =
  match spec with
  | "fixed" -> None
  | spec -> Some (Traffic_model.by_name spec topo)

(* The last default env built on this domain, with its traffic model,
   keyed by (topology name, traffic spec).  Both are pure functions of
   that pair, so a later run on the same pair reuses them, and with them
   the env's memos of rerouted tunnel sets and cold PreTE plans. *)
let last_env :
    (string * string * Traffic_model.t option * Availability.env) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let default_env cfg =
  let last = Domain.DLS.get last_env in
  match !last with
  | Some (topology, traffic, tm, env)
    when String.equal topology cfg.topology && String.equal traffic cfg.traffic ->
    (tm, env)
  | _ ->
    let topo = Topology.by_name cfg.topology in
    let tm = traffic_model cfg.traffic topo in
    let env =
      match tm with
      | None -> Availability.make_env topo
      | Some m ->
        Availability.make_env
          ~traffic:(Traffic_model.to_traffic m)
          ~tunnels:(Tunnels.build topo m.Traffic_model.tm_pairs)
          topo
    in
    last := Some (cfg.topology, cfg.traffic, tm, env);
    (tm, env)

(* The traffic source — the legacy fixed matrix set ("fixed") or a
   seeded generated model whose demand sequence varies per epoch — and
   the env it plans over. *)
let traffic ?env cfg =
  let tm, env =
    match env with
    | Some e -> (traffic_model cfg.traffic e.Availability.ts.Tunnels.topo, e)
    | None -> default_env cfg
  in
  (match tm with
  | Some m
    when Traffic_model.num_flows m <> Array.length env.Availability.ts.Tunnels.flows ->
    invalid_arg "Runtime.run: env tunnels do not match the traffic model"
  | _ -> ());
  let demands =
    Traffic.demand env.Availability.traffic ~scale:cfg.scale
      ~epoch:env.Availability.epoch
  in
  let demands_at e =
    match tm with
    | None -> demands
    | Some m -> Traffic_model.demands m ~scale:cfg.scale ~epoch:e
  in
  (tm, env, demands, demands_at)

(* The messages name the [prete_cli stream] flag that sets each field,
   so a flag and a dumped config out of range read the same. *)
let check_config c =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  let positive flag n = if n <= 0 then bad "%s must be positive (got %d)" flag n in
  let nonneg flag n = if n < 0 then bad "%s must be non-negative (got %d)" flag n in
  (* NaN fails the comparison, so it is rejected too. *)
  let nonneg_float flag x = if not (x >= 0.0) then bad "%s must be non-negative (got %g)" flag x in
  positive "--epochs" c.epochs;
  nonneg_float "--scale" c.scale;
  nonneg "--queue-bound" c.queue_bound;
  Detector.check_config c.detector;
  nonneg "--debounce" c.debounce_s;
  Option.iter (nonneg_float "--deadline") c.deadline_s;
  Option.iter (nonneg "--stale-after") c.stale_after;
  Option.iter (fun r -> nonneg "--retrain-every" r.rt_every) c.retrain;
  positive "shards" c.shards;
  positive "ring_capacity" c.ring_capacity;
  let topo = Topology.by_name c.topology in
  if c.traffic <> "fixed" then ignore (Traffic_model.by_name c.traffic topo);
  Stream.check_impairments c.impairments

(* Both runs check their config in full: the topology build that
   [check_config] makes costs about 0.07 ms of CPU on TWAN, 0.1% of a
   12-epoch [Shard.run] window (measured on a 2-vCPU x86 host). *)
let with_session ?pool cfg f =
  check_config cfg;
  let owns_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create () in
  Fun.protect
    ~finally:(fun () -> if owns_pool then Pool.shutdown pool)
    (fun () -> f pool)

let run ?pool ?env ?predictor cfg =
  with_session ?pool cfg @@ fun pool ->
  let tm, env, demands, demands_at = traffic ?env cfg in
  let topo = env.Availability.ts.Tunnels.topo in
  let ts = env.Availability.ts in
  (* With a model, plans and patches anchor on the baseline class; the
     fixed path keeps the exact legacy demand vector. *)
  let standing_demands =
    match tm with
    | None -> demands
    | Some m -> Array.map (fun d -> d *. cfg.scale) (Traffic_model.baseline m)
  in
  let metrics = Metrics.create () in
  let ring = Ring.create ~capacity:cfg.ring_capacity in
  let solver = Prete_lp.Solver_stats.create () in
  (* [swap_model]: the fresh version the stale/swap drill re-installs.
     With an externally supplied server we have no model to offer, so
     the drill only marks stale (predictions stay on the fallback). *)
  let server, swap_model =
    match predictor with
    | Some p -> (p, None)
    | None ->
      let model = build_model cfg.predictor env topo in
      (Predictor.create ~fallback:(Predictor.prior env.Availability.model) model,
       Some model)
  in
  (* Online retraining needs the running model as a plain closure to
     compose deltas onto, so it is only armed when this run built the
     model itself; an externally supplied server keeps whatever
     retraining loop its owner runs. *)
  let retrain_state =
    match (cfg.retrain, swap_model) with
    | Some rc, Some m when rc.rt_every > 0 ->
      Some (Retrain.create ~pool ~seed:cfg.seed ~scale:cfg.scale ~env rc m)
    | _ -> None
  in
  let scheme =
    Schemes.prete_default ~predictor:(fun f -> fst (Predictor.predict server f)) ()
  in
  (* Localized fast-recovery tier: per-fiber detour tables over the base
     tunnel set, plus the standing plan they patch.  Both are pure
     functions of topology + tunnel set (+ demands), so the tier keeps
     the bit-identical-at-any-domain-count contract. *)
  let detours = if cfg.detour then Some (Detours.build ts) else None in
  let base_plan =
    lazy
      (Availability.Internal.plan_alloc env scheme ~demands:standing_demands
         ~degraded:None)
  in
  (* Phase 1 — ground truth: the exact sample path Simulate.run draws. *)
  let samples =
    Metrics.time metrics "sample" (fun () ->
        let rngs = Simulate.Internal.epoch_streams ~seed:cfg.seed ~epochs:cfg.epochs in
        Pool.parallel_map pool (Simulate.Internal.sample_epoch env) rngs)
  in
  (* Phase 2 — detection: every degrading fiber's 1 Hz stream, processed
     per epoch on the pool from pre-split runtime substreams. *)
  let rt_master = Rng.create (cfg.seed lxor 0x5eed) in
  let rt_rngs = Array.init cfg.epochs (fun _ -> Rng.split rt_master) in
  let epoch_runs =
    Metrics.time metrics "detect" (fun () ->
        Pool.parallel_map pool
          (fun e -> process_epoch cfg ~topo ~rng:rt_rngs.(e) samples.(e))
          (Array.init cfg.epochs Fun.id))
  in
  (* Phase 3 — reaction: sequential over epochs (the ladder's retained
     basis and the plan cache are deliberately order-dependent). *)
  let ladder = Resilience.create () in
  let cache = Controller.cache () in
  let last_reaction : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let installs : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let detour_patches : (int, Resilience.outcome option) Hashtbl.t =
    Hashtbl.create 16
  in
  let detour_installs : (int * int, int * Availability.plan) Hashtbl.t =
    Hashtbl.create 64
  in
  let detections = ref [] in
  let rung_counts = Hashtbl.create 4 in
  Metrics.time metrics "react" (fun () ->
      for e = 0 to cfg.epochs - 1 do
        let base = e * epoch_len in
        (* Shadowed per epoch: the plan key, the warm solve, and the
           ladder all see the epoch's own demand class (the legacy fixed
           path returns the identical outer vector). *)
        let demands = demands_at e in
        (match cfg.stale_after with
        | Some k when e = k -> Predictor.mark_stale server
        | Some k when e = 2 * k && k > 0 ->
          Option.iter (fun m -> Predictor.swap server m) swap_model
        | _ -> ());
        let frs = epoch_runs.(e) in
        let epoch_events = ref [] in
        let ev tick kind fiber value =
          epoch_events := (tick, kind, fiber, value) :: !epoch_events
        in
        (* Ground truth + detector events, per fiber in fiber order. *)
        List.iter (fun fr -> Fiber.record ~base ~ev fr [ metrics ]) frs;
        Fiber.silent_cuts ~base ~ev metrics samples.(e);
        (* Alarms → debounce → batches (one per alarm tick). *)
        List.iter
          (fun (g, members) ->
            Metrics.incr ~by:(List.length members) metrics "alarms";
            let eligible, debounced =
              List.partition
                (fun fr ->
                  match Hashtbl.find_opt last_reaction fr.fr_fiber with
                  | Some t -> g - t >= cfg.debounce_s
                  | None -> true)
                members
            in
            List.iter
              (fun fr ->
                Metrics.incr metrics "debounced";
                detections :=
                  {
                    d_epoch = e;
                    d_fiber = fr.fr_fiber;
                    d_onset = base + fr.fr_onset;
                    d_alarm = g;
                    d_install = None;
                    d_prob = 0.0;
                    d_fallback = false;
                    d_cut = Option.map (fun c -> base + c) fr.fr_cut_at;
                  }
                  :: !detections)
              debounced;
            if eligible <> [] then begin
              let n = List.length eligible in
              Metrics.incr metrics "reactions";
              Metrics.observe metrics "batch_size" (float_of_int n);
              (* Detour tier: immediate reaction below the controller —
                 each alarmed fiber's precomputed patch goes in at the
                 detection tick plus its modeled O(affected-flows)
                 switch-over, while the batched solve proceeds below.
                 The patch is a pure function of the fiber, so it is
                 computed once per fiber and reused across epochs. *)
              (match detours with
              | None -> ()
              | Some dt ->
                List.iter
                  (fun fr ->
                    let fb = fr.fr_fiber in
                    let patch =
                      match Hashtbl.find_opt detour_patches fb with
                      | Some p -> p
                      | None ->
                        let p =
                          Resilience.detour_patch ~detours:dt
                            ~installed:(Lazy.force base_plan) ~fiber:fb
                        in
                        Hashtbl.replace detour_patches fb p;
                        p
                    in
                    match patch with
                    | None -> ()
                    | Some o ->
                      let lat = Detours.install_latency_s dt ~fiber:fb in
                      let itick = g + int_of_float (Float.ceil lat) in
                      Hashtbl.replace detour_installs (e, fb)
                        (itick, o.Resilience.plan);
                      Metrics.incr metrics "detour_activations";
                      Metrics.incr
                        ~by:(List.length (Detours.affected_flows dt fb))
                        metrics "detour_flows_patched";
                      Metrics.observe metrics "detour_install_s" lat;
                      ev itick "detour" fb lat)
                  eligible);
              let predicted =
                List.map
                  (fun fr ->
                    (* The single-loop engine streams degrading fibers only. *)
                    let feats =
                      measured_features (Option.get fr.fr_truth) fr.fr_alarm_feats
                    in
                    let p, fell_back = Predictor.predict server feats in
                    (fr, feats, p, fell_back))
                  eligible
              in
              Option.iter
                (fun st ->
                  List.iter
                    (fun (fr, feats, _, _) ->
                      Retrain.record st ~tick:g ~fiber:fr.fr_fiber feats)
                    predicted)
                retrain_state;
              (* Target: the epoch's planned-for fiber when it is in the
                 batch, else the first alarmed fiber. *)
              let target =
                match samples.(e).Simulate.Internal.es_state with
                | Some fb when List.exists (fun (fr, _, _, _) -> fr.fr_fiber = fb) predicted
                  -> fb
                | _ -> (match eligible with fr :: _ -> fr.fr_fiber | [] -> assert false)
              in
              let key =
                Controller.plan_key ~ts ~demands
                  ~probs:env.Availability.model.Fiber_model.p_cut
                  ~salt:[ 1000 + target ] ()
              in
              let upd = Tunnel_update.react ts ~degraded_fiber:target () in
              let n_new = Tunnel_update.num_new upd in
              (match Controller.cache_find cache key with
              | Some (_ : Availability.plan) -> ()
              | None ->
                let degr_features = Array.copy env.Availability.degr_events in
                List.iter
                  (fun (fr, feats, _, _) -> degr_features.(fr.fr_fiber) <- feats)
                  predicted;
                let primary ~warm () =
                  Availability.Internal.plan_alloc_warm ?deadline:cfg.deadline_s
                    ?warm ~degr_features env scheme ~demands
                    ~degraded:(Some target)
                in
                let outcome, _report =
                  Controller.run ~solver_stats:solver
                    ~infer:(fun () -> ())
                    ~regen:(fun () -> ())
                    ~te:(fun () ->
                      Resilience.plan_epoch ladder ~ts ~demands ~primary ())
                    ~n_new_tunnels:n_new ()
                in
                let rung = Resilience.rung_name outcome.Resilience.rung in
                Hashtbl.replace rung_counts rung
                  (1 + Option.value ~default:0 (Hashtbl.find_opt rung_counts rung));
                Controller.cache_store cache key
                  ~degraded:(Resilience.degraded outcome)
                  outcome.Resilience.plan);
              let latency =
                Controller.batch_latency ~members:n ~n_new_tunnels:n_new
              in
              let install = g + int_of_float (Float.ceil latency) in
              Metrics.observe metrics "reaction_latency_s" latency;
              List.iter
                (fun (fr, _, p, fell_back) ->
                  Hashtbl.replace last_reaction fr.fr_fiber g;
                  Hashtbl.replace installs (e, fr.fr_fiber) install;
                  Metrics.observe metrics "detection_latency_s"
                    (float_of_int (g - (base + fr.fr_onset)));
                  ev g "react" fr.fr_fiber latency;
                  ev install "install" fr.fr_fiber p;
                  (match Hashtbl.find_opt detour_installs (e, fr.fr_fiber) with
                  | Some (dtick, _) ->
                    (* Warm plan replaces the patch on arrival: the
                       handoff window is how long the patch carried. *)
                    Metrics.observe metrics "detour_handoff_s"
                      (float_of_int (max 0 (install - dtick)))
                  | None -> ());
                  detections :=
                    {
                      d_epoch = e;
                      d_fiber = fr.fr_fiber;
                      d_onset = base + fr.fr_onset;
                      d_alarm = g;
                      d_install = Some install;
                      d_prob = p;
                      d_fallback = fell_back;
                      d_cut = Option.map (fun c -> base + c) fr.fr_cut_at;
                    }
                    :: !detections)
                predicted
            end)
          (Fiber.alarm_batches ~base frs);
        (* Epoch boundary: fire the decision-focused retrain when due
           and hot-swap the new version in.  The tuned model is
           deterministic; only the measured swap latency is wall-clock,
           and it lands in the non-core wall histogram. *)
        Option.iter
          (fun st ->
            match
              Metrics.time metrics "retrain" (fun () -> Retrain.step st ~epoch:e)
            with
            | None -> ()
            | Some (m, name) ->
              Metrics.incr metrics "retrains";
              let t0 = Prete_util.Clock.now () in
              Predictor.swap ~name server m;
              Metrics.observe_wall metrics "swap_s"
                (Prete_util.Clock.elapsed_since t0))
          retrain_state;
        Ring.push_by_tick ring (List.rev !epoch_events)
      done);
  let detections = List.rev !detections in
  Hashtbl.fold (fun rung c () -> Metrics.incr ~by:c metrics ("rung_" ^ rung)) rung_counts ();
  (* Phase 4 — evaluation: three policies, identical arithmetic. *)
  let cut_at e fb =
    Option.bind
      (List.find_opt (fun fr -> fr.fr_fiber = fb) epoch_runs.(e))
      (fun fr -> fr.fr_cut_at)
  in
  let state_stream, reacted, missed = stream_states samples ~installs ~cut_at in
  let plans = Simulate.Internal.plan_table () in
  let eval ?epoch_plan state =
    evaluate ?epoch_plan ~plans ~pool ~env ~scheme ~demands ~scale:cfg.scale ~tm
      samples state
  in
  let avail_stream = Metrics.time metrics "eval_stream" (fun () -> eval state_stream) in
  let avail_periodic =
    Metrics.time metrics "eval_periodic" (fun () ->
        eval (Array.make cfg.epochs None))
  in
  let avail_instant =
    Metrics.time metrics "eval_instant" (fun () ->
        eval (Array.map (fun s -> s.Simulate.Internal.es_state) samples))
  in
  (* stream+detour: identical to stream except that epochs whose
     predicted cut materialized but whose warm plan missed the deadline
     are served the detour patch — when the patch itself installed
     before the cut.  Restricting the override to materialized cuts
     keeps the policy dominant over plain stream: the patched plan only
     adds surviving allocation for tunnels that are dead either way. *)
  let detour_rescued = ref 0 in
  let detour_override =
    Array.init cfg.epochs (fun e ->
        let s = samples.(e) in
        match s.Simulate.Internal.es_state with
        | Some fb
          when List.mem fb s.Simulate.Internal.es_cuts
               && state_stream.(e) = None -> (
          match Hashtbl.find_opt detour_installs (e, fb) with
          | Some (tick, plan) ->
            if tick <= deadline ~epoch:e (cut_at e fb) then begin
              incr detour_rescued;
              Some plan
            end
            else None
          | None -> None)
        | _ -> None)
  in
  let avail_detour =
    match detours with
    | None -> None
    | Some _ ->
      Some
        (Metrics.time metrics "eval_detour" (fun () ->
             eval ~epoch_plan:(fun e -> detour_override.(e)) state_stream))
  in
  Metrics.incr ~by:!detour_rescued metrics "detour_rescued_epochs";
  let degr_epochs, cut_epochs = epoch_counts samples in
  let hits, misses = Controller.cache_stats cache in
  Metrics.incr ~by:hits metrics "plan_cache_hits";
  Metrics.incr ~by:misses metrics "plan_cache_misses";
  let served, fell_back, swaps = Predictor.stats server in
  Metrics.incr ~by:served metrics "predictor_served";
  Metrics.incr ~by:fell_back metrics "predictor_fallbacks";
  Metrics.incr ~by:swaps metrics "predictor_swaps";
  Metrics.incr ~by:reacted metrics "reacted_in_time";
  Metrics.incr ~by:missed metrics "missed_cuts";
  (* Surfaced even at zero so the tier-1 tests can assert the dumped
     event log is the complete total order (no ring overwrites). *)
  Metrics.incr ~by:(Ring.dropped ring) metrics "ring_dropped";
  Metrics.set_gauge metrics "avail_stream" avail_stream;
  Metrics.set_gauge metrics "avail_periodic" avail_periodic;
  Metrics.set_gauge metrics "avail_instant" avail_instant;
  Option.iter (Metrics.set_gauge metrics "avail_detour") avail_detour;
  {
    r_config = cfg;
    r_epochs = cfg.epochs;
    r_degr_epochs = degr_epochs;
    r_cut_epochs = cut_epochs;
    r_detections = detections;
    r_reacted_in_time = reacted;
    r_missed = missed;
    r_avail_stream = avail_stream;
    r_avail_periodic = avail_periodic;
    r_avail_instant = avail_instant;
    r_avail_detour = avail_detour;
    r_metrics = metrics;
    r_ring = ring;
    r_solver = solver;
    r_scheme = scheme;
  }

(* ------------------------------------------------------------------ *)
(* Dump / replay                                                       *)
(* ------------------------------------------------------------------ *)

module J = Prete_util.Json

let config_to_json (c : config) =
  let d = c.detector and imp = c.impairments and str s = J.String s in
  (* Flat retrain fields; retrain_every 0 (or, in older dumps, all four
     missing) means online retraining is off. *)
  let rc = Option.value ~default:{ rt_every = 0; rt_steps = 0; rt_pairs = 0; rt_min_events = 0 } c.retrain in
  J.Object
    [ ("topology", str c.topology); ("traffic", str c.traffic); ("epochs", J.int c.epochs);
      ("seed", J.int c.seed); ("scale", J.float c.scale);
      ("ewma_alpha", J.float d.Detector.ewma_alpha); ("cusum_k", J.float d.Detector.cusum_k);
      ("cusum_h", J.float d.Detector.cusum_h);
      ("fluct_threshold", J.float d.Detector.fluct_threshold);
      ("degr_threshold", J.float d.Detector.degr_threshold);
      ("cut_threshold", J.float d.Detector.cut_threshold);
      ("gap_rate", J.float imp.Stream.gap_rate); ("dup_rate", J.float imp.Stream.dup_rate);
      ("reorder_rate", J.float imp.Stream.reorder_rate);
      ("max_delay", J.int imp.Stream.max_delay); ("debounce_s", J.int c.debounce_s);
      ("deadline_s", J.option J.float c.deadline_s);
      ("predictor", str (predictor_kind_name c.predictor));
      ("stale_after", J.option J.int c.stale_after); ("detour", J.Bool c.detour);
      ("ring_capacity", J.int c.ring_capacity); ("shards", J.int c.shards);
      ("queue_bound", J.int c.queue_bound); ("shed_policy", str (shed_policy_name c.shed_policy));
      ("retrain_every", J.int rc.rt_every); ("retrain_steps", J.int rc.rt_steps);
      ("retrain_pairs", J.int rc.rt_pairs); ("retrain_min_events", J.int rc.rt_min_events);
      ("lp_engine", str "lu") ]

let core_json r =
  let summary =
    [ ("epochs", r.r_epochs); ("degr_epochs", r.r_degr_epochs); ("cut_epochs", r.r_cut_epochs);
      ("detections", List.length r.r_detections); ("reacted_in_time", r.r_reacted_in_time);
      ("missed", r.r_missed) ]
  in
  J.Object
    [ ("summary", J.Object (List.map (fun (k, v) -> (k, J.int v)) summary));
      ( "availability",
        J.Object
          [ ("stream", J.float r.r_avail_stream); ("periodic", J.float r.r_avail_periodic);
            ("instant", J.float r.r_avail_instant);
            ("stream_detour", J.option J.float r.r_avail_detour) ] );
      ("metrics", Metrics.to_json ~walls:false r.r_metrics); ("events", Ring.to_json r.r_ring) ]

let deterministic_core r = J.to_string (core_json r)

let dump r =
  J.Object
    [ ("prete_rt", J.int 1); ("config", config_to_json r.r_config); ("core", core_json r);
      ("solver", Prete_lp.Solver_stats.to_json r.r_solver);
      ("wall_s", Metrics.walls_json r.r_metrics) ]

exception Bad_field of string

let config_of_dump dump =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_field m)) fmt in
  let read () =
    let c =
      match J.member "config" dump with
      | Some (J.Object _ as c) -> c
      | _ -> bad "not a stream dump (no config section)"
    in
    (* [opt] reads a field older dumps may lack, [req] one they all carry. *)
    let opt key (conv, what) =
      Option.map
        (fun v ->
          match conv v with
          | Some x -> x
          | None -> bad "config: %s must be %s (got %s)" key what (J.to_string v))
        (J.member key c)
    in
    let req key kind = match opt key kind with Some x -> x | None -> bad "config: missing %s" key in
    let str = (J.as_string, "a string") and num = (J.as_float, "a number") in
    let int = (J.as_int, "an integer") in
    let int_or key d = Option.value ~default:d (opt key int) in
    let nullable (conv, what) =
      ((function J.Null -> Some None | v -> Option.map Option.some (conv v)), what ^ " or null")
    in
    let named key of_string v =
      try of_string v with Failure _ -> bad "config: unknown %s %S" key v
    in
    (* Every run solves with the LU engine.  Dumps predating it carry
       no field and were produced under the retired eta-file engine
       ("revised"), as were dumps that name it; a dump naming the dense
       tableau ran under that engine, now a test-only oracle.  All three
       replay under LU, with a note, since the replayed core may then
       differ from the dumped one. *)
    let note =
      match opt "lp_engine" str with
      | Some "lu" -> None
      | Some "revised" | None ->
        Some "dump predates the LU engine (lp_engine \"revised\" or absent); replaying under lu"
      | Some "dense" ->
        Some "dump ran under the dense engine (lp_engine \"dense\"), now a test oracle; replaying under lu"
      | Some v -> bad "unknown LP engine %s (lu | dense)" v
    in
    let cfg =
      {
        topology = req "topology" str;
        (* Dumps predating the traffic-model library carry no field. *)
        traffic = Option.value ~default:"fixed" (opt "traffic" str);
        epochs = req "epochs" int; seed = req "seed" int; scale = req "scale" num;
        detector =
          { Detector.ewma_alpha = req "ewma_alpha" num; cusum_k = req "cusum_k" num;
            cusum_h = req "cusum_h" num; fluct_threshold = req "fluct_threshold" num;
            degr_threshold = req "degr_threshold" num; cut_threshold = req "cut_threshold" num };
        impairments =
          { Stream.gap_rate = req "gap_rate" num; dup_rate = req "dup_rate" num;
            reorder_rate = req "reorder_rate" num; max_delay = req "max_delay" int };
        debounce_s = req "debounce_s" int;
        deadline_s = req "deadline_s" (nullable num);
        predictor = named "predictor" predictor_kind_of_string (req "predictor" str);
        stale_after = req "stale_after" (nullable int);
        detour = req "detour" (J.as_bool, "a boolean");
        ring_capacity = req "ring_capacity" int;
        (* Dumps predating the sharded runtime carry none of the three. *)
        shards = int_or "shards" 1;
        queue_bound = int_or "queue_bound" default_config.queue_bound;
        shed_policy =
          Option.fold ~none:default_config.shed_policy
            ~some:(named "shed_policy" shed_policy_of_string) (opt "shed_policy" str);
        (* Dumps predating online retraining carry no fields: off. *)
        retrain =
          (match int_or "retrain_every" 0 with
          | 0 -> None
          | every ->
            let d = default_retrain in
            Some
              { rt_every = every; rt_steps = int_or "retrain_steps" d.rt_steps;
                rt_pairs = int_or "retrain_pairs" d.rt_pairs;
                rt_min_events = int_or "retrain_min_events" d.rt_min_events });
      }
    in
    check_config cfg;
    (cfg, note)
  in
  match read () with
  | v -> Ok v
  | exception (Bad_field msg | Invalid_argument msg) -> Error msg

let replay_with ~run ~core dump =
  match (config_of_dump dump, J.member "core" dump) with
  | Error e, _ -> Error e
  | Ok _, None -> Error "not a stream dump (no core section)"
  | Ok (cfg, _), Some dumped ->
    let r = run cfg in
    Ok (r, core r = dumped)

let replay ?pool = replay_with ~run:(run ?pool) ~core:core_json

module Internal = struct
  let epoch_len = epoch_len
  let build_model = build_model
  let measured_features = measured_features
  let with_session = with_session
  let traffic = traffic
  let stream_states = stream_states
  let epoch_counts = epoch_counts
  let evaluate = evaluate
  let replay_with = replay_with

  module Retrain = Retrain
end
