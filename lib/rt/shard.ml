open Prete_net
open Prete_optics
open Prete
module Rng = Prete_util.Rng
module Clock = Prete_util.Clock
module Pool = Prete_exec.Pool

(* The per-fiber records ([fr_*] fields) and [epoch_len] come from the
   per-fiber streaming kernel. *)
open Fiber

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)
(* ------------------------------------------------------------------ *)

type partition = {
  pt_shards : int;
  pt_seed : int;
  pt_region_of : int array;
  pt_regions : int array array;
}

(* Fibers are adjacent when they share an endpoint site — the line
   graph of the fiber layer.  Connected topology ⇒ connected line
   graph, which is what makes single-seed BFS growth yield connected
   regions. *)
let fiber_adjacency topo =
  let n = Topology.num_fibers topo in
  let by_node : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (f : Topology.fiber) ->
      let a, b = f.Topology.endpoints in
      List.iter
        (fun v ->
          Hashtbl.replace by_node v
            (f.Topology.fid :: Option.value ~default:[] (Hashtbl.find_opt by_node v)))
        (if a = b then [ a ] else [ a; b ]))
    topo.Topology.fibers;
  Array.init n (fun i ->
      let a, b = (Topology.fiber topo i).Topology.endpoints in
      Option.value ~default:[] (Hashtbl.find_opt by_node a)
      @ Option.value ~default:[] (Hashtbl.find_opt by_node b)
      |> List.filter (fun j -> j <> i)
      |> List.sort_uniq compare)

let partition topo ~shards ~seed =
  if shards <= 0 then invalid_arg "Shard.partition: shards must be positive";
  let n = Topology.num_fibers topo in
  let k = min shards n in
  let adj = fiber_adjacency topo in
  (* Seed fibers: one RNG draw anchors the partition to the seed, then
     farthest-first spreading keeps the remaining anchors apart. *)
  let rng = Rng.create (seed lxor 0x7a11) in
  let seeds = Array.make k 0 in
  seeds.(0) <- Rng.int rng n;
  let dist = Array.make n max_int in
  let bfs_relax src =
    let queue = Queue.create () in
    dist.(src) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if dist.(u) + 1 < dist.(v) then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v queue
          end)
        adj.(u)
    done
  in
  bfs_relax seeds.(0);
  for i = 1 to k - 1 do
    let best = ref 0 and best_d = ref min_int in
    for f = 0 to n - 1 do
      let d = if dist.(f) = max_int then n + 1 else dist.(f) in
      if d > !best_d then begin
        best := f;
        best_d := d
      end
    done;
    seeds.(i) <- !best;
    bfs_relax !best
  done;
  let region_of = Array.make n (-1) in
  let sizes = Array.make k 0 in
  (* Per-region frontier: unclaimed fibers adjacent to the region,
     kept as sorted de-duplicated lists so the claim order is a pure
     function of the graph. *)
  let frontier = Array.make k [] in
  let claim r f =
    region_of.(f) <- r;
    sizes.(r) <- sizes.(r) + 1;
    for r' = 0 to k - 1 do
      frontier.(r') <- List.filter (fun g -> g <> f) frontier.(r')
    done;
    frontier.(r) <-
      List.sort_uniq compare
        (List.filter (fun g -> region_of.(g) < 0) adj.(f) @ frontier.(r))
  in
  Array.iteri
    (fun r s -> if region_of.(s) < 0 then claim r s else claim r (
       (* Farthest-first can land on an already claimed fiber only when
          the graph is smaller than k; fall back to the least unclaimed. *)
       let rec first_free f = if region_of.(f) < 0 then f else first_free (f + 1) in
       first_free 0))
    seeds;
  let assigned = ref k in
  while !assigned < n do
    (* Grow the smallest region that can still grow — balanced sizes
       without ever breaking region connectivity. *)
    let best = ref (-1) in
    for r = k - 1 downto 0 do
      if frontier.(r) <> [] && (!best < 0 || sizes.(r) <= sizes.(!best)) then
        best := r
    done;
    if !best >= 0 then claim !best (List.hd frontier.(!best))
    else begin
      (* Disconnected fiber graph (no built-in topology): hand the
         least unclaimed fiber to the smallest region. *)
      let f = ref 0 in
      while region_of.(!f) >= 0 do incr f done;
      let r = ref 0 in
      for r' = 1 to k - 1 do
        if sizes.(r') < sizes.(!r) then r := r'
      done;
      claim !r !f
    end;
    incr assigned
  done;
  let members = Array.make k [] in
  for f = n - 1 downto 0 do
    members.(region_of.(f)) <- f :: members.(region_of.(f))
  done;
  {
    pt_shards = k;
    pt_seed = seed;
    pt_region_of = region_of;
    pt_regions = Array.map Array.of_list members;
  }

(* ------------------------------------------------------------------ *)
(* Coalescer                                                           *)
(* ------------------------------------------------------------------ *)

module Coalescer = struct
  type 'a entry = { en_tick : int; en_item : 'a }

  type 'a t = {
    c_bound : int;
    c_policy : Runtime.shed_policy;
    mutable c_busy_until : int;
    mutable c_staged : 'a entry list;  (* oldest first *)
    mutable c_len : int;
    mutable c_offered : int;
    mutable c_batches : int;
    mutable c_batched : int;
    mutable c_shed : int;
    mutable c_deferred : int;
  }

  let create ~queue_bound ~policy () =
    if queue_bound < 0 then
      invalid_arg "Shard.Coalescer.create: negative queue_bound";
    {
      c_bound = queue_bound;
      c_policy = policy;
      c_busy_until = min_int;
      c_staged = [];
      c_len = 0;
      c_offered = 0;
      c_batches = 0;
      c_batched = 0;
      c_shed = 0;
      c_deferred = 0;
    }

  let launch t ~tick ~dispatch items =
    t.c_batches <- t.c_batches + 1;
    t.c_batched <- t.c_batched + List.length items;
    let free_at = dispatch tick items in
    t.c_busy_until <- max free_at (tick + 1)

  (* Serve the backlog the moment the controller frees: the whole
     accumulated backlog coalesces into one batched re-solve. *)
  let service t ~now ~dispatch =
    while t.c_staged <> [] && t.c_busy_until <= now do
      let head = List.hd t.c_staged in
      let tick = max t.c_busy_until head.en_tick in
      let items = List.map (fun e -> e.en_item) t.c_staged in
      t.c_deferred <- t.c_deferred + t.c_len;
      t.c_staged <- [];
      t.c_len <- 0;
      launch t ~tick ~dispatch items
    done

  let offer t ~now ~dispatch ~shed items =
    service t ~now ~dispatch;
    t.c_offered <- t.c_offered + List.length items;
    if t.c_busy_until <= now then launch t ~tick:now ~dispatch items
    else
      List.iter
        (fun it ->
          if t.c_len >= t.c_bound then begin
            t.c_shed <- t.c_shed + 1;
            match t.c_policy with
            | Runtime.Drop_newest -> shed ~tick:now it
            | Runtime.Drop_oldest -> (
              match t.c_staged with
              | old :: rest ->
                shed ~tick:now old.en_item;
                t.c_staged <- rest @ [ { en_tick = now; en_item = it } ]
              | [] ->
                (* bound = 0: nothing staged to evict. *)
                shed ~tick:now it)
          end
          else begin
            t.c_staged <- t.c_staged @ [ { en_tick = now; en_item = it } ];
            t.c_len <- t.c_len + 1
          end)
        items

  let flush t ~dispatch =
    while t.c_staged <> [] do
      let head = List.hd t.c_staged in
      let tick = max t.c_busy_until head.en_tick in
      let items = List.map (fun e -> e.en_item) t.c_staged in
      t.c_deferred <- t.c_deferred + t.c_len;
      t.c_staged <- [];
      t.c_len <- 0;
      launch t ~tick ~dispatch items
    done

  let busy_until t = t.c_busy_until
  let backlog t = t.c_len
  let stats t = (t.c_offered, t.c_batches, t.c_batched, t.c_shed, t.c_deferred)
end

(* ------------------------------------------------------------------ *)
(* Per-shard stream processing                                         *)
(* ------------------------------------------------------------------ *)

(* One shard × one epoch: each fiber streamed through the shared
   per-fiber kernel in turn.  Fibers share nothing while streaming, so
   they run one after another on the task's domain.  The returned walls
   sum the fibers': synthesis, and the busy seconds of the event-loop
   work (ingest and detect). *)
let process_region (cfg : Runtime.config) ~topo ~fibers ~rngs ~truth_of
    ~cut_of =
  let synth = ref 0.0 and busy = ref 0.0 in
  let outs =
    Array.mapi
      (fun i fb ->
        let fr, w =
          Fiber.process ~detector:cfg.Runtime.detector
            ~impairments:cfg.Runtime.impairments ~topo ~rng:rngs.(i) ~fb
            ~truth:(truth_of fb) ~cut:(cut_of fb)
        in
        synth := !synth +. w.Fiber.synth_s;
        busy := !busy +. w.Fiber.busy_s;
        fr)
      fibers
  in
  (outs, { Fiber.synth_s = !synth; busy_s = !busy })

(* ------------------------------------------------------------------ *)
(* Prediction features, evaluation, retraining                         *)
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

(* Online decision-focused retraining, one loop for the whole fleet:
   consumes the measured event stream (detector at-alarm features, not oracle truth),
   and at epoch boundaries tunes the current model's outputs against the
   realized TE loss ({!Prete_ml.Dfl}), installing the tuned vector as a
   per-fiber delta on top of the running closure.  Everything here is a
   pure function of (seed, epoch, collected events) — the measured set
   is keyed per fiber with explicit tick tie-breaking, so the retrain
   decision and the produced model are identical at any shard or domain
   count. *)
module Retrain = struct
  type state = {
    rc : Runtime.retrain;
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
    st.rc.Runtime.rt_every > 0
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
          steps = st.rc.Runtime.rt_steps;
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

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type shard_stat = {
  ss_region : int;
  ss_fibers : int;
  ss_samples : int;
  ss_alarms : int;
  ss_busy_s : float;
  ss_metrics : Metrics.t;
}

type result = {
  s_config : Runtime.config;
  s_partition : partition;
  s_flows : int;
  s_epochs : int;
  s_degr_epochs : int;
  s_cut_epochs : int;
  s_detections : Runtime.detection list;
  s_reacted_in_time : int;
  s_missed : int;
  s_avail_stream : float;
  s_avail_periodic : float;
  s_avail_instant : float;
  s_avail_detour : float option;
  s_alarms : int;
  s_batches : int;
  s_batched : int;
  s_shed : int;
  s_deferred : int;
  s_debounced : int;
  s_metrics : Metrics.t;
  s_aux : Metrics.t;
  s_ring : Ring.t;
  s_shards : shard_stat array;
  s_solver : Prete_lp.Solver_stats.t;
}

(* Static feature record for a fiber with no sampled degradation event
   (a detector false positive on a healthy stream): intrinsic fiber
   attributes plus the epoch's time of day; the measured excursion is
   overlaid by [measured_features]. *)
let static_features topo ~fb ~epoch =
  let f = Topology.fiber topo fb in
  {
    Hazard.fiber = fb;
    region = f.Topology.region;
    vendor = f.Topology.vendor;
    length_km = f.Topology.length_km;
    time_of_day =
      mod_float (float_of_int epoch *. (Hazard.epoch_seconds /. 3600.0)) 24.0;
    degree = 0.0;
    gradient = 0.0;
    fluctuation = 0;
    duration_s = 0.0;
  }

(* The config is checked in full: the topology build that
   [check_config] makes costs about 0.07 ms of CPU on TWAN, 0.1% of a
   12-epoch window (measured on a 2-vCPU x86 host). *)
let run ?pool ?env (cfg : Runtime.config) =
  Runtime.check_config cfg;
  let owns_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create () in
  Fun.protect ~finally:(fun () -> if owns_pool then Pool.shutdown pool) @@ fun () ->
  let open Runtime in
  let tm, env, demands, demands_at = Internal.traffic ?env cfg in
  let topo = env.Availability.ts.Tunnels.topo in
  let ts = env.Availability.ts in
  let n = Topology.num_fibers topo in
  let flows = Array.length ts.Tunnels.flows in
  let pt = partition topo ~shards:cfg.shards ~seed:cfg.seed in
  let k = pt.pt_shards in
  let metrics = Metrics.create () in
  let aux = Metrics.create () in
  let ring = Ring.create ~capacity:cfg.ring_capacity in
  let solver = Prete_lp.Solver_stats.create () in
  let sh_metrics = Array.init k (fun _ -> Metrics.create ()) in
  (* Per-shard predictor servers over one shared model: predictions are
     pure given the model and staleness, so the answer never depends on
     which server serves it — only the per-shard serving stats do. *)
  let model = Internal.build_model cfg.predictor env topo in
  let fallback = Predictor.prior env.Availability.model in
  let servers = Array.init k (fun _ -> Predictor.create ~fallback model) in
  (* Online decision-focused retraining: one engine for the whole fleet.
     Measured events arrive in the coalescer's deterministic dispatch
     order and predictions are pure given the shared model, so the
     retrain decisions and tuned versions are identical at any shard
     count; a fired retrain hot-swaps every regional server. *)
  let retrain_state =
    match cfg.retrain with
    | Some rc when rc.rt_every > 0 ->
      Some (Retrain.create ~pool ~seed:cfg.seed ~scale:cfg.scale ~env rc model)
    | _ -> None
  in
  let scheme =
    Schemes.prete_default
      ~predictor:(fun f -> fst (Predictor.predict servers.(0) f))
      ()
  in
  (* Localized fast-recovery tier: on an alarm the fiber's precomputed
     detour patch of the standing plan installs after a modeled
     O(affected-flows) switch-over, below the controller.  The standing
     plan (through the env's plan memo) and each alarmed fiber's table
     and patch are built on first use in the run; all are pure functions
     of the tunnel set and the standing demands, so the core stays
     bit-identical at any (shards x domains).  One fiber's table costs
     about 0.13 ms on TWAN, the full set 9 ms; keeping the full set per
     env instead raised stream-twan's peak heap by about 10%.  With a
     traffic model, patches anchor on the baseline class. *)
  let standing_plan =
    lazy
      (let demands =
         match tm with
         | None -> demands
         | Some m -> Array.map (fun d -> d *. cfg.scale) (Traffic_model.baseline m)
       in
       Availability.Internal.plan_alloc env scheme ~demands ~degraded:None)
  in
  let patches = Hashtbl.create 16 in
  let patch_of fb =
    match Hashtbl.find_opt patches fb with
    | Some p -> p
    | None ->
      let dt = Detours.build ~fibers:(Int.equal fb) ts in
      let p =
        Option.map
          (fun o ->
            ( o.Resilience.plan,
              Detours.install_latency_s dt ~fiber:fb,
              List.length (Detours.affected_flows dt fb) ))
          (Resilience.detour_patch ~detours:dt ~installed:(Lazy.force standing_plan)
             ~fiber:fb)
      in
      Hashtbl.replace patches fb p;
      p
  in
  (* (epoch, fiber) -> the patch's install tick and plan. *)
  let detour_installs = Hashtbl.create 16 in
  (* Phase 1 — ground truth: the exact sample path Simulate.run draws. *)
  let samples =
    Metrics.time metrics "sample" (fun () ->
        let rngs =
          Simulate.Internal.epoch_streams ~seed:cfg.seed ~epochs:cfg.epochs
        in
        Pool.parallel_map pool (Simulate.Internal.sample_epoch env) rngs)
  in
  (* Per-(epoch, fiber) RNG substreams, split in a fixed global order so
     a fiber's stream never depends on the region it landed in. *)
  let rt_master = Rng.create (cfg.seed lxor 0xf1ee7) in
  let fiber_rngs =
    Array.init cfg.epochs (fun _ ->
        let er = Rng.split rt_master in
        Array.init n (fun _ -> Rng.split er))
  in
  let truth_of_epoch e =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (fb, tr) -> Hashtbl.replace tbl fb tr)
      samples.(e).Simulate.Internal.es_degraded;
    tbl
  in
  let truths = Array.init cfg.epochs truth_of_epoch in
  (* Phase 2 — shard loops: one task per (epoch, shard), tick-barrier
     semantics per epoch enforced by the merge below; each task writes
     only its own slot of the results matrix. *)
  let runs = Array.make (cfg.epochs * k) [||] in
  let walls = Array.make (cfg.epochs * k) { Fiber.synth_s = 0.0; busy_s = 0.0 } in
  let tasks = Array.init (cfg.epochs * k) Fun.id in
  Metrics.time metrics "detect" (fun () ->
      Pool.parallel_iter pool
        (fun idx ->
          let e = idx / k and s = idx mod k in
          let fibers = pt.pt_regions.(s) in
          let rngs = Array.map (fun fb -> fiber_rngs.(e).(fb)) fibers in
          let truth_of fb = Hashtbl.find_opt truths.(e) fb in
          let cut_of fb = List.mem fb samples.(e).Simulate.Internal.es_cuts in
          let outs, w =
            process_region cfg ~topo ~fibers ~rngs ~truth_of ~cut_of
          in
          runs.(idx) <- outs;
          walls.(idx) <- w)
        tasks);
  (* Phase 3 — merge + coalesced reactions: sequential over epochs in
     (epoch, fiber) order, so everything the controller sees is a pure
     function of the input, independent of shards and domains. *)
  let ladder = Resilience.create () in
  let caches = Array.init k (fun _ -> Controller.cache ~capacity:4096 ()) in
  let last_reaction : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let installs : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let detections = ref [] in
  let rung_counts = Hashtbl.create 4 in
  let co =
    Coalescer.create ~queue_bound:cfg.queue_bound ~policy:cfg.shed_policy ()
  in
  let byf = Array.init cfg.epochs (fun _ -> Array.make n None) in
  Metrics.time metrics "react" (fun () ->
      for e = 0 to cfg.epochs - 1 do
        let base = e * epoch_len in
        let demands = demands_at e in
        (match cfg.stale_after with
        | Some j when e = j -> Array.iter Predictor.mark_stale servers
        | Some j when e = 2 * j && j > 0 ->
          Array.iter (fun srv -> Predictor.swap srv model) servers
        | _ -> ());
        for s = 0 to k - 1 do
          Array.iter
            (fun sf -> byf.(e).(sf.fr_fiber) <- Some sf)
            runs.((e * k) + s)
        done;
        let epoch_events = ref [] in
        let ev tick kind fiber value =
          epoch_events := (tick, kind, fiber, value) :: !epoch_events
        in
        (* Ground truth + detector events + tallies, in fiber order. *)
        let streamed = List.filter_map Fun.id (Array.to_list byf.(e)) in
        List.iter
          (fun sf -> Fiber.record ~base ~ev sf [ metrics; sh_metrics.(pt.pt_region_of.(sf.fr_fiber)) ])
          streamed;
        Fiber.silent_cuts ~base ~ev metrics samples.(e);
        (* Alarms → debounce → the cross-shard coalescer, per tick in
           (tick, fiber) order. *)
        let dispatch g members =
          let nb = List.length members in
          Metrics.incr metrics "reactions";
          Metrics.observe metrics "batch_size" (float_of_int nb);
          let member_regions =
            List.map (fun sf -> pt.pt_region_of.(sf.fr_fiber)) members
            |> List.sort_uniq compare
          in
          if List.length member_regions > 1 then
            Metrics.incr aux "cross_region_batches";
          let predicted =
            List.map
              (fun sf ->
                let truth =
                  match sf.fr_truth with
                  | Some tr -> tr
                  | None -> static_features topo ~fb:sf.fr_fiber ~epoch:e
                in
                let feats = measured_features truth sf.fr_alarm_feats in
                let srv = servers.(pt.pt_region_of.(sf.fr_fiber)) in
                let p, fell_back = Predictor.predict srv feats in
                (sf, feats, p, fell_back))
              members
          in
          Option.iter
            (fun st ->
              List.iter
                (fun (sf, feats, _, _) ->
                  Retrain.record st ~tick:g ~fiber:sf.fr_fiber feats)
                predicted)
            retrain_state;
          let target =
            match samples.(e).Simulate.Internal.es_state with
            | Some fb when List.exists (fun sf -> sf.fr_fiber = fb) members ->
              fb
            | _ -> (
              match members with
              | sf :: _ -> sf.fr_fiber
              | [] -> assert false)
          in
          let key =
            Controller.plan_key ~ts ~demands
              ~probs:env.Availability.model.Fiber_model.p_cut
              ~salt:[ 2000 + target ] ()
          in
          let upd = Tunnel_update.react ts ~degraded_fiber:target () in
          let n_new = Tunnel_update.num_new upd in
          let cache = caches.(pt.pt_region_of.(target)) in
          (match Controller.cache_find cache key with
          | Some (_ : Availability.plan) -> ()
          | None ->
            let degr_features = Array.copy env.Availability.degr_events in
            List.iter
              (fun (sf, feats, _, _) -> degr_features.(sf.fr_fiber) <- feats)
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
            Controller.batch_latency ~members:nb ~n_new_tunnels:n_new
          in
          let install = g + int_of_float (Float.ceil latency) in
          Metrics.observe metrics "reaction_latency_s" latency;
          List.iter
            (fun (sf, _, p, fell_back) ->
              let fb = sf.fr_fiber in
              Hashtbl.replace last_reaction fb g;
              Hashtbl.replace installs (e, fb) install;
              Metrics.observe metrics "queue_wait_s"
                (float_of_int (max 0 (g - (base + Option.get sf.fr_alarm))));
              if sf.fr_onset >= 0 then
                Metrics.observe metrics "detection_latency_s"
                  (float_of_int
                     (Option.get sf.fr_alarm - sf.fr_onset));
              ev g "react" fb latency;
              ev install "install" fb p;
              (* The warm plan replaces the patch on arrival: the handoff
                 window is how long the patch carried. *)
              Option.iter
                (fun (dtick, _) ->
                  Metrics.observe metrics "detour_handoff_s"
                    (float_of_int (max 0 (install - dtick))))
                (Hashtbl.find_opt detour_installs (e, fb));
              detections :=
                {
                  Runtime.d_epoch = e;
                  d_fiber = fb;
                  d_onset = (if sf.fr_onset >= 0 then base + sf.fr_onset else -1);
                  d_alarm = base + Option.get sf.fr_alarm;
                  d_install = Some install;
                  d_prob = p;
                  d_fallback = fell_back;
                  d_cut = Option.map (fun c -> base + c) sf.fr_cut_at;
                }
                :: !detections)
            predicted;
          install
        in
        let shed ~tick sf =
          let fb = sf.fr_fiber in
          Metrics.incr metrics "shed";
          Metrics.incr sh_metrics.(pt.pt_region_of.(fb)) "shed";
          ev tick "shed" fb 0.0;
          detections :=
            {
              Runtime.d_epoch = e;
              d_fiber = fb;
              d_onset = (if sf.fr_onset >= 0 then base + sf.fr_onset else -1);
              d_alarm = base + Option.get sf.fr_alarm;
              d_install = None;
              d_prob = 0.0;
              d_fallback = false;
              d_cut = Option.map (fun c -> base + c) sf.fr_cut_at;
            }
            :: !detections
        in
        List.iter
          (fun (g, members) ->
            Metrics.incr ~by:(List.length members) metrics "alarms";
            List.iter
              (fun sf ->
                Metrics.incr sh_metrics.(pt.pt_region_of.(sf.fr_fiber)) "alarms")
              members;
            let eligible, debounced =
              List.partition
                (fun sf ->
                  match Hashtbl.find_opt last_reaction sf.fr_fiber with
                  | Some t -> g - t >= cfg.debounce_s
                  | None -> true)
                members
            in
            List.iter
              (fun sf ->
                Metrics.incr metrics "debounced";
                detections :=
                  {
                    Runtime.d_epoch = e;
                    d_fiber = sf.fr_fiber;
                    d_onset =
                      (if sf.fr_onset >= 0 then base + sf.fr_onset else -1);
                    d_alarm = g;
                    d_install = None;
                    d_prob = 0.0;
                    d_fallback = false;
                    d_cut = Option.map (fun c -> base + c) sf.fr_cut_at;
                  }
                  :: !detections)
              debounced;
            (* Every eligible alarm's patch goes in at the alarm tick,
               whatever the coalescer then does with its reaction. *)
            if cfg.detour then
              List.iter
                (fun sf ->
                  let fb = sf.fr_fiber in
                  match patch_of fb with
                  | None -> ()
                  | Some (plan, lat, nflows) ->
                    let itick = g + int_of_float (Float.ceil lat) in
                    Hashtbl.replace detour_installs (e, fb) (itick, plan);
                    Metrics.incr metrics "detour_activations";
                    Metrics.incr ~by:nflows metrics "detour_flows_patched";
                    Metrics.observe metrics "detour_install_s" lat;
                    ev itick "detour" fb lat)
                eligible;
            if eligible <> [] then
              Coalescer.offer co ~now:g ~dispatch ~shed eligible)
          (Fiber.alarm_batches ~base streamed);
        (* Epoch barrier: the controller catches up before the next
           epoch's merge, so every batch is intra-epoch. *)
        Coalescer.flush co ~dispatch;
        Option.iter
          (fun st ->
            match
              Metrics.time metrics "retrain" (fun () -> Retrain.step st ~epoch:e)
            with
            | None -> ()
            | Some (m, name) ->
              Metrics.incr metrics "retrains";
              let t0 = Clock.now () in
              Array.iter (fun srv -> Predictor.swap ~name srv m) servers;
              Metrics.observe_wall metrics "swap_s" (Clock.elapsed_since t0))
          retrain_state;
        Ring.push_by_tick ring (List.rev !epoch_events)
      done);
  let detections = List.rev !detections in
  Hashtbl.fold
    (fun rung c () -> Metrics.incr ~by:c metrics ("rung_" ^ rung))
    rung_counts ();
  (* Phase 4 — evaluation: four policies, Simulate.run's arithmetic. *)
  let cut_at e fb = Option.bind byf.(e).(fb) (fun fr -> fr.fr_cut_at) in
  let state_stream, reacted, missed = stream_states samples ~installs ~cut_at in
  let plans = Simulate.Internal.plan_table () in
  let eval ?epoch_plan state =
    evaluate ?epoch_plan ~plans ~pool ~env ~scheme ~demands ~scale:cfg.scale ~tm
      samples state
  in
  let avail_stream =
    Metrics.time metrics "eval_stream" (fun () -> eval state_stream)
  in
  let avail_periodic =
    Metrics.time metrics "eval_periodic" (fun () ->
        eval (Array.make cfg.epochs None))
  in
  let avail_instant =
    Metrics.time metrics "eval_instant" (fun () ->
        eval (Array.map (fun s -> s.Simulate.Internal.es_state) samples))
  in
  (* stream+detour: stream, except that an epoch whose predicted cut
     materialized but whose warm plan missed the deadline is served the
     detour patch, when the patch itself installed before the cut.  The
     patch only adds surviving allocation for tunnels that are dead
     either way, so the policy never falls below stream; with no rescued
     epoch it is stream, bit for bit, and is not evaluated again. *)
  let rescued =
    Array.mapi
      (fun e (s : Simulate.Internal.epoch_sample) ->
        match s.es_state with
        | Some fb when List.mem fb s.es_cuts && state_stream.(e) = None -> (
          match Hashtbl.find_opt detour_installs (e, fb) with
          | Some (tick, plan) when tick <= deadline ~epoch:e (cut_at e fb) -> Some plan
          | _ -> None)
        | _ -> None)
      samples
  in
  let n_rescued = Array.fold_left (fun c p -> if Option.is_some p then c + 1 else c) 0 rescued in
  let avail_detour =
    if not cfg.detour then None
    else if n_rescued = 0 then Some avail_stream
    else
      Some
        (Metrics.time metrics "eval_detour" (fun () ->
             eval ~epoch_plan:(Array.get rescued) state_stream))
  in
  Metrics.incr ~by:n_rescued metrics "detour_rescued_epochs";
  let degr_epochs, cut_epochs = epoch_counts samples in
  (* Plan-cache traffic summed over the per-shard caches: the keys are
     target-salted, so the sum equals what one global cache would see. *)
  let hits, misses =
    Array.fold_left
      (fun (h, m) c ->
        let h', m' = Controller.cache_stats c in
        (h + h', m + m'))
      (0, 0) caches
  in
  Metrics.incr ~by:hits metrics "plan_cache_hits";
  Metrics.incr ~by:misses metrics "plan_cache_misses";
  let served, fell_back, swaps =
    Array.fold_left
      (fun (a, b, c) srv ->
        let a', b', c' = Predictor.stats srv in
        (a + a', b + b', c + c'))
      (0, 0, 0) servers
  in
  Metrics.incr ~by:served metrics "predictor_served";
  Metrics.incr ~by:fell_back metrics "predictor_fallbacks";
  (* Swap totals scale with the server count — partition-dependent, so
     they stay out of the core. *)
  Metrics.incr ~by:swaps aux "predictor_swaps";
  let offered, batches, batched, shed_n, deferred =
    Coalescer.stats co
  in
  let alarms = Metrics.counter metrics "alarms" in
  let debounced = Metrics.counter metrics "debounced" in
  ignore offered;
  Metrics.incr ~by:batches metrics "coalesced_batches";
  Metrics.incr ~by:batched metrics "batched_reactions";
  Metrics.incr ~by:deferred metrics "deferred";
  Metrics.incr ~by:reacted metrics "reacted_in_time";
  Metrics.incr ~by:missed metrics "missed_cuts";
  Metrics.incr ~by:(cfg.epochs * n) metrics "fibers_streamed";
  Metrics.incr ~by:(Ring.dropped ring) metrics "ring_dropped";
  Metrics.set_gauge metrics "avail_stream" avail_stream;
  Metrics.set_gauge metrics "avail_periodic" avail_periodic;
  Metrics.set_gauge metrics "avail_instant" avail_instant;
  Option.iter (Metrics.set_gauge metrics "avail_detour") avail_detour;
  Metrics.set_gauge aux "shards" (float_of_int k);
  let shard_stats =
    Array.init k (fun s ->
        let samples_n = ref 0 and alarms_n = ref 0 in
        let synth_s = ref 0.0 and busy_s = ref 0.0 in
        for e = 0 to cfg.epochs - 1 do
          synth_s := !synth_s +. walls.((e * k) + s).Fiber.synth_s;
          busy_s := !busy_s +. walls.((e * k) + s).Fiber.busy_s;
          Array.iter
            (fun sf ->
              samples_n := !samples_n + sf.fr_samples;
              if sf.fr_alarm <> None then incr alarms_n)
            runs.((e * k) + s)
        done;
        Metrics.add_wall sh_metrics.(s) "synth" !synth_s;
        Metrics.add_wall sh_metrics.(s) "loop" !busy_s;
        {
          ss_region = s;
          ss_fibers = Array.length pt.pt_regions.(s);
          ss_samples = !samples_n;
          ss_alarms = !alarms_n;
          ss_busy_s = !busy_s;
          ss_metrics = sh_metrics.(s);
        })
  in
  {
    s_config = cfg;
    s_partition = pt;
    s_flows = flows;
    s_epochs = cfg.epochs;
    s_degr_epochs = degr_epochs;
    s_cut_epochs = cut_epochs;
    s_detections = detections;
    s_reacted_in_time = reacted;
    s_missed = missed;
    s_avail_stream = avail_stream;
    s_avail_periodic = avail_periodic;
    s_avail_instant = avail_instant;
    s_avail_detour = avail_detour;
    s_alarms = alarms;
    s_batches = batches;
    s_batched = batched;
    s_shed = shed_n;
    s_deferred = deferred;
    s_debounced = debounced;
    s_metrics = metrics;
    s_aux = aux;
    s_ring = ring;
    s_shards = shard_stats;
    s_solver = solver;
  }

let accounted r = r.s_alarms = r.s_debounced + r.s_shed + r.s_batched

let aggregate_rate r =
  Array.fold_left
    (fun acc ss ->
      acc +. (float_of_int ss.ss_samples /. Float.max ss.ss_busy_s 1e-9))
    0.0 r.s_shards

let tick_rate r =
  let ticks =
    r.s_epochs
    * (epoch_len + r.s_config.Runtime.impairments.Stream.max_delay)
  in
  Array.fold_left
    (fun acc ss ->
      Float.min acc (float_of_int ticks /. Float.max ss.ss_busy_s 1e-9))
    infinity r.s_shards

(* ------------------------------------------------------------------ *)
(* Dump / replay                                                       *)
(* ------------------------------------------------------------------ *)

module J = Prete_util.Json

let core_json r =
  let summary =
    [ ("epochs", r.s_epochs); ("fibers", Array.length r.s_partition.pt_region_of);
      ("flows", r.s_flows); ("degr_epochs", r.s_degr_epochs); ("cut_epochs", r.s_cut_epochs);
      ("detections", List.length r.s_detections); ("alarms", r.s_alarms);
      ("batches", r.s_batches); ("batched", r.s_batched); ("shed", r.s_shed);
      ("deferred", r.s_deferred); ("debounced", r.s_debounced);
      ("reacted_in_time", r.s_reacted_in_time); ("missed", r.s_missed) ]
  in
  J.Object
    [ ("summary", J.Object (List.map (fun (k, v) -> (k, J.int v)) summary));
      ( "availability",
        J.Object
          [ ("stream", J.float r.s_avail_stream); ("periodic", J.float r.s_avail_periodic);
            ("instant", J.float r.s_avail_instant);
            ("stream_detour", J.option J.float r.s_avail_detour) ] );
      ("metrics", Metrics.to_json ~walls:false r.s_metrics); ("events", Ring.to_json r.s_ring) ]

let deterministic_core r = J.to_string (core_json r)

let dump r =
  let shard ss =
    J.Object
      [ ("region", J.int ss.ss_region); ("fibers", J.int ss.ss_fibers);
        ("samples", J.int ss.ss_samples); ("alarms", J.int ss.ss_alarms);
        ("busy_s", J.fixed 6 ss.ss_busy_s); ("metrics", Metrics.to_json ss.ss_metrics) ]
  in
  J.Object
    [ ("prete_rt_shard", J.int 1); ("config", Runtime.config_to_json r.s_config);
      ("core", core_json r); ("shards", J.Array (Array.to_list (Array.map shard r.s_shards)));
      ("aux", Metrics.to_json ~walls:false r.s_aux);
      ("solver", Prete_lp.Solver_stats.to_json r.s_solver);
      ("wall_s", Metrics.walls_json r.s_metrics) ]

let replay ?pool dump =
  match (Runtime.config_of_dump dump, J.member "core" dump) with
  | Error e, _ -> Error e
  | Ok _, None -> Error "not a stream dump (no core section)"
  | Ok (cfg, _), Some dumped ->
    let r = run ?pool cfg in
    Ok (r, core_json r = dumped)
