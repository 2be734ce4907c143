open Prete_net
open Prete_optics

type result = {
  availability : float;
  epochs : int;
  degradation_epochs : int;
  cut_epochs : int;
  multi_cut_epochs : int;
}

(* Surviving allocated rate under a set of simultaneous cuts. *)
let surviving (ts : Tunnels.t) alloc flow ~cuts =
  List.fold_left
    (fun acc tid ->
      let tn = ts.Tunnels.tunnels.(tid) in
      let dead =
        List.exists (fun fb -> Routing.uses_fiber ts.Tunnels.topo tn.Tunnels.links fb) cuts
      in
      if dead then acc else acc +. alloc.(tid))
    0.0 ts.Tunnels.of_flow.(flow)

(* ECMP under a multi-cut: equal split over surviving minimum-cost tunnels
   with proportional throttling on overloaded links (the multi-cut twin of
   the analytic evaluator's model). *)
let ecmp_delivered (ts : Tunnels.t) demands ~cuts =
  let topo = ts.Tunnels.topo in
  let nt = Array.length ts.Tunnels.tunnels in
  let rate = Array.make nt 0.0 in
  let cost tid =
    Routing.path_length_km topo ts.Tunnels.tunnels.(tid).Tunnels.links
    +. (50.0 *. float_of_int (List.length ts.Tunnels.tunnels.(tid).Tunnels.links))
  in
  Array.iteri
    (fun f _ ->
      let d = demands.(f) in
      if d > 0.0 then begin
        let alive =
          List.filter
            (fun tid ->
              not
                (List.exists
                   (fun fb ->
                     Routing.uses_fiber topo ts.Tunnels.tunnels.(tid).Tunnels.links fb)
                   cuts))
            ts.Tunnels.of_flow.(f)
        in
        let best = List.fold_left (fun acc tid -> Float.min acc (cost tid)) infinity alive in
        let eq = List.filter (fun tid -> cost tid <= best +. 1e-6) alive in
        let n = List.length eq in
        if n > 0 then List.iter (fun tid -> rate.(tid) <- d /. float_of_int n) eq
      end)
    ts.Tunnels.flows;
  let load = Array.make (Topology.num_links topo) 0.0 in
  Array.iteri
    (fun tid r ->
      if r > 0.0 then
        List.iter (fun lid -> load.(lid) <- load.(lid) +. r)
          ts.Tunnels.tunnels.(tid).Tunnels.links)
    rate;
  let factor lid =
    let c = (Topology.link topo lid).Topology.capacity in
    if load.(lid) <= c then 1.0 else c /. load.(lid)
  in
  Array.mapi
    (fun f _ ->
      let d = demands.(f) in
      if d <= 0.0 then 1.0
      else
        let got =
          List.fold_left
            (fun acc tid ->
              let r = rate.(tid) in
              if r <= 0.0 then acc
              else
                acc
                +. r
                   *. List.fold_left
                        (fun b lid -> Float.min b (factor lid))
                        1.0
                        ts.Tunnels.tunnels.(tid).Tunnels.links)
            0.0 ts.Tunnels.of_flow.(f)
        in
        Float.min 1.0 (got /. d))
    ts.Tunnels.flows

(* Delivered fraction of every flow under a plan, a set of true cuts, and
   the scheme's reaction model — shared by the plain run and the chaos
   harness ([served] computes the post-recomputation optimum for the
   reactive schemes). *)
let delivered_fractions (env : Availability.env) scheme ~demands
    ~(plan : Availability.plan) ~cuts ~served =
  let ts = plan.Availability.p_ts and alloc = plan.Availability.p_alloc in
  let topo = env.Availability.ts.Tunnels.topo in
  let cap f =
    match plan.Availability.p_admitted with None -> demands.(f) | Some b -> b.(f)
  in
  match scheme with
  | Schemes.Ecmp -> ecmp_delivered ts demands ~cuts
  | Schemes.Oracle -> served cuts
  | Schemes.Smore | Schemes.Ffc _ | Schemes.Teavar | Schemes.Prete _ ->
    Array.init (Array.length ts.Tunnels.flows) (fun f ->
        let d = demands.(f) in
        if d <= 0.0 then 1.0
        else Float.min 1.0 (Float.min (cap f) (surviving ts alloc f ~cuts) /. d))
  | Schemes.Arrow ->
    Array.init (Array.length ts.Tunnels.flows) (fun f ->
        let d = demands.(f) in
        if d <= 0.0 then 1.0
        else begin
          let affected =
            List.exists
              (fun fb ->
                List.exists
                  (fun tid ->
                    alloc.(tid) > 1e-9
                    && Routing.uses_fiber topo ts.Tunnels.tunnels.(tid).Tunnels.links fb)
                  ts.Tunnels.of_flow.(f))
              cuts
          in
          if not affected then
            Float.min 1.0 (Float.min (cap f) (surviving ts alloc f ~cuts) /. d)
          else begin
            let w = env.Availability.tau_arrow /. env.Availability.epoch_seconds in
            let during = Float.min (cap f) (surviving ts alloc f ~cuts) /. d in
            let after = Float.min (cap f) (surviving ts alloc f ~cuts:[]) /. d in
            Float.min 1.0 ((w *. during) +. ((1.0 -. w) *. after))
          end
        end)
  | Schemes.Flexile ->
    let post = served cuts in
    Array.init (Array.length ts.Tunnels.flows) (fun f ->
        let d = demands.(f) in
        if d <= 0.0 then 1.0
        else begin
          let w = env.Availability.tau_flexile /. env.Availability.epoch_seconds in
          let pre = Float.min 1.0 (surviving ts alloc f ~cuts /. d) in
          (w *. Float.min pre post.(f)) +. ((1.0 -. w) *. post.(f))
        end)

type epoch_sample = {
  es_state : int option;
  es_cuts : int list;
  es_degraded : (int * Hazard.features) list;
}

(* Sample one epoch's ground truth — which fibers degrade (and with what
   event features), which of those (and which healthy fibers) cut — from
   the epoch's private RNG stream. *)
let sample_epoch_full (env : Availability.env) ~topo ~nf rng =
  let num_fibers = nf in
  let degraded = ref [] in
  let cuts = ref [] in
  for fb = 0 to nf - 1 do
    if Prete_util.Rng.bernoulli rng env.Availability.model.Fiber_model.p_degrade.(fb)
    then begin
      (* Fresh event features; ground truth decides the outcome. *)
      let feats =
        Hazard.sample_features rng ~topo ~fiber:fb ~epoch:(Prete_util.Rng.int rng 96)
      in
      degraded := (fb, feats) :: !degraded;
      if Prete_util.Rng.bernoulli rng (Hazard.eval ~num_fibers feats) then
        cuts := fb :: !cuts
    end
    else if
      Prete_util.Rng.bernoulli rng
        env.Availability.model.Fiber_model.p_unpredictable.(fb)
    then cuts := fb :: !cuts
  done;
  (* At most one degrading fiber is planned for (the first, mirroring the
     truncation the analytic evaluator applies). *)
  let degraded = List.rev !degraded in
  let state = match degraded with [] -> None | (fb, _) :: _ -> Some fb in
  { es_state = state; es_cuts = !cuts; es_degraded = degraded }

let sample_epoch env ~topo ~nf rng =
  let s = sample_epoch_full env ~topo ~nf rng in
  (s.es_state, s.es_cuts, s.es_degraded <> [])

(* One private RNG substream per epoch, split sequentially up front: an
   epoch's draws are then a function of its index alone, so the sample
   path is identical no matter how the epochs are sharded over domains —
   and a [run] of N epochs shares its first k epochs with any other run
   of the same seed. *)
let epoch_streams ~seed ~epochs =
  let master = Prete_util.Rng.create seed in
  Array.init epochs (fun _ -> Prete_util.Rng.split master)

(* Distinct values of [key] over [arr], in first-appearance order (so the
   table construction below is schedule-independent). *)
let distinct_by key arr =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun x ->
      let k = key x in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        order := k :: !order
      end)
    arr;
  Array.of_list (List.rev !order)

(* The served-fraction LPs the reactive schemes replay per epoch: one per
   distinct sorted cut set, solved on the pool, then frozen into a
   read-only table.  Misses (impossible by construction) recompute
   without mutating. *)
let served_table pool (env : Availability.env) scheme ~demands epoch_cuts =
  let tbl : (int list, float array) Hashtbl.t = Hashtbl.create 64 in
  (match scheme with
  | Schemes.Oracle | Schemes.Flexile ->
    let keys = distinct_by (List.sort compare) epoch_cuts in
    let solved =
      Prete_exec.Pool.parallel_map pool ~chunk:1
        (fun key -> Availability.Internal.max_served env ~demands ~cuts:key)
        keys
    in
    Array.iteri (fun i k -> Hashtbl.replace tbl k solved.(i)) keys
  | _ -> ());
  fun cuts ->
    let key = List.sort compare cuts in
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None -> Availability.Internal.max_served env ~demands ~cuts:key

(* Plans keyed by (demand class, degradation state); the single-matrix
   path uses class 0.  A table outlives one evaluation so the policies
   scored on one window (stream, periodic, instant) look each plan up
   once.  Plans are cold [plan_alloc] calls, which the env memoizes for
   PreTE: a window that reuses its env (the stream runtime's windows do)
   solves only the plans no earlier window on that env solved, and which
   evaluation or window solved one cannot change it. *)
type plan_table = (int * int option, Availability.plan) Hashtbl.t

let plan_table () : plan_table = Hashtbl.create 64

(* Solve, on the pool, the plans of [keys] (first-appearance order) the
   table lacks, then return a read-only lookup.  Misses (impossible by
   construction) recompute without mutating. *)
let fill_plans pool (tbl : plan_table) keys solve =
  let missing =
    Array.of_list
      (List.filter (fun k -> not (Hashtbl.mem tbl k)) (Array.to_list keys))
  in
  let plans = Prete_exec.Pool.parallel_map pool ~chunk:1 solve missing in
  Array.iteri (fun i k -> Hashtbl.replace tbl k plans.(i)) missing;
  fun k -> match Hashtbl.find_opt tbl k with Some p -> p | None -> solve k

(* Evaluate a drawn sample path against a scheme: one plan per distinct
   degradation state and one served LP per distinct cut set (fanned out
   on the pool, frozen into read-only tables), then a replay of the
   epochs against the tables.  Per-chunk sums live in one slot per chunk
   and fold in chunk order; the chunk size depends only on the epoch
   count, so the float additions associate the same way at any domain
   count.  Shared verbatim by [run] and the streaming runtime (which
   evaluates the same ground truth under different reaction policies —
   instant / as-detected / never — by rewriting [state], over one
   [plans] table). *)
let eval_epochs ?(epoch_plan = fun _ -> None) ?(plans = plan_table ()) pool
    (env : Availability.env) scheme ~demands ~state ~epoch_cuts =
  let epochs = Array.length state in
  if epochs = 0 then invalid_arg "Simulate.eval_epochs: no epochs";
  if Array.length epoch_cuts <> epochs then
    invalid_arg "Simulate.eval_epochs: state/cuts length mismatch";
  let total_demand = Float.max 1e-9 (Prete_util.Stats.sum demands) in
  let lookup =
    fill_plans pool plans
      (Array.map (fun s -> (0, s)) (distinct_by Fun.id state))
      (fun (_, degraded) ->
        Availability.Internal.plan_alloc env scheme ~demands ~degraded)
  in
  let plan s = lookup (0, s) in
  let served = served_table pool env scheme ~demands epoch_cuts in
  let csize = max 1 ((epochs + 63) / 64) in
  let nchunks = (epochs + csize - 1) / csize in
  let partial = Array.make nchunks 0.0 in
  Prete_exec.Pool.parallel_for pool ~chunk:csize epochs (fun lo hi ->
      let acc = ref 0.0 in
      for e = lo to hi - 1 do
        (* A per-epoch override (the runtime's detour-patched plan)
           replaces the state-table plan for that epoch only. *)
        let plan_e =
          match epoch_plan e with Some p -> p | None -> plan state.(e)
        in
        let delivered =
          delivered_fractions env scheme ~demands ~plan:plan_e
            ~cuts:epoch_cuts.(e) ~served
        in
        let epoch_avail = ref 0.0 in
        Array.iteri
          (fun f dl -> epoch_avail := !epoch_avail +. (demands.(f) *. dl))
          delivered;
        acc := !acc +. (!epoch_avail /. total_demand)
      done;
      partial.(lo / csize) <- !acc);
  Array.fold_left ( +. ) 0.0 partial /. float_of_int epochs

(* [eval_epochs] generalized to an epoch-varying demand sequence (a
   traffic model's classes): plans are keyed by (class, degradation
   state), served LPs by (class, sorted cut set), and each epoch is
   normalized by its own class's total demand.  [class_of] must be a
   pure function of the epoch index — the tables, the chunking, and the
   fold order then depend only on the inputs, so the result is
   bit-identical at any domain count.  Kept separate from [eval_epochs]
   so the single-matrix path's float associativity is untouched. *)
let eval_epochs_classes ?(epoch_plan = fun _ -> None) ?(plans = plan_table ())
    pool (env : Availability.env) scheme ~class_demands ~class_of ~state
    ~epoch_cuts =
  let epochs = Array.length state in
  if epochs = 0 then invalid_arg "Simulate.eval_epochs_classes: no epochs";
  if Array.length epoch_cuts <> epochs then
    invalid_arg "Simulate.eval_epochs_classes: state/cuts length mismatch";
  let nclasses = Array.length class_demands in
  if nclasses = 0 then invalid_arg "Simulate.eval_epochs_classes: no classes";
  let classes = Array.init epochs class_of in
  Array.iter
    (fun c ->
      if c < 0 || c >= nclasses then
        invalid_arg "Simulate.eval_epochs_classes: class out of range")
    classes;
  let totals =
    Array.map (fun d -> Float.max 1e-9 (Prete_util.Stats.sum d)) class_demands
  in
  let lookup =
    fill_plans pool plans
      (distinct_by Fun.id (Array.init epochs (fun e -> (classes.(e), state.(e)))))
      (fun (c, degraded) ->
        Availability.Internal.plan_alloc env scheme ~demands:class_demands.(c)
          ~degraded)
  in
  let plan c s = lookup (c, s) in
  let served_tbl : (int * int list, float array) Hashtbl.t = Hashtbl.create 64 in
  (match scheme with
  | Schemes.Oracle | Schemes.Flexile ->
    let keys =
      distinct_by Fun.id
        (Array.init epochs (fun e -> (classes.(e), List.sort compare epoch_cuts.(e))))
    in
    let solved =
      Prete_exec.Pool.parallel_map pool ~chunk:1
        (fun (c, key) ->
          Availability.Internal.max_served env ~demands:class_demands.(c) ~cuts:key)
        keys
    in
    Array.iteri (fun i k -> Hashtbl.replace served_tbl k solved.(i)) keys
  | _ -> ());
  let served c cuts =
    let key = List.sort compare cuts in
    match Hashtbl.find_opt served_tbl (c, key) with
    | Some s -> s
    | None -> Availability.Internal.max_served env ~demands:class_demands.(c) ~cuts:key
  in
  let csize = max 1 ((epochs + 63) / 64) in
  let nchunks = (epochs + csize - 1) / csize in
  let partial = Array.make nchunks 0.0 in
  Prete_exec.Pool.parallel_for pool ~chunk:csize epochs (fun lo hi ->
      let acc = ref 0.0 in
      for e = lo to hi - 1 do
        let c = classes.(e) in
        let demands = class_demands.(c) in
        let plan_e =
          match epoch_plan e with Some p -> p | None -> plan c state.(e)
        in
        let delivered =
          delivered_fractions env scheme ~demands ~plan:plan_e
            ~cuts:epoch_cuts.(e) ~served:(served c)
        in
        let epoch_avail = ref 0.0 in
        Array.iteri
          (fun f dl -> epoch_avail := !epoch_avail +. (demands.(f) *. dl))
          delivered;
        acc := !acc +. (!epoch_avail /. totals.(c))
      done;
      partial.(lo / csize) <- !acc);
  Array.fold_left ( +. ) 0.0 partial /. float_of_int epochs

let run ?(seed = 123) ?(epochs = 20_000) ?pool (env : Availability.env) scheme
    ~scale =
  if epochs <= 0 then invalid_arg "Simulate.run: epochs must be positive";
  let pool =
    match pool with Some p -> p | None -> Prete_exec.Pool.default ()
  in
  let demands =
    Traffic.demand env.Availability.traffic ~scale ~epoch:env.Availability.epoch
  in
  let topo = env.Availability.ts.Tunnels.topo in
  let nf = Topology.num_fibers topo in
  (* Phase A: sample every epoch's ground truth on the pool.  Each epoch
     writes only its own slots, from its own pre-split stream. *)
  let epoch_rngs = epoch_streams ~seed ~epochs in
  let state = Array.make epochs None in
  let epoch_cuts = Array.make epochs [] in
  let had_degr = Array.make epochs false in
  Prete_exec.Pool.parallel_for pool epochs (fun lo hi ->
      for e = lo to hi - 1 do
        let s, cuts, degr = sample_epoch env ~topo ~nf epoch_rngs.(e) in
        state.(e) <- s;
        epoch_cuts.(e) <- cuts;
        had_degr.(e) <- degr
      done);
  let degr_epochs = ref 0 and cut_epochs = ref 0 and multi = ref 0 in
  Array.iter (fun d -> if d then incr degr_epochs) had_degr;
  Array.iter
    (fun cuts ->
      if cuts <> [] then incr cut_epochs;
      if List.length cuts > 1 then incr multi)
    epoch_cuts;
  (* Phases B and C: plan/served tables plus the epoch replay. *)
  {
    availability = eval_epochs pool env scheme ~demands ~state ~epoch_cuts;
    epochs;
    degradation_epochs = !degr_epochs;
    cut_epochs = !cut_epochs;
    multi_cut_epochs = !multi;
  }

(* --------------------------------------------------------------------- *)
(* Chaos harness                                                           *)
(* --------------------------------------------------------------------- *)

type chaos_result = {
  c_availability : float;
  c_epochs : int;
  c_detour : int;
  c_primary : int;
  c_cached : int;
  c_equal_split : int;
  c_gap_epochs : int;
  c_fault_epochs : int;
  c_degraded_plans : int;
  c_causes : (string * int) list;
  c_cache_hits : int;
  c_cache_misses : int;
}

(* Epochs are evaluated in fixed-size shards; each shard owns a private
   fallback ladder and plan cache, so retained state (last-good plan,
   rung-0 basis, cached outcomes) flows between epochs of a shard but
   never across shards.  The shard size depends only on the epoch count —
   never on the domain count — which is what makes chaos results
   bit-identical whether the shards run sequentially or spread over a
   pool. *)
let chaos_shard_epochs = 50

let run_chaos ?(seed = 123) ?(epochs = 400) ?(faults = []) ?(fault_seed = 77)
    ?(pressure_budget_s = 0.0) ?detours ?pool (env : Availability.env) scheme
    ~scale =
  if epochs <= 0 then invalid_arg "Simulate.run_chaos: epochs must be positive";
  let pool =
    match pool with Some p -> p | None -> Prete_exec.Pool.default ()
  in
  (* The epoch sample path below is drawn exactly as [run] draws it; the
     injector draws only from its private stream (one substream per
     epoch), so the availability delta between fault settings is
     attributable to the faults alone. *)
  let epoch_rngs = epoch_streams ~seed ~epochs in
  let master_inj = Faults.injector ~seed:fault_seed ~pressure_budget_s faults in
  let epoch_injs = Array.init epochs (fun _ -> Faults.substream master_inj) in
  let demands =
    Traffic.demand env.Availability.traffic ~scale ~epoch:env.Availability.epoch
  in
  let total_demand = Float.max 1e-9 (Prete_util.Stats.sum demands) in
  let topo = env.Availability.ts.Tunnels.topo in
  let nf = Topology.num_fibers topo in
  (* With the detour tier armed, the installed plan its patches apply to
     is the standing (no-degradation) allocation — one deterministic
     solve shared by every shard, computed before the control loop. *)
  let detour_installed =
    match detours with
    | None -> None
    | Some dt ->
      Some (dt, Availability.Internal.plan_alloc env scheme ~demands ~degraded:None)
  in
  let plan_for ~ladder ~plan_cache (obs : Faults.observation) =
    let detour =
      match (detour_installed, obs.Faults.seen) with
      | Some (dt, installed), Some fb when not obs.Faults.gap ->
        Some (dt, installed, fb)
      | _ -> None
    in
    let compute () =
      let deadline =
        Option.map Prete_util.Clock.deadline_after obs.Faults.budget_s
      in
      let primary ~warm () =
        Availability.Internal.plan_alloc_warm ?deadline ?warm
          ~degr_features:obs.Faults.features env scheme ~demands
          ~degraded:obs.Faults.seen
      in
      let te () =
        Resilience.plan_epoch ladder ~ts:env.Availability.ts ~demands
          ~telemetry_gap:obs.Faults.gap ?detour ~primary ()
      in
      (* Drive the full pipeline so chaos exercises the same entry point
         production would use; the report carries the ladder's notes. *)
      let outcome, report =
        Controller.run ~infer:(fun () -> ()) ~regen:(fun () -> ()) ~te
          ~n_new_tunnels:0 ()
      in
      ignore (Controller.with_notes report (Resilience.notes outcome));
      outcome
    in
    (* Ladder outcomes cached in the shard's structural plan cache —
       keyed by (tunnels, demands, fiber probabilities, observed state) —
       but only for clean observations: corrupted features, gaps, and
       injected budgets make an epoch's plan non-reusable, and degraded
       plans are refused by the cache itself. *)
    let cacheable =
      (not (Faults.corrupts_features obs))
      && obs.Faults.budget_s = None
      && not obs.Faults.gap
    in
    if not cacheable then compute ()
    else begin
      let key =
        Controller.plan_key ~ts:env.Availability.ts ~demands
          ~probs:env.Availability.model.Fiber_model.p_cut
          ~salt:[ (match obs.Faults.seen with None -> -1 | Some fb -> fb) ]
          ()
      in
      match Controller.cache_find plan_cache key with
      | Some o -> o
      | None ->
        let o = compute () in
        Controller.cache_store plan_cache key ~degraded:(Resilience.degraded o) o;
        o
    end
  in
  (* Phase A: sample every epoch's ground truth and pass it through the
     fault injector, on the pool.  Each epoch draws only from its own
     pre-split streams. *)
  let state = Array.make epochs None in
  let epoch_cuts = Array.make epochs [] in
  let obs_arr = Array.make epochs None in
  Prete_exec.Pool.parallel_for pool epochs (fun lo hi ->
      for e = lo to hi - 1 do
        let s, cuts, _ = sample_epoch env ~topo ~nf epoch_rngs.(e) in
        state.(e) <- s;
        epoch_cuts.(e) <- cuts;
        obs_arr.(e) <-
          Some
            (Faults.observe epoch_injs.(e) ~topo ~true_state:s
               ~events:env.Availability.degr_events)
      done);
  let obs_arr =
    Array.map (function Some o -> o | None -> assert false) obs_arr
  in
  let served = served_table pool env scheme ~demands epoch_cuts in
  (* Phase B: drive the control loop over fixed-size shards, each with a
     private ladder and plan cache (see [chaos_shard_epochs]); per-shard
     tallies merge in shard order. *)
  let csize = chaos_shard_epochs in
  let nchunks = (epochs + csize - 1) / csize in
  let sh_acc = Array.make nchunks 0.0 in
  let sh_detour = Array.make nchunks 0 in
  let sh_primary = Array.make nchunks 0 in
  let sh_cached = Array.make nchunks 0 in
  let sh_equal = Array.make nchunks 0 in
  let sh_gaps = Array.make nchunks 0 in
  let sh_faults = Array.make nchunks 0 in
  let sh_degr = Array.make nchunks 0 in
  let sh_hits = Array.make nchunks 0 in
  let sh_misses = Array.make nchunks 0 in
  let sh_causes = Array.init nchunks (fun _ -> Hashtbl.create 8) in
  Prete_exec.Pool.parallel_for pool ~chunk:csize epochs (fun lo hi ->
      let c = lo / csize in
      let ladder = Resilience.create () in
      let plan_cache : Resilience.outcome Controller.cache =
        Controller.cache ~capacity:128 ()
      in
      let causes = sh_causes.(c) in
      let acc = ref 0.0 in
      for e = lo to hi - 1 do
        let obs = obs_arr.(e) in
        if obs.Faults.gap then sh_gaps.(c) <- sh_gaps.(c) + 1;
        if obs.Faults.fired <> [] then sh_faults.(c) <- sh_faults.(c) + 1;
        let outcome = plan_for ~ladder ~plan_cache obs in
        (match outcome.Resilience.rung with
        | Resilience.Detour -> sh_detour.(c) <- sh_detour.(c) + 1
        | Resilience.Primary -> sh_primary.(c) <- sh_primary.(c) + 1
        | Resilience.Cached -> sh_cached.(c) <- sh_cached.(c) + 1
        | Resilience.Equal_split -> sh_equal.(c) <- sh_equal.(c) + 1);
        if Resilience.degraded outcome then sh_degr.(c) <- sh_degr.(c) + 1;
        (match outcome.Resilience.cause with
        | None -> ()
        | Some cause ->
          let name = Resilience.cause_name cause in
          Hashtbl.replace causes name
            (1 + Option.value ~default:0 (Hashtbl.find_opt causes name)));
        let delivered =
          delivered_fractions env scheme ~demands ~plan:outcome.Resilience.plan
            ~cuts:epoch_cuts.(e) ~served
        in
        let epoch_avail = ref 0.0 in
        Array.iteri
          (fun f dl -> epoch_avail := !epoch_avail +. (demands.(f) *. dl))
          delivered;
        acc := !acc +. (!epoch_avail /. total_demand)
      done;
      sh_acc.(c) <- !acc;
      let h, m = Controller.cache_stats plan_cache in
      sh_hits.(c) <- h;
      sh_misses.(c) <- m);
  let sum a = Array.fold_left ( + ) 0 a in
  let causes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (Hashtbl.iter (fun name n ->
         Hashtbl.replace causes name
           (n + Option.value ~default:0 (Hashtbl.find_opt causes name))))
    sh_causes;
  {
    c_availability = Array.fold_left ( +. ) 0.0 sh_acc /. float_of_int epochs;
    c_epochs = epochs;
    c_detour = sum sh_detour;
    c_primary = sum sh_primary;
    c_cached = sum sh_cached;
    c_equal_split = sum sh_equal;
    c_gap_epochs = sum sh_gaps;
    c_fault_epochs = sum sh_faults;
    c_degraded_plans = sum sh_degr;
    c_causes =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) causes []);
    c_cache_hits = sum sh_hits;
    c_cache_misses = sum sh_misses;
  }

type sweep_entry = {
  sw_class : Faults.class_;
  sw_result : chaos_result;
  sw_delta : float;  (** Availability vs the fault-free baseline. *)
}

module Internal = struct
  type nonrec epoch_sample = epoch_sample = {
    es_state : int option;
    es_cuts : int list;
    es_degraded : (int * Hazard.features) list;
  }

  let epoch_streams = epoch_streams

  let sample_epoch (env : Availability.env) rng =
    let topo = env.Availability.ts.Tunnels.topo in
    sample_epoch_full env ~topo ~nf:(Topology.num_fibers topo) rng

  type nonrec plan_table = plan_table

  let plan_table = plan_table
  let eval_epochs = eval_epochs
  let eval_epochs_classes = eval_epochs_classes
end

let chaos_sweep ?seed ?epochs ?fault_seed ?pressure_budget_s ?detours ?pool
    (env : Availability.env) scheme ~scale =
  let baseline =
    run_chaos ?seed ?epochs ~faults:[] ?detours ?pool env scheme ~scale
  in
  let entries =
    Array.map
      (fun c ->
        let r =
          run_chaos ?seed ?epochs ?fault_seed ?pressure_budget_s ?detours ?pool
            ~faults:[ { Faults.fault = c; rate = Faults.default_rate c } ]
            env scheme ~scale
        in
        {
          sw_class = c;
          sw_result = r;
          sw_delta = r.c_availability -. baseline.c_availability;
        })
      Faults.all_classes
  in
  (baseline, entries)
