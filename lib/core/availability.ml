open Prete_net
open Prete_optics
open Prete_lp

type plan = {
  p_alloc : float array;
  p_ts : Tunnels.t;
  p_admitted : float array option;
      (** Ingress rate limits for admission-style schemes. *)
  p_degraded : bool;
      (** The solve budget expired; the allocation is feasible but not
          proven optimal. *)
}

(* One memoized cold PreTE plan with the exact inputs of its solve. *)
type memo_entry = {
  k_ts : Tunnels.t;
  k_demands : float array;
  k_probs : float array;
  k_plan : plan;
}

(* A FIFO ring of entries: [next] is the slot the next store overwrites. *)
type plan_memo = {
  lock : Mutex.t;
  slots : memo_entry option array;
  mutable next : int;
}

(* Enough for every (demand class, degradation state) plan of a TWAN
   stream session; a sweep over many demand scales cycles through it. *)
let memo_capacity = 256

type env = {
  ts : Tunnels.t;
  traffic : Traffic.t;
  model : Fiber_model.t;
  beta : float;
  epoch : int;
  degr_events : Hazard.features array;
  true_hazard : float array;
  epsilon : float;
  tau_flexile : float;
  tau_arrow : float;
  epoch_seconds : float;
  rerouted : (float * Tunnels.t * Tunnels.t) option Atomic.t array;
  plans : plan_memo;
}

let make_env ?(seed = 23) ?(beta = 0.999) ?(epoch = 12) ?(epsilon = 1e-4)
    ?(tau_flexile = 300.0) ?(tau_arrow = 8.0) ?model ?traffic ?tunnels topo =
  let model = match model with Some m -> m | None -> Fiber_model.generate topo in
  let traffic = match traffic with Some t -> t | None -> Traffic.generate topo in
  let ts =
    match tunnels with Some t -> t | None -> Tunnels.build topo traffic.Traffic.pairs
  in
  let rng = Prete_util.Rng.create seed in
  let nf = Topology.num_fibers topo in
  let degr_events =
    Array.init nf (fun fiber -> Hazard.sample_features rng ~topo ~fiber ~epoch:(epoch * 4))
  in
  let true_hazard = Array.map (Hazard.eval ~num_fibers:nf) degr_events in
  {
    ts;
    traffic;
    model;
    beta;
    epoch;
    degr_events;
    true_hazard;
    epsilon;
    tau_flexile;
    tau_arrow;
    epoch_seconds = Hazard.epoch_seconds;
    rerouted = Array.init nf (fun _ -> Atomic.make None);
    plans = { lock = Mutex.create (); slots = Array.make memo_capacity None; next = 0 };
  }

(* --------------------------------------------------------------------- *)
(* State distributions                                                     *)
(* --------------------------------------------------------------------- *)

let degradation_states env =
  let pd = env.model.Fiber_model.p_degrade in
  let none = Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 pd in
  let states = ref [ (None, none) ] in
  Array.iteri
    (fun n p ->
      if p > 0.0 then begin
        let prob = none /. (1.0 -. p) *. p in
        states := (Some n, prob) :: !states
      end)
    pd;
  let states = Array.of_list (List.rev !states) in
  let total = Array.fold_left (fun a (_, p) -> a +. p) 0.0 states in
  Array.map (fun (s, p) -> (s, p /. total)) states

let conditional_cut_probs env ~degraded =
  Array.mapi
    (fun m pu ->
      match degraded with
      | Some n when n = m -> env.true_hazard.(n)
      | _ -> pu)
    env.model.Fiber_model.p_unpredictable

let cut_outcomes env ~degraded =
  let probs = conditional_cut_probs env ~degraded in
  let none = Array.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 probs in
  let outcomes = ref [ (None, none) ] in
  Array.iteri
    (fun m p ->
      if p > 0.0 then outcomes := (Some m, none /. (1.0 -. p) *. p) :: !outcomes)
    probs;
  let outcomes = Array.of_list (List.rev !outcomes) in
  let total = Array.fold_left (fun a (_, p) -> a +. p) 0.0 outcomes in
  Array.map (fun (s, p) -> (s, p /. total)) outcomes

(* --------------------------------------------------------------------- *)
(* Per-flow delivery under an allocation                                   *)
(* --------------------------------------------------------------------- *)

(* Surviving allocated rate of a flow when [cut] (a fiber) fails. *)
let surviving_rate (ts : Tunnels.t) alloc flow ~cut =
  List.fold_left
    (fun acc tid ->
      let tn = ts.Tunnels.tunnels.(tid) in
      let dead =
        match cut with
        | None -> false
        | Some fb -> Routing.uses_fiber ts.Tunnels.topo tn.Tunnels.links fb
      in
      if dead then acc else acc +. alloc.(tid))
    0.0 ts.Tunnels.of_flow.(flow)

(* ECMP splits each flow equally over its minimum-cost surviving tunnels
   only (equal-cost multipath), capacity-oblivious; links may overload, in
   which case every tunnel through the link is throttled proportionally. *)
let ecmp_losses (ts : Tunnels.t) demands ~cut =
  let topo = ts.Tunnels.topo in
  let nt = Array.length ts.Tunnels.tunnels in
  let rate = Array.make nt 0.0 in
  let tunnel_cost tid =
    Routing.path_length_km topo ts.Tunnels.tunnels.(tid).Tunnels.links
    +. (50.0 *. float_of_int (List.length ts.Tunnels.tunnels.(tid).Tunnels.links))
  in
  Array.iteri
    (fun f tids ->
      ignore tids;
      let d = demands.(f) in
      if d > 0.0 then begin
        let alive =
          List.filter
            (fun tid ->
              match cut with
              | None -> true
              | Some fb ->
                not
                  (Routing.uses_fiber topo ts.Tunnels.tunnels.(tid).Tunnels.links fb))
            ts.Tunnels.of_flow.(f)
        in
        let min_cost =
          List.fold_left (fun acc tid -> Float.min acc (tunnel_cost tid)) infinity alive
        in
        let equal_cost =
          List.filter (fun tid -> tunnel_cost tid <= min_cost +. 1e-6) alive
        in
        let n = List.length equal_cost in
        if n > 0 then
          List.iter (fun tid -> rate.(tid) <- d /. float_of_int n) equal_cost
      end)
    ts.Tunnels.of_flow;
  let load = Array.make (Topology.num_links topo) 0.0 in
  Array.iteri
    (fun tid r ->
      if r > 0.0 then
        List.iter
          (fun lid -> load.(lid) <- load.(lid) +. r)
          ts.Tunnels.tunnels.(tid).Tunnels.links)
    rate;
  let factor lid =
    let c = (Topology.link topo lid).Topology.capacity in
    if load.(lid) <= c then 1.0 else c /. load.(lid)
  in
  Array.mapi
    (fun f _ ->
      let d = demands.(f) in
      if d <= 0.0 then 0.0
      else begin
        let delivered =
          List.fold_left
            (fun acc tid ->
              let r = rate.(tid) in
              if r <= 0.0 then acc
              else
                let bottleneck =
                  List.fold_left
                    (fun b lid -> Float.min b (factor lid))
                    1.0
                    ts.Tunnels.tunnels.(tid).Tunnels.links
                in
                acc +. (r *. bottleneck))
            0.0 ts.Tunnels.of_flow.(f)
        in
        Float.max 0.0 (1.0 -. (delivered /. d))
      end)
    ts.Tunnels.flows

(* Does the flow have traffic allocated on tunnels through the cut fiber?
   Such flows are the cut's "affected flows". *)
let flow_affected (ts : Tunnels.t) alloc flow ~cut =
  match cut with
  | None -> false
  | Some fb ->
    List.exists
      (fun tid ->
        alloc.(tid) > 1e-9
        && Routing.uses_fiber ts.Tunnels.topo ts.Tunnels.tunnels.(tid).Tunnels.links fb)
      ts.Tunnels.of_flow.(flow)

(* Optimal served fractions on the surviving topology: the Oracle
   allocation and Flexile's post-convergence recomputation. *)
let max_served env ~demands ~cuts =
  let ts = env.ts in
  let topo = ts.Tunnels.topo in
  let m = Lp.create () in
  let alive tid =
    not
      (List.exists
         (fun fb -> Routing.uses_fiber topo ts.Tunnels.tunnels.(tid).Tunnels.links fb)
         cuts)
  in
  let a_vars =
    Array.map
      (fun (tn : Tunnels.tunnel) ->
        let ub = if alive tn.Tunnels.tunnel_id then infinity else 0.0 in
        Lp.add_var m ~ub "")
      ts.Tunnels.tunnels
  in
  (* Capacity rows over links used by surviving tunnels. *)
  List.iter
    (fun (lid, terms) ->
      let terms =
        List.filter_map
          (fun (tid, c) -> if alive tid then Some (c, a_vars.(tid)) else None)
          terms
      in
      if terms <> [] then
        ignore
          (Lp.add_constraint m terms Lp.Le (Topology.link topo lid).Topology.capacity))
    (Te.capacity_terms ts);
  let total = Float.max 1e-9 (Prete_util.Stats.sum demands) in
  let objective = ref [] in
  let s_vars =
    Array.mapi
      (fun f _ ->
        let d = demands.(f) in
        let s = Lp.add_var m ~ub:1.0 "" in
        if d > 0.0 then begin
          let terms =
            (-.d, s) :: List.map (fun tid -> (1.0, a_vars.(tid))) ts.Tunnels.of_flow.(f)
          in
          ignore (Lp.add_constraint m terms Lp.Ge 0.0);
          objective := (d /. total, s) :: !objective
        end
        else
          (* Zero-demand flows are trivially served. *)
          ignore (Lp.add_constraint m [ (1.0, s) ] Lp.Ge 1.0);
        s)
      ts.Tunnels.flows
  in
  Lp.set_objective m Lp.Maximize !objective;
  match Simplex.solve m with
  | Simplex.Optimal sol -> Array.map (fun s -> Simplex.value sol s) s_vars
  | Simplex.Infeasible | Simplex.Unbounded ->
    invalid_arg "Availability.max_served: LP failed (internal error)"

(* --------------------------------------------------------------------- *)
(* Scheme allocation plans                                                 *)
(* --------------------------------------------------------------------- *)

let te_solve_warm env ?deadline ?warm ~demands ~probs ~(ts : Tunnels.t) () =
  let p = Te.make_problem ~ts ~demands ~probs ~beta:env.beta () in
  (* Sweeps call this hundreds of times; the relaxation start buys nothing
     measurable on these instances (the second phase dominates delivered
     quality) but triples the cost. *)
  let sol = Te.solve ~relaxation_start:false ?deadline ?warm p in
  ( { p_alloc = sol.Te.alloc; p_ts = ts; p_admitted = None; p_degraded = sol.Te.degraded },
    sol.Te.basis )

let admission_solve env ?deadline ~demands ~probs () =
  let p = Te.make_problem ~ts:env.ts ~demands ~probs ~beta:env.beta () in
  let adm = Te.solve_admission ?deadline p in
  {
    p_alloc = adm.Te.adm_alloc;
    p_ts = env.ts;
    p_admitted = Some adm.Te.admitted;
    p_degraded = adm.Te.adm_degraded;
  }

let ffc_alloc env ?deadline ~demands ~k () =
  (* Probability-oblivious full coverage of all ≤ k-cut scenarios: every
     class covered regardless of β; admission-style like FFC itself. *)
  let nf = Array.length env.model.Fiber_model.p_cut in
  let probs = Array.make nf 0.01 in
  let scenarios = Scenario.normalize (Scenario.enumerate ~probs ~max_order:k ()) in
  let p = { Te.ts = env.ts; Te.demands = demands; Te.scenarios; Te.beta = 0.999999 } in
  let adm = Te.solve_admission ~max_rounds:1 ~skip_unprotectable:true ?deadline p in
  {
    p_alloc = adm.Te.adm_alloc;
    p_ts = env.ts;
    p_admitted = Some adm.Te.admitted;
    p_degraded = adm.Te.adm_degraded;
  }

let ecmp_alloc env ~demands =
  let ts = env.ts in
  let nt = Array.length ts.Tunnels.tunnels in
  let alloc = Array.make nt 0.0 in
  Array.iteri
    (fun f tids ->
      ignore tids;
      let d = demands.(f) in
      let tl = ts.Tunnels.of_flow.(f) in
      let n = List.length tl in
      if d > 0.0 && n > 0 then
        List.iter (fun tid -> alloc.(tid) <- d /. float_of_int n) tl)
    ts.Tunnels.of_flow;
  { p_alloc = alloc; p_ts = ts; p_admitted = None; p_degraded = false }

(* SMORE: load-balancing ratios over the precomputed tunnels minimizing
   the max link utilization of the current traffic matrix; when demand
   cannot fit (u* > 1) the allocation is scaled down proportionally
   (ingress policing at the oversubscription factor). *)
let smore_alloc env ?deadline ~demands () =
  let ts = env.ts in
  let topo = ts.Tunnels.topo in
  let m = Lp.create () in
  let a_vars =
    Array.map (fun _ -> Lp.add_var m "") ts.Tunnels.tunnels
  in
  let u = Lp.add_var m "u" in
  Array.iteri
    (fun f _ ->
      let d = demands.(f) in
      if d > 0.0 then begin
        let terms = List.map (fun tid -> (1.0, a_vars.(tid))) ts.Tunnels.of_flow.(f) in
        ignore (Lp.add_constraint m terms Lp.Eq d)
      end)
    ts.Tunnels.flows;
  List.iter
    (fun (lid, terms) ->
      let terms =
        (-.(Topology.link topo lid).Topology.capacity, u)
        :: List.map (fun (tid, c) -> (c, a_vars.(tid))) terms
      in
      ignore (Lp.add_constraint m terms Lp.Le 0.0))
    (Te.capacity_terms ts);
  Lp.set_objective m Lp.Minimize [ (1.0, u) ];
  match Simplex.solve ?deadline m with
  | Simplex.Optimal sol ->
    let scale = Float.min 1.0 (1.0 /. Float.max 1e-9 (Simplex.value sol u)) in
    let alloc =
      Array.init (Array.length ts.Tunnels.tunnels) (fun t ->
          scale *. Simplex.value sol a_vars.(t))
    in
    { p_alloc = alloc; p_ts = ts; p_admitted = None; p_degraded = sol.Simplex.degraded }
  | Simplex.Infeasible | Simplex.Unbounded ->
    invalid_arg "Availability.smore_alloc: LP failed (internal error)"

let flexile_alloc env ?deadline ~demands () =
  (* Reactive: optimize for the no-failure scenario only. *)
  let nf = Array.length env.model.Fiber_model.p_cut in
  let probs = Array.make nf 0.0 in
  let scenarios = Scenario.enumerate ~probs () in
  let p = { Te.ts = env.ts; Te.demands = demands; Te.scenarios; Te.beta = 0.99 } in
  let sol = Te.solve ~relaxation_start:false ?deadline p in
  { p_alloc = sol.Te.alloc; p_ts = env.ts; p_admitted = None; p_degraded = sol.Te.degraded }

(* Algorithm 1's merged tunnel set for a degrading fiber, memoized in the
   fiber's slot: the set is a pure function of (base tunnels, fiber,
   ratio), so a hit returns the same tunnels a fresh build would, and
   every plan for the fiber shares one copy.  A slot holds the last
   ratio asked for; racing domains store equal values. *)
let rerouted_tunnels env ~ratio ~fiber =
  let slot = env.rerouted.(fiber) in
  match Atomic.get slot with
  | Some (r, base, merged) when Float.equal r ratio && base == env.ts -> merged
  | _ ->
    let merged =
      Tunnel_update.merged
        (Tunnel_update.react ~ratio env.ts ~degraded_fiber:fiber ())
    in
    Atomic.set slot (Some (ratio, env.ts, merged));
    merged

(* The calibrated cut probabilities and the tunnel set a PreTE plan
   solves over: every call asks the predictor. *)
let prete_inputs env (cfg : Schemes.prete_config) ?degr_features ~degraded () =
  let features = match degr_features with Some f -> f | None -> env.degr_events in
  let obs =
    {
      Calibrate.degraded =
        (match degraded with
        | None -> []
        | Some n -> [ (n, features.(n)) ]);
      Calibrate.will_cut = [];
    }
  in
  let probs =
    Calibrate.probabilities (Calibrate.Calibrated cfg.Schemes.predictor) env.model obs
  in
  let ts =
    match degraded with
    | Some n when cfg.Schemes.update_tunnels && cfg.Schemes.ratio > 0.0 ->
      rerouted_tunnels env ~ratio:cfg.Schemes.ratio ~fiber:n
    | _ -> env.ts
  in
  (probs, ts)

let prete_alloc_warm env cfg ?deadline ?warm ?degr_features ~demands ~degraded () =
  let probs, ts = prete_inputs env cfg ?degr_features ~degraded () in
  te_solve_warm env ?deadline ?warm ~demands ~probs ~ts ()

(* Cold PreTE plans memoized in [env.plans].  On one env a cold solve is
   a pure function of (tunnel set, demands, probabilities), so the key is
   exactly those: the set by physical identity (the [rerouted] memo hands
   every plan of a fiber one copy), the rest by float bits.  A hit
   therefore returns the plan a fresh solve would.  Only undegraded
   plans are stored; callers never mutate a plan's arrays, so one copy
   is shared by every hit. *)
let same_bits a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i >= n || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && go (i + 1))
  in
  go 0

let memo_find m ~ts ~demands ~probs =
  Array.find_map
    (function
      | Some e
        when e.k_ts == ts && same_bits e.k_demands demands && same_bits e.k_probs probs ->
        Some e.k_plan
      | _ -> None)
    m.slots

let with_memo m f =
  Mutex.lock m.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

let prete_alloc_memo env cfg ~demands ~degraded =
  let probs, ts = prete_inputs env cfg ~degraded () in
  let m = env.plans in
  match with_memo m (fun () -> memo_find m ~ts ~demands ~probs) with
  | Some plan -> plan
  | None ->
    (* Solved outside the lock: [fill_plans] solves states on the pool. *)
    let plan, _ = te_solve_warm env ~demands ~probs ~ts () in
    if not plan.p_degraded then
      with_memo m (fun () ->
          if Option.is_none (memo_find m ~ts ~demands ~probs) then begin
            m.slots.(m.next) <-
              Some
                {
                  k_ts = ts;
                  k_demands = Array.copy demands;
                  k_probs = probs;
                  k_plan = plan;
                };
            m.next <- (m.next + 1) mod memo_capacity
          end);
    plan

(* Warm-aware dispatch: only the PreTE scheme consumes and produces an LP
   basis today — other schemes either solve a differently-shaped LP or
   none at all, and return [None]. *)
let plan_alloc_warm ?deadline ?warm ?degr_features env scheme ~demands ~degraded =
  match scheme with
  | Schemes.Ecmp -> (ecmp_alloc env ~demands, None)
  | Schemes.Smore -> (smore_alloc env ?deadline ~demands (), None)
  | Schemes.Ffc k -> (ffc_alloc env ?deadline ~demands ~k (), None)
  | Schemes.Teavar | Schemes.Arrow ->
    (admission_solve env ?deadline ~demands ~probs:env.model.Fiber_model.p_cut (), None)
  | Schemes.Flexile -> (flexile_alloc env ?deadline ~demands (), None)
  | Schemes.Prete cfg ->
    prete_alloc_warm env cfg ?deadline ?warm ?degr_features ~demands ~degraded ()
  | Schemes.Oracle ->
    (* The oracle allocates per cut outcome; the "plan" here is unused
       (handled specially in [availability]). *)
    (ecmp_alloc env ~demands, None)

let plan_alloc ?deadline ?degr_features env scheme ~demands ~degraded =
  match (deadline, degr_features, scheme) with
  | None, None, Schemes.Prete cfg -> prete_alloc_memo env cfg ~demands ~degraded
  | _ -> fst (plan_alloc_warm ?deadline ?degr_features env scheme ~demands ~degraded)

(* --------------------------------------------------------------------- *)
(* Availability                                                            *)
(* --------------------------------------------------------------------- *)

(* Demand-weighted mean: losing a trunk flow hurts availability more than
   losing a small one, which is how traffic-loss SLAs read. *)
let weighted_mean demands avail_per_flow =
  let total = Prete_util.Stats.sum demands in
  if total <= 0.0 then Prete_util.Stats.mean avail_per_flow
  else begin
    let acc = ref 0.0 in
    Array.iteri (fun f a -> acc := !acc +. (demands.(f) *. a)) avail_per_flow;
    !acc /. total
  end

let availability ?pool ?bases env scheme ~scale =
  let pool =
    match pool with Some p -> p | None -> Prete_exec.Pool.default ()
  in
  let demands = Traffic.demand env.traffic ~scale ~epoch:env.epoch in
  let states = degradation_states env in
  (match bases with
  | Some b when Array.length b <> Array.length states ->
    invalid_arg "Availability.availability: bases length <> degradation states"
  | _ -> ());
  let n_flows = Array.length env.ts.Tunnels.flows in
  (* Phase 1: the served-fraction LPs the reactive schemes need, one per
     distinct cut outcome, solved on the pool.  The outcome set is
     collected in state order so the table contents (and the fallback
     below) are independent of how the solves are scheduled. *)
  let served_cache : (int option, float array) Hashtbl.t = Hashtbl.create 32 in
  (match scheme with
  | Schemes.Oracle | Schemes.Flexile ->
    let order = ref [] in
    Array.iter
      (fun (degraded, _) ->
        Array.iter
          (fun (cut, _) ->
            if not (Hashtbl.mem served_cache cut) then begin
              Hashtbl.add served_cache cut [||];
              order := cut :: !order
            end)
          (cut_outcomes env ~degraded))
      states;
    let cut_keys = Array.of_list (List.rev !order) in
    let solved =
      Prete_exec.Pool.parallel_map pool ~chunk:1
        (fun cut ->
          max_served env ~demands
            ~cuts:(match cut with None -> [] | Some f -> [ f ]))
        cut_keys
    in
    Array.iteri (fun i cut -> Hashtbl.replace served_cache cut solved.(i)) cut_keys
  | _ -> ());
  let served cut =
    match Hashtbl.find_opt served_cache cut with
    | Some s -> s
    | None ->
      (* Unreachable for the schemes that call [served]; recompute rather
         than mutate so the table stays read-only during Phase 3. *)
      max_served env ~demands ~cuts:(match cut with None -> [] | Some f -> [ f ])
  in
  (* Phase 2: one plan per degradation state.  Degradation-aware schemes
     re-solve per state — independent LPs, fanned out on the pool; every
     other scheme allocates once. *)
  let plans =
    if Schemes.is_degradation_aware scheme then
      (* Each state's task owns exactly its own slot of [bases]
         (chunk-owned writes), so the caller-held cache stays inside the
         pool's determinism contract; and because warm starts change
         pivot counts but never results, the availability itself is
         independent of whatever bases the cache held. *)
      Prete_exec.Pool.parallel_map pool ~chunk:1
        (fun i ->
          let degraded, _ = states.(i) in
          let warm = match bases with Some b -> b.(i) | None -> None in
          let plan, basis = plan_alloc_warm ?warm env scheme ~demands ~degraded in
          (match bases with Some b -> b.(i) <- basis | None -> ());
          plan)
        (Array.init (Array.length states) Fun.id)
    else begin
      let base = plan_alloc env scheme ~demands ~degraded:None in
      Array.map (fun _ -> base) states
    end
  in
  (* Rate-limited delivery cap of admission schemes. *)
  let admission_cap plan f =
    match plan.p_admitted with None -> demands.(f) | Some b -> b.(f)
  in
  (* Delivered fraction of every flow under a plan and cut outcome:
     availability is the expected fraction of demand served (bandwidth
     availability), which is smooth in the allocation and avoids
     LP-vertex artifacts that a binary per-flow metric suffers from. *)
  let avail_with_reaction plan cut =
    let ts = plan.p_ts and alloc = plan.p_alloc in
    match scheme with
    | Schemes.Ecmp ->
      let losses = ecmp_losses ts demands ~cut in
      Array.map (fun l -> 1.0 -. l) losses
    | _ ->
      Array.init n_flows (fun f ->
          let d = demands.(f) in
          if d <= 0.0 then 1.0
          else
            match scheme with
            | Schemes.Ecmp -> assert false
            | Schemes.Oracle -> (served cut).(f)
            | Schemes.Ffc _ | Schemes.Teavar ->
              (* Ingress rate limiting caps delivery at the admission. *)
              let surv = surviving_rate ts alloc f ~cut in
              Float.min 1.0 (Float.min (admission_cap plan f) surv /. d)
            | Schemes.Smore | Schemes.Prete _ ->
              Float.min 1.0 (surviving_rate ts alloc f ~cut /. d)
            | Schemes.Arrow ->
              (* Restoration-aware TE counts on the optical layer to
                 rebuild lost capacity: flows with traffic on the cut
                 fiber ride out the tau_arrow restoration window, after
                 which the pre-cut allocation is whole again. *)
              let cap = admission_cap plan f in
              if not (flow_affected ts alloc f ~cut) then
                let surv = surviving_rate ts alloc f ~cut in
                Float.min 1.0 (Float.min cap surv /. d)
              else begin
                let w = env.tau_arrow /. env.epoch_seconds in
                let during = Float.min cap (surviving_rate ts alloc f ~cut) /. d in
                let after = Float.min cap (surviving_rate ts alloc f ~cut:None) /. d in
                Float.min 1.0 ((w *. during) +. ((1.0 -. w) *. after))
              end
            | Schemes.Flexile ->
              (* Reactive: traffic on failed tunnels is blackholed until
                 the controller recomputes (the §2.1 convergence loss —
                 "packet loss ... even if the network utilization is
                 quite low"); afterwards the recomputed optimum serves
                 the flow. *)
              let w = env.tau_flexile /. env.epoch_seconds in
              let pre = Float.min 1.0 (surviving_rate ts alloc f ~cut /. d) in
              let post = (served cut).(f) in
              (w *. Float.min pre post) +. ((1.0 -. w) *. post))
  in
  (* Phase 3: per-state availability on the pool.  Each state's inner sum
     runs over its cut outcomes in distribution order, and the cross-state
     sum below folds in state order — both fixed by the model, never by
     the schedule — so the result is bit-identical at any domain count. *)
  let per_state =
    Prete_exec.Pool.parallel_map pool ~chunk:1
      (fun i ->
        let degraded, _ = states.(i) in
        let plan = plans.(i) in
        let outcomes = cut_outcomes env ~degraded in
        let state_avail = ref 0.0 in
        Array.iter
          (fun (cut, p_q) ->
            let per_flow = avail_with_reaction plan cut in
            state_avail := !state_avail +. (p_q *. weighted_mean demands per_flow))
          outcomes;
        !state_avail)
      (Array.init (Array.length states) Fun.id)
  in
  let total = ref 0.0 in
  Array.iteri (fun i (_, p_s) -> total := !total +. (p_s *. per_state.(i))) states;
  !total

let availability_curve ?pool env scheme ~scales =
  Array.map (fun s -> (s, availability ?pool env scheme ~scale:s)) scales

let max_scale_at curve ~target =
  (* Scan for the last crossing above target, interpolating linearly. *)
  let n = Array.length curve in
  if n = 0 then 0.0
  else begin
    let best = ref 0.0 in
    for i = 0 to n - 1 do
      let s, a = curve.(i) in
      if a >= target then best := Float.max !best s;
      if i + 1 < n then begin
        let s1, a1 = curve.(i) and s2, a2 = curve.(i + 1) in
        (* Crossing between samples. *)
        if (a1 >= target && a2 < target) || (a1 < target && a2 >= target) then begin
          let w = (target -. a1) /. (a2 -. a1) in
          let sx = s1 +. (w *. (s2 -. s1)) in
          if a1 >= target then best := Float.max !best sx
        end
      end
    done;
    !best
  end

let nines a =
  if a >= 1.0 then 6.0
  else if a <= 0.0 then 0.0
  else Float.min 6.0 (-.log10 (1.0 -. a))

module Internal = struct
  let plan_alloc = plan_alloc
  let plan_alloc_warm = plan_alloc_warm
  let max_served = max_served
  let degradation_states = degradation_states
  let cut_outcomes = cut_outcomes
  let memo_capacity = memo_capacity
  let memo_plans env =
    with_memo env.plans (fun () ->
        Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 env.plans.slots)
end
