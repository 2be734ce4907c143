open Prete_net
open Prete_lp

type problem = {
  ts : Tunnels.t;
  demands : float array;
  scenarios : Scenario.set;
  beta : float;
}

type stats = { lp_solves : int; lp_pivots : int; mip_nodes : int }

type solution = {
  phi : float;
  alloc : float array;
  delta : bool array array;
  classes : Scenario.Classes.cls array array;
  expected_served : float;
  degraded : bool;
  stats : stats;
  basis : Simplex.basis option;
  solver : Solver_stats.t;
}

exception Infeasible_problem of string

let make_problem ~ts ~demands ~probs ?(max_order = 1) ?(cutoff = 0.0) ?(normalize = true)
    ~beta () =
  if Array.length demands <> Array.length ts.Tunnels.flows then
    invalid_arg "Te.make_problem: demands/flows mismatch";
  if Array.length probs <> Topology.num_fibers ts.Tunnels.topo then
    invalid_arg "Te.make_problem: probs/fibers mismatch";
  if beta <= 0.0 || beta >= 1.0 then invalid_arg "Te.make_problem: beta in (0,1)";
  let scenarios = Scenario.enumerate ~probs ~max_order ~cutoff () in
  let scenarios = if normalize then Scenario.normalize scenarios else scenarios in
  if scenarios.Scenario.covered_prob < beta then
    raise
      (Infeasible_problem
         (Printf.sprintf
            "covered scenario probability %.6f below beta %.6f — raise max_order or \
             lower the cutoff"
            scenarios.Scenario.covered_prob beta));
  { ts; demands; scenarios; beta }

let classes_of p =
  Array.map
    (fun (f : Tunnels.flow) ->
      Scenario.Classes.of_flow p.ts
        ~tunnels:(Tunnels.tunnels_of_flow p.ts f.Tunnels.flow_id)
        p.scenarios)
    p.ts.Tunnels.flows

let class_loss p ~alloc ~flow (c : Scenario.Classes.cls) =
  let d = p.demands.(flow) in
  if d <= 0.0 then 0.0
  else
    let surviving =
      List.fold_left (fun acc tid -> acc +. alloc.(tid)) 0.0 c.Scenario.Classes.survivors
    in
    Float.max 0.0 (1.0 -. (surviving /. d))

(* ------------------------------------------------------------------ *)
(* Shared model pieces                                                  *)
(* ------------------------------------------------------------------ *)

let num_tunnels p = Array.length p.ts.Tunnels.tunnels

(* Link × tunnel incidence in CSC form ({!Sparse}): one pass over the
   tunnels' link lists instead of the old O(links × tunnels × path)
   List.mem scan.  A column of the tunnel-major matrix is a link's term
   list, so capacity rows read straight off it; links no tunnel crosses
   have empty columns and produce no row.  Rows come out in ascending
   link-id order — a pure function of the tunnel set, shared by the
   availability and resilience model builders. *)
let capacity_terms (ts : Tunnels.t) =
  let nl = Topology.num_links ts.Tunnels.topo in
  let nt = Array.length ts.Tunnels.tunnels in
  let trips = ref [] in
  Array.iter
    (fun (tn : Tunnels.tunnel) ->
      List.iter
        (fun lid -> trips := (tn.Tunnels.tunnel_id, lid, 1.0) :: !trips)
        tn.Tunnels.links)
    ts.Tunnels.tunnels;
  let by_link = Sparse.of_triplets ~rows:nt ~cols:nl !trips in
  let acc = ref [] in
  for lid = nl - 1 downto 0 do
    if Sparse.col_nnz by_link lid > 0 then begin
      let terms = ref [] in
      Sparse.iter_col by_link lid (fun tid c -> terms := (tid, c) :: !terms);
      acc := (lid, List.rev !terms) :: !acc
    end
  done;
  !acc

let add_alloc_vars p m =
  Array.map (fun _ -> Lp.add_var m "") p.ts.Tunnels.tunnels

(* [caps] is [capacity_terms p.ts], built once per solve call and shared
   by every model the call builds over the same tunnel set. *)
let add_capacity_rows p ~caps m a_vars =
  List.iter
    (fun (lid, terms) ->
      let terms = List.map (fun (tid, c) -> (c, a_vars.(tid))) terms in
      ignore
        (Lp.add_constraint m terms Lp.Le
           (Topology.link p.ts.Tunnels.topo lid).Topology.capacity))
    caps

(* ------------------------------------------------------------------ *)
(* Fixed-δ LP in eliminated form: min Φ                                 *)
(* ------------------------------------------------------------------ *)

let fixed_delta_model p ~caps classes delta =
  let m = Lp.create () in
  let a_vars = add_alloc_vars p m in
  let phi = Lp.add_var m ~ub:1.0 "phi" in
  add_capacity_rows p ~caps m a_vars;
  Array.iteri
    (fun f cls ->
      let d = p.demands.(f) in
      if d > 0.0 then
        Array.iteri
          (fun ci (c : Scenario.Classes.cls) ->
            if delta.(f).(ci) then begin
              let terms =
                (d, phi)
                :: List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
              in
              ignore
                (Lp.add_constraint m terms
                   Lp.Ge d)
            end)
          cls)
    classes;
  Lp.set_objective m Lp.Minimize [ (1.0, phi) ];
  (m, a_vars)

let solve_fixed_delta ?deadline ?warm ~st p ~caps classes delta =
  let m, a_vars = fixed_delta_model p ~caps classes delta in
  match
    Solver_stats.time st "fixed_delta" (fun () -> Simplex.solve ?deadline ?warm m)
  with
  | Simplex.Optimal sol ->
    Solver_stats.record st sol;
    let alloc = Array.init (num_tunnels p) (fun t -> Simplex.value sol a_vars.(t)) in
    (sol.Simplex.objective, alloc, sol.Simplex.iterations, sol.Simplex.degraded,
     sol.Simplex.basis)
  | Simplex.Infeasible ->
    (* Cannot happen: a = 0, Φ = 1 satisfies every row. *)
    raise (Infeasible_problem "fixed-delta LP infeasible (internal error)")
  | Simplex.Unbounded -> raise (Infeasible_problem "fixed-delta LP unbounded (internal error)")

(* Second phase: at loss level Φ*, maximize probability- and demand-
   weighted served fraction so spare capacity still protects uncovered
   scenario classes. *)
let second_phase_model p ~caps classes delta phi_star =
  let m = Lp.create () in
  let a_vars = add_alloc_vars p m in
  add_capacity_rows p ~caps m a_vars;
  let total_demand = Prete_util.Stats.sum p.demands in
  let objective = ref [] in
  Array.iteri
    (fun f cls ->
      let d = p.demands.(f) in
      if d > 0.0 then begin
        let w = d /. Float.max 1e-9 total_demand in
        Array.iteri
          (fun ci (c : Scenario.Classes.cls) ->
            let s = Lp.add_var m ~ub:1.0 "" in
            (* d·s ≤ surviving allocation. *)
            let terms =
              (-.d, s)
              :: List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
            in
            ignore (Lp.add_constraint m terms Lp.Ge 0.0);
            (* Covered classes must retain the Φ* guarantee. *)
            if delta.(f).(ci) then begin
              let terms =
                List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
              in
              ignore (Lp.add_constraint m terms Lp.Ge ((1.0 -. phi_star) *. d))
            end;
            objective := (w *. c.Scenario.Classes.prob, s) :: !objective)
          cls
      end)
    classes;
  Lp.set_objective m Lp.Maximize !objective;
  (m, a_vars)

let solve_second_phase ?deadline ~st p ~caps classes delta phi_star =
  let m, a_vars = second_phase_model p ~caps classes delta phi_star in
  match
    Solver_stats.time st "second_phase" (fun () -> Simplex.solve ?deadline m)
  with
  | Simplex.Optimal sol ->
    Solver_stats.record st sol;
    let alloc = Array.init (num_tunnels p) (fun t -> Simplex.value sol a_vars.(t)) in
    (sol.Simplex.objective, alloc, sol.Simplex.iterations, sol.Simplex.degraded)
  | Simplex.Infeasible ->
    raise (Infeasible_problem "second-phase LP infeasible (internal error)")
  | Simplex.Unbounded ->
    raise (Infeasible_problem "second-phase LP unbounded (internal error)")

(* Greedy δ update: uncover the highest-loss classes of each flow while
   the covered probability stays ≥ β.  Zero-loss classes stay covered. *)
let improve_delta p classes delta alloc =
  let changed = ref false in
  let next =
    Array.mapi
      (fun f cls ->
        let n = Array.length cls in
        let losses =
          Array.mapi (fun ci c -> (ci, class_loss p ~alloc ~flow:f c)) cls
        in
        let order = Array.copy losses in
        (* Highest loss first; among ties prefer the cheapest coverage
           budget (smallest class probability), which breaks the
           degeneracies of equal-loss vertices (e.g. the Fig. 2
           instance). *)
        Array.sort
          (fun (c1, l1) (c2, l2) ->
            match compare l2 l1 with
            | 0 ->
              compare
                cls.(c1).Scenario.Classes.prob
                cls.(c2).Scenario.Classes.prob
            | c -> c)
          order;
        let covered = Array.make n true in
        let budget = ref (p.scenarios.Scenario.covered_prob -. p.beta) in
        Array.iter
          (fun (ci, loss) ->
            let pc = cls.(ci).Scenario.Classes.prob in
            if loss > 1e-9 && !budget -. pc >= -1e-12 then begin
              covered.(ci) <- false;
              budget := !budget -. pc
            end)
          order;
        Array.iteri (fun ci v -> if v <> delta.(f).(ci) then changed := true) covered;
        covered)
      classes
  in
  (next, !changed)

let build_full_mip ?(relax = false) p ~caps classes =
  let m = Lp.create () in
  let a_vars = add_alloc_vars p m in
  let phi = Lp.add_var m ~ub:1.0 "phi" in
  add_capacity_rows p ~caps m a_vars;
  let l_vars = Array.map (Array.map (fun _ -> Lp.add_var m ~ub:1.0 "")) classes in
  let d_vars =
    Array.map
      (Array.map (fun _ ->
           if relax then Lp.add_var m ~ub:1.0 "" else Lp.add_var m ~binary:true ""))
      classes
  in
  Array.iteri
    (fun f cls ->
      let d = p.demands.(f) in
      (* (5): coverage. *)
      let cov_terms =
        Array.to_list
          (Array.mapi (fun ci c -> (c.Scenario.Classes.prob, d_vars.(f).(ci))) cls)
      in
      ignore (Lp.add_constraint m cov_terms Lp.Ge p.beta);
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          (* (4): surviving allocation + l·d ≥ d. *)
          if d > 0.0 then begin
            let terms =
              (d, l_vars.(f).(ci))
              :: List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
            in
            ignore (Lp.add_constraint m terms Lp.Ge d)
          end;
          (* (6): Φ ≥ l − 1 + δ. *)
          ignore
            (Lp.add_constraint m
               [ (1.0, phi); (-1.0, l_vars.(f).(ci)); (-1.0, d_vars.(f).(ci)) ]
               Lp.Ge (-1.0)))
        cls)
    classes;
  Lp.set_objective m Lp.Minimize [ (1.0, phi) ];
  (m, a_vars, phi, l_vars, d_vars)

(* LP-relaxation-guided δ: solve the full formulation with δ ∈ [0, 1] and
   drop, per flow, the classes the relaxation protects least (smallest relaxed delta),
   within the coverage budget.  This sees the cross-flow capacity coupling
   the purely loss-based greedy is blind to (e.g. the Fig. 2 instance). *)
let relaxation_delta ?deadline ~st p ~caps classes =
  let m, _a_vars, phi, _l_vars, d_vars = build_full_mip ~relax:true p ~caps classes in
  (* Lexicographic tie-break: among phi-optimal relaxations prefer the
     maximum covered probability mass.  Degenerate instances (Fig. 2
     again) have many phi-optimal vertices whose relaxed deltas round
     very differently; the tiny coverage bonus steers the solver to the
     vertex where coverage is cheapest, which is exactly where delta
     lands integral and the rounding below stops depending on pivot
     order.  The weight is orders below any real phi trade-off, and the
     relaxed objective value is discarded anyway — only delta is read. *)
  let tie = 1e-4 in
  let bonus =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun f cls ->
              Array.to_list
                (Array.mapi
                   (fun ci (c : Scenario.Classes.cls) ->
                     (-.tie *. c.Scenario.Classes.prob, d_vars.(f).(ci)))
                   cls))
            classes))
  in
  Lp.set_objective m Lp.Minimize ((1.0, phi) :: bonus);
  (* The relaxation only guides a δ rounding, so a degraded (interrupted)
     optimum is still usable; a Phase-1 timeout simply skips the start. *)
  match
    Solver_stats.time st "relaxation" (fun () -> Simplex.solve ?deadline m)
  with
  | exception Simplex.Timeout -> None
  | Simplex.Optimal sol ->
    Solver_stats.record st sol;
    let delta =
      Array.mapi
        (fun f cls ->
          let n = Array.length cls in
          let order = Array.init n (fun ci -> (ci, Simplex.value sol d_vars.(f).(ci))) in
          Array.sort (fun (_, v1) (_, v2) -> compare v1 v2) order;
          let covered = Array.make n true in
          let budget = ref (p.scenarios.Scenario.covered_prob -. p.beta) in
          Array.iter
            (fun (ci, v) ->
              let pc = cls.(ci).Scenario.Classes.prob in
              if v < 0.999 && !budget -. pc >= -1e-12 then begin
                covered.(ci) <- false;
                budget := !budget -. pc
              end)
            order;
          covered)
        classes
    in
    Some (delta, sol.Simplex.iterations)
  | Simplex.Infeasible | Simplex.Unbounded -> None

let solve ?(second_phase = true) ?(max_rounds = 8) ?(relaxation_start = true) ?deadline
    ?warm ?(warm_start = true) p =
  let classes = classes_of p in
  let caps = capacity_terms p.ts in
  let delta = Array.map (fun cls -> Array.make (Array.length cls) true) classes in
  let st = Solver_stats.create () in
  let lp_solves = ref 0 and lp_pivots = ref 0 in
  (* δ-fixpoint rounds perturb only the coverage rows, so each round's
     final basis warm-starts the next (repair path — the row structure
     shifts, so the reinstall is guided rather than exact). *)
  let last_basis = ref (if warm_start then warm else None) in
  (* Anytime fixpoint: every LP result is a feasible incumbent, so on
     budget expiry (between rounds, or an LP returning degraded / raising
     [Simplex.Timeout] mid-solve) we stop and keep the best seen so far,
     flagging the solution.  A Timeout with no incumbent propagates. *)
  let degraded = ref false in
  let rec loop delta best rounds =
    if Prete_util.Clock.expired deadline then begin
      degraded := true;
      best
    end
    else
      match
        solve_fixed_delta ?deadline
          ?warm:(if warm_start then !last_basis else None)
          ~st p ~caps classes delta
      with
      | exception Simplex.Timeout ->
        degraded := true;
        best
      | phi, alloc, pivots, lp_degraded, basis ->
        incr lp_solves;
        lp_pivots := !lp_pivots + pivots;
        last_basis := Some basis;
        let best =
          match best with
          | Some (bphi, _, _, _) when bphi <= phi +. 1e-12 -> best
          | _ -> Some (phi, alloc, delta, basis)
        in
        if lp_degraded then begin
          degraded := true;
          best
        end
        else if rounds >= max_rounds then best
        else
          let next, changed = improve_delta p classes delta alloc in
          if not changed then best else loop next best (rounds + 1)
  in
  let best = loop delta None 1 in
  (* Second start from the relaxation rounding when the loss-based
     fixpoint left residual loss. *)
  let best =
    match best with
    | Some (phi, _, _, _) when relaxation_start && phi > 1e-9 && not !degraded -> (
      match relaxation_delta ?deadline ~st p ~caps classes with
      | Some (delta_rx, pivots) ->
        incr lp_solves;
        lp_pivots := !lp_pivots + pivots;
        loop delta_rx best 1
      | None -> best)
    | _ -> best
  in
  match best with
  | None -> raise Simplex.Timeout
  | Some (phi, alloc, delta, basis) ->
    let expected_served, alloc =
      if second_phase && not (Prete_util.Clock.expired deadline) then begin
        match solve_second_phase ?deadline ~st p ~caps classes delta phi with
        | exception Simplex.Timeout ->
          degraded := true;
          (nan, alloc)
        | served, alloc2, pivots, lp_degraded ->
          incr lp_solves;
          lp_pivots := !lp_pivots + pivots;
          if lp_degraded then degraded := true;
          (served, alloc2)
      end
      else begin
        if second_phase then degraded := true;
        (nan, alloc)
      end
    in
    {
      phi;
      alloc;
      delta;
      classes;
      expected_served;
      degraded = !degraded;
      stats = { lp_solves = !lp_solves; lp_pivots = !lp_pivots; mip_nodes = 0 };
      basis = Some basis;
      solver = st;
    }

(* ------------------------------------------------------------------ *)
(* Admission-control variant (TeaVar / FFC style)                       *)
(* ------------------------------------------------------------------ *)

type admission = {
  admitted : float array;
  adm_alloc : float array;
  adm_delta : bool array array;
  adm_classes : Scenario.Classes.cls array array;
  adm_degraded : bool;
  adm_stats : stats;
  adm_basis : Simplex.basis option;
  adm_solver : Solver_stats.t;
}

let solve_admission_fixed ?deadline ?warm ~st p ~caps classes delta =
  let m = Lp.create () in
  let a_vars = add_alloc_vars p m in
  add_capacity_rows p ~caps m a_vars;
  let objective = ref [] in
  (* Admission b_f is split in two tiers (each capped at d/2) with the
     first tier weighted higher: a piecewise-concave utility that prefers
     giving every flow half its demand before topping anyone up — the
     fairness TeaVar's weighted throughput objective provides (and what
     picks the paper's 5 + 5 allocation in Fig. 2b over 10 + 0). *)
  let b_vars =
    Array.mapi
      (fun f cls ->
        let d = Float.max 0.0 p.demands.(f) in
        let b1 = Lp.add_var m ~ub:(d /. 2.0) "" in
        let b2 = Lp.add_var m ~ub:(d /. 2.0) "" in
        if d > 0.0 then begin
          Array.iteri
            (fun ci (c : Scenario.Classes.cls) ->
              if delta.(f).(ci) then begin
                let terms =
                  (-1.0, b1) :: (-1.0, b2)
                  :: List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
                in
                ignore (Lp.add_constraint m terms Lp.Ge 0.0)
              end)
            cls;
          objective := (1.0, b1) :: (0.9, b2) :: !objective
        end;
        (b1, b2))
      classes
  in
  Lp.set_objective m Lp.Maximize !objective;
  match
    Solver_stats.time st "admission" (fun () -> Simplex.solve ?deadline ?warm m)
  with
  | Simplex.Optimal sol ->
    Solver_stats.record st sol;
    let alloc = Array.init (num_tunnels p) (fun t -> Simplex.value sol a_vars.(t)) in
    let admitted =
      Array.map (fun (b1, b2) -> Simplex.value sol b1 +. Simplex.value sol b2) b_vars
    in
    (admitted, alloc, sol.Simplex.iterations, sol.Simplex.degraded, sol.Simplex.basis)
  | Simplex.Infeasible ->
    raise (Infeasible_problem "admission LP infeasible (internal error)")
  | Simplex.Unbounded ->
    raise (Infeasible_problem "admission LP unbounded (internal error)")

(* δ update for admission: uncover the classes whose surviving capacity
   most limits the flow, within the coverage budget. *)
let improve_delta_admission p classes delta alloc =
  let changed = ref false in
  let next =
    Array.mapi
      (fun f cls ->
        let n = Array.length cls in
        let losses = Array.mapi (fun ci c -> (ci, class_loss p ~alloc ~flow:f c)) cls in
        let order = Array.copy losses in
        (* Highest loss first; among ties prefer the cheapest coverage
           budget (smallest class probability), which breaks the
           degeneracies of equal-loss vertices (e.g. the Fig. 2
           instance). *)
        Array.sort
          (fun (c1, l1) (c2, l2) ->
            match compare l2 l1 with
            | 0 ->
              compare
                cls.(c1).Scenario.Classes.prob
                cls.(c2).Scenario.Classes.prob
            | c -> c)
          order;
        let covered = Array.make n true in
        let budget = ref (p.scenarios.Scenario.covered_prob -. p.beta) in
        Array.iter
          (fun (ci, loss) ->
            let pc = cls.(ci).Scenario.Classes.prob in
            if loss > 1e-9 && !budget -. pc >= -1e-12 then begin
              covered.(ci) <- false;
              budget := !budget -. pc
            end)
          order;
        Array.iteri (fun ci v -> if v <> delta.(f).(ci) then changed := true) covered;
        covered)
      classes
  in
  (next, !changed)

let solve_admission ?(max_rounds = 6) ?(skip_unprotectable = false) ?deadline ?warm
    ?(warm_start = true) p =
  let classes = classes_of p in
  let caps = capacity_terms p.ts in
  (* FFC-style full coverage would force b = 0 on any flow with a scenario
     class that no tunnel survives (e.g. double cuts killing all four
     tunnels); FFC implementations exclude such unprotectable scenarios
     from the guarantee. *)
  let delta =
    Array.map
      (fun cls ->
        Array.map
          (fun (c : Scenario.Classes.cls) ->
            not (skip_unprotectable && c.Scenario.Classes.survivors = []))
          cls)
      classes
  in
  let st = Solver_stats.create () in
  let last_basis = ref (if warm_start then warm else None) in
  let lp_solves = ref 0 and lp_pivots = ref 0 in
  (* Rank candidate admissions by total first, worst-served flow second,
     so equal-throughput rounds prefer the fairer split. *)
  let score admitted =
    let total = Prete_util.Stats.sum admitted in
    let worst = ref 1.0 in
    Array.iteri
      (fun f b ->
        let d = p.demands.(f) in
        if d > 0.0 then worst := Float.min !worst (b /. d))
      admitted;
    (total, !worst)
  in
  let better (t1, w1) (t2, w2) = t1 > t2 +. 1e-9 || (t1 >= t2 -. 1e-9 && w1 > w2 +. 1e-9) in
  let degraded = ref false in
  let rec loop delta best rounds =
    if Prete_util.Clock.expired deadline then begin
      degraded := true;
      best
    end
    else
      match
        solve_admission_fixed ?deadline
          ?warm:(if warm_start then !last_basis else None)
          ~st p ~caps classes delta
      with
      | exception Simplex.Timeout ->
        degraded := true;
        best
      | admitted, alloc, pivots, lp_degraded, basis ->
        incr lp_solves;
        lp_pivots := !lp_pivots + pivots;
        last_basis := Some basis;
        let sc = score admitted in
        let best =
          match best with
          | Some (bsc, _, _, _, _) when not (better sc bsc) -> best
          | _ -> Some (sc, admitted, alloc, delta, basis)
        in
        if lp_degraded then begin
          degraded := true;
          best
        end
        else if rounds >= max_rounds then best
        else
          let next, changed = improve_delta_admission p classes delta alloc in
          if not changed then best else loop next best (rounds + 1)
  in
  match loop delta None 1 with
  | None -> raise Simplex.Timeout
  | Some (_, admitted, alloc, delta, basis) ->
    {
      admitted;
      adm_alloc = alloc;
      adm_delta = delta;
      adm_classes = classes;
      adm_degraded = !degraded;
      adm_stats = { lp_solves = !lp_solves; lp_pivots = !lp_pivots; mip_nodes = 0 };
      adm_basis = Some basis;
      adm_solver = st;
    }

(* ------------------------------------------------------------------ *)
(* Exact MIP on the full formulation                                    *)
(* ------------------------------------------------------------------ *)

let solve_mip ?deadline ?warm ?(warm_start = true) p =
  let classes = classes_of p in
  let st = Solver_stats.create () in
  let m, a_vars, phi, _l_vars, d_vars =
    build_full_mip p ~caps:(capacity_terms p.ts) classes
  in
  let of_incumbent ~degraded sol =
    let alloc = Array.init (num_tunnels p) (fun t -> Mip.value sol a_vars.(t)) in
    let delta = Array.map (Array.map (fun v -> Mip.value sol v >= 0.5)) d_vars in
    {
      phi = Mip.value sol phi;
      alloc;
      delta;
      classes;
      expected_served = nan;
      degraded;
      stats = { lp_solves = 0; lp_pivots = sol.Mip.pivots; mip_nodes = sol.Mip.nodes };
      basis = sol.Mip.basis;
      solver = st;
    }
  in
  match
    Solver_stats.time st "mip" (fun () ->
        Mip.solve ?deadline
          ?warm:(if warm_start then warm else None)
          ~warm_start ~stats:st m)
  with
  | Mip.Optimal sol -> of_incumbent ~degraded:false sol
  | Mip.Node_limit (Some sol) -> of_incumbent ~degraded:true sol
  | Mip.Node_limit None -> raise Simplex.Timeout
  | Mip.Infeasible -> raise (Infeasible_problem "MIP infeasible")
  | Mip.Unbounded -> raise (Infeasible_problem "MIP unbounded (internal error)")

(* ------------------------------------------------------------------ *)
(* Benders decomposition (Algorithm 2 / Appendix A.4)                   *)
(* ------------------------------------------------------------------ *)

(* Subproblem: the full formulation with δ fixed; returns the optimum,
   the allocation, and the duals w of the (6) rows, which form the
   optimality cut  Φ ≥ SP(δ̂) + Σ w (δ − δ̂). *)
let benders_subproblem ?deadline ?warm ~st p ~caps classes delta =
  let m = Lp.create () in
  let a_vars = add_alloc_vars p m in
  let phi = Lp.add_var m ~ub:1.0 "phi" in
  add_capacity_rows p ~caps m a_vars;
  let row_of = Array.map (fun cls -> Array.make (Array.length cls) (-1)) classes in
  Array.iteri
    (fun f cls ->
      let d = p.demands.(f) in
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          let l = Lp.add_var m ~ub:1.0 "" in
          if d > 0.0 then begin
            let terms =
              (d, l)
              :: List.map (fun tid -> (1.0, a_vars.(tid))) c.Scenario.Classes.survivors
            in
            ignore (Lp.add_constraint m terms Lp.Ge d)
          end;
          let dval = if delta.(f).(ci) then 1.0 else 0.0 in
          row_of.(f).(ci) <-
            Lp.add_constraint m [ (1.0, phi); (-1.0, l) ] Lp.Ge (dval -. 1.0))
        cls)
    classes;
  Lp.set_objective m Lp.Minimize [ (1.0, phi) ];
  match
    Solver_stats.time st "benders_sub" (fun () -> Simplex.solve ?deadline ?warm m)
  with
  | Simplex.Optimal sol ->
    Solver_stats.record st sol;
    let alloc = Array.init (num_tunnels p) (fun t -> Simplex.value sol a_vars.(t)) in
    let w =
      Array.map (Array.map (fun row -> Simplex.dual sol row)) row_of
    in
    (sol.Simplex.objective, alloc, w, sol.Simplex.iterations, sol.Simplex.degraded,
     sol.Simplex.basis)
  | Simplex.Infeasible ->
    raise (Infeasible_problem "Benders subproblem infeasible (internal error)")
  | Simplex.Unbounded ->
    raise (Infeasible_problem "Benders subproblem unbounded (internal error)")

type cut = { base : float; coefs : float array array (* [flow][class] *) }

let benders_master ?deadline ?warm ?(warm_start = true) ~st p classes cuts =
  let m = Lp.create () in
  let phi = Lp.add_var m ~ub:1.0 "phi" in
  let d_vars = Array.map (Array.map (fun _ -> Lp.add_var m ~binary:true "")) classes in
  Array.iteri
    (fun f cls ->
      let cov_terms =
        Array.to_list
          (Array.mapi (fun ci c -> (c.Scenario.Classes.prob, d_vars.(f).(ci))) cls)
      in
      ignore (Lp.add_constraint m cov_terms Lp.Ge p.beta))
    classes;
  List.iter
    (fun cut ->
      (* Φ − Σ w δ ≥ base. *)
      let terms = ref [ (1.0, phi) ] in
      Array.iteri
        (fun f row ->
          Array.iteri
            (fun ci w -> if Float.abs w > 1e-12 then terms := (-.w, d_vars.(f).(ci)) :: !terms)
            row)
        cut.coefs;
      ignore (Lp.add_constraint m !terms Lp.Ge cut.base))
    cuts;
  Lp.set_objective m Lp.Minimize [ (1.0, phi) ];
  match
    Solver_stats.time st "benders_master" (fun () ->
        Mip.solve ~max_nodes:50_000 ?deadline ?warm ~warm_start ~stats:st m)
  with
  | Mip.Optimal sol ->
    let delta = Array.map (Array.map (fun v -> Mip.value sol v >= 0.5)) d_vars in
    `Exact (sol.Mip.objective, delta, sol.Mip.nodes, sol.Mip.basis)
  | Mip.Node_limit (Some sol) ->
    (* The incumbent δ still satisfies the coverage rows, so the outer
       loop may keep iterating with it — but its objective is no longer a
       valid lower bound. *)
    let delta = Array.map (Array.map (fun v -> Mip.value sol v >= 0.5)) d_vars in
    `Truncated (delta, sol.Mip.nodes, sol.Mip.basis)
  | Mip.Node_limit None -> `Gave_up
  | Mip.Infeasible -> raise (Infeasible_problem "Benders master infeasible")
  | Mip.Unbounded -> raise (Infeasible_problem "Benders master unbounded (internal error)")

let solve_benders ?(eps = 1e-4) ?(max_iters = 40) ?deadline ?warm ?(warm_start = true)
    ?pool p =
  let pool =
    match pool with Some pl -> pl | None -> Prete_exec.Pool.default ()
  in
  (* Per-flow scenario classes are independent; build them on the pool. *)
  let classes =
    Prete_exec.Pool.parallel_map pool
      (fun (f : Tunnels.flow) ->
        Scenario.Classes.of_flow p.ts
          ~tunnels:(Tunnels.tunnels_of_flow p.ts f.Tunnels.flow_id)
          p.scenarios)
      p.ts.Tunnels.flows
  in
  let caps = capacity_terms p.ts in
  let st = Solver_stats.create () in
  (* The subproblem has an identical shape every iteration (only the rhs
     of the (6) rows moves with δ), so its basis exact-installs across
     iterations; the master grows cuts every round, so its warm start
     takes the guided-repair path.  Each candidate slot retains its own
     subproblem basis: slot 0 is the master's δ, slot 1 the greedy
     re-cover of the incumbent allocation. *)
  let sub_bases = [| (if warm_start then warm else None); None |] in
  let master_basis = ref None in
  (* Initialize δ = 1 (line 2 of Algorithm 2): directly satisfies (5). *)
  let delta = ref (Array.map (fun cls -> Array.make (Array.length cls) true) classes) in
  let ub = ref 1.0 and lb = ref 0.0 in
  let best = ref None in
  let cuts = ref [] in
  let lp_solves = ref 0 and lp_pivots = ref 0 and mip_nodes = ref 0 in
  let iters = ref 0 in
  let degraded = ref false in
  let stop = ref false in
  while (not !stop) && !ub -. !lb > eps && !iters < max_iters do
    incr iters;
    if Prete_util.Clock.expired deadline then begin
      degraded := true;
      stop := true
    end
    else begin
      (* Step 1: subproblems with fixed δ, one per candidate, fanned out
         on the pool.  Candidate 0 is always the master's proposal;
         candidate 1 (once an incumbent exists) re-covers the incumbent
         allocation with {!improve_delta}, which keeps per-flow coverage
         ≥ β — so every candidate is master-feasible and its subproblem
         yields both a valid incumbent and a valid optimality cut.  The
         candidate set depends only on the iteration state, never on the
         pool, and results merge in candidate order: bit-identical at any
         domain count. *)
      let cands =
        match !best with
        | Some (_, balloc, _) ->
          let impr, changed = improve_delta p classes !delta balloc in
          if changed then [| !delta; impr |] else [| !delta |]
        | None -> [| !delta |]
      in
      let results =
        Prete_exec.Pool.parallel_map pool ~chunk:1
          (fun i ->
            match
              benders_subproblem ?deadline ?warm:sub_bases.(i)
                ~st p ~caps classes cands.(i)
            with
            | exception Simplex.Timeout -> `Timeout
            | r -> `Ok r)
          (Array.init (Array.length cands) Fun.id)
      in
      let any_timeout = ref false and any_cut = ref false in
      Array.iteri
        (fun i res ->
          match res with
          | `Timeout -> any_timeout := true
          | `Ok (sp_obj, alloc, w, pivots, sp_degraded, basis) ->
            incr lp_solves;
            lp_pivots := !lp_pivots + pivots;
            if warm_start then sub_bases.(i) <- Some basis;
            if sp_obj < !ub then begin
              ub := sp_obj;
              best := Some (sp_obj, alloc, Array.map Array.copy cands.(i))
            end;
            if sp_degraded then
              (* A degraded subproblem yields unreliable duals: no cut. *)
              degraded := true
            else begin
              (* Optimality cut: Φ ≥ sp_obj + Σ w (δ − δ̂). *)
              let base = ref sp_obj in
              Array.iteri
                (fun f row ->
                  Array.iteri
                    (fun ci wv -> if cands.(i).(f).(ci) then base := !base -. wv)
                    row)
                w;
              cuts := { base = !base; coefs = w } :: !cuts;
              any_cut := true
            end)
        results;
      if !any_timeout || not !any_cut then begin
        (* Budget exhausted (or only unreliable duals): keep the
           incumbent and stop. *)
        degraded := true;
        stop := true
      end
      else begin
        (* Step 2: master problem. *)
        match
          benders_master ?deadline ?warm:!master_basis ~warm_start ~st p classes !cuts
        with
        | `Exact (mp_obj, next_delta, nodes, mb) ->
          mip_nodes := !mip_nodes + nodes;
          if warm_start then master_basis := mb;
          if mp_obj > !lb then lb := mp_obj;
          delta := next_delta
        | `Truncated (next_delta, nodes, mb) ->
          (* Usable δ but no valid lower bound: take one more subproblem
             pass if budget allows, flagged degraded. *)
          mip_nodes := !mip_nodes + nodes;
          if warm_start then master_basis := mb;
          degraded := true;
          delta := next_delta
        | `Gave_up ->
          degraded := true;
          stop := true
      end
    end
  done;
  match !best with
  | None -> raise Simplex.Timeout
  | Some (phi, alloc, delta) ->
    {
      phi;
      alloc;
      delta;
      classes;
      expected_served = nan;
      degraded = !degraded;
      stats = { lp_solves = !lp_solves; lp_pivots = !lp_pivots; mip_nodes = !mip_nodes };
      basis = sub_bases.(0);
      solver = st;
    }

module Internal = struct
  let fixed_delta_model p classes delta =
    fst (fixed_delta_model p ~caps:(capacity_terms p.ts) classes delta)

  let second_phase_model p classes delta phi_star =
    fst (second_phase_model p ~caps:(capacity_terms p.ts) classes delta phi_star)
end
