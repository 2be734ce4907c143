type solution = {
  objective : float;
  values : float array;
  nodes : int;
  pivots : int;
  basis : Simplex.basis option;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Node_limit of solution option

let int_eps = 1e-6

(* A node is a set of fixings for binary variables: (var, value) list. *)
let solve ?(max_nodes = 100_000) ?(gap = 1e-6) ?(max_iters = 200_000) ?deadline ?warm
    ?(warm_start = true) ?stats model =
  let binaries = Array.of_list (Lp.binaries model) in
  let dir, _ = Lp.Internal.objective model in
  let better a b =
    match dir with Lp.Minimize -> a < b -. gap | Lp.Maximize -> a > b +. gap
  in
  (* Fixings are applied as equality constraints appended to a copy of the
     model.  The modeling layer is append-only, so we rebuild by adding
     rows to a scratch clone for each node; to avoid deep copies we add
     the fixing rows to the original model and rely on the solver reading
     a snapshot.  Simplest correct approach: rebuild a fresh model per
     node.  Node counts in our workloads are small (tens), so the rebuild
     cost is acceptable and keeps the search stateless. *)
  let lbs = Lp.Internal.lower model and ubs = Lp.Internal.upper model in
  let rows = Lp.Internal.rows model in
  let _, obj_coefs = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let build_node fixings =
    let m = Lp.create () in
    let vars =
      Array.init nv (fun j ->
          let lb, ub =
            match List.assoc_opt j fixings with
            | Some v -> (v, v)
            | None -> (lbs.(j), ubs.(j))
          in
          (* Infeasible fixing combination cannot arise: we only fix within
             [0,1] bounds of binary vars. *)
          Lp.add_var m ~lb ~ub "")
    in
    for i = 0 to rows.Lp.Internal.nrows - 1 do
      let terms = ref [] in
      for k = rows.Lp.Internal.start.(i + 1) - 1 downto rows.Lp.Internal.start.(i) do
        terms := (rows.Lp.Internal.coef.(k), vars.(rows.Lp.Internal.var.(k))) :: !terms
      done;
      ignore
        (Lp.add_constraint m !terms rows.Lp.Internal.sense.(i) rows.Lp.Internal.rhs.(i))
    done;
    let obj_terms = ref [] in
    Array.iteri
      (fun j c -> if c <> 0.0 then obj_terms := (c, vars.(j)) :: !obj_terms)
      obj_coefs;
    Lp.set_objective m dir !obj_terms;
    m
  in
  let incumbent = ref None in
  let incumbent_basis = ref None in
  let nodes = ref 0 in
  let pivots = ref 0 in
  let any_unbounded = ref false in
  (* Set when the search is cut short: node budget, deadline, an LP that
     timed out before feasibility, or an LP returned degraded (its
     objective is no longer a valid pruning bound).  The incumbent found
     so far is still exact-feasible and is returned as [Node_limit]. *)
  let stopped = ref false in
  (* Node LPs all share the parent model's shape (fixings only tighten
     binary bounds, never add or remove rows), so a parent's final basis
     exact-installs into its children and usually skips Phase 1. *)
  let rec branch ?warm fixings =
    if !stopped then ()
    else begin
      incr nodes;
      if !nodes > max_nodes || Prete_util.Clock.expired deadline then stopped := true
      else
        match Simplex.solve ~max_iters ?deadline ?warm (build_node fixings) with
        | exception Simplex.Timeout -> stopped := true
        | Simplex.Optimal sol when sol.Simplex.degraded ->
          pivots := !pivots + sol.Simplex.iterations;
          Option.iter (fun st -> Solver_stats.record st sol) stats;
          stopped := true
        | Simplex.Infeasible -> ()
        | Simplex.Unbounded -> any_unbounded := true
        | Simplex.Optimal sol ->
      pivots := !pivots + sol.Simplex.iterations;
      Option.iter (fun st -> Solver_stats.record st sol) stats;
      let dominated =
        match !incumbent with
        | None -> false
        | Some (best, _) -> not (better sol.Simplex.objective best)
      in
      if not dominated then begin
        (* Most fractional binary. *)
        let frac_var = ref (-1) and frac_dist = ref int_eps in
        Array.iter
          (fun v ->
            if not (List.mem_assoc (v : Lp.var :> int) fixings) then begin
              let x = sol.Simplex.values.((v :> int)) in
              let d = Float.abs (x -. Float.round x) in
              if d > !frac_dist then begin
                frac_dist := d;
                frac_var := (v :> int)
              end
            end)
          binaries;
        if !frac_var = -1 then begin
          (* Integral: also snap near-integral binaries when storing. *)
          let values =
            Array.mapi
              (fun j x ->
                if Array.exists (fun v -> (v : Lp.var :> int) = j) binaries then
                  Float.round x
                else x)
              sol.Simplex.values
          in
          (match !incumbent with
          | Some (best, _) when not (better sol.Simplex.objective best) -> ()
          | _ ->
            incumbent := Some (sol.Simplex.objective, values);
            incumbent_basis := Some sol.Simplex.basis)
        end
        else begin
          (* Explore the rounded side first: good incumbents early. *)
          let v = !frac_var in
          let x = sol.Simplex.values.(v) in
          let first, second = if x >= 0.5 then (1.0, 0.0) else (0.0, 1.0) in
          let warm = if warm_start then Some sol.Simplex.basis else None in
          branch ?warm ((v, first) :: fixings);
          branch ?warm ((v, second) :: fixings)
        end
      end
    end
  in
  branch ?warm [];
  let incumbent_solution () =
    Option.map
      (fun (objective, values) ->
        { objective; values; nodes = !nodes; pivots = !pivots; basis = !incumbent_basis })
      !incumbent
  in
  if !stopped then Node_limit (incumbent_solution ())
  else
    match incumbent_solution () with
    | Some sol -> Optimal sol
    | None -> if !any_unbounded then Unbounded else Infeasible

let value sol (v : Lp.var) = sol.values.((v :> int))
