(* Differential testing of the three TE solving strategies.

   On randomly generated small instances the heuristic ({!Te.solve}), the
   exact MIP ({!Te.solve_mip}) and Benders decomposition
   ({!Te.solve_benders}) must agree on the optimal loss Φ, every returned
   allocation must pass the independent {!Prete_lp.Simplex.feasible}
   check against {!Resilience.capacity_model}, and warm-started re-solves
   must reproduce the cold objective bit-for-bit (within eps).

   Two generator regimes:
   - the Fig. 2 triangle, where the δ-rounding heuristic is provably
     vertex-exact: all three strategies must agree to 1e-6;
   - the square-with-diagonal, where the heuristic's rounding can land on
     a suboptimal coverage set: Benders and the MIP must still agree (both
     are exact), and the heuristic Φ is validated as an upper bound. *)

open Prete
open Prete_net

let triangle () =
  let fibers = [| (0, 1, 100.0); (0, 2, 100.0); (1, 2, 100.0) |] in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (0, 2)); (2, (1, 2)) ])
  in
  Topology.make ~name:"fig2" ~node_names:[| "s1"; "s2"; "s3" |] ~fibers ~links

let square () =
  let fibers =
    [| (0, 1, 100.0); (1, 2, 100.0); (2, 3, 100.0); (3, 0, 100.0); (0, 2, 500.0) |]
  in
  let links =
    Array.of_list
      (List.concat_map
         (fun (f, (a, b)) -> [ (a, b, 10.0, [ f ]); (b, a, 10.0, [ f ]) ])
         [ (0, (0, 1)); (1, (1, 2)); (2, (2, 3)); (3, (3, 0)); (4, (0, 2)) ])
  in
  Topology.make ~name:"square" ~node_names:[| "n0"; "n1"; "n2"; "n3" |] ~fibers ~links

(* Random instance on a fixed topology shape: demands in [5, 20), cut
   probabilities in [0.005, 0.05), beta drawn from the levels the paper
   evaluates. *)
let random_problem ~square:sq rng =
  let topo = if sq then square () else triangle () in
  let pairs = if sq then [ (0, 2); (1, 3) ] else [ (0, 1); (0, 2) ] in
  let ts = Tunnels.build ~per_flow:2 topo pairs in
  let demands = Array.init 2 (fun _ -> Prete_util.Rng.uniform rng 5.0 20.0) in
  let probs =
    Array.init (Topology.num_fibers topo)
      (fun _ -> Prete_util.Rng.uniform rng 0.005 0.05)
  in
  let beta = [| 0.9; 0.95; 0.99 |].(Prete_util.Rng.int rng 3) in
  (ts, Te.make_problem ~ts ~demands ~probs ~beta ())

(* The capacity polytope built independently of the solvers: the
   allocation the solver returns must satisfy it (and its variable bounds)
   under the generic simplex feasibility checker. *)
let alloc_feasible ts (sol : Te.solution) =
  Prete_lp.Simplex.feasible (Resilience.capacity_model ts) sol.Te.alloc

(* Coverage constraint (Eqn. 5): the classes a solution marks covered
   must carry at least beta probability mass for every flow. *)
let coverage_ok (p : Te.problem) (sol : Te.solution) =
  let ok = ref true in
  Array.iteri
    (fun f cls ->
      let covered = ref 0.0 in
      Array.iteri
        (fun ci (c : Scenario.Classes.cls) ->
          if sol.Te.delta.(f).(ci) then
            covered := !covered +. c.Scenario.Classes.prob)
        cls;
      if !covered < p.Te.beta -. 1e-9 then ok := false)
    sol.Te.classes;
  !ok

let prop_triangle_three_way =
  QCheck.Test.make ~name:"solvers agree on random triangle instances"
    ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 9000) in
      let ts, p = random_problem ~square:false rng in
      let h = Te.solve ~second_phase:false p in
      let e = Te.solve_mip p in
      let b = Te.solve_benders p in
      abs_float (h.Te.phi -. e.Te.phi) <= 1e-6
      && abs_float (b.Te.phi -. e.Te.phi) <= 1e-6
      && alloc_feasible ts h && alloc_feasible ts e && alloc_feasible ts b
      && coverage_ok p h && coverage_ok p e && coverage_ok p b)

let prop_square_exact_pair =
  QCheck.Test.make ~name:"benders matches mip on random square instances"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 17_000) in
      let ts, p = random_problem ~square:true rng in
      let h = Te.solve ~second_phase:false p in
      let e = Te.solve_mip p in
      let b = Te.solve_benders p in
      (* Both exact strategies agree; the rounding heuristic is a valid
         upper bound (exactness on this shape is not guaranteed). *)
      abs_float (b.Te.phi -. e.Te.phi) <= 1e-6
      && h.Te.phi >= e.Te.phi -. 1e-6
      && alloc_feasible ts h && alloc_feasible ts e && alloc_feasible ts b
      && coverage_ok p h && coverage_ok p e && coverage_ok p b)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm re-solve reproduces the cold objective"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 33_000) in
      let sq = Prete_util.Rng.int rng 2 = 0 in
      let ts, p = random_problem ~square:sq rng in
      let cold = Te.solve ~second_phase:false p in
      match cold.Te.basis with
      | None -> false (* a solved instance must surface its final basis *)
      | Some basis ->
        let warm = Te.solve ~second_phase:false ~warm:basis p in
        let cold_mip = Te.solve_mip ~warm_start:false p in
        let warm_mip = Te.solve_mip ~warm:basis p in
        abs_float (warm.Te.phi -. cold.Te.phi) <= 1e-9
        && abs_float (warm_mip.Te.phi -. cold_mip.Te.phi) <= 1e-6
        && alloc_feasible ts warm && alloc_feasible ts warm_mip)

let prop_benders_warm_chain =
  QCheck.Test.make
    ~name:"benders warm-chained across perturbed demands stays exact"
    ~count:30
    QCheck.(small_int)
    (fun seed ->
      (* The production pattern: consecutive epochs solve structurally
         identical problems with drifting demands, threading the basis.
         The chained Benders run must match a from-scratch MIP at every
         step. *)
      let rng = Prete_util.Rng.create (seed + 71_000) in
      let ts, p0 = random_problem ~square:false rng in
      let carry = ref None in
      let ok = ref true in
      for _ = 1 to 3 do
        let demands =
          Array.map
            (fun d -> Float.max 1.0 (d +. Prete_util.Rng.uniform rng (-2.0) 2.0))
            p0.Te.demands
        in
        let p = { p0 with Te.demands = demands } in
        let b = Te.solve_benders ?warm:!carry p in
        let e = Te.solve_mip ~warm_start:false p in
        if abs_float (b.Te.phi -. e.Te.phi) > 1e-6 || not (alloc_feasible ts b)
        then ok := false;
        carry := b.Te.basis
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* LU vs dense engine differential suite (raw LPs)                      *)
(* ------------------------------------------------------------------ *)

module Lp = Prete_lp.Lp
module Simplex = Prete_lp.Simplex
module Solver_stats = Prete_lp.Solver_stats
module Presolve = Prete_lp.Presolve
module Dense = Prete_lp_oracle.Dense
module Kkt = Prete_lp_oracle.Kkt

(* Random bounded LP, feasible by construction: continuous-uniform
   coefficients (ties and degenerate optima have measure zero, so the
   optimal basis — and with it the dual vector — is generically unique),
   rhs placed around a known point x0 >= 0.  [slack] controls the
   inequality slacks, so two calls with the same [rng] state and
   different slacks differ in rhs only. *)
let random_lp_coefs rng =
  let nv = 2 + Prete_util.Rng.int rng 6 in
  let nc = 2 + Prete_util.Rng.int rng 8 in
  let x0 = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.0 5.0) in
  (* At most nv-1 equality rows: every Eq row passes through x0 by
     construction, so nv or more of them are linearly dependent and the
     optimal duals stop being unique — the engines could then disagree on
     the dual vector while both being right. *)
  let eq_left = ref (nv - 1) in
  let rows =
    Array.init nc (fun _ ->
        let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-3.0) 3.0) in
        let sense = Prete_util.Rng.int rng 3 in
        let sense =
          if sense = 2 && !eq_left <= 0 then Prete_util.Rng.int rng 2 else sense
        in
        if sense = 2 then decr eq_left;
        (coefs, sense, Prete_util.Rng.uniform rng 0.5 5.0))
  in
  let dir = if Prete_util.Rng.int rng 2 = 0 then Lp.Minimize else Lp.Maximize in
  let obj = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-2.0) 2.0) in
  (nv, x0, rows, dir, obj)

(* [~ge_ray:true] adds a variable z, unbounded above, with an improving
   cost and coefficient +1 in every Ge row plus in one added row
   [Σ x + z >= 1]: raising z only loosens rows, so the LP is unbounded,
   and as z sits in rows presolve keeps it, leaving the proof to the
   engine's Phase 2 ratio test. *)
let build_lp ?(slack_scale = 1.0) ?(ge_ray = false) (nv, x0, rows, dir, obj) =
  let m = Lp.create () in
  let xs = Array.init nv (fun j -> Lp.add_var m ~ub:50.0 (Printf.sprintf "x%d" j)) in
  let ray = if ge_ray then [ (1.0, Lp.add_var m "z") ] else [] in
  Array.iter
    (fun (coefs, sense, slack) ->
      let lhs0 = ref 0.0 in
      Array.iteri (fun j c -> lhs0 := !lhs0 +. (c *. x0.(j))) coefs;
      let terms = Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) coefs) in
      ignore
        (match sense with
        | 0 -> Lp.add_constraint m terms Lp.Le (!lhs0 +. (slack_scale *. slack))
        | 1 -> Lp.add_constraint m (terms @ ray) Lp.Ge (!lhs0 -. (slack_scale *. slack))
        | _ -> Lp.add_constraint m terms Lp.Eq !lhs0))
    rows;
  if ge_ray then
    ignore
      (Lp.add_constraint m
         (Array.to_list (Array.map (fun x -> (1.0, x)) xs) @ ray)
         Lp.Ge 1.0);
  let improving = if dir = Lp.Maximize then 1.0 else -1.0 in
  Lp.set_objective m dir
    (Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) obj)
    @ List.map (fun (_, z) -> (improving, z)) ray);
  m

(* Append a variable z, unbounded above and in no row, whose cost
   improves the objective: an empty improving column, which presolve
   reports as [Presolve.Unbounded]. *)
let add_empty_ray m =
  let z = Lp.add_var m "z" in
  let dirn, obj = Lp.Internal.objective m in
  let zc = if dirn = Lp.Maximize then 1.0 else -1.0 in
  let terms = ref [ (zc, z) ] in
  Array.iteri
    (fun j c -> if c <> 0.0 then terms := (c, Lp.var_of_index m j) :: !terms)
    obj;
  Lp.set_objective m dirn !terms

(* A random LP made infeasible by a contradictory pair on a fresh random
   direction — a.x >= r + 1 and a.x <= r - 1 can never both hold — and,
   with [~ray:true], an empty improving column beside it. *)
let infeasible_lp ~ray seed =
  let rng = Prete_util.Rng.create (seed + 53_000) in
  let ((nv, _, _, _, _) as spec) = random_lp_coefs rng in
  let m = build_lp spec in
  let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-3.0) 3.0) in
  let terms =
    Array.to_list (Array.mapi (fun j c -> (c, Lp.var_of_index m j)) coefs)
  in
  let r = Prete_util.Rng.uniform rng (-5.0) 5.0 in
  ignore (Lp.add_constraint m terms Lp.Ge (r +. 1.0));
  ignore (Lp.add_constraint m terms Lp.Le (r -. 1.0));
  if ray then add_empty_ray m;
  m

(* A random feasible LP with an improving ray of either kind: an empty
   column ([~ge_ray:false], proved by presolve plus the feasibility
   check) or a column in Ge rows ([~ge_ray:true], proved by Phase 2). *)
let unbounded_lp ~ge_ray seed =
  let rng = Prete_util.Rng.create (seed + 67_000) in
  let spec = random_lp_coefs rng in
  if ge_ray then build_lp ~ge_ray spec
  else begin
    let m = build_lp spec in
    add_empty_ray m;
    m
  end

let prop_engines_agree_feasible =
  QCheck.Test.make ~name:"dense and lu agree on random feasible LPs"
    ~count:150
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 41_000) in
      let spec = random_lp_coefs rng in
      let m = build_lp spec in
      match (Dense.solve m, Simplex.solve m) with
      | Dense.Optimal d, Simplex.Optimal l ->
        abs_float (d.Dense.objective -. l.Simplex.objective) <= 1e-6
        && Simplex.feasible m l.Simplex.values
        && Kkt.certify m l = Ok ()
        && (let ok = ref true in
            for i = 0 to Lp.num_constraints m - 1 do
              if abs_float (d.Dense.duals.(i) -. Simplex.dual l i) > 1e-6 then
                ok := false
            done;
            !ok)
      | _ -> false)

(* Odd seeds add the empty improving column: presolve then reports
   [Unbounded], and only the LU engine's feasibility check can tell that
   the model is infeasible instead. *)
let prop_engines_agree_infeasible =
  QCheck.Test.make ~name:"dense and lu agree on infeasible LPs" ~count:160
    QCheck.(small_int)
    (fun seed ->
      let m = infeasible_lp ~ray:(seed land 1 = 1) seed in
      (match Dense.solve m with Dense.Infeasible -> true | _ -> false)
      &&
      match Simplex.solve m with
      | Simplex.Infeasible -> true
      | _ -> false)

(* Even seeds: a ray the constraints never see.  Odd seeds: a ray through
   Ge rows that only loosen as it grows. *)
let prop_engines_agree_unbounded =
  QCheck.Test.make ~name:"dense and lu agree on unbounded LPs" ~count:160
    QCheck.(small_int)
    (fun seed ->
      let m = unbounded_lp ~ge_ray:(seed land 1 = 1) seed in
      (match Dense.solve m with Dense.Unbounded -> true | _ -> false)
      &&
      match Simplex.solve m with
      | Simplex.Unbounded -> true
      | _ -> false)

(* The ray families must reach the paths they are there for: the empty
   column presolve's [Unbounded] outcome (feasible or infeasible rest),
   the Ge-row ray a reduced model. *)
let test_ray_families_reach_their_paths () =
  let count f = List.length (List.filter f (List.init 100 Fun.id)) in
  let presolve m = Presolve.reduce m in
  let is_unbounded m = presolve m = Presolve.Unbounded in
  let is_reduced m =
    match presolve m with Presolve.Reduced _ -> true | _ -> false
  in
  Alcotest.(check int) "infeasible rest + empty column: presolve unbounded" 100
    (count (fun seed -> is_unbounded (infeasible_lp ~ray:true seed)));
  Alcotest.(check int) "feasible rest + empty column: presolve unbounded" 100
    (count (fun seed -> is_unbounded (unbounded_lp ~ge_ray:false seed)));
  Alcotest.(check int) "Ge-row ray: presolve keeps the model" 100
    (count (fun seed -> is_reduced (unbounded_lp ~ge_ray:true seed)))

(* ------------------------------------------------------------------ *)
(* LU-engine suite: presolve + bounded variables + sparse LU basis
   against the dense oracle.                                            *)
(* ------------------------------------------------------------------ *)

let prop_lu_bound_respect =
  QCheck.Test.make
    ~name:"lu solutions respect 0 <= x <= u without explicit bound rows"
    ~count:100
    QCheck.(small_int)
    (fun seed ->
      (* Tight finite upper bounds that actually bind at the optimum:
         the bounded ratio test must stop at them (the dense engine
         sees the same bounds as explicit rows). *)
      let rng = Prete_util.Rng.create (seed + 113_000) in
      let nv = 2 + Prete_util.Rng.int rng 5 in
      let ub = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.5 4.0) in
      let m = Lp.create () in
      let xs =
        Array.init nv (fun j ->
            Lp.add_var m ~ub:ub.(j) (Printf.sprintf "x%d" j))
      in
      let budget = Prete_util.Rng.uniform rng 1.0 6.0 in
      ignore
        (Lp.add_constraint m
           (Array.to_list (Array.map (fun x -> (1.0, x)) xs))
           Lp.Le budget);
      Lp.set_objective m Lp.Maximize
        (Array.to_list
           (Array.map (fun x -> (Prete_util.Rng.uniform rng 0.5 3.0, x)) xs));
      match (Simplex.solve m, Dense.solve m) with
      | Simplex.Optimal l, Dense.Optimal d ->
        abs_float (l.Simplex.objective -. d.Dense.objective) <= 1e-6
        && Array.for_all2
             (fun v u -> v >= -1e-9 && v <= u +. 1e-9)
             l.Simplex.values ub
      | _ -> false)

let test_lu_bound_flips () =
  (* Loose budget row, binding upper bounds: every entering column
     traverses its own range, so the optimum is reached purely by bound
     flips — witnessed in the telemetry. *)
  let m = Lp.create () in
  let n = 8 in
  let xs =
    Array.init n (fun j ->
        Lp.add_var m ~ub:(1.0 +. float_of_int j) (Printf.sprintf "x%d" j))
  in
  ignore
    (Lp.add_constraint m
       (Array.to_list (Array.map (fun x -> (1.0, x)) xs))
       Lp.Le 1000.0);
  Lp.set_objective m Lp.Maximize
    (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  match Simplex.solve m with
  | Simplex.Optimal s ->
    Alcotest.(check (float 1e-9)) "all at upper" 36.0 s.Simplex.objective;
    Array.iteri
      (fun j v ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "x%d at its bound" j)
          (1.0 +. float_of_int j) v)
      s.Simplex.values;
    Alcotest.(check bool) "bound flips recorded" true (s.Simplex.bound_flips >= n)
  | _ -> Alcotest.fail "bounded instance must be optimal"

let prop_lu_presolve_roundtrip =
  QCheck.Test.make
    ~name:"presolve+postsolve recovers the original-space optimum"
    ~count:100
    QCheck.(small_int)
    (fun seed ->
      (* Salt the instance with redundancy presolve must chew through:
         a scaled duplicate row, a singleton bound row and an empty
         column.  Both engines see the same salted model; the LU
         engine's answer must land back in the original space. *)
      let rng = Prete_util.Rng.create (seed + 127_000) in
      let spec = random_lp_coefs rng in
      let m = build_lp spec in
      let nv, _, rows, _, _ = spec in
      let (coefs0, sense0, _) = rows.(0) in
      let dup_sense =
        match sense0 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
      in
      let rhs0 = (Lp.Internal.rows m).Lp.Internal.rhs.(0) in
      ignore
        (Lp.add_constraint m
           (Array.to_list
              (Array.mapi (fun j c -> (1.7 *. c, Lp.var_of_index m j)) coefs0))
           dup_sense (1.7 *. rhs0));
      ignore
        (Lp.add_constraint m [ (3.0, Lp.var_of_index m 0) ] Lp.Le (3.0 *. 49.9));
      ignore (Lp.add_var m "pad");
      ignore nv;
      match (Simplex.solve m, Dense.solve m) with
      | Simplex.Optimal l, Dense.Optimal d ->
        abs_float (l.Simplex.objective -. d.Dense.objective) <= 1e-6
        && Simplex.feasible m l.Simplex.values
        && Array.length l.Simplex.values = Lp.num_vars m
        && Array.length l.Simplex.duals = Lp.num_constraints m
        && l.Simplex.presolve_rows >= 1
        && l.Simplex.presolve_cols >= 1
      | _ -> false)

let prop_lu_warm_equals_cold =
  QCheck.Test.make
    ~name:"lu warm rhs-only re-solve reproduces the cold objective"
    ~count:80
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 139_000) in
      let spec = random_lp_coefs rng in
      let base = build_lp spec in
      let perturbed = build_lp ~slack_scale:0.7 spec in
      match Simplex.solve base with
      | Simplex.Optimal cold ->
        let cold_p =
          match Simplex.solve perturbed with
          | Simplex.Optimal s -> Some s.Simplex.objective
          | _ -> None
        in
        let warm_p =
          match
            Simplex.solve ~warm:cold.Simplex.basis perturbed
          with
          | Simplex.Optimal s ->
            (* Presolve keeps the reduced structure across rhs-only
               drift, so the basis reinstalls exactly: no Phase 1, and
               the reinstall counts as an LU factorization. *)
            if
              (not s.Simplex.warm_used)
              || (not s.Simplex.phase1_skipped)
              || s.Simplex.refactorizations < 1
            then None
            else Some s.Simplex.objective
          | _ -> None
        in
        (match (cold_p, warm_p) with
        | Some c, Some w -> abs_float (c -. w) <= 1e-9
        | _ -> true (* tightened capacities may make the instance infeasible *))
      | _ -> false)

(* Reference model for duplicate-row presolve: [Presolve.reduce]'s
   reduction fixpoint as it was when duplicate rows were keyed by a
   [Printf "%h"] string signature per row.  The structural key that
   replaced it must find exactly the same groups, so the whole reduction
   — actions, surviving rows and columns — must agree. *)
let ref_reduce model =
  let feas = 1e-7 in
  let lb = Lp.Internal.lower model and ub = Lp.Internal.upper model in
  let rows = Lp.Internal.rows model in
  let dir, obj = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = rows.Lp.Internal.nrows in
  Array.iter
    (fun lb ->
      if lb = neg_infinity then
        invalid_arg "Presolve.reduce: free variables (lb = -inf) unsupported")
    lb;
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost_min = Array.map (fun c -> sign *. c) obj in
  let row_terms =
    Array.init nc (fun i ->
        List.init
          (rows.Lp.Internal.start.(i + 1) - rows.Lp.Internal.start.(i))
          (fun k ->
            let p = rows.Lp.Internal.start.(i) + k in
            (rows.Lp.Internal.var.(p), rows.Lp.Internal.coef.(p))))
  in
  let row_sense = Array.sub rows.Lp.Internal.sense 0 nc in
  let rhs_eff = Array.sub rows.Lp.Internal.rhs 0 nc in
  let colview = Array.make nv [] in
  Array.iteri
    (fun i terms ->
      List.iter (fun (j, a) -> colview.(j) <- (i, a) :: colview.(j)) terms)
    row_terms;
  Array.iteri (fun j l -> colview.(j) <- List.rev l) colview;
  let row_alive = Array.make nc true and col_alive = Array.make nv true in
  let rowlen = Array.map List.length row_terms in
  let fixed = Array.make nv 0.0 in
  let actions = ref [] in
  let failure = ref None in
  let fail o = if !failure = None then failure := Some o in
  let open Presolve in
  let fix_col j v =
    col_alive.(j) <- false;
    fixed.(j) <- v;
    List.iter
      (fun (i, a) ->
        rhs_eff.(i) <- rhs_eff.(i) -. (a *. v);
        if row_alive.(i) then rowlen.(i) <- rowlen.(i) - 1)
      colview.(j);
    if v < lb.(j) -. (feas *. (1.0 +. Float.abs v))
       || v > ub.(j) +. (feas *. (1.0 +. Float.abs v))
    then fail Infeasible
  in
  let alive_terms i =
    List.filter (fun (j, _) -> col_alive.(j)) row_terms.(i)
  in
  (* ---- Row scan: empty and singleton rows ---- *)
  let scan_rows () =
    let changed = ref false in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) then
        if rowlen.(i) = 0 then begin
          let r = rhs_eff.(i) in
          let tol = feas *. (1.0 +. Float.abs r) in
          (match row_sense.(i) with
          | Lp.Le -> if r < -.tol then fail Infeasible
          | Lp.Ge -> if r > tol then fail Infeasible
          | Lp.Eq -> if Float.abs r > tol then fail Infeasible);
          row_alive.(i) <- false;
          actions := Row_empty i :: !actions;
          changed := true
        end
        else if rowlen.(i) = 1 then begin
          match alive_terms i with
          | [ (j, a) ] ->
            let v = rhs_eff.(i) /. a in
            (match row_sense.(i) with
            | Lp.Eq ->
              if
                v < lb.(j) -. (feas *. (1.0 +. Float.abs v))
                || v > ub.(j) +. (feas *. (1.0 +. Float.abs v))
              then fail Infeasible
              else begin
                row_alive.(i) <- false;
                actions := Row_singleton_eq { row = i; col = j; coef = a } :: !actions;
                fix_col j v
              end
            | (Lp.Le | Lp.Ge) as s ->
              (* a·x ≤ r  tightens ub when a > 0, lb when a < 0 (and the
                 mirror for Ge). *)
              let tightens_ub = (s = Lp.Le) = (a > 0.0) in
              row_alive.(i) <- false;
              actions :=
                Row_singleton_ineq
                  { row = i; col = j; coef = a; le = s = Lp.Le; bound = v }
                :: !actions;
              if tightens_ub then begin
                if v < ub.(j) then ub.(j) <- v
              end
              else if v > lb.(j) then lb.(j) <- v;
              if lb.(j) > ub.(j) +. (1e-9 *. (1.0 +. Float.abs ub.(j))) then
                fail Infeasible);
            changed := true
          | _ -> ()
        end
    done;
    !changed
  in
  (* ---- Duplicate rows: equal patterns up to a positive scale ---- *)
  let scan_dups () =
    let changed = ref false in
    let tbl = Hashtbl.create 64 in
    let sigbuf = Buffer.create 128 in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) && rowlen.(i) >= 2 then begin
        let terms = alive_terms i in
        let terms = List.sort (fun (a, _) (b, _) -> compare a b) terms in
        match terms with
        | (_, c0) :: _ ->
          Buffer.clear sigbuf;
          Buffer.add_string sigbuf
            (match row_sense.(i) with Lp.Le -> "L" | Lp.Ge -> "G" | Lp.Eq -> "E");
          Buffer.add_string sigbuf (if c0 > 0.0 then "+" else "-");
          List.iter
            (fun (j, a) ->
              Buffer.add_string sigbuf (Printf.sprintf "|%d:%h" j (a /. c0)))
            terms;
          let key = Buffer.contents sigbuf in
          (match Hashtbl.find_opt tbl key with
          | None -> Hashtbl.add tbl key (i, c0, ref [ (i, c0) ])
          | Some (kept, ck, members) ->
            members := (i, c0) :: !members;
            (* Fold row i into [kept]: keep the tighter scaled rhs. *)
            let tk = rhs_eff.(kept) /. ck and ti = rhs_eff.(i) /. c0 in
            let ge_like = (row_sense.(i) = Lp.Ge) = (c0 > 0.0) in
            (match row_sense.(i) with
            | Lp.Eq ->
              if Float.abs (tk -. ti) > feas *. (1.0 +. Float.abs tk) then
                fail Infeasible
            | Lp.Le | Lp.Ge ->
              let tighter = if ge_like then ti > tk else ti < tk in
              if tighter then rhs_eff.(kept) <- ti *. ck);
            row_alive.(i) <- false;
            changed := true)
        | [] -> ()
      end
    done;
    (* Record one action per multi-member group, deterministically in
       kept-row order. *)
    let groups = ref [] in
    Hashtbl.iter
      (fun _ (kept, _, members) ->
        if List.length !members > 1 then groups := (kept, !members) :: !groups)
      tbl;
    List.iter
      (fun (kept, members) ->
        let members = List.sort (fun (a, _) (b, _) -> compare a b) members in
        let ge_like =
          match members with
          | (r0, c0) :: _ -> (row_sense.(r0) = Lp.Ge) = (c0 > 0.0)
          | [] -> false
        in
        actions :=
          Dup_group { kept; members; ge_like; eq = row_sense.(kept) = Lp.Eq }
          :: !actions)
      (List.sort compare !groups);
    !changed
  in
  (* ---- Column scan: empty and dominated columns ---- *)
  let scan_cols () =
    let changed = ref false in
    for j = 0 to nv - 1 do
      if !failure = None && col_alive.(j) then begin
        let occ = List.filter (fun (i, _) -> row_alive.(i)) colview.(j) in
        if occ = [] then begin
          let v =
            if cost_min.(j) < 0.0 then ub.(j)
            else lb.(j)
          in
          if v = infinity then fail Unbounded
          else begin
            actions := Col_fixed { col = j; value = v } :: !actions;
            fix_col j v;
            changed := true
          end
        end
        else if cost_min.(j) >= 0.0 then begin
          let dominated =
            List.for_all
              (fun (i, a) ->
                match row_sense.(i) with
                | Lp.Le -> a >= 0.0
                | Lp.Ge -> a <= 0.0
                | Lp.Eq -> false)
              occ
          in
          if dominated then begin
            actions := Col_fixed { col = j; value = lb.(j) } :: !actions;
            fix_col j lb.(j);
            changed := true
          end
        end
      end
    done;
    !changed
  in
  let rec fixpoint pass =
    if !failure = None && pass < 10 then begin
      let c1 = scan_rows () in
      let c2 = if !failure = None then scan_dups () else false in
      let c3 = if !failure = None then scan_cols () else false in
      if c1 || c2 || c3 then fixpoint (pass + 1)
    end
  in
  fixpoint 0;
  match !failure with
  | Some Presolve.Infeasible -> `Infeasible
  | Some _ -> `Unbounded
  | None ->
    let alive a = List.filter (fun j -> a.(j)) (List.init (Array.length a) Fun.id) in
    `Reduced (!actions, Array.of_list (alive row_alive), Array.of_list (alive col_alive))

(* Rows that are positive and negative scalings of a few base rows, under
   mixed senses, through a common feasible point x0 with slacks from a
   small set (so duplicate groups both tighten and tie); a few singleton
   rows join in. *)
let random_dup_model rng =
  let open Prete_util in
  let nv = 3 + Rng.int rng 5 in
  let m = Lp.create () in
  let x0 = Array.init nv (fun _ -> Rng.uniform rng 0.0 2.0) in
  let xs =
    Array.init nv (fun j ->
        let ub = if Rng.int rng 3 = 0 then infinity else Rng.uniform rng 2.0 9.0 in
        Lp.add_var m ~ub (Printf.sprintf "x%d" j))
  in
  let coef_pool = [| 1.0; -1.0; 2.0; 0.5; -2.5; 1.7; 3.0; 0.1 |] in
  let nbase = 1 + Rng.int rng 3 in
  let bases =
    Array.init nbase (fun _ ->
        List.filter_map
          (fun j ->
            if Rng.int rng 3 > 0 then
              Some (coef_pool.(Rng.int rng (Array.length coef_pool)), j)
            else None)
          (List.init nv Fun.id))
  in
  let scales = [| 1.0; -1.0; 2.0; -2.0; 0.5; -0.5; 1.7; -3.0 |] in
  let row terms sense =
    let lhs0 = List.fold_left (fun acc (c, j) -> acc +. (c *. x0.(j))) 0.0 terms in
    let slack = [| 0.0; 1.0; 2.5 |].(Rng.int rng 3) in
    let rhs =
      match sense with Lp.Le -> lhs0 +. slack | Lp.Ge -> lhs0 -. slack | Lp.Eq -> lhs0
    in
    ignore (Lp.add_constraint m (List.map (fun (c, j) -> (c, xs.(j))) terms) sense rhs)
  in
  let nrows = 6 + Rng.int rng 8 in
  for _ = 1 to nrows do
    let sense = [| Lp.Le; Lp.Ge; Lp.Le; Lp.Ge; Lp.Eq |].(Rng.int rng 5) in
    if Rng.int rng 6 = 0 then row [ (scales.(Rng.int rng 8), Rng.int rng nv) ] sense
    else begin
      let k = scales.(Rng.int rng (Array.length scales)) in
      row (List.map (fun (c, j) -> (k *. c, j)) bases.(Rng.int rng nbase)) sense
    end
  done;
  Lp.set_objective m
    (if Rng.int rng 2 = 0 then Lp.Minimize else Lp.Maximize)
    (Array.to_list (Array.map (fun x -> (Rng.uniform rng (-2.0) 2.0, x)) xs));
  m

let dup_groups = function
  | `Reduced (acts, _, _) ->
    List.length (List.filter (function Presolve.Dup_group _ -> true | _ -> false) acts)
  | `Infeasible | `Unbounded -> 0

let prop_presolve_matches_string_keyed =
  QCheck.Test.make
    ~name:"presolve duplicate rows: structural key == string-keyed reference"
    ~count:300
    QCheck.(small_int)
    (fun seed ->
      let m = random_dup_model (Prete_util.Rng.create (seed + 151_000)) in
      match (ref_reduce m, Presolve.reduce m) with
      | `Reduced (acts, row_of, col_of), Presolve.Reduced t ->
        acts = t.Presolve.actions && row_of = t.Presolve.row_of
        && col_of = t.Presolve.col_of
      | `Infeasible, Presolve.Infeasible | `Unbounded, Presolve.Unbounded -> true
      | _ -> false)

(* The generator must actually exercise the duplicate-row path. *)
let test_dup_generator_groups () =
  let groups = ref 0 and models = ref 0 in
  for seed = 0 to 99 do
    let g = dup_groups (ref_reduce (random_dup_model (Prete_util.Rng.create (seed + 151_000)))) in
    groups := !groups + g;
    if g > 0 then incr models
  done;
  Alcotest.(check bool)
    (Printf.sprintf "duplicate groups in most models (%d models, %d groups)" !models !groups)
    true (!models >= 50)

(* ------------------------------------------------------------------ *)
(* Golden LU-path pins: three IBM reactions through the PreTE primary,
   chained on one warm basis as the resilience ladder chains them.  The
   predictor is the hazard oracle (no model training), so every number
   below is a pure function of the code.  The pins are bit-level: a
   change to the simplex hot path (pricing, factorization, presolve)
   that moves a single pivot choice moves a digest or a counter.        *)
(* ------------------------------------------------------------------ *)

let bits_digest (xs : float array) =
  let b = Bytes.create (8 * Array.length xs) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.bytes b)

(* (fiber, hour of day) -> alloc digest, (phi, expected_served) bits,
   per-reaction counters: lp solves, warm solves, phase-1 skips,
   pivots, refactorizations, ft_updates, bound_flips, lu_fill_nnz. *)
let lu_golden =
  [
    ( (3, 7), "6dfd97c05c829df6d67e3b2068eece68",
      (4591720139324930222L, 4607178131795251238L),
      [| 5; 3; 0; 3263; 40; 3205; 58; 10891 |] );
    (* Carries reaction 1's basis (414 reduced rows) into an LP with 374:
       the mismatched warm basis takes guided Phase 1. *)
    ( (11, 19), "6c96bad9f399af5e2ad9d0e668890897",
      (4603964378126061680L, 4607129929593312504L),
      [| 3; 1; 0; 1709; 21; 1699; 10; 4940 |] );
    ( (6, 2), "f7576ce3b888951e33277aad00ef5d08",
      (4603061497194383012L, 4607043545143263381L),
      [| 3; 1; 0; 2340; 29; 2325; 15; 6548 |] );
  ]

(* Summed pivots, refactorizations, ft_updates, bound_flips,
   lu_fill_nnz, ftran_nnz, btran_nnz.  The last two count the nonzeros
   the engine's solves leave behind, so they pin where the engine counts
   as well as what it computes. *)
let lu_golden_sum = [| 7312; 90; 7229; 83; 22379; 615182; 1681634 |]

let counters (s : Solver_stats.t) =
  Solver_stats.
    [| s.solves; s.warm_solves; s.phase1_skips; s.pivots; s.refactorizations;
       s.ft_updates; s.bound_flips; s.lu_fill_nnz |]

let test_lu_golden_ibm () =
  let topo = Topology.by_name "IBM" in
  let env = Availability.make_env topo in
  let nf = Topology.num_fibers topo in
  let predictor = Prete_optics.Hazard.eval ~num_fibers:nf in
  let scheme = Schemes.prete_default ~predictor () in
  let total = Solver_stats.create () in
  let warm = ref None in
  List.iter
    (fun ((fb, hour), alloc_md5, (phi_bits, served_bits), expect) ->
      let label = Printf.sprintf "fiber %d hour %d" fb hour in
      let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:hour in
      let plan, basis =
        Availability.Internal.plan_alloc_warm ?warm:!warm env scheme ~demands
          ~degraded:(Some fb)
      in
      (* The same solve, decomposed as [plan_alloc_warm] makes it, for
         the objective and the solver counters it does not return. *)
      let obs =
        { Calibrate.degraded = [ (fb, env.Availability.degr_events.(fb)) ];
          will_cut = [] }
      in
      let probs =
        Calibrate.probabilities (Calibrate.Calibrated predictor)
          env.Availability.model obs
      in
      let ts =
        Tunnel_update.merged
          (Tunnel_update.react ~ratio:1.0 env.Availability.ts ~degraded_fiber:fb ())
      in
      let p = Te.make_problem ~ts ~demands ~probs ~beta:env.Availability.beta () in
      let sol = Te.solve ~relaxation_start:false ?warm:!warm p in
      Alcotest.(check string) (label ^ ": decomposed alloc")
        (bits_digest plan.Availability.p_alloc) (bits_digest sol.Te.alloc);
      Alcotest.(check bool) (label ^ ": not degraded") false plan.Availability.p_degraded;
      Alcotest.(check string) (label ^ ": alloc bits") alloc_md5
        (bits_digest plan.Availability.p_alloc);
      Alcotest.(check int64) (label ^ ": phi bits") phi_bits
        (Int64.bits_of_float sol.Te.phi);
      Alcotest.(check int64) (label ^ ": expected_served bits") served_bits
        (Int64.bits_of_float sol.Te.expected_served);
      Alcotest.(check (array int)) (label ^ ": solver counters") expect
        (counters sol.Te.solver);
      Solver_stats.merge_into ~dst:total sol.Te.solver;
      warm := basis)
    lu_golden;
  Alcotest.(check (array int))
    "summed pivots, refactorizations, ft_updates, bound_flips, lu_fill_nnz, \
     ftran_nnz, btran_nnz"
    lu_golden_sum
    Solver_stats.
      [| total.pivots; total.refactorizations; total.ft_updates; total.bound_flips;
         total.lu_fill_nnz; total.ftran_nnz; total.btran_nnz |]

(* Golden day of reactions: 24 IBM reactions, one per hour of day, each
   on a seeded fiber, chained on one warm basis through the decomposed
   PreTE primary (the calls perfbench's react-ibm makes on a cache miss).
   Per reaction: the allocation digest, the Φ and expected-served bits
   and the eight solver counters; over the day, the summed FTRAN and
   BTRAN nonzeros.  Recorded before the LU engine's constant-factor
   work, which must leave every one of them unchanged. *)
let day_golden =
  [|
    ("1b54a2d6a342e6e1136e76aa39f697a0", 4600866515301313074L, 4607128463652902919L,
      [| 4; 2; 0; 2928; 36; 2860; 68; 8647 |]);
    ("e0adca8eb5c76b600ae3e7d0022fe718", 4603702625984488481L, 4607168453464058087L,
      [| 3; 1; 0; 1738; 21; 1722; 16; 5164 |]);
    ("bece3a6b588ea2b4cba0349cbcadfdc9", 4602762570238533882L, 4607171928019166945L,
      [| 3; 1; 0; 2136; 26; 2111; 25; 6952 |]);
    ("cb5d35f8bbd9f6173739eb6c60ca28bc", 0L, 4607182289636089299L,
      [| 5; 3; 0; 2428; 32; 2323; 105; 6110 |]);
    ("58d8ee4e5761db0d0c3566ce503306f6", 4602996823968155215L, 4607175341117754544L,
      [| 3; 1; 0; 2145; 27; 2133; 12; 6554 |]);
    ("816dac23f05167df06c425e34c6d9074", 4602708399465765930L, 4607178236990977791L,
      [| 3; 1; 0; 1677; 20; 1656; 21; 5277 |]);
    ("eca35480901f03ec00b27cda41418aaa", 0L, 4607182311726418508L,
      [| 5; 3; 0; 2356; 30; 2268; 88; 7636 |]);
    ("3586b3598c9d9dd3f0bfd6e416792062", 4582157950360159722L, 4607181756115114117L,
      [| 5; 3; 0; 1921; 20; 1891; 30; 7899 |]);
    ("a37ff5948c56ee9ff02d85f009a470c8", 4601363879433186733L, 4607178080969424371L,
      [| 3; 1; 0; 2209; 28; 2134; 75; 7735 |]);
    ("1f237d36ddea64392930556ef4f750a9", 4601246639980801123L, 4607177846640941671L,
      [| 4; 2; 0; 2649; 32; 2584; 65; 8983 |]);
    ("fe00aa9257232d84b6630261367c02ad", 4593378513687449753L, 4607178237104714441L,
      [| 4; 2; 0; 2494; 31; 2431; 63; 8044 |]);
    ("fefd426c18cfa0c01b55a32882411ce7", 4600663513411144793L, 4607180188674642865L,
      [| 9; 7; 0; 5449; 65; 5376; 73; 22725 |]);
    ("7ede3a2dc9ea5624a1c4c928ac1d8bb9", 4602175192154361845L, 4607178775116513646L,
      [| 4; 2; 0; 1926; 21; 1838; 88; 6913 |]);
    ("1f459903e95b849f86bbd860057f96a9", 4602192367644951845L, 4607170184670229942L,
      [| 9; 7; 0; 4115; 45; 4021; 94; 19185 |]);
    ("4850b992fe9e393d97160d2cb6bb9b01", 4602452503362487464L, 4607178703213973959L,
      [| 9; 7; 0; 5819; 70; 5743; 76; 23025 |]);
    ("882981d5fa415ea8315dc72a24a08f14", 4603267651882547366L, 4607172936088479186L,
      [| 3; 1; 0; 2535; 35; 2506; 29; 5842 |]);
    ("9d8ae4a1191d894db7e9871f0ac5acaf", 4603505562022576373L, 4607172656331188612L,
      [| 3; 2; 0; 2167; 27; 2145; 22; 6700 |]);
    ("163bed95de47df506a5c40eca4ddf997", 4603344168721399134L, 4607175235310007515L,
      [| 3; 1; 0; 2256; 28; 2229; 27; 7012 |]);
    ("ecdf284abc812238611880f329f0a1f9", 0L, 4607182190716237612L,
      [| 4; 2; 0; 2038; 24; 1964; 74; 5595 |]);
    ("5d10f97fe4a1f2e4dfc874b95d2e2302", 4602468914274823353L, 4607169105393044770L,
      [| 9; 7; 0; 6495; 83; 6414; 81; 19919 |]);
    ("afe73792478aedb5c54a261436b4002e", 4603391920131981260L, 4607166109564795161L,
      [| 3; 1; 0; 2203; 27; 2179; 24; 6732 |]);
    ("dde6683a8f4aa25c97b5dfd2a3787c60", 4601500307120624725L, 4607108080105256499L,
      [| 5; 3; 0; 3381; 42; 3331; 50; 10933 |]);
    ("9675bff9eb22d7950d2859f31e263880", 4602654336415894364L, 4607168355748697391L,
      [| 9; 7; 0; 6554; 83; 6469; 85; 21319 |]);
    ("6c96bad9f399af5e2ad9d0e668890897", 4603964378126061680L, 4607129929593312504L,
      [| 3; 1; 0; 1709; 21; 1699; 10; 4940 |]);
  |]

let day_golden_nnz = [| 7363227; 15129641 |]

let test_day_golden_ibm () =
  let topo = Topology.by_name "IBM" in
  let env = Availability.make_env topo in
  let nf = Topology.num_fibers topo in
  let predictor = Prete_optics.Hazard.eval ~num_fibers:nf in
  let rng = Prete_util.Rng.create 24 in
  let total = Solver_stats.create () in
  let warm = ref None in
  let got =
    Array.init 24 (fun hour ->
        let fb = Prete_util.Rng.int rng nf in
        let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:hour in
        let obs =
          { Calibrate.degraded = [ (fb, env.Availability.degr_events.(fb)) ];
            will_cut = [] }
        in
        let probs =
          Calibrate.probabilities (Calibrate.Calibrated predictor)
            env.Availability.model obs
        in
        let ts =
          Tunnel_update.merged
            (Tunnel_update.react ~ratio:1.0 env.Availability.ts ~degraded_fiber:fb ())
        in
        let p = Te.make_problem ~ts ~demands ~probs ~beta:env.Availability.beta () in
        let sol = Te.solve ~relaxation_start:false ?warm:!warm p in
        Solver_stats.merge_into ~dst:total sol.Te.solver;
        warm := sol.Te.basis;
        ( bits_digest sol.Te.alloc,
          Int64.bits_of_float sol.Te.phi,
          Int64.bits_of_float sol.Te.expected_served,
          counters sol.Te.solver ))
  in
  Array.iteri
    (fun hour (d, p, s, c) ->
      let ed, ep, es, ec = day_golden.(hour) in
      let label = Printf.sprintf "hour %d" hour in
      Alcotest.(check string) (label ^ ": alloc bits") ed d;
      Alcotest.(check int64) (label ^ ": phi bits") ep p;
      Alcotest.(check int64) (label ^ ": expected_served bits") es s;
      Alcotest.(check (array int)) (label ^ ": solver counters") ec c)
    got;
  Alcotest.(check (array int)) "summed ftran_nnz, btran_nnz" day_golden_nnz
    Solver_stats.[| total.ftran_nnz; total.btran_nnz |]

(* ------------------------------------------------------------------ *)
(* Presolve pins: a digest of the whole reduced problem — rows, rhs,
   bounds, costs, maps, scales, fixed values and the action list, floats
   by their bits — for TE models, the random generators above and a
   hand-built model per reduction.  Recorded before the presolve's data
   layout changed; any change to a rule, a tie-break, the action order
   or the equilibration arithmetic moves a digest.                      *)
(* ------------------------------------------------------------------ *)

(* The scaled reduced rows, each as (reduced column, value) in storage
   order. *)
let reduced_rows (t : Presolve.t) =
  Array.init t.Presolve.r_nc (fun ri ->
      Array.init
        (t.Presolve.r_start.(ri + 1) - t.Presolve.r_start.(ri))
        (fun k ->
          let p = t.Presolve.r_start.(ri) + k in
          (t.Presolve.r_col.(p), t.Presolve.r_val.(p))))

let presolve_digest model =
  match Presolve.reduce model with
  | Presolve.Infeasible -> "infeasible"
  | Presolve.Unbounded -> "unbounded"
  | Presolve.Reduced t ->
    let b = Buffer.create 4096 in
    let int i = Buffer.add_int64_le b (Int64.of_int i) in
    let flt x = Buffer.add_int64_le b (Int64.bits_of_float x) in
    let ints a = int (Array.length a); Array.iter int a in
    let flts a = int (Array.length a); Array.iter flt a in
    let sense = function Lp.Le -> 0 | Lp.Ge -> 1 | Lp.Eq -> 2 in
    int t.Presolve.r_nv;
    int t.Presolve.r_nc;
    let rows = reduced_rows t in
    int (Array.length rows);
    Array.iter
      (fun row ->
        int (Array.length row);
        Array.iter (fun (j, a) -> int j; flt a) row)
      rows;
    ints (Array.map sense t.Presolve.r_sense);
    List.iter flts
      Presolve.[ t.r_rhs; t.r_lb; t.r_ub; t.r_cost; t.rowscale; t.colscale; t.fixed ];
    ints t.Presolve.col_of;
    ints t.Presolve.row_of;
    int (List.length t.Presolve.actions);
    List.iter
      (function
        | Presolve.Row_empty i -> int 0; int i
        | Presolve.Row_singleton_ineq { row; col; coef; le; bound } ->
          int 1; int row; int col; flt coef; int (Bool.to_int le); flt bound
        | Presolve.Row_singleton_eq { row; col; coef } -> int 2; int row; int col; flt coef
        | Presolve.Dup_group { kept; members; ge_like; eq } ->
          int 3; int kept; int (List.length members);
          List.iter (fun (i, c) -> int i; flt c) members;
          int (Bool.to_int ge_like); int (Bool.to_int eq)
        | Presolve.Col_fixed { col; value } -> int 4; int col; flt value)
      t.Presolve.actions;
    Digest.to_hex (Digest.string (Buffer.contents b))

(* One digest over many models (the concatenated per-model digests). *)
let digest_all models =
  Digest.to_hex (Digest.string (String.concat "" (List.map presolve_digest models)))

(* Hand-built models, one per reduction (and per failure outcome). *)
let hand_models () =
  let model ?(dir = Lp.Minimize) nv build obj =
    let m = Lp.create () in
    let xs =
      Array.init nv (fun j -> Lp.add_var m ~ub:(4.0 +. float_of_int j) (Printf.sprintf "x%d" j))
    in
    build m xs;
    Lp.set_objective m dir (List.map (fun (c, j) -> (c, xs.(j))) obj);
    m
  in
  let row m xs terms s r =
    ignore (Lp.add_constraint m (List.map (fun (c, j) -> (c, xs.(j))) terms) s r)
  in
  let base m xs = row m xs [ (1.0, 0); (2.0, 1); (-1.0, 2) ] Lp.Le 5.0;
    row m xs [ (0.5, 0); (1.5, 2) ] Lp.Ge 1.0 in
  [
    ( "empty row",
      model 3 (fun m xs -> base m xs; row m xs [ (1.0, 0); (-1.0, 0) ] Lp.Le 2.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2) ] );
    ( "singleton Le row",
      model 3 (fun m xs -> base m xs; row m xs [ (2.0, 1) ] Lp.Le 3.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2) ] );
    ( "singleton Ge row",
      model 3 (fun m xs -> base m xs; row m xs [ (-3.0, 2) ] Lp.Ge (-6.0))
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2) ] );
    ( "singleton Eq row",
      model 3 (fun m xs -> base m xs; row m xs [ (4.0, 0) ] Lp.Eq 2.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2) ] );
    ( "duplicate group",
      model 3
        (fun m xs ->
          base m xs;
          row m xs [ (2.0, 0); (4.0, 1); (-2.0, 2) ] Lp.Le 8.0;
          row m xs [ (-1.0, 0); (-2.0, 1); (1.0, 2) ] Lp.Ge (-4.5);
          row m xs [ (3.0, 2); (1.0, 0) ] Lp.Eq 2.0;
          row m xs [ (1.5, 2); (0.5, 0) ] Lp.Eq 1.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2) ] );
    (* x3 is dominated and fixed after the first duplicate scan; only
       then do the last two rows become duplicates. *)
    ( "duplicate after a fix",
      model 4
        (fun m xs ->
          base m xs;
          row m xs [ (1.0, 0); (2.0, 1); (1.0, 3) ] Lp.Le 6.0;
          row m xs [ (2.0, 0); (4.0, 1); (5.0, 3) ] Lp.Le 14.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2); (2.0, 3) ] );
    ( "empty column",
      model 4 (fun m xs -> base m xs) [ (-1.0, 0); (-1.0, 1); (-1.0, 2); (-2.0, 3) ] );
    ( "dominated column",
      model 4
        (fun m xs -> base m xs; row m xs [ (1.0, 3); (1.0, 0); (1.0, 1) ] Lp.Le 6.0)
        [ (-1.0, 0); (-1.0, 1); (-1.0, 2); (2.0, 3) ] );
    ( "infeasible",
      model 3 (fun m xs -> base m xs; row m xs [ (1.0, 0) ] Lp.Ge 9.0) [ (1.0, 0) ] );
    ( "unbounded",
      (let m = Lp.create () in
       let x = Lp.add_var m "x" and y = Lp.add_var m ~ub:2.0 "y" in
       ignore (Lp.add_constraint m [ (1.0, y) ] Lp.Le 1.0);
       Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ];
       ignore x;
       m) );
  ]

(* Name -> (digest, a test that the named reduction fired). *)
let hand_golden =
  let any f = function
    | Presolve.Reduced t -> List.exists f t.Presolve.actions
    | Presolve.Infeasible | Presolve.Unbounded -> false
  in
  [
    ( "empty row", "dca716fe114eb15d5d93e3f5fb9a3e61",
      any (function Presolve.Row_empty _ -> true | _ -> false) );
    ( "singleton Le row", "d3bbd95505f906977a9479badfb7e21d",
      any (function Presolve.Row_singleton_ineq { le = true; _ } -> true | _ -> false) );
    ( "singleton Ge row", "7294d30a733ed35c20d642585bdcbec9",
      any (function Presolve.Row_singleton_ineq { le = false; _ } -> true | _ -> false) );
    ( "singleton Eq row", "df7e3f893420905aeafdb6f16776320e",
      any (function Presolve.Row_singleton_eq _ -> true | _ -> false) );
    ( "duplicate group", "26fc05d9f49bfb866779d90935219310",
      any (function Presolve.Dup_group { eq = false; _ } -> true | _ -> false) );
    ( "duplicate after a fix", "e10fb3ee28c648ab0f147834dfd8709c",
      any (function Presolve.Dup_group { kept = 2; _ } -> true | _ -> false) );
    ( "empty column", "5aba35c563196e3a0b1d6b10d886f582",
      any (function Presolve.Col_fixed { col = 3; _ } -> true | _ -> false) );
    ( "dominated column", "c9f1536fb40f36e1a0ff005f1a8b1996",
      any (function Presolve.Col_fixed { col = 3; _ } -> true | _ -> false) );
    ("infeasible", "infeasible", fun o -> o = Presolve.Infeasible);
    ("unbounded", "unbounded", fun o -> o = Presolve.Unbounded);
  ]

(* TE models: for each golden-style IBM reaction, the fixed-δ model at
   full coverage and at the δ the fixpoint settles on, and the
   second-phase model at that δ and Φ*. *)
let te_models () =
  let topo = Topology.by_name "IBM" in
  let env = Availability.make_env topo in
  let nf = Topology.num_fibers topo in
  let predictor = Prete_optics.Hazard.eval ~num_fibers:nf in
  List.map
    (fun (fb, hour) ->
      let demands = Traffic.demand env.Availability.traffic ~scale:2.0 ~epoch:hour in
      let obs =
        { Calibrate.degraded = [ (fb, env.Availability.degr_events.(fb)) ];
          will_cut = [] }
      in
      let probs =
        Calibrate.probabilities (Calibrate.Calibrated predictor)
          env.Availability.model obs
      in
      let ts =
        Tunnel_update.merged
          (Tunnel_update.react ~ratio:1.0 env.Availability.ts ~degraded_fiber:fb ())
      in
      let p = Te.make_problem ~ts ~demands ~probs ~beta:env.Availability.beta () in
      let classes = Te.classes_of p in
      let full = Array.map (fun cls -> Array.make (Array.length cls) true) classes in
      let sol = Te.solve ~relaxation_start:false p in
      ( (fb, hour),
        [
          Te.Internal.fixed_delta_model p classes full;
          Te.Internal.fixed_delta_model p classes sol.Te.delta;
          Te.Internal.second_phase_model p classes sol.Te.delta sol.Te.phi;
        ] ))
    [ (3, 7); (11, 19); (6, 2); (17, 12) ]

let te_golden =
  [
    ((3, 7), "ac1b3bafa66e4ac189ec0de53f993c7e");
    ((11, 19), "cf1aa458fe66c2208b14645711c4e0d0");
    ((6, 2), "ce9eee018f5d3c7b7006187d50767610");
    ((17, 12), "d91c085718691e1a6fb17311010408b0");
  ]

let random_golden =
  ( "e7722838a4c9fbaa995b1524c62668f5",
    "cdc9caeeb7bfcba63fb5398f1e725440",
    "689360e3425833066526c970f60b5b89" )

let test_presolve_pins () =
  List.iter
    (fun (name, m) ->
      let digest, fired = List.assoc name (List.map (fun (n, d, f) -> (n, (d, f))) hand_golden) in
      Alcotest.(check bool) ("hand: " ^ name ^ " fires") true (fired (Presolve.reduce m));
      Alcotest.(check string) ("hand: " ^ name) digest (presolve_digest m))
    (hand_models ());
  List.iter
    (fun ((fb, hour), models) ->
      Alcotest.(check string)
        (Printf.sprintf "IBM fiber %d hour %d" fb hour)
        (List.assoc (fb, hour) te_golden)
        (digest_all models))
    (te_models ());
  let lps =
    List.init 60 (fun seed ->
        build_lp (random_lp_coefs (Prete_util.Rng.create (seed + 127_000))))
  in
  let dups =
    List.init 100 (fun seed -> random_dup_model (Prete_util.Rng.create (seed + 151_000)))
  in
  let squares =
    List.concat
      (List.init 10 (fun seed ->
           let _, p = random_problem ~square:true (Prete_util.Rng.create (seed + 9_000)) in
           let classes = Te.classes_of p in
           let full = Array.map (fun cls -> Array.make (Array.length cls) true) classes in
           [ Te.Internal.fixed_delta_model p classes full;
             Te.Internal.second_phase_model p classes full 0.25 ]))
  in
  let g_lp, g_dup, g_sq = random_golden in
  Alcotest.(check string) "random LPs" g_lp (digest_all lps);
  Alcotest.(check string) "random duplicate-row models" g_dup (digest_all dups);
  Alcotest.(check string) "random square TE models" g_sq (digest_all squares)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_solvers_diff"
    [
      ( "differential",
        qsuite
          [
            prop_triangle_three_way;
            prop_square_exact_pair;
            prop_warm_equals_cold;
            prop_benders_warm_chain;
          ] );
      ( "engine",
        qsuite
          [
            prop_engines_agree_feasible;
            prop_engines_agree_infeasible;
            prop_engines_agree_unbounded;
          ]
        @ [ Alcotest.test_case "ray families reach their paths" `Quick
              test_ray_families_reach_their_paths ] );
      ( "engine.lu",
        qsuite
          [
            prop_lu_presolve_roundtrip;
            prop_lu_bound_respect;
            prop_lu_warm_equals_cold;
          ]
        @ [ Alcotest.test_case "bound flips reach the optimum" `Quick
              test_lu_bound_flips ]
        @ qsuite [ prop_presolve_matches_string_keyed ]
        @ [ Alcotest.test_case "duplicate-row generator forms groups" `Quick
              test_dup_generator_groups;
            Alcotest.test_case "golden IBM reactions (LU path)" `Quick
              test_lu_golden_ibm;
            Alcotest.test_case "golden day of IBM reactions" `Quick
              test_day_golden_ibm;
            Alcotest.test_case "presolve pins" `Quick test_presolve_pins ] );
    ]
