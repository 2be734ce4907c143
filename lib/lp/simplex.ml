type basis_entry =
  | Bstructural of int
  | Brow_slack of int
  | Brow_surplus of int
  | Brow_artificial of int

type basis = {
  b_nv : int;
  b_m : int;
  b_entries : basis_entry array;
  b_upper : int array;
      (* original structural variables nonbasic at their upper bound —
         only the bounded LU engine produces/consumes these; the dense
         engine (no bound-flip machinery) stores [||]. *)
}

let basis_size b = b.b_m

type engine = Dense | Lu

let default_engine = ref Lu
let bland_from = ref None

let engine_name = function Dense -> "dense" | Lu -> "lu"

let engine_of_string = function
  | "dense" -> Some Dense
  | "lu" -> Some Lu
  | _ -> None

type solution = {
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
  degraded : bool;
  basis : basis;
  warm_used : bool;
  phase1_skipped : bool;
  repaired : bool;
  engine : engine;
  refactorizations : int;
  ftran_nnz : int;
  btran_nnz : int;
  ft_updates : int;
  bound_flips : int;
  lu_fill_nnz : int;
  presolve_rows : int;
  presolve_cols : int;
  presolve_wall : float;
  state_wall : float;
  pivot_wall : float;
}

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical of string

exception Timeout

let eps = 1e-9
let feas_eps = 1e-7

type col_kind = Structural of int | Slack of int | Surplus of int | Artificial of int

(* ---- Dense normalization -----------------------------------------------

   The dense engine solves the normalized problem: variables shifted to
   zero lower bound, finite upper bounds as extra Le rows, every row
   carrying an artificial so the identity column of row i is always
   [art0 + i].  A negative rhs is handled by scaling the row by -1 inside
   the matrix (recorded in [flipped]), NOT by rewriting the sense — so the
   column layout depends only on the senses and structurally identical
   models share it no matter how their rhs vectors differ.  That
   invariance is what lets a stored basis reinstall exactly across
   rhs-only changes (MIP bound fixings, Benders cut updates, delta
   re-rounding).  The LU engine's [Blu.make_state] shifts and flips the
   presolved rows the same way. *)

type norm_row = { coefs : (int * float) list; sense : Lp.sense; rhs : float; flipped : bool }

type prep = {
  p_nv : int;  (* structural variables *)
  p_nc : int;  (* model constraints (dual dimension) *)
  p_m : int;  (* rows incl. upper-bound rows *)
  p_n : int;  (* columns: structural | slack | surplus | artificial *)
  p_art0 : int;  (* first artificial column *)
  p_nslack : int;
  p_rows : norm_row array;
  p_lbs : float array;
  p_obj_const : float;
  p_sign : float;  (* Minimize -> 1.0, Maximize -> -1.0 *)
  p_cost : float array;  (* phase-2 cost over all n columns *)
}

(* Row [i]'s terms as (variable, coefficient), in storage order. *)
let row_terms (r : Lp.Internal.rows) i =
  let acc = ref [] in
  for k = r.Lp.Internal.start.(i + 1) - 1 downto r.Lp.Internal.start.(i) do
    acc := (r.Lp.Internal.var.(k), r.Lp.Internal.coef.(k)) :: !acc
  done;
  !acc

let prepare model =
  let lbs = Lp.Internal.lower model and ubs = Lp.Internal.upper model in
  let rows = Lp.Internal.rows model in
  let dir, obj_coefs = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = rows.Lp.Internal.nrows in
  Array.iter
    (fun lb ->
      if lb = neg_infinity then
        invalid_arg "Simplex.solve: free variables (lb = -inf) unsupported")
    lbs;
  (* Shift x = lb + x'; collect the objective constant and adjusted rhs. *)
  let obj_const = ref 0.0 in
  Array.iteri (fun j c -> obj_const := !obj_const +. (c *. lbs.(j))) obj_coefs;
  let rows0 =
    List.init nc (fun i ->
        let coefs = row_terms rows i in
        let rhs =
          List.fold_left
            (fun acc (v, coef) -> acc -. (coef *. lbs.(v)))
            rows.Lp.Internal.rhs.(i) coefs
        in
        { coefs; sense = rows.Lp.Internal.sense.(i); rhs; flipped = false })
  in
  let ub_rows =
    let acc = ref [] in
    for j = 0 to nv - 1 do
      let lb = lbs.(j) and ub = ubs.(j) in
      if ub < infinity then
        acc := { coefs = [ (j, 1.0) ]; sense = Lp.Le; rhs = ub -. lb; flipped = false } :: !acc
    done;
    List.rev !acc
  in
  let row_arr =
    Array.of_list
      (List.map (fun r -> { r with flipped = r.rhs < 0.0 }) (rows0 @ ub_rows))
  in
  let m = Array.length row_arr in
  let n_slack =
    Array.fold_left (fun a r -> if r.sense = Lp.Le then a + 1 else a) 0 row_arr
  in
  let n_surplus =
    Array.fold_left (fun a r -> if r.sense = Lp.Ge then a + 1 else a) 0 row_arr
  in
  let art0 = nv + n_slack + n_surplus in
  let n = art0 + m in
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost = Array.make n 0.0 in
  for j = 0 to nv - 1 do
    cost.(j) <- sign *. obj_coefs.(j)
  done;
  { p_nv = nv; p_nc = nc; p_m = m; p_n = n; p_art0 = art0; p_nslack = n_slack;
    p_rows = row_arr; p_lbs = lbs; p_obj_const = !obj_const; p_sign = sign;
    p_cost = cost }

(* Warm-guided Phase-1 pricing preference: previously basic structural
   columns. *)
let warm_prefer p wb =
  let pref = Array.make p.p_n false in
  Array.iter
    (function Bstructural j when j < p.p_nv -> pref.(j) <- true | _ -> ())
    wb.b_entries;
  pref

(* ---- Dense tableau engine ----------------------------------------------

   The original engine, retained as the differential-testing oracle behind
   [?engine:Dense].  [rows] is m × n, [rhs] is m (kept >= 0 up to
   round-off), [obj] holds reduced costs and [obj_val] the negated current
   objective contribution; [basis.(i)] is the column basic in row i. *)
type tableau = {
  m : int;
  n : int;
  rows : float array array;
  rhs : float array;
  obj : float array;
  mutable obj_val : float;
  basis : int array;
  kinds : col_kind array;
}

let pivot t ~row ~col =
  let piv = t.rows.(row).(col) in
  let r = t.rows.(row) in
  let inv = 1.0 /. piv in
  for j = 0 to t.n - 1 do
    r.(j) <- r.(j) *. inv
  done;
  t.rhs.(row) <- t.rhs.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.rows.(i).(col) in
      if Float.abs f > 0.0 then begin
        let ri = t.rows.(i) in
        for j = 0 to t.n - 1 do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done;
        t.rhs.(i) <- t.rhs.(i) -. (f *. t.rhs.(row));
        (* Clamp round-off negatives so the ratio test stays sane. *)
        if t.rhs.(i) < 0.0 && t.rhs.(i) > -.eps then t.rhs.(i) <- 0.0
      end
    end
  done;
  let f = t.obj.(col) in
  if Float.abs f > 0.0 then begin
    for j = 0 to t.n - 1 do
      t.obj.(j) <- t.obj.(j) -. (f *. r.(j))
    done;
    t.obj_val <- t.obj_val -. (f *. t.rhs.(row))
  end;
  t.basis.(row) <- col

(* Ratio test: leaving row for entering column [col]; Bland tie-break on
   the basic variable index. *)
let leaving_row t col =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let a = t.rows.(i).(col) in
    if a > eps then begin
      let ratio = t.rhs.(i) /. a in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && (!best = -1 || t.basis.(i) < t.basis.(!best)))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

(* One optimization phase.  [banned c] excludes columns from entering.
   [prefer] (when given) is scanned first: among preferred columns with a
   negative reduced cost the most negative enters — this is the
   warm-repair pricing that steers Phase 1 back toward a previous basis.
   Returns [`Optimal], [`Unbounded] or [`Budget] (pivot limit or deadline
   expired — the current basis is the best incumbent this phase has),
   counting pivots in [iters].  The deadline is polled every 64 pivots to
   keep the clock read off the pivot hot path. *)
let optimize t ~banned ?prefer ~max_iters ?deadline iters =
  let bland_threshold = 20 * (t.m + t.n) in
  let out_of_budget () =
    !iters > max_iters
    || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
  in
  let rec loop () =
    if out_of_budget () then `Budget
    else
    let use_bland = !iters > bland_threshold in
    let entering = ref (-1) and best = ref (-.eps) in
    (* Warm-guided pricing: preferred columns first (Dantzig restricted to
       the preference set); Bland mode ignores it to keep the
       anti-cycling guarantee intact. *)
    (match prefer with
    | Some pref when not use_bland ->
      for j = 0 to t.n - 1 do
        if pref.(j) && (not (banned j)) && t.obj.(j) < !best then begin
          best := t.obj.(j);
          entering := j
        end
      done
    | _ -> ());
    if !entering = -1 then begin
      best := -.eps;
      try
        for j = 0 to t.n - 1 do
          if not (banned j) then
            if use_bland then begin
              if t.obj.(j) < -.eps then begin
                entering := j;
                raise Exit
              end
            end
            else if t.obj.(j) < !best then begin
              best := t.obj.(j);
              entering := j
            end
        done
      with Exit -> ()
    end;
    if !entering = -1 then `Optimal
    else begin
      let col = !entering in
      let row = leaving_row t col in
      if row = -1 then `Unbounded
      else begin
        incr iters;
        pivot t ~row ~col;
        loop ()
      end
    end
  in
  loop ()

(* Recompute reduced costs for a cost vector [c] (indexed by column) given
   the current basis; the tableau body already encodes B^-1 A. *)
let install_costs t c =
  Array.blit c 0 t.obj 0 t.n;
  t.obj_val <- 0.0;
  for i = 0 to t.m - 1 do
    let cb = c.(t.basis.(i)) in
    if cb <> 0.0 then begin
      let r = t.rows.(i) in
      for j = 0 to t.n - 1 do
        t.obj.(j) <- t.obj.(j) -. (cb *. r.(j))
      done;
      t.obj_val <- t.obj_val -. (cb *. t.rhs.(i))
    end
  done

let make_tableau p =
  let { p_nv = nv; p_m = m; p_n = n; p_art0 = art0; p_nslack = n_slack; _ } = p in
  let kinds = Array.make n (Structural 0) in
  for j = 0 to nv - 1 do
    kinds.(j) <- Structural j
  done;
  let t =
    { m; n;
      rows = Array.init m (fun _ -> Array.make n 0.0);
      rhs = Array.make m 0.0;
      obj = Array.make n 0.0;
      obj_val = 0.0;
      basis = Array.make m (-1);
      kinds }
  in
  let next_slack = ref nv in
  let next_surplus = ref (nv + n_slack) in
  Array.iteri
    (fun i r ->
      let s = if r.flipped then -1.0 else 1.0 in
      List.iter (fun (v, c) -> t.rows.(i).(v) <- t.rows.(i).(v) +. (s *. c)) r.coefs;
      t.rhs.(i) <- s *. r.rhs;
      let ja = art0 + i in
      kinds.(ja) <- Artificial i;
      t.rows.(i).(ja) <- 1.0;
      (* Crash basis: the identity column with coefficient +1 after
         scaling — slack (Le, unflipped), surplus (Ge, flipped), else
         the artificial. *)
      (match r.sense with
      | Lp.Le ->
        let j = !next_slack in
        incr next_slack;
        kinds.(j) <- Slack i;
        t.rows.(i).(j) <- s;
        t.basis.(i) <- (if r.flipped then ja else j)
      | Lp.Ge ->
        let js = !next_surplus in
        incr next_surplus;
        kinds.(js) <- Surplus i;
        t.rows.(i).(js) <- -.s;
        t.basis.(i) <- (if r.flipped then js else ja)
      | Lp.Eq -> t.basis.(i) <- ja))
    p.p_rows;
  t

let solve_dense p ~max_iters ~deadline ~warm =
  let { p_nv = nv; p_nc = nc; p_m = m; p_n = n; p_art0 = art0;
        p_rows = row_arr; p_lbs = lbs; p_obj_const = obj_const;
        p_sign = sign; p_cost = phase2_cost; _ } = p in
  let is_artificial j = j >= art0 in
  let iters = ref 0 in
  (* ---- Warm start ----
     A compatible basis (same structural dimension) is reused two ways:

     - Exact reinstall (same row count): Gauss-Jordan the stored basic
       columns back into the basis, ignoring rhs signs along the way, then
       check primal feasibility of the result.  Feasible -> Phase 1 is
       skipped entirely.
     - Repair (reinstall infeasible, or the row structure changed): run
       Phase 1 from the crash start with warm-guided pricing — preferred
       entering columns are the previously-basic structural variables, so
       the work concentrates on the rows the model delta actually
       violated and the search lands near the old vertex. *)
  let try_exact_install wb =
    if wb.b_m <> m then None
    else begin
      let t = make_tableau p in
      let slack_col = Array.make m (-1)
      and surplus_col = Array.make m (-1)
      and art_col = Array.make m (-1) in
      Array.iteri
        (fun j k ->
          match k with
          | Slack i -> slack_col.(i) <- j
          | Surplus i -> surplus_col.(i) <- j
          | Artificial i -> art_col.(i) <- j
          | Structural _ -> ())
        t.kinds;
      let target i =
        match wb.b_entries.(i) with
        | Bstructural j -> if j < nv then j else -1
        | Brow_slack r -> if r < m then slack_col.(r) else -1
        | Brow_surplus r -> if r < m then surplus_col.(r) else -1
        | Brow_artificial r -> if r < m then art_col.(r) else -1
      in
      (* Install the stored basic-column SET, not the stored row pairing:
         any row arrangement of a nonsingular column set is a valid basis,
         and freeing the pairing turns the install into plain Gaussian
         elimination with partial pivoting over unclaimed rows — which
         succeeds whenever the set is numerically nonsingular, where a
         fixed row-per-column sweep can deadlock on permutation cycles
         through the crash basis (and then silently leave a {e wrong}
         basis behind).  These eliminations are basis factorization, not
         priced simplex iterations, and are not counted in [iters]. *)
      let targets = Array.init m target in
      let in_targets = Array.make n false in
      Array.iter (fun c -> if c >= 0 then in_targets.(c) <- true) targets;
      let claimed = Array.make m false in
      let installed = Array.make n false in
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        if in_targets.(b) && not installed.(b) then begin
          claimed.(i) <- true;
          installed.(b) <- true
        end
      done;
      let ok = ref true in
      Array.iter
        (fun c ->
          if !ok && c >= 0 && not installed.(c) then begin
            let r = ref (-1) and best = ref 1e-6 in
            for i = 0 to m - 1 do
              if not claimed.(i) then begin
                let a = Float.abs t.rows.(i).(c) in
                if a > !best then begin
                  best := a;
                  r := i
                end
              end
            done;
            if !r = -1 then ok := false
            else begin
              pivot t ~row:!r ~col:c;
              claimed.(!r) <- true;
              installed.(c) <- true
            end
          end)
        targets;
      if not !ok then None
      else begin
      let rhs_ok = ref true and art_ok = ref true in
      for i = 0 to m - 1 do
        if t.rhs.(i) < -.feas_eps then rhs_ok := false
        else begin
          match t.kinds.(t.basis.(i)) with
          | Artificial _ when t.rhs.(i) > feas_eps -> art_ok := false
          | _ -> ()
        end
      done;
      if not !art_ok then None
      else begin
        for i = 0 to m - 1 do
          if t.rhs.(i) < 0.0 && t.rhs.(i) > -.feas_eps then t.rhs.(i) <- 0.0
        done;
        Some (t, !rhs_ok)
      end
      end
    end
  in
  let arts_zero t =
    let ok = ref true in
    for i = 0 to m - 1 do
      match t.kinds.(t.basis.(i)) with
      | Artificial _ when t.rhs.(i) > feas_eps -> ok := false
      | _ -> ()
    done;
    !ok
  in
  (* Dual-simplex repair.  A reinstalled optimal basis keeps its reduced
     costs >= 0 (the objective row did not change), so when only the rhs
     moved the basis is still dual feasible and a short dual loop —
     leaving row by most-negative rhs, entering column by the dual ratio
     test — walks back to primal feasibility in a few pivots instead of a
     full Phase 1.  Returns false on stall, budget expiry, a dual-
     infeasible install, or any numerical doubt; the caller then falls
     back to guided Phase 1, so correctness never rests on this loop. *)
  let dual_repair t =
    install_costs t phase2_cost;
    let dual_ok = ref true in
    for j = 0 to n - 1 do
      if (not (is_artificial j)) && t.obj.(j) < -.feas_eps then dual_ok := false
    done;
    if not !dual_ok then false
    else begin
      let stall_cap = 10 * (m + n) in
      let steps = ref 0 in
      let result = ref `Run in
      while !result = `Run do
        if
          !iters > max_iters
          || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
          || !steps > stall_cap
        then result := `Fail
        else begin
          let row = ref (-1) and worst = ref (-.feas_eps) in
          for i = 0 to m - 1 do
            if t.rhs.(i) < !worst then begin
              worst := t.rhs.(i);
              row := i
            end
          done;
          if !row = -1 then result := `Done
          else begin
            let r = !row in
            let col = ref (-1) and best = ref infinity in
            for j = 0 to n - 1 do
              if not (is_artificial j) then begin
                let a = t.rows.(r).(j) in
                if a < -.eps then begin
                  let ratio = t.obj.(j) /. -.a in
                  if
                    ratio < !best -. eps
                    || (ratio < !best +. eps && (!col = -1 || j < !col))
                  then begin
                    best := ratio;
                    col := j
                  end
                end
              end
            done;
            (* No eligible column: the row certifies infeasibility — but
               let Phase 1 make that call with its own tolerances. *)
            if !col = -1 then result := `Fail
            else begin
              incr steps;
              incr iters;
              pivot t ~row:r ~col:!col
            end
          end
        end
      done;
      !result = `Done && arts_zero t
    end
  in
  let t, warm_used, phase1_skipped, repaired, prefer =
    match warm with
    | Some wb when wb.b_nv = nv -> (
      match try_exact_install wb with
      | Some (t, true) -> (t, true, true, false, None)
      | Some (t, false) when dual_repair t -> (t, true, true, true, None)
      | Some (_, false) | None ->
        (make_tableau p, true, false, true, Some (warm_prefer p wb)))
    | _ -> (make_tableau p, false, false, false, None)
  in
  let kinds = t.kinds in
  (* ---- Phase 1 (skipped when the warm basis reinstalled feasibly) ---- *)
  let feasible_start =
    if phase1_skipped then true
    else begin
      let phase1_cost = Array.make n 0.0 in
      Array.iteri
        (fun j k -> match k with Artificial _ -> phase1_cost.(j) <- 1.0 | _ -> ())
        kinds;
      install_costs t phase1_cost;
      (* Artificials never need to re-enter: they start basic wherever
         needed and are only driven out. *)
      (match optimize t ~banned:is_artificial ?prefer ~max_iters ?deadline iters with
      | `Unbounded -> raise (Numerical "Simplex: phase 1 unbounded (internal error)")
      | `Budget -> raise Timeout (* no feasible point yet: nothing to return *)
      | `Optimal -> ());
      (* obj_val tracks -(current phase-1 objective). *)
      -.t.obj_val <= feas_eps
    end
  in
  if not feasible_start then Infeasible
  else begin
    (* Drive remaining basic artificials out of the basis. *)
    for i = 0 to m - 1 do
      if is_artificial t.basis.(i) then begin
        let found = ref (-1) in
        (try
           for j = 0 to n - 1 do
             if (not (is_artificial j)) && Float.abs t.rows.(i).(j) > 1e-7 then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          incr iters;
          pivot t ~row:i ~col:!found
        end
        (* else: redundant row; the artificial stays basic at value 0 and,
           being banned from entering elsewhere, is harmless. *)
      end
    done;
    (* ---- Phase 2 ---- *)
    install_costs t phase2_cost;
    let extract ~degraded =
      let shifted = Array.make nv 0.0 in
      for i = 0 to m - 1 do
        match kinds.(t.basis.(i)) with
        | Structural j -> shifted.(j) <- t.rhs.(i)
        | Slack _ | Surplus _ | Artificial _ -> ()
      done;
      let values = Array.init nv (fun j -> lbs.(j) +. shifted.(j)) in
      let min_obj = -.t.obj_val in
      let objective = (sign *. min_obj) +. obj_const in
      (* Duals: the artificial of row i is the identity column of the
         (possibly sign-scaled) tableau row, so its reduced cost is -y_i
         of the scaled system; undo the scaling and the direction sign to
         obtain shadow prices of the original constraints. *)
      let duals =
        Array.init nc (fun i ->
            let raw = -.t.obj.(art0 + i) in
            let raw = if row_arr.(i).flipped then -.raw else raw in
            sign *. raw)
      in
      let b_entries =
        Array.map
          (fun bcol ->
            match kinds.(bcol) with
            | Structural j -> Bstructural j
            | Slack i -> Brow_slack i
            | Surplus i -> Brow_surplus i
            | Artificial i -> Brow_artificial i)
          t.basis
      in
      Optimal
        {
          objective;
          values;
          duals;
          iterations = !iters;
          degraded;
          basis = { b_nv = nv; b_m = m; b_entries; b_upper = [||] };
          warm_used;
          phase1_skipped;
          repaired;
          engine = Dense;
          refactorizations = 0;
          ftran_nnz = 0;
          btran_nnz = 0;
          ft_updates = 0;
          bound_flips = 0;
          lu_fill_nnz = 0;
          presolve_rows = 0;
          presolve_cols = 0;
          presolve_wall = 0.0;
          state_wall = 0.0;
          pivot_wall = 0.0;
        }
    in
    match optimize t ~banned:is_artificial ~max_iters ?deadline iters with
    | `Unbounded -> Unbounded
    | `Optimal -> extract ~degraded:false
    | `Budget ->
      (* Phase 2 maintains primal feasibility: the interrupted vertex is
         the best incumbent — return it flagged instead of raising. *)
      extract ~degraded:true
  end

(* ---- Bounded-variable LU engine ----------------------------------------

   The engine every production solve runs.  Three changes over the
   dense tableau:

   - The model first goes through {!Presolve}: empty/singleton/duplicate
     rows and empty/dominated columns are eliminated and the survivors
     equilibrated; the engine solves the reduced problem and maps the
     result back with [Presolve.postsolve].  On TE coverage LPs the
     duplicate-row collapse alone removes the bulk of the rows.
   - Columns carry ranges [0 <= x' <= u] directly (nonbasic-at-upper
     status, bound flips in the ratio test), so finite upper bounds stop
     costing explicit rows: presolve turns singleton capacity rows into
     bounds and this engine prices them for free.
   - The basis inverse is a sparse LU factorization ({!Sparse.Lu}) with
     Markowitz-style pivoting, Forrest–Tomlin updates on pivots, and
     periodic refactorization on fill-in/stability triggers — FTRAN and
     BTRAN stay O(LU nonzeros) instead of O(m·n) tableau rewrites.

   The warm-start ladder mirrors the dense engine's (exact reinstall =
   one LU factorize -> bounded dual repair -> guided Phase 1), with the dual
   repair extended to above-upper violations so MIP bound fixings (which
   push basic variables over a tightened range) repair in a few dual
   pivots.  Stored bases carry the at-upper set ([b_upper]) keyed by
   original variable ids; [b_m] is the {e reduced} row count, so
   cross-engine transfers fail the shape check and degrade to guided
   Phase 1 — the structural ids still steer the pricing. *)
module Blu = struct
  let at_lower = 0
  and at_upper = 1
  and basic = 2

  type state = {
    m : int;  (* reduced rows *)
    n : int;  (* columns: structural | slack | surplus | artificial *)
    nv : int;  (* reduced structural count *)
    art0 : int;
    a : Sparse.t;
    b : float array;  (* shifted scaled rhs (>= 0 after flips) *)
    flipped : bool array;
    kinds : col_kind array;
    crash : int array;
    basis : int array;
    vstat : int array;
    ub : float array;  (* per-column range u = r_ub - r_lb; infinity for
                          rangeless columns and all logicals *)
    xb : float array;
    cost : float array;  (* phase-2 min-form scaled cost *)
    mutable f : Sparse.Lu.t;
    mutable base_nnz : int;  (* factor nnz right after the last refactor *)
    w : float array;
    wnz : int array;  (* rows of st.w's nonzeros, st.wn of them *)
    mutable wn : int;
    y : float array;
    yp : float array;  (* the y that st.d was last priced against *)
    rptr : int array;  (* row view of columns [0, art0): row i's *)
    rcol : int array;  (* columns are rcol.(rptr.(i) .. rptr.(i+1)-1) *)
    seen : int array;  (* by column: last [gen] that repriced it *)
    mutable gen : int;
    rho : float array;
    d : float array;
    att : float array;  (* by column < art0: [attract] of d if eligible,
                           else 0 — kept by [optimize]'s pricing *)
    mutable c_factor : int;
    mutable c_ft : int;
    mutable c_flips : int;
    mutable c_ftran : int;
    mutable c_btran : int;
  }

  let ftran st x =
    Sparse.Lu.ftran st.f x;
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      if x.(i) <> 0.0 then incr nz
    done;
    st.c_ftran <- st.c_ftran + !nz

  (* FTRAN column q into [st.w], listing its nonzero rows in [st.wnz]. *)
  let ftran_col st q =
    Array.fill st.w 0 st.m 0.0;
    Sparse.scatter_col st.a q st.w;
    st.wn <- Sparse.Lu.ftran_nz st.f st.w st.wnz;
    st.c_ftran <- st.c_ftran + st.wn

  let btran st y =
    Sparse.Lu.btran st.f y;
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      if y.(i) <> 0.0 then incr nz
    done;
    st.c_btran <- st.c_btran + !nz

  (* Clamp round-off violations of row i's basic range, mirroring the
     dense engine's rhs clamps. *)
  let clamp_row st i =
    if st.xb.(i) < 0.0 && st.xb.(i) > -.eps then st.xb.(i) <- 0.0
    else begin
      let ubi = st.ub.(st.basis.(i)) in
      if ubi < infinity && st.xb.(i) > ubi && st.xb.(i) < ubi +. eps then
        st.xb.(i) <- ubi
    end

  (* Resynchronize x_B = B⁻¹(b - Σ_{at-upper j} u_j A_j). *)
  let compute_xb st =
    Array.blit st.b 0 st.xb 0 st.m;
    for j = 0 to st.n - 1 do
      if st.vstat.(j) = at_upper then begin
        let uj = st.ub.(j) in
        if uj > 0.0 && uj < infinity then
          Sparse.iter_col st.a j (fun i v -> st.xb.(i) <- st.xb.(i) -. (uj *. v))
      end
    done;
    ftran st st.xb;
    for i = 0 to st.m - 1 do
      clamp_row st i
    done

  (* Refactorize the current basis from scratch; also resyncs x_B. *)
  let refactor st =
    st.c_factor <- st.c_factor + 1;
    let basis_out = Array.make st.m (-1) in
    let f, dropped =
      Sparse.Lu.factorize ~into:st.f st.a ~targets:st.basis ~crash:st.crash
        ~basis_out
    in
    if dropped <> [] then
      raise (Numerical "Simplex/lu: refactorization found basis singular");
    st.f <- f;
    st.base_nnz <- Sparse.Lu.nnz f;
    Array.blit basis_out 0 st.basis 0 st.m;
    compute_xb st

  (* Refactorization policy: absorbed-update count or fill-in growth
     since the last factorize, with the factor's own nnz as the
     baseline. *)
  let maybe_refactor st =
    if
      Sparse.Lu.updates st.f >= 64
      || Sparse.Lu.nnz st.f - st.base_nnz > Stdlib.max 4096 (16 * st.m)
    then refactor st

  let make_state (red : Presolve.t) =
    let nv = red.Presolve.r_nv and m = red.Presolve.r_nc in
    let r_start = red.Presolve.r_start and r_col = red.Presolve.r_col in
    let r_val = red.Presolve.r_val and sense = red.Presolve.r_sense in
    (* Shift x = r_lb + x' and flip negative-rhs rows in-matrix, exactly
       like [prepare] — the column layout depends only on the senses. *)
    let rhs = Array.make m 0.0 in
    for i = 0 to m - 1 do
      let acc = ref red.Presolve.r_rhs.(i) in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        acc := !acc -. (r_val.(p) *. red.Presolve.r_lb.(r_col.(p)))
      done;
      rhs.(i) <- !acc
    done;
    let flipped = Array.map (fun r -> r < 0.0) rhs in
    let nslack = ref 0 and nsurplus = ref 0 in
    Array.iter
      (function Lp.Le -> incr nslack | Lp.Ge -> incr nsurplus | Lp.Eq -> ())
      sense;
    let art0 = nv + !nslack + !nsurplus in
    let n = art0 + m in
    (* Columns: structural (presolve's rows with each row's flip sign
       applied and exact zeros dropped, as [Sparse] stores none), one
       slack or surplus per inequality row, one artificial per row —
       counted, then filled row by row so rows ascend in each column. *)
    let colptr = Array.make (n + 1) 0 in
    for p = 0 to r_start.(m) - 1 do
      if r_val.(p) <> 0.0 then colptr.(r_col.(p) + 1) <- colptr.(r_col.(p) + 1) + 1
    done;
    for j = 1 to nv do
      colptr.(j) <- colptr.(j) + colptr.(j - 1)
    done;
    let q = colptr.(nv) in
    let nnz = q + n - nv in
    let rowidx = Array.make nnz 0 and values = Array.make nnz 0.0 in
    let cursor = Array.sub colptr 0 nv in
    for i = 0 to m - 1 do
      let s = if flipped.(i) then -1.0 else 1.0 in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        let v = r_val.(p) in
        if v <> 0.0 then begin
          let j = r_col.(p) in
          rowidx.(cursor.(j)) <- i;
          values.(cursor.(j)) <- s *. v;
          cursor.(j) <- cursor.(j) + 1
        end
      done
    done;
    let kinds = Array.make n (Structural 0) in
    for j = 0 to nv - 1 do
      kinds.(j) <- Structural j
    done;
    let crash = Array.make m (-1) in
    let b = Array.make m 0.0 in
    (* Row view of the columns that may enter, indices only: row i's
       structural columns (ascending), then its slack or surplus. *)
    let rptr = Array.make (m + 1) 0 in
    for i = 0 to m - 1 do
      let k = ref 0 in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        if r_val.(p) <> 0.0 then incr k
      done;
      rptr.(i + 1) <- rptr.(i) + !k + (match sense.(i) with Lp.Eq -> 0 | _ -> 1)
    done;
    let rcol = Array.make rptr.(m) 0 in
    (* Logical columns hold a single entry each, stored after the
       structural entries in column order. *)
    let logical j i v =
      colptr.(j) <- q + j - nv;
      rowidx.(q + j - nv) <- i;
      values.(q + j - nv) <- v
    in
    let next_slack = ref nv in
    let next_surplus = ref (nv + !nslack) in
    for i = 0 to m - 1 do
      let s = if flipped.(i) then -1.0 else 1.0 in
      b.(i) <- s *. rhs.(i);
      let k = ref rptr.(i) in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        if r_val.(p) <> 0.0 then begin
          rcol.(!k) <- r_col.(p);
          incr k
        end
      done;
      let ja = art0 + i in
      kinds.(ja) <- Artificial i;
      logical ja i 1.0;
      match sense.(i) with
      | Lp.Le ->
        let j = !next_slack in
        incr next_slack;
        kinds.(j) <- Slack i;
        logical j i s;
        rcol.(!k) <- j;
        crash.(i) <- (if flipped.(i) then ja else j)
      | Lp.Ge ->
        let js = !next_surplus in
        incr next_surplus;
        kinds.(js) <- Surplus i;
        logical js i (-.s);
        rcol.(!k) <- js;
        crash.(i) <- (if flipped.(i) then js else ja)
      | Lp.Eq -> crash.(i) <- ja
    done;
    colptr.(n) <- nnz;
    let a = Sparse.of_csc ~rows:m ~cols:n ~colptr ~rowidx ~values in
    let ub = Array.make n infinity in
    for j = 0 to nv - 1 do
      ub.(j) <- red.Presolve.r_ub.(j) -. red.Presolve.r_lb.(j)
    done;
    let cost = Array.make n 0.0 in
    for j = 0 to nv - 1 do
      cost.(j) <- red.Presolve.r_cost.(j)
    done;
    let vstat = Array.make n at_lower in
    let basis_out = Array.make m (-1) in
    let f, _dropped = Sparse.Lu.factorize a ~targets:crash ~crash ~basis_out in
    let st =
      { m; n; nv; art0; a; b; flipped; kinds; crash;
        basis = basis_out; vstat; ub;
        xb = Array.make m 0.0; cost;
        f; base_nnz = Sparse.Lu.nnz f;
        w = Array.make m 0.0; wnz = Array.make m 0; wn = 0;
        y = Array.make m 0.0; yp = Array.make m 0.0;
        rptr; rcol; seen = Array.make art0 0; gen = 0;
        rho = Array.make m 0.0;
        d = Array.make n 0.0; att = Array.make art0 0.0;
        c_factor = 1; c_ft = 0; c_flips = 0; c_ftran = 0; c_btran = 0 }
    in
    Array.iter (fun j -> vstat.(j) <- basic) st.basis;
    compute_xb st;
    st

  let load_y st cost =
    for i = 0 to st.m - 1 do
      st.y.(i) <- cost.(st.basis.(i))
    done

  let compute_y st cost =
    load_y st cost;
    btran st st.y

  (* Reduced cost d_j = cost_j - Σ_i a_ij·y_i into [st.d.(j)], down
     column j of [st.a].  Rows ascend within a column and y_i = 0 terms
     are skipped, so this performs the same subtractions in the same
     order as a row-wise pass over Aᵀ: the result is bit-identical to it.
     The hottest loop of the engine, hence unchecked reads: j < n, the
     column pointers delimit [rowidx]/[values], and row ids are < m. *)
  let price st cost j =
    let a = st.a and y = st.y in
    let colptr = a.Sparse.colptr and rowidx = a.Sparse.rowidx in
    let values = a.Sparse.values in
    let d = ref (Array.unsafe_get cost j) in
    for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
      let yi = Array.unsafe_get y (Array.unsafe_get rowidx k) in
      if yi <> 0.0 then d := !d -. (Array.unsafe_get values k *. yi)
    done;
    Array.unsafe_set st.d j !d

  (* Columns that may enter: nonbasic, nonzero range, not artificial
     (artificials are the tail [art0, n) and never re-enter). *)
  let[@inline] eligible st j = st.vstat.(j) <> basic && st.ub.(j) > 0.0

  (* How much column j's reduced cost improves the objective from its
     current bound: at-lower wants d < 0, at-upper wants d > 0. *)
  let[@inline] attract st j dj =
    if st.vstat.(j) = at_lower then (if dj < -.eps then -.dj else 0.0)
    else if dj > eps then dj
    else 0.0

  let[@inline] set_att st j = st.att.(j) <- attract st j st.d.(j)

  (* [price] plus [st.att] of eligible column j. *)
  let price_att st cost j =
    price st cost j;
    set_att st j

  (* [st.d] over the eligible columns (the only entries read after) and
     [st.att] over every column j < art0. *)
  let price_full st cost =
    for j = 0 to st.art0 - 1 do
      if eligible st j then price_att st cost j else st.att.(j) <- 0.0
    done

  (* [compute_y] that keeps [st.d] and [st.att] current for every
     eligible column, given they were current for [st.yp] and for every
     eligible column but [left] (the column the last pivot took out of
     the basis, or -1).  [price] reads y only in column j's rows and
     skips ±0, so d_j is unchanged bit for bit unless one of those y_i
     changed under float [<>]: only such columns, and [left], are
     repriced.  The compare pass also counts y's nonzeros for the
     btran_nnz counter.  Unchecked reads: i < m, [rptr] delimits
     [rcol], and its column ids are < art0. *)
  let reprice_y st cost ~left =
    load_y st cost;
    Sparse.Lu.btran st.f st.y;
    st.gen <- st.gen + 1;
    let gen = st.gen and y = st.y and yp = st.yp in
    let rptr = st.rptr and rcol = st.rcol and seen = st.seen in
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      let yi = Array.unsafe_get y i in
      if yi <> 0.0 then incr nz;
      if yi <> Array.unsafe_get yp i then begin
        Array.unsafe_set yp i yi;
        for k = Array.unsafe_get rptr i to Array.unsafe_get rptr (i + 1) - 1 do
          let j = Array.unsafe_get rcol k in
          if Array.unsafe_get seen j <> gen then begin
            Array.unsafe_set seen j gen;
            if eligible st j then price_att st cost j
          end
        done
      end
    done;
    st.c_btran <- st.c_btran + !nz;
    if left >= 0 && left < st.art0 && st.seen.(left) <> gen && eligible st left
    then price_att st cost left

  (* Entering column from [st.att], which reads 0 on every column that
     may not enter: the first strict maximum in ascending j, -1 when
     none attracts. *)
  let enter_dantzig st =
    let best = ref 0.0 and entering = ref (-1) in
    for j = 0 to st.art0 - 1 do
      let aj = Array.unsafe_get st.att j in
      if aj > !best then begin
        best := aj;
        entering := j
      end
    done;
    !entering

  (* Guided Phase 1: the best preferred column if any attracts, else the
     Dantzig choice over every eligible column — both from one pass. *)
  let enter_guided st pref =
    let best = ref 0.0 and entering = ref (-1) in
    let pbest = ref 0.0 and pentering = ref (-1) in
    for j = 0 to st.art0 - 1 do
      let aj = st.att.(j) in
      if aj > !best then begin
        best := aj;
        entering := j
      end;
      if pref.(j) && aj > !pbest then begin
        pbest := aj;
        pentering := j
      end
    done;
    if !pentering >= 0 then !pentering else !entering

  (* Bland: the lowest-index attractive column. *)
  let enter_bland st =
    let j = ref 0 and entering = ref (-1) in
    while !entering = -1 && !j < st.art0 do
      if st.att.(!j) > 0.0 then entering := !j;
      incr j
    done;
    !entering

  let arts_zero st =
    let ok = ref true in
    for i = 0 to st.m - 1 do
      match st.kinds.(st.basis.(i)) with
      | Artificial _ when st.xb.(i) > feas_eps -> ok := false
      | _ -> ()
    done;
    !ok

  let phase1_sum st =
    let s = ref 0.0 in
    for i = 0 to st.m - 1 do
      match st.kinds.(st.basis.(i)) with
      | Artificial _ -> s := !s +. Float.max 0.0 st.xb.(i)
      | _ -> ()
    done;
    !s

  (* Bound flip: the entering column hits its own opposite bound before
     any basic variable blocks — no basis change, no factor update, just
     an x_B shift by the full range. *)
  let apply_flip st ~q ~sigma =
    let uq = st.ub.(q) in
    for k = 0 to st.wn - 1 do
      let i = st.wnz.(k) in
      st.xb.(i) <- st.xb.(i) -. (sigma *. uq *. st.w.(i));
      clamp_row st i
    done;
    st.vstat.(q) <- (if st.vstat.(q) = at_lower then at_upper else at_lower);
    st.c_flips <- st.c_flips + 1

  (* Basis change: entering q (FTRAN'd into st.w by [ftran_col], whose
     spike the factor cached), leaving row [row] whose variable exits to
     its lower (default) or upper bound.  The x_B rows are independent,
     so visiting only the listed nonzeros of w is the dense pass. *)
  let do_pivot st ~row ~q ~sigma ~t ~to_upper =
    let leave = st.basis.(row) in
    for k = 0 to st.wn - 1 do
      let i = st.wnz.(k) in
      st.xb.(i) <- st.xb.(i) -. (sigma *. t *. st.w.(i));
      clamp_row st i
    done;
    let xq = if sigma > 0.0 then t else st.ub.(q) -. t in
    st.xb.(row) <- Float.max 0.0 xq;
    st.vstat.(leave) <- (if to_upper then at_upper else at_lower);
    st.vstat.(q) <- basic;
    st.basis.(row) <- q;
    if Sparse.Lu.update st.f ~leaving_row:row then begin
      st.c_ft <- st.c_ft + 1;
      maybe_refactor st
    end
    else
      (* Update refused on stability grounds: rebuild the factor from
         the (already updated) basis — the half-mutated factor is
         discarded wholesale. *)
      refactor st

  (* Three-limit ratio test for entering column q moving in direction
     [sigma] (+1 from lower, -1 from upper): a basic variable drops to
     zero, a basic variable hits its (finite) range, or the entering
     variable traverses its own range — the last is a bound flip.  The
     default is a Harris-style two-pass rule extended to range limits
     (numerically largest pivot among near-minimal ratios); Bland mode
     uses the exact minimum-ratio rule with lowest-basic-index
     tie-breaks (flip preferred on ties — it strictly moves x_q across a
     positive range, so it cannot cycle).  Rows with
     w_i = ±0 are skipped by every pass.  The Harris passes visit only
     the listed nonzeros, in list order: pass 1 is a minimum and pass 2
     a maximum of |w_i| tie-broken on distinct basis indices, so the
     order cannot change their result.  The Bland pass's eps-window
     tie-breaks are order-dependent and keep the ascending dense pass. *)
  let ratio_test st ~q ~sigma ~use_bland =
    let uq = st.ub.(q) in
    if use_bland then begin
      let best = ref (-1)
      and best_ratio = ref uq
      and best_up = ref false in
      for i = 0 to st.m - 1 do
        let wi = sigma *. st.w.(i) in
        if wi > eps then begin
          let r = Float.max 0.0 st.xb.(i) /. wi in
          if
            r < !best_ratio -. eps
            || (r < !best_ratio +. eps && !best >= 0
                && st.basis.(i) < st.basis.(!best))
          then begin
            best := i;
            best_ratio := r;
            best_up := false
          end
        end
        else if wi < -.eps then begin
          let ubi = st.ub.(st.basis.(i)) in
          if ubi < infinity then begin
            let r = Float.max 0.0 (ubi -. st.xb.(i)) /. -.wi in
            if
              r < !best_ratio -. eps
              || (r < !best_ratio +. eps && !best >= 0
                  && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_ratio := r;
              best_up := true
            end
          end
        end
      done;
      if !best = -1 then (if uq = infinity then `Unbounded else `Flip)
      else `Pivot (!best, !best_ratio, !best_up)
    end
    else begin
      (* Pass 1: largest step keeping every basic value within
         [-feas_eps, ub + feas_eps]; the entering range is a hard cap. *)
      let tmax = ref uq in
      for k = 0 to st.wn - 1 do
        let i = st.wnz.(k) in
        let wi = sigma *. st.w.(i) in
        if wi > eps then begin
          let t = (Float.max 0.0 st.xb.(i) +. feas_eps) /. wi in
          if t < !tmax then tmax := t
        end
        else if wi < -.eps then begin
          let ubi = st.ub.(st.basis.(i)) in
          if ubi < infinity then begin
            let t = (Float.max 0.0 (ubi -. st.xb.(i)) +. feas_eps) /. -.wi in
            if t < !tmax then tmax := t
          end
        end
      done;
      if !tmax = infinity then `Unbounded
      else begin
        (* Pass 2: numerically largest pivot among rows whose exact
           ratio fits under the relaxed bound. *)
        let best = ref (-1)
        and best_piv = ref 0.0
        and best_ratio = ref 0.0
        and best_up = ref false in
        for k = 0 to st.wn - 1 do
          let i = st.wnz.(k) in
          let wi = sigma *. st.w.(i) in
          let consider exact up =
            if exact <= !tmax then begin
              let a = Float.abs st.w.(i) in
              if
                a > !best_piv
                || (a = !best_piv && !best >= 0
                    && st.basis.(i) < st.basis.(!best))
              then begin
                best := i;
                best_piv := a;
                best_ratio := exact;
                best_up := up
              end
            end
          in
          if wi > eps then consider (Float.max 0.0 st.xb.(i) /. wi) false
          else if wi < -.eps then begin
            let ubi = st.ub.(st.basis.(i)) in
            if ubi < infinity then
              consider (Float.max 0.0 (ubi -. st.xb.(i)) /. -.wi) true
          end
        done;
        if !best = -1 then (if uq < infinity then `Flip else `Unbounded)
        else if uq <= !best_ratio then `Flip
        else `Pivot (!best, !best_ratio, !best_up)
      end
    end

  (* One optimization phase; the bounded mirror of the dense engine's
     [optimize] with signed attractiveness (at-lower wants d < 0,
     at-upper wants d > 0) and bound flips counted as iterations. *)
  let optimize st ~cost ?prefer ~max_iters ~deadline iters =
    (* [st.d] is kept current by [reprice_y] once the first full pricing
       pass has set it up. *)
    let priced = ref false and left = ref (-1) in
    let bland_threshold =
      match !bland_from with Some k -> k - 1 | None -> 20 * (st.m + st.n)
    in
    let out_of_budget () =
      !iters > max_iters
      || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
    in
    let y_and_d () =
      if !priced then reprice_y st cost ~left:!left
      else begin
        compute_y st cost;
        price_full st cost;
        Array.blit st.y 0 st.yp 0 st.m;
        priced := true
      end
    in
    let rec loop () =
      if out_of_budget () then `Budget
      else begin
        let use_bland = !iters > bland_threshold in
        y_and_d ();
        let entering =
          if use_bland then enter_bland st
          else
            match prefer with
            | Some pref -> enter_guided st pref
            | None -> enter_dantzig st
        in
        if entering = -1 then `Optimal
        else begin
          let q = entering in
          let sigma = if st.vstat.(q) = at_lower then 1.0 else -1.0 in
          ftran_col st q;
          match ratio_test st ~q ~sigma ~use_bland with
          | `Unbounded -> `Unbounded
          | `Flip ->
            incr iters;
            apply_flip st ~q ~sigma;
            (* Same d_q, opposite bound. *)
            set_att st q;
            left := -1;
            loop ()
          | `Pivot (row, t, to_upper) ->
            incr iters;
            left := st.basis.(row);
            do_pivot st ~row ~q ~sigma ~t ~to_upper;
            st.att.(q) <- 0.0;
            loop ()
        end
      end
    in
    loop ()

  (* Drive remaining basic artificials out after Phase 1 (same scan and
     threshold as the dense engine; replacements enter from lower). *)
  let drive_out st ~is_artificial iters =
    for i = 0 to st.m - 1 do
      if is_artificial st.basis.(i) then begin
        Array.fill st.rho 0 st.m 0.0;
        st.rho.(i) <- 1.0;
        btran st st.rho;
        let found = ref (-1) in
        (try
           for j = 0 to st.n - 1 do
             if
               (not (is_artificial j))
               && st.vstat.(j) = at_lower
               && st.ub.(j) > 0.0
               && Float.abs (Sparse.col_dot st.a j st.rho) > 1e-7
             then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          let q = !found in
          ftran_col st q;
          let t = Float.max 0.0 (st.xb.(i) /. st.w.(i)) in
          incr iters;
          do_pivot st ~row:i ~q ~sigma:1.0 ~t ~to_upper:false
        end
      end
    done

  (* Bounded dual-simplex repair: only entered when the reinstalled
     basis is dual feasible (at-lower columns price >= 0, at-upper
     columns price <= 0).  Handles both primal violation kinds — a basic
     value below zero (the classic case) and a basic value pushed above
     its now-tighter range (the MIP bound-fixing case); the leaving
     variable exits to the violated bound and the entering column is
     chosen by the dual ratio test restricted to sign-compatible
     candidates.  Any doubt -> false, caller falls back to Phase 1. *)
  let dual_repair st ~max_iters ~deadline iters =
    let cost = st.cost in
    compute_y st cost;
    price_full st cost;
    let dual_ok = ref true in
    for j = 0 to st.art0 - 1 do
      if eligible st j then
        if st.vstat.(j) = at_lower then begin
          if st.d.(j) < -.feas_eps then dual_ok := false
        end
        else if st.d.(j) > feas_eps then dual_ok := false
    done;
    if not !dual_ok then false
    else begin
      let stall_cap = 10 * (st.m + st.n) in
      let steps = ref 0 in
      let result = ref `Run in
      while !result = `Run do
        if
          !iters > max_iters
          || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
          || !steps > stall_cap
        then result := `Fail
        else begin
          let row = ref (-1) and worst = ref feas_eps and below = ref true in
          for i = 0 to st.m - 1 do
            if -.st.xb.(i) > !worst then begin
              worst := -.st.xb.(i);
              row := i;
              below := true
            end
            else begin
              let ubi = st.ub.(st.basis.(i)) in
              if ubi < infinity && st.xb.(i) -. ubi > !worst then begin
                worst := st.xb.(i) -. ubi;
                row := i;
                below := false
              end
            end
          done;
          if !row = -1 then result := `Done
          else begin
            let r = !row in
            Array.fill st.rho 0 st.m 0.0;
            st.rho.(r) <- 1.0;
            btran st st.rho;
            let col = ref (-1) and best = ref infinity in
            for j = 0 to st.art0 - 1 do
              if eligible st j then begin
                let alpha = Sparse.col_dot st.a j st.rho in
                let ratio =
                  if !below then
                    if st.vstat.(j) = at_lower && alpha < -.eps then
                      st.d.(j) /. -.alpha
                    else if st.vstat.(j) = at_upper && alpha > eps then
                      -.st.d.(j) /. alpha
                    else infinity
                  else if st.vstat.(j) = at_lower && alpha > eps then
                    st.d.(j) /. alpha
                  else if st.vstat.(j) = at_upper && alpha < -.eps then
                    st.d.(j) /. alpha
                  else infinity
                in
                if
                  ratio < !best -. eps
                  || (ratio < !best +. eps && ratio < infinity
                      && (!col = -1 || j < !col))
                then begin
                  best := ratio;
                  col := j
                end
              end
            done;
            if !col = -1 then result := `Fail
            else begin
              let q = !col in
              ftran_col st q;
              incr steps;
              incr iters;
              let leave = st.basis.(r) in
              st.vstat.(leave) <- (if !below then at_lower else at_upper);
              st.vstat.(q) <- basic;
              st.basis.(r) <- q;
              (* A refused update can leave [refactor] a numerically
                 singular basis: that is doubt too, and the caller
                 restarts from a fresh state. *)
              match
                if Sparse.Lu.update st.f ~leaving_row:r then begin
                  st.c_ft <- st.c_ft + 1;
                  maybe_refactor st
                end
                else refactor st
              with
              | exception Numerical _ -> result := `Fail
              | () ->
                (* The dual step changes several basic values at once
                   (entering from either bound): resync rather than
                   track incrementally — repairs are a handful of
                   pivots. *)
                compute_xb st;
                compute_y st cost;
                price_full st cost
            end
          end
        end
      done;
      !result = `Done && arts_zero st
    end

  (* Warm reinstall: translate the stored basis (original variable ids,
     reduced row ids) into current columns and factorize the set — one
     LU factorization, no priced pivots.  The at-upper set restores from
     [b_upper] through the presolve column map. *)
  let try_exact_install (red : Presolve.t) st wb =
    let m = st.m in
    let slack_col = Array.make m (-1)
    and surplus_col = Array.make m (-1)
    and art_col = Array.make m (-1) in
    Array.iteri
      (fun j k ->
        match k with
        | Slack i -> slack_col.(i) <- j
        | Surplus i -> surplus_col.(i) <- j
        | Artificial i -> art_col.(i) <- j
        | Structural _ -> ())
      st.kinds;
    let target i =
      match wb.b_entries.(i) with
      | Bstructural j ->
        if j < red.Presolve.p_nv && red.Presolve.col_map.(j) >= 0 then
          red.Presolve.col_map.(j)
        else -1
      | Brow_slack r -> if r < m then slack_col.(r) else -1
      | Brow_surplus r -> if r < m then surplus_col.(r) else -1
      | Brow_artificial r -> if r < m then art_col.(r) else -1
    in
    let targets = Array.init m target in
    st.c_factor <- st.c_factor + 1;
    let basis_out = Array.make m (-1) in
    (* On a drop the caller discards [st], so the crash factor's storage
       can take the install. *)
    let f, dropped =
      Sparse.Lu.factorize ~into:st.f st.a ~targets ~crash:st.crash ~basis_out
    in
    if dropped <> [] then None
    else begin
      st.f <- f;
      st.base_nnz <- Sparse.Lu.nnz f;
      Array.blit basis_out 0 st.basis 0 m;
      Array.fill st.vstat 0 st.n at_lower;
      Array.iter
        (fun j ->
          if j >= 0 && j < red.Presolve.p_nv then begin
            let rj = red.Presolve.col_map.(j) in
            if rj >= 0 && st.ub.(rj) > 0.0 && st.ub.(rj) < infinity then
              st.vstat.(rj) <- at_upper
          end)
        wb.b_upper;
      Array.iter (fun j -> st.vstat.(j) <- basic) st.basis;
      compute_xb st;
      let rhs_ok = ref true and art_ok = ref true in
      for i = 0 to m - 1 do
        let ubi = st.ub.(st.basis.(i)) in
        if st.xb.(i) < -.feas_eps || st.xb.(i) > ubi +. feas_eps then
          rhs_ok := false;
        match st.kinds.(st.basis.(i)) with
        | Artificial _ when st.xb.(i) > feas_eps -> art_ok := false
        | _ -> ()
      done;
      if not !art_ok then None else Some !rhs_ok
    end

  let warm_prefer_red (red : Presolve.t) n wb =
    let pref = Array.make n false in
    Array.iter
      (function
        | Bstructural j when j < red.Presolve.p_nv ->
          let rj = red.Presolve.col_map.(j) in
          if rj >= 0 then pref.(rj) <- true
        | _ -> ())
      wb.b_entries;
    pref

  let rec solve model ~max_iters ~deadline ~warm =
    let t0 = Prete_util.Clock.now () in
    match Presolve.reduce model with
    | Presolve.Infeasible -> Infeasible
    | Presolve.Unbounded -> (
      (* An empty improving column with no finite bound: the model is
         unbounded exactly when the rest of it is feasible.  Cleared of
         its objective, the column is no longer improving and presolve
         fixes it, so this engine's own Phase 1 decides. *)
      match
        solve (Lp.Internal.without_objective model) ~max_iters ~deadline ~warm
      with
      | Optimal _ -> Unbounded
      | Infeasible | Unbounded -> Infeasible)
    | Presolve.Reduced red ->
      let presolve_wall = Prete_util.Clock.elapsed_since t0 in
      (* Set-up wall: every engine state built for this solve. *)
      let state_wall = ref 0.0 in
      let make_state red =
        let t = Prete_util.Clock.now () in
        let st = make_state red in
        state_wall := !state_wall +. Prete_util.Clock.elapsed_since t;
        st
      in
      let nv0 = red.Presolve.p_nv in
      let sign = red.Presolve.sign in
      let finish ~x_red ~y_red ~iters ~degraded ~warm_used ~phase1_skipped
          ~repaired ~st_opt =
        let x_orig, y_min = Presolve.postsolve red ~x:x_red ~y:y_red in
        let objective = ref 0.0 in
        for j = 0 to nv0 - 1 do
          objective :=
            !objective +. (sign *. red.Presolve.cost_min.(j) *. x_orig.(j))
        done;
        let duals = Array.map (fun v -> sign *. v) y_min in
        let b_entries, b_upper, b_m, refactors, ftn, btn, ftu, flips, fill =
          match st_opt with
          | None -> ([||], [||], 0, 0, 0, 0, 0, 0, 0)
          | Some st ->
            let entries =
              Array.map
                (fun bcol ->
                  match st.kinds.(bcol) with
                  | Structural j -> Bstructural red.Presolve.col_of.(j)
                  | Slack i -> Brow_slack i
                  | Surplus i -> Brow_surplus i
                  | Artificial i -> Brow_artificial i)
                st.basis
            in
            let upper =
              let acc = ref [] in
              for j = st.nv - 1 downto 0 do
                if st.vstat.(j) = at_upper then
                  acc := red.Presolve.col_of.(j) :: !acc
              done;
              Array.of_list !acc
            in
            ( entries, upper, st.m, st.c_factor, st.c_ftran, st.c_btran,
              st.c_ft, st.c_flips, Sparse.Lu.nnz st.f )
        in
        Optimal
          {
            objective = !objective;
            values = x_orig;
            duals;
            iterations = iters;
            degraded;
            basis = { b_nv = nv0; b_m; b_entries; b_upper };
            warm_used;
            phase1_skipped;
            repaired;
            engine = Lu;
            refactorizations = refactors;
            ftran_nnz = ftn;
            btran_nnz = btn;
            ft_updates = ftu;
            bound_flips = flips;
            lu_fill_nnz = fill;
            presolve_rows = red.Presolve.rows_removed;
            presolve_cols = red.Presolve.cols_removed;
            presolve_wall;
            state_wall = !state_wall;
            pivot_wall =
              Float.max 0.0
                (Prete_util.Clock.elapsed_since t0 -. presolve_wall -. !state_wall);
          }
      in
      if red.Presolve.r_nv = 0 then begin
        (* Presolve solved the model outright; the surviving rows (if
           any) have empty left-hand sides — check their consistency. *)
        let ok = ref true in
        Array.iteri
          (fun ri s ->
            let r = red.Presolve.r_rhs.(ri) in
            let tol = feas_eps *. (1.0 +. Float.abs r) in
            match s with
            | Lp.Le -> if r < -.tol then ok := false
            | Lp.Ge -> if r > tol then ok := false
            | Lp.Eq -> if Float.abs r > tol then ok := false)
          red.Presolve.r_sense;
        if not !ok then Infeasible
        else
          (* A supplied warm basis is subsumed: presolve reached the
             optimum without a single pivot, which is at least as good
             as any reinstall. *)
          finish ~x_red:[||]
            ~y_red:(Array.make red.Presolve.r_nc 0.0)
            ~iters:0 ~degraded:false
            ~warm_used:(Option.is_some warm)
            ~phase1_skipped:true ~repaired:false ~st_opt:None
      end
      else begin
        let iters = ref 0 in
        let st, warm_used, phase1_skipped, repaired, prefer =
          match warm with
          | Some wb when wb.b_nv = nv0 && wb.b_m <> red.Presolve.r_nc ->
            (* The stored basis cannot reinstall (row counts differ):
               straight to guided Phase 1 on the one state. *)
            let st = make_state red in
            (st, true, false, true, Some (warm_prefer_red red st.n wb))
          | Some wb when wb.b_nv = nv0 -> (
            let st0 = make_state red in
            match try_exact_install red st0 wb with
            | Some true -> (st0, true, true, false, None)
            | Some false when dual_repair st0 ~max_iters ~deadline iters ->
              (st0, true, true, true, None)
            | Some false | None ->
              ( make_state red, true, false, true,
                Some (warm_prefer_red red st0.n wb) ))
          | _ -> (make_state red, false, false, false, None)
        in
        let is_artificial j = j >= st.art0 in
        let feasible_start =
          if phase1_skipped then true
          else begin
            let c1 = Array.make st.n 0.0 in
            Array.iteri
              (fun j k ->
                match k with Artificial _ -> c1.(j) <- 1.0 | _ -> ())
              st.kinds;
            (match optimize st ~cost:c1 ?prefer ~max_iters ~deadline iters with
            | `Unbounded ->
              raise (Numerical "Simplex: phase 1 unbounded (internal error)")
            | `Budget -> raise Timeout
            | `Optimal -> ());
            phase1_sum st <= feas_eps
          end
        in
        if not feasible_start then Infeasible
        else begin
          drive_out st ~is_artificial iters;
          let cost = st.cost in
          let extract ~degraded =
            compute_xb st;
            let xr = Array.make st.nv 0.0 in
            for j = 0 to st.nv - 1 do
              if st.vstat.(j) = at_upper then xr.(j) <- st.ub.(j)
            done;
            for i = 0 to st.m - 1 do
              match st.kinds.(st.basis.(i)) with
              | Structural j -> xr.(j) <- st.xb.(i)
              | Slack _ | Surplus _ | Artificial _ -> ()
            done;
            let x_red =
              Array.init st.nv (fun j -> red.Presolve.r_lb.(j) +. xr.(j))
            in
            compute_y st cost;
            let y_red =
              Array.init st.m (fun i ->
                  if st.flipped.(i) then -.st.y.(i) else st.y.(i))
            in
            finish ~x_red ~y_red ~iters:!iters ~degraded ~warm_used
              ~phase1_skipped ~repaired ~st_opt:(Some st)
          in
          match optimize st ~cost ~max_iters ~deadline iters with
          | `Unbounded -> Unbounded
          | `Optimal -> extract ~degraded:false
          | `Budget -> extract ~degraded:true
        end
      end
end

let solve ?(max_iters = 200_000) ?deadline ?warm ?engine model =
  let engine = match engine with Some e -> e | None -> !default_engine in
  match engine with
  | Dense -> solve_dense (prepare model) ~max_iters ~deadline ~warm
  | Lu -> Blu.solve model ~max_iters ~deadline ~warm

let value sol (v : Lp.var) = sol.values.((v :> int))

let dual sol i = sol.duals.(i)

let feasible ?(eps = 1e-6) model x =
  let lbs = Lp.Internal.lower model and ubs = Lp.Internal.upper model in
  let r = Lp.Internal.rows model in
  Array.length x = Array.length lbs
  && Array.for_all2 (fun xi lb -> xi >= lb -. eps) x lbs
  && Array.for_all2 (fun xi ub -> xi <= ub +. eps) x ubs
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < r.Lp.Internal.nrows do
    let lhs = ref 0.0 in
    for k = r.Lp.Internal.start.(!i) to r.Lp.Internal.start.(!i + 1) - 1 do
      lhs := !lhs +. (r.Lp.Internal.coef.(k) *. x.(r.Lp.Internal.var.(k)))
    done;
    let rhs = r.Lp.Internal.rhs.(!i) in
    (ok :=
       match r.Lp.Internal.sense.(!i) with
       | Lp.Le -> !lhs <= rhs +. eps
       | Lp.Ge -> !lhs >= rhs -. eps
       | Lp.Eq -> Float.abs (!lhs -. rhs) <= eps);
    incr i
  done;
  !ok
