module Lp = Prete_lp.Lp

type solution = {
  objective : float;
  values : float array;
  duals : float array;
  iterations : int;
}

type outcome = Optimal of solution | Infeasible | Unbounded

let eps = 1e-9
let feas_eps = 1e-7
let max_iters = 200_000

type col_kind = Structural of int | Slack of int | Surplus of int | Artificial of int

(* ---- Normalization -----------------------------------------------------

   The tableau solves the normalized problem: variables shifted to zero
   lower bound, finite upper bounds as extra Le rows, every row carrying
   an artificial so the identity column of row i is always [art0 + i].
   A negative rhs is handled by scaling the row by -1 inside the matrix
   (recorded in [flipped]), not by rewriting the sense. *)

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
        invalid_arg "Dense.solve: free variables (lb = -inf) unsupported")
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

(* ---- Tableau -----------------------------------------------------------

   [rows] is m × n, [rhs] is m (kept >= 0 up to round-off), [obj] holds
   reduced costs and [obj_val] the negated current objective
   contribution; [basis.(i)] is the column basic in row i. *)
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

(* One optimization phase: Dantzig's rule, switching to Bland's after
   20·(m + n) pivots.  [banned c] excludes columns from entering. *)
let optimize t ~banned iters =
  let bland_threshold = 20 * (t.m + t.n) in
  let rec loop () =
    if !iters > max_iters then failwith "Dense.solve: pivot budget expired"
    else
    let use_bland = !iters > bland_threshold in
    let entering = ref (-1) and best = ref (-.eps) in
    (try
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
     with Exit -> ());
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

let solve model =
  let p = prepare model in
  let { p_nv = nv; p_nc = nc; p_m = m; p_n = n; p_art0 = art0;
        p_rows = row_arr; p_lbs = lbs; p_obj_const = obj_const;
        p_sign = sign; p_cost = phase2_cost; _ } = p in
  let is_artificial j = j >= art0 in
  let iters = ref 0 in
  let t = make_tableau p in
  let kinds = t.kinds in
  (* ---- Phase 1 ---- *)
  let phase1_cost = Array.make n 0.0 in
  Array.iteri
    (fun j k -> match k with Artificial _ -> phase1_cost.(j) <- 1.0 | _ -> ())
    kinds;
  install_costs t phase1_cost;
  (* Artificials never need to re-enter: they start basic wherever needed
     and are only driven out. *)
  (match optimize t ~banned:is_artificial iters with
  | `Unbounded -> failwith "Dense.solve: phase 1 unbounded (internal error)"
  | `Optimal -> ());
  (* obj_val tracks -(current phase-1 objective). *)
  if not (-.t.obj_val <= feas_eps) then Infeasible
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
    match optimize t ~banned:is_artificial iters with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let shifted = Array.make nv 0.0 in
      for i = 0 to m - 1 do
        match kinds.(t.basis.(i)) with
        | Structural j -> shifted.(j) <- t.rhs.(i)
        | Slack _ | Surplus _ | Artificial _ -> ()
      done;
      let values = Array.init nv (fun j -> lbs.(j) +. shifted.(j)) in
      let objective = (sign *. -.t.obj_val) +. obj_const in
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
      Optimal { objective; values; duals; iterations = !iters }
  end
