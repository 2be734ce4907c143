module Lp = Prete_lp.Lp
module Simplex = Prete_lp.Simplex

exception Violation of string

let sense_name = function Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "="

let tol = 1e-6

let certify model (sol : Simplex.solution) =
  let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt in
  let lbs = Lp.Internal.lower model and ubs = Lp.Internal.upper model in
  let r = Lp.Internal.rows model in
  let dir, c = Lp.Internal.objective model in
  let nv = Lp.num_vars model and nc = r.Lp.Internal.nrows in
  let x = sol.Simplex.values and y = sol.Simplex.duals in
  let check_duals = not sol.Simplex.degraded in
  (* Min form: s·c is the cost and s·y the multipliers, so that
     d = s·c - Aᵀ(s·y) is the reduced-cost vector. *)
  let s = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cmax = Array.fold_left (fun a cj -> Float.max a (Float.abs cj)) 0.0 c in
  let ytol = tol *. (1.0 +. cmax) in
  let d = Array.map (fun cj -> s *. cj) c in
  let dscale = Array.map Float.abs c in
  let dual_obj = ref 0.0 and gap_scale = ref 1.0 in
  match
    if Array.length x <> nv || Array.length y <> nc then
      fail "%d values and %d duals for %d variables and %d rows" (Array.length x)
        (Array.length y) nv nc;
    for i = 0 to nc - 1 do
      let b = r.Lp.Internal.rhs.(i) and sense = r.Lp.Internal.sense.(i) in
      let yi = s *. y.(i) in
      let act = ref 0.0 and mag = ref 0.0 in
      for k = r.Lp.Internal.start.(i) to r.Lp.Internal.start.(i + 1) - 1 do
        let j = r.Lp.Internal.var.(k) and a = r.Lp.Internal.coef.(k) in
        act := !act +. (a *. x.(j));
        mag := !mag +. Float.abs (a *. x.(j));
        d.(j) <- d.(j) -. (a *. yi);
        dscale.(j) <- dscale.(j) +. Float.abs (a *. yi)
      done;
      let viol =
        match sense with
        | Lp.Le -> !act -. b
        | Lp.Ge -> b -. !act
        | Lp.Eq -> Float.abs (!act -. b)
      in
      (* Negated, so that a NaN fails. *)
      if not (viol <= tol *. (1.0 +. Float.abs b +. !mag)) then
        fail "row %d: lhs %g %s rhs %g violated by %g" i !act (sense_name sense) b viol;
      if check_duals then begin
        let wrong =
          match sense with
          | Lp.Le -> not (yi <= ytol)
          | Lp.Ge -> not (yi >= -.ytol)
          | Lp.Eq -> Float.is_nan yi
        in
        if wrong then fail "row %d (%s): dual %g has the wrong sign" i (sense_name sense) y.(i);
        dual_obj := !dual_obj +. (b *. yi);
        gap_scale := !gap_scale +. Float.abs (b *. yi)
      end
    done;
    let primal_obj = ref 0.0 and cx = ref 0.0 and cx_scale = ref 1.0 in
    for j = 0 to nv - 1 do
      let xj = x.(j) and lb = lbs.(j) and ub = ubs.(j) in
      if not (xj >= lb -. (tol *. (1.0 +. Float.abs lb))) then
        fail "x%d = %g below its lower bound %g" j xj lb;
      if not (xj <= ub +. (tol *. (1.0 +. Float.abs ub))) then
        fail "x%d = %g above its upper bound %g" j xj ub;
      cx := !cx +. (c.(j) *. xj);
      cx_scale := !cx_scale +. Float.abs (c.(j) *. xj);
      if check_duals then begin
        let dj = d.(j) and dtol = tol *. (1.0 +. dscale.(j)) in
        let at_lower = lb > neg_infinity && xj -. lb <= tol *. (1.0 +. Float.abs lb) in
        let at_upper = ub < infinity && ub -. xj <= tol *. (1.0 +. Float.abs ub) in
        (match (at_lower, at_upper) with
        | true, true -> ()
        | true, false ->
          if not (dj >= -.dtol) then fail "x%d at its lower bound has reduced cost %g" j dj
        | false, true ->
          if not (dj <= dtol) then fail "x%d at its upper bound has reduced cost %g" j dj
        | false, false ->
          if not (Float.abs dj <= dtol) then
            fail "x%d = %g strictly inside its bounds has reduced cost %g" j xj dj);
        (* The bound each reduced cost prices in the dual objective; an
           infinite one means a sign the check above already judged. *)
        let bound = if dj >= 0.0 then lb else ub in
        let bound = if Float.is_finite bound then bound else xj in
        dual_obj := !dual_obj +. (dj *. bound);
        gap_scale := !gap_scale +. Float.abs (dj *. bound) +. Float.abs (s *. c.(j) *. xj);
        primal_obj := !primal_obj +. (s *. c.(j) *. xj)
      end
    done;
    if not (Float.abs (sol.Simplex.objective -. !cx) <= tol *. !cx_scale) then
      fail "objective %g differs from c.x = %g" sol.Simplex.objective !cx;
    if check_duals then begin
      let gap = !primal_obj -. !dual_obj in
      if not (Float.abs gap <= tol *. !gap_scale) then
        fail "duality gap %g (primal %g, dual %g)" gap (s *. !primal_obj) (s *. !dual_obj)
    end
  with
  | () -> Ok ()
  | exception Violation msg -> Error msg
