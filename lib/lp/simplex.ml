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
      (* original structural variables nonbasic at their upper bound,
         restored as at-upper on reinstall *)
}

let basis_size b = b.b_m

let bland_from = ref None

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

(* ---- Bounded-variable LU engine ----------------------------------------

   Three things keep a solve cheap on TE-sized models:

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

   The warm-start ladder is exact reinstall (one LU factorize) -> bounded
   dual repair -> guided Phase 1, with the dual repair covering
   above-upper violations too, so MIP bound fixings (which push basic
   variables over a tightened range) repair in a few dual pivots.
   Stored bases carry the at-upper set ([b_upper]) keyed by original
   variable ids; [b_m] is the {e reduced} row count, so a basis from a
   differently reduced model fails the shape check and degrades to
   guided Phase 1 — the structural ids still steer the pricing. *)
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

  (* Clamp round-off violations of row i's basic range. *)
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
    (* Shift x = r_lb + x' and flip negative-rhs rows in-matrix (scale
       by -1, not a sense rewrite), so the column layout depends only on
       the senses and a stored basis reinstalls across rhs-only changes
       (MIP bound fixings, Benders cut updates, delta re-rounding). *)
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

  (* One optimization phase with signed attractiveness (at-lower wants
     d < 0, at-upper wants d > 0) and bound flips counted as iterations.
     [prefer] (guided Phase 1) marks the columns a warm basis had basic;
     Bland mode ignores it to keep the anti-cycling guarantee. *)
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

  (* Drive remaining basic artificials out after Phase 1: each is
     replaced by the first nonartificial column at its lower bound, with
     a nonzero range, whose entry in the artificial's row exceeds 1e-7.
     An artificial with no such column marks a redundant row and stays
     basic at 0. *)
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

let solve ?(max_iters = 200_000) ?deadline ?warm model =
  Blu.solve model ~max_iters ~deadline ~warm

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
