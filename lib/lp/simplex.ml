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
  factor_wall : float;
  pivot_wall : float;
}

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical of string

exception Timeout

let eps = 1e-9
let feas_eps = 1e-7

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
   guided Phase 1 — the structural ids still steer the pricing.

   Columns are laid out structural [0, nv) | slack [nv, sur0) | surplus
   [sur0, art0) | artificial [art0, n), artificial art0 + i on row i; a
   logical column's row is [krow].

   Storage: the state, its arrays and its LU factor are one per domain
   ([state_key]), grown to the largest problem seen and never shrunk.
   A solve takes the state when presolve hands it a reduced model and
   gives it back when it returns or raises; a solve that finds it taken
   (a re-entrant call) builds its own.  Every region a solve reads is
   written first, so no result depends on what an earlier solve left
   behind or on how large the arrays have grown.  Pivots and
   refactorizations allocate nothing. *)
module Blu = struct
  let at_lower = 0
  and at_upper = 1
  and basic = 2

  (* The engine's state, which is also its storage: a domain keeps one
     ([state_key]) and every solve on it refills it ([init]), growing an
     array only when a model needs more.  Arrays by row are read over
     [0, m), by column over [0, n) or [0, art0); past that they hold
     what a larger model left. *)
  type state = {
    mutable busy : bool;  (* a solve holds it *)
    mutable m : int;  (* reduced rows *)
    mutable n : int;  (* columns: structural | slack | surplus | artificial *)
    mutable nv : int;  (* reduced structural count *)
    mutable sur0 : int;  (* first surplus column *)
    mutable art0 : int;
    mutable a : Sparse.t;  (* its arrays are [colptr], [rowidx], [values] *)
    mutable colptr : int array;
    mutable rowidx : int array;
    mutable values : float array;
    mutable b : float array;  (* shifted scaled rhs (>= 0 after flips) *)
    mutable flipped : bool array;
    mutable krow : int array;  (* by logical column: its row *)
    mutable lcol : int array;  (* by row: its slack or surplus column, -1 for Eq *)
    mutable crash : int array;
    mutable basis : int array;
    mutable basis_out : int array;  (* factorization output *)
    mutable targets : int array;  (* warm install input *)
    mutable vstat : int array;
    mutable ub : float array;  (* per-column range u = r_ub - r_lb; infinity for
                                  rangeless columns and all logicals *)
    mutable xb : float array;
    mutable cost : float array;  (* phase-2 min-form scaled cost *)
    mutable c1 : float array;  (* phase-1 cost *)
    mutable cb : float array;  (* by row: the pricing cost of its basic
                                  column, kept by [optimize] *)
    mutable f : Sparse.Lu.t;
    mutable base_nnz : int;  (* factor nnz right after the last refactor *)
    mutable w : float array;
    mutable wnz : int array;  (* rows of st.w's nonzeros, st.wn of them;
                                 every other row of st.w is zero *)
    mutable wn : int;
    mutable y : float array;
    mutable yp : float array;  (* the y that st.d was last priced against *)
    mutable rptr : int array;  (* row view of columns [0, art0): row i's *)
    mutable rcol : int array;  (* columns are rcol.(rptr.(i) .. rptr.(i+1)-1) *)
    mutable seen : int array;  (* by column: last [gen] that repriced it *)
    mutable gen : int;
    mutable rho : float array;
    mutable d : float array;
    mutable att : float array;  (* by column < art0: [attract] of d if
                                   eligible, else 0 — kept by [optimize]'s
                                   pricing *)
    mutable bmax : float array;  (* by block of 64 columns: its largest
                                    positive att, 0.0 when none is *)
    mutable barg : int array;  (* ... and the lowest column holding it, or -1 *)
    mutable pref : bool array;  (* guided Phase 1's preferred columns *)
    mutable rhs : float array;  (* [init] scratch *)
    mutable cursor : int array;
    mutable xr : float array;  (* extraction scratch *)
    mutable yr : float array;
    rt : float array;  (* [0]: the step of the last [ratio_test] pivot *)
    mutable rt_up : bool;  (* ... and whether its leaving row goes to upper *)
    fwall : float array;  (* [0]: this solve's factorization wall *)
    mutable c_factor : int;
    mutable c_ft : int;
    mutable c_flips : int;
    mutable c_ftran : int;
    mutable c_btran : int;
  }

  let state_make () =
    let empty = Sparse.of_csc ~rows:0 ~cols:0 ~colptr:[| 0 |] ~rowidx:[||] ~values:[||] in
    { busy = false; m = 0; n = 0; nv = 0; sur0 = 0; art0 = 0; a = empty;
      colptr = [||]; rowidx = [||]; values = [||]; b = [||]; flipped = [||]; krow = [||];
      lcol = [||]; crash = [||]; basis = [||]; basis_out = [||]; targets = [||];
      vstat = [||]; ub = [||]; xb = [||]; cost = [||]; c1 = [||]; cb = [||];
      f = fst (Sparse.Lu.factorize empty ~targets:[||] ~crash:[||] ~basis_out:[||]);
      base_nnz = 0; w = [||]; wnz = [||]; wn = 0; y = [||]; yp = [||]; rptr = [||];
      rcol = [||]; seen = [||]; gen = 0; rho = [||]; d = [||]; att = [||]; bmax = [||];
      barg = [||]; pref = [||]; rhs = [||]; cursor = [||]; xr = [||]; yr = [||];
      rt = [| 0.0 |]; rt_up = false; fwall = [| 0.0 |];
      c_factor = 0; c_ft = 0; c_flips = 0; c_ftran = 0; c_btran = 0 }

  let state_key = Domain.DLS.new_key state_make

  (* [a] if it holds [n] entries, else a new array of [n] (contents not
     kept: every caller writes the region it reads).  Exact sizes keep
     what a domain retains at the largest problem it has solved. *)
  let ints a n = if Array.length a >= n then a else Array.make n 0

  let floats a n = if Array.length a >= n then a else Array.make n 0.0

  let bools a n = if Array.length a >= n then a else Array.make n false

  (* [Sparse.Lu.factorize] into the state's factor, timed into the
     solve's factorization wall. *)
  let factorize st ~targets ~basis_out =
    let t = Prete_util.Clock.now () in
    let r = Sparse.Lu.factorize ~into:st.f st.a ~targets ~crash:st.crash ~basis_out in
    st.f <- fst r;
    st.fwall.(0) <- st.fwall.(0) +. Prete_util.Clock.elapsed_since t;
    snd r

  let ftran st x =
    Sparse.Lu.ftran st.f x;
    let nz = ref 0 in
    for i = 0 to st.m - 1 do
      if x.(i) <> 0.0 then incr nz
    done;
    st.c_ftran <- st.c_ftran + !nz

  (* FTRAN column q into [st.w], listing its nonzero rows in [st.wnz]:
     the last column's listed rows are the only nonzeros to clear. *)
  let ftran_col st q =
    for k = 0 to st.wn - 1 do
      st.w.(st.wnz.(k)) <- 0.0
    done;
    st.wn <- Sparse.Lu.ftran_col st.f st.a q st.w st.wnz;
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
    let a = st.a in
    for j = 0 to st.n - 1 do
      if st.vstat.(j) = at_upper then begin
        let uj = st.ub.(j) in
        if uj > 0.0 && uj < infinity then
          for k = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
            let i = a.Sparse.rowidx.(k) in
            st.xb.(i) <- st.xb.(i) -. (uj *. a.Sparse.values.(k))
          done
      end
    done;
    ftran st st.xb;
    for i = 0 to st.m - 1 do
      clamp_row st i
    done

  (* Refactorize the current basis from scratch; also resyncs x_B. *)
  let refactor st =
    st.c_factor <- st.c_factor + 1;
    let basis_out = st.basis_out in
    if factorize st ~targets:st.basis ~basis_out <> [] then
      raise (Numerical "Simplex/lu: refactorization found basis singular");
    st.base_nnz <- Sparse.Lu.nnz st.f;
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

  (* Fill [st] for the reduced model [red]: the bounded matrix, the
     crash factor and basis, x_B; counters from one factorization. *)
  let init st (red : Presolve.t) =
    let nv = red.Presolve.r_nv and m = red.Presolve.r_nc in
    let r_start = red.Presolve.r_start and r_col = red.Presolve.r_col in
    let r_val = red.Presolve.r_val and sense = red.Presolve.r_sense in
    (* Shift x = r_lb + x' and flip negative-rhs rows in-matrix (scale
       by -1, not a sense rewrite), so the column layout depends only on
       the senses and a stored basis reinstalls across rhs-only changes
       (MIP bound fixings, Benders cut updates, delta re-rounding). *)
    st.rhs <- floats st.rhs m;
    st.flipped <- bools st.flipped m;
    let rhs = st.rhs and flipped = st.flipped in
    for i = 0 to m - 1 do
      let acc = ref red.Presolve.r_rhs.(i) in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        acc := !acc -. (r_val.(p) *. red.Presolve.r_lb.(r_col.(p)))
      done;
      rhs.(i) <- !acc;
      flipped.(i) <- !acc < 0.0
    done;
    let nslack = ref 0 and nsurplus = ref 0 in
    for i = 0 to m - 1 do
      match sense.(i) with Lp.Le -> incr nslack | Lp.Ge -> incr nsurplus | Lp.Eq -> ()
    done;
    let sur0 = nv + !nslack in
    let art0 = sur0 + !nsurplus in
    let n = art0 + m in
    (* Columns: structural (presolve's rows with each row's flip sign
       applied and exact zeros dropped, as [Sparse] stores none), one
       slack or surplus per inequality row, one artificial per row —
       counted, then filled row by row so rows ascend in each column. *)
    st.colptr <- ints st.colptr (n + 1);
    let colptr = st.colptr in
    Array.fill colptr 0 (n + 1) 0;
    for p = 0 to r_start.(m) - 1 do
      if r_val.(p) <> 0.0 then colptr.(r_col.(p) + 1) <- colptr.(r_col.(p) + 1) + 1
    done;
    for j = 1 to nv do
      colptr.(j) <- colptr.(j) + colptr.(j - 1)
    done;
    let q = colptr.(nv) in
    let nnz = q + n - nv in
    st.rowidx <- ints st.rowidx nnz;
    st.values <- floats st.values nnz;
    st.cursor <- ints st.cursor nv;
    let rowidx = st.rowidx and values = st.values and cursor = st.cursor in
    Array.blit colptr 0 cursor 0 nv;
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
    st.krow <- ints st.krow n;
    st.lcol <- ints st.lcol m;
    st.crash <- ints st.crash m;
    st.b <- floats st.b m;
    let krow = st.krow and lcol = st.lcol and crash = st.crash and b = st.b in
    (* [Sparse.Lu.factorize] reads a target array to its end: the rows
       past m of [crash], [basis] and [targets] hold -1, which it
       skips. *)
    Array.fill crash m (Array.length crash - m) (-1);
    for j = 0 to nv - 1 do
      krow.(j) <- j
    done;
    (* Row view of the columns that may enter, indices only: row i's
       structural columns (ascending), then its slack or surplus. *)
    st.rptr <- ints st.rptr (m + 1);
    let rptr = st.rptr in
    rptr.(0) <- 0;
    for i = 0 to m - 1 do
      let k = ref 0 in
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        if r_val.(p) <> 0.0 then incr k
      done;
      rptr.(i + 1) <- rptr.(i) + !k + (match sense.(i) with Lp.Eq -> 0 | _ -> 1)
    done;
    st.rcol <- ints st.rcol rptr.(m);
    let rcol = st.rcol in
    (* Logical columns hold a single entry each, stored after the
       structural entries in column order. *)
    let logical j i v =
      colptr.(j) <- q + j - nv;
      rowidx.(q + j - nv) <- i;
      values.(q + j - nv) <- v;
      krow.(j) <- i
    in
    let next_slack = ref nv in
    let next_surplus = ref sur0 in
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
      logical ja i 1.0;
      match sense.(i) with
      | Lp.Le ->
        let j = !next_slack in
        incr next_slack;
        logical j i s;
        rcol.(!k) <- j;
        lcol.(i) <- j;
        crash.(i) <- (if flipped.(i) then ja else j)
      | Lp.Ge ->
        let js = !next_surplus in
        incr next_surplus;
        logical js i (-.s);
        rcol.(!k) <- js;
        lcol.(i) <- js;
        crash.(i) <- (if flipped.(i) then js else ja)
      | Lp.Eq ->
        lcol.(i) <- -1;
        crash.(i) <- ja
    done;
    colptr.(n) <- nnz;
    let a = Sparse.of_csc ~rows:m ~cols:n ~colptr ~rowidx ~values in
    st.ub <- floats st.ub n;
    st.cost <- floats st.cost n;
    st.vstat <- ints st.vstat n;
    let ub = st.ub and cost = st.cost and vstat = st.vstat in
    Array.fill ub 0 n infinity;
    Array.fill cost 0 n 0.0;
    for j = 0 to nv - 1 do
      ub.(j) <- red.Presolve.r_ub.(j) -. red.Presolve.r_lb.(j);
      cost.(j) <- red.Presolve.r_cost.(j)
    done;
    Array.fill vstat 0 n at_lower;
    st.basis <- ints st.basis m;
    st.basis_out <- ints st.basis_out m;
    let basis = st.basis in
    Array.fill basis 0 (Array.length basis) (-1);
    st.m <- m;
    st.n <- n;
    st.nv <- nv;
    st.sur0 <- sur0;
    st.art0 <- art0;
    st.a <- a;
    ignore (factorize st ~targets:crash ~basis_out:basis);
    st.base_nnz <- Sparse.Lu.nnz st.f;
    let fill a n x = Array.fill a 0 n x; a in
    st.xb <- fill (floats st.xb m) m 0.0;
    st.cb <- fill (floats st.cb m) m 0.0;
    st.w <- fill (floats st.w m) m 0.0;
    st.wnz <- ints st.wnz m;
    st.wn <- 0;
    st.y <- fill (floats st.y m) m 0.0;
    st.yp <- fill (floats st.yp m) m 0.0;
    st.rho <- fill (floats st.rho m) m 0.0;
    st.seen <- fill (ints st.seen art0) art0 0;
    st.gen <- 0;
    st.d <- fill (floats st.d n) n 0.0;
    st.att <- fill (floats st.att art0) art0 0.0;
    let nb = (art0 + 63) lsr 6 in
    st.bmax <- fill (floats st.bmax nb) nb 0.0;
    st.barg <- fill (ints st.barg nb) nb (-1);
    st.rt_up <- false;
    st.c_factor <- 1;
    st.c_ft <- 0;
    st.c_flips <- 0;
    st.c_ftran <- 0;
    st.c_btran <- 0;
    for i = 0 to m - 1 do
      vstat.(basis.(i)) <- basic
    done;
    compute_xb st

  (* y := the pricing costs of the basic columns, gathered (this also
     refreshes [st.cb]). *)
  let load_y st cost =
    for i = 0 to st.m - 1 do
      let c = cost.(st.basis.(i)) in
      st.cb.(i) <- c;
      st.y.(i) <- c
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

  (* Block b's (bmax, barg) from its columns. *)
  let block_scan st b =
    let best = ref 0.0 and arg = ref (-1) in
    for j = b lsl 6 to Stdlib.min st.art0 ((b + 1) lsl 6) - 1 do
      let aj = Array.unsafe_get st.att j in
      if aj > !best then begin
        best := aj;
        arg := j
      end
    done;
    st.bmax.(b) <- !best;
    st.barg.(b) <- !arg

  (* att_j := v, keeping its block's maximum: a larger value, or an
     equal one at a lower column, takes the block; the block's holder
     dropping below it rescans the block. *)
  let[@inline] att_set st j v =
    Array.unsafe_set st.att j v;
    let b = j lsr 6 in
    let bm = st.bmax.(b) in
    if v > bm || (v = bm && v > 0.0 && j < st.barg.(b)) then begin
      st.bmax.(b) <- v;
      st.barg.(b) <- j
    end
    else if j = st.barg.(b) && v < bm then block_scan st b

  let[@inline] set_att st j = att_set st j (attract st j st.d.(j))

  (* [price] plus [st.att] of eligible column j. *)
  let price_att st cost j =
    price st cost j;
    set_att st j

  (* [st.d] over the eligible columns (the only entries read after) and
     [st.att] over every column j < art0. *)
  let price_full st cost =
    for j = 0 to st.art0 - 1 do
      if eligible st j then begin
        price st cost j;
        st.att.(j) <- attract st j st.d.(j)
      end
      else st.att.(j) <- 0.0
    done;
    for b = 0 to ((st.art0 + 63) lsr 6) - 1 do
      block_scan st b
    done

  (* [compute_y] that keeps [st.d] and [st.att] current for every
     eligible column, given they were current for [st.yp] and for every
     eligible column but [left] (the column the last pivot took out of
     the basis, or -1).  y starts from [st.cb], which [optimize] keeps
     equal to the gather [load_y] would make.  [price] reads y only in
     column j's rows and skips ±0, so d_j is unchanged bit for bit
     unless one of those y_i changed under float [<>]: only such
     columns, and [left], are repriced.  The compare pass also counts
     y's nonzeros for the btran_nnz counter.  Unchecked reads: i < m,
     [rptr] delimits [rcol], and its column ids are < art0. *)
  let reprice_y st cost ~left =
    Array.blit st.cb 0 st.y 0 st.m;
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
     none attracts.  Each block holds its largest positive att at its
     lowest column, so the first strictly largest block maximum is that
     column. *)
  let enter_dantzig st =
    let best = ref 0.0 and entering = ref (-1) in
    let bmax = st.bmax in
    for b = 0 to ((st.art0 + 63) lsr 6) - 1 do
      let v = Array.unsafe_get bmax b in
      if v > !best then begin
        best := v;
        entering := Array.unsafe_get st.barg b
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
      if st.basis.(i) >= st.art0 && st.xb.(i) > feas_eps then ok := false
    done;
    !ok

  let phase1_sum st =
    let s = ref 0.0 in
    for i = 0 to st.m - 1 do
      if st.basis.(i) >= st.art0 then s := !s +. Float.max 0.0 st.xb.(i)
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
     its lower (default) or upper bound, at step [st.rt.(0)].  The x_B
     rows are independent, so visiting only the listed nonzeros of w is
     the dense pass. *)
  let do_pivot st ~row ~q ~sigma ~to_upper =
    let t = st.rt.(0) in
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

  (* Ratio-test outcomes other than a pivot row (>= 0). *)
  let rt_unbounded = -2
  and rt_flip = -1

  (* Three-limit ratio test for entering column q moving in direction
     [sigma] (+1 from lower, -1 from upper): a basic variable drops to
     zero, a basic variable hits its (finite) range, or the entering
     variable traverses its own range — the last is a bound flip.  The
     result is a pivot row, [rt_flip] or [rt_unbounded]; a pivot's step
     goes to [st.rt.(0)] and its leaving bound to [st.rt_up].  The
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
      if !best = -1 then (if uq = infinity then rt_unbounded else rt_flip)
      else begin
        st.rt.(0) <- !best_ratio;
        st.rt_up <- !best_up;
        !best
      end
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
      if !tmax = infinity then rt_unbounded
      else begin
        (* Pass 2: numerically largest pivot among rows whose exact
           ratio fits under the relaxed bound. *)
        let tmax = !tmax in
        let best = ref (-1)
        and best_piv = ref 0.0
        and best_ratio = ref 0.0
        and best_up = ref false in
        for k = 0 to st.wn - 1 do
          let i = st.wnz.(k) in
          let wi = sigma *. st.w.(i) in
          (* Row i's exact ratio, or NaN when it sets no limit (NaN
             fails the [<= tmax] test below). *)
          let exact =
            if wi > eps then Float.max 0.0 st.xb.(i) /. wi
            else if wi < -.eps then begin
              let ubi = st.ub.(st.basis.(i)) in
              if ubi < infinity then Float.max 0.0 (ubi -. st.xb.(i)) /. -.wi
              else Float.nan
            end
            else Float.nan
          in
          if exact <= tmax then begin
            let a = Float.abs st.w.(i) in
            if
              a > !best_piv
              || (a = !best_piv && !best >= 0 && st.basis.(i) < st.basis.(!best))
            then begin
              best := i;
              best_piv := a;
              best_ratio := exact;
              best_up := wi < -.eps
            end
          end
        done;
        if !best = -1 then (if uq < infinity then rt_flip else rt_unbounded)
        else if uq <= !best_ratio then rt_flip
        else begin
          st.rt.(0) <- !best_ratio;
          st.rt_up <- !best_up;
          !best
        end
      end
    end

  (* One optimization phase with signed attractiveness (at-lower wants
     d < 0, at-upper wants d > 0) and bound flips counted as iterations.
     [prefer] (guided Phase 1) marks the columns a warm basis had basic;
     Bland mode ignores it to keep the anti-cycling guarantee.  [st.cb]
     follows the basis: a pivot that keeps the factor writes its row, a
     refactorization (which may permute the basis rows) re-gathers. *)
  let optimize st ~cost ?prefer ~max_iters ~deadline iters =
    (* [st.d] is kept current by [reprice_y] once the first full pricing
       pass has set it up. *)
    let priced = ref false and left = ref (-1) in
    let bland_threshold =
      match !bland_from with Some k -> k - 1 | None -> 20 * (st.m + st.n)
    in
    let rec loop () =
      if
        !iters > max_iters
        || (!iters land 63 = 0 && Prete_util.Clock.expired deadline)
      then `Budget
      else begin
        let use_bland = !iters > bland_threshold in
        if !priced then reprice_y st cost ~left:!left
        else begin
          compute_y st cost;
          price_full st cost;
          Array.blit st.y 0 st.yp 0 st.m;
          priced := true
        end;
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
          let row = ratio_test st ~q ~sigma ~use_bland in
          if row = rt_unbounded then `Unbounded
          else if row = rt_flip then begin
            incr iters;
            apply_flip st ~q ~sigma;
            (* Same d_q, opposite bound. *)
            set_att st q;
            left := -1;
            loop ()
          end
          else begin
            incr iters;
            left := st.basis.(row);
            let factors = st.c_factor in
            do_pivot st ~row ~q ~sigma ~to_upper:st.rt_up;
            if st.c_factor = factors then st.cb.(row) <- cost.(q)
            else load_y st cost;
            att_set st q 0.0;
            loop ()
          end
        end
      end
    in
    loop ()

  (* Drive remaining basic artificials out after Phase 1: each is
     replaced by the first nonartificial column at its lower bound, with
     a nonzero range, whose entry in the artificial's row exceeds 1e-7.
     An artificial with no such column marks a redundant row and stays
     basic at 0. *)
  let drive_out st iters =
    for i = 0 to st.m - 1 do
      if st.basis.(i) >= st.art0 then begin
        Array.fill st.rho 0 st.m 0.0;
        st.rho.(i) <- 1.0;
        btran st st.rho;
        let found = ref (-1) and j = ref 0 in
        while !found < 0 && !j < st.art0 do
          if
            st.vstat.(!j) = at_lower
            && st.ub.(!j) > 0.0
            && Float.abs (Sparse.col_dot st.a !j st.rho) > 1e-7
          then found := !j;
          incr j
        done;
        if !found >= 0 then begin
          let q = !found in
          ftran_col st q;
          st.rt.(0) <- Float.max 0.0 (st.xb.(i) /. st.w.(i));
          incr iters;
          do_pivot st ~row:i ~q ~sigma:1.0 ~to_upper:false
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
    st.targets <- ints st.targets m;
    let targets = st.targets in
    Array.fill targets m (Array.length targets - m) (-1);
    for i = 0 to m - 1 do
      targets.(i) <-
        (match wb.b_entries.(i) with
        | Bstructural j ->
          if j < red.Presolve.p_nv && red.Presolve.col_map.(j) >= 0 then
            red.Presolve.col_map.(j)
          else -1
        | Brow_slack r ->
          if r < m && st.lcol.(r) >= 0 && st.lcol.(r) < st.sur0 then st.lcol.(r) else -1
        | Brow_surplus r -> if r < m && st.lcol.(r) >= st.sur0 then st.lcol.(r) else -1
        | Brow_artificial r -> if r < m then st.art0 + r else -1)
    done;
    st.c_factor <- st.c_factor + 1;
    (* On a drop the caller refills [st], so the crash factor's storage
       can take the install. *)
    let basis_out = st.basis_out in
    if factorize st ~targets ~basis_out <> [] then None
    else begin
      st.base_nnz <- Sparse.Lu.nnz st.f;
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
      for i = 0 to m - 1 do
        st.vstat.(st.basis.(i)) <- basic
      done;
      compute_xb st;
      let rhs_ok = ref true and art_ok = ref true in
      for i = 0 to m - 1 do
        let ubi = st.ub.(st.basis.(i)) in
        if st.xb.(i) < -.feas_eps || st.xb.(i) > ubi +. feas_eps then
          rhs_ok := false;
        if st.basis.(i) >= st.art0 && st.xb.(i) > feas_eps then art_ok := false
      done;
      if not !art_ok then None else Some !rhs_ok
    end

  let warm_prefer_red (red : Presolve.t) st n wb =
    st.pref <- bools st.pref n;
    let pref = st.pref in
    Array.fill pref 0 n false;
    Array.iter
      (function
        | Bstructural j when j < red.Presolve.p_nv ->
          let rj = red.Presolve.col_map.(j) in
          if rj >= 0 then pref.(rj) <- true
        | _ -> ())
      wb.b_entries;
    pref

  (* The engine's part of a solve, on a reduced model with structure,
     in state [st]. *)
  let solve_reduced (red : Presolve.t) st ~t0 ~presolve_wall ~max_iters ~deadline ~warm =
    st.fwall.(0) <- 0.0;
    (* Set-up wall: every state fill for this solve. *)
    let state_wall = ref 0.0 in
    let init red =
      let t = Prete_util.Clock.now () in
      init st red;
      state_wall := !state_wall +. Prete_util.Clock.elapsed_since t
    in
    let nv0 = red.Presolve.p_nv in
    let sign = red.Presolve.sign in
    let iters = ref 0 in
    let warm_used, phase1_skipped, repaired, prefer =
      match warm with
      | Some wb when wb.b_nv = nv0 && wb.b_m <> red.Presolve.r_nc ->
        (* The stored basis cannot reinstall (row counts differ):
           straight to guided Phase 1 on the one fill. *)
        init red;
        (true, false, true, Some (warm_prefer_red red st st.n wb))
      | Some wb when wb.b_nv = nv0 -> (
        init red;
        match try_exact_install red st wb with
        | Some true -> (true, true, false, None)
        | Some false when dual_repair st ~max_iters ~deadline iters -> (true, true, true, None)
        | Some false | None ->
          (* Refill from scratch: the install or repair is given up. *)
          init red;
          (true, false, true, Some (warm_prefer_red red st st.n wb)))
      | _ ->
        init red;
        (false, false, false, None)
    in
    let feasible_start =
      if phase1_skipped then true
      else begin
        st.c1 <- floats st.c1 st.n;
        let c1 = st.c1 in
        Array.fill c1 0 st.art0 0.0;
        Array.fill c1 st.art0 (st.n - st.art0) 1.0;
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
      drive_out st iters;
      let cost = st.cost in
      let extract ~degraded =
        compute_xb st;
        st.xr <- floats st.xr st.nv;
        let xr = st.xr in
        for j = 0 to st.nv - 1 do
          xr.(j) <- (if st.vstat.(j) = at_upper then st.ub.(j) else 0.0)
        done;
        for i = 0 to st.m - 1 do
          let j = st.basis.(i) in
          if j < st.nv then xr.(j) <- st.xb.(i)
        done;
        for j = 0 to st.nv - 1 do
          xr.(j) <- red.Presolve.r_lb.(j) +. xr.(j)
        done;
        compute_y st cost;
        st.yr <- floats st.yr st.m;
        let yr = st.yr in
        for i = 0 to st.m - 1 do
          yr.(i) <- (if st.flipped.(i) then -.st.y.(i) else st.y.(i))
        done;
        let x_orig, y_min = Presolve.postsolve red ~x:xr ~y:yr in
        let objective = ref 0.0 in
        for j = 0 to nv0 - 1 do
          objective :=
            !objective +. (sign *. red.Presolve.cost_min.(j) *. x_orig.(j))
        done;
        let b_entries =
          Array.init st.m (fun i ->
              let bcol = st.basis.(i) in
              if bcol < st.nv then Bstructural red.Presolve.col_of.(bcol)
              else if bcol < st.sur0 then Brow_slack st.krow.(bcol)
              else if bcol < st.art0 then Brow_surplus st.krow.(bcol)
              else Brow_artificial (bcol - st.art0))
        in
        let b_upper =
          let acc = ref [] in
          for j = st.nv - 1 downto 0 do
            if st.vstat.(j) = at_upper then acc := red.Presolve.col_of.(j) :: !acc
          done;
          Array.of_list !acc
        in
        Optimal
          {
            objective = !objective;
            values = x_orig;
            duals = Array.map (fun v -> sign *. v) y_min;
            iterations = !iters;
            degraded;
            basis = { b_nv = nv0; b_m = st.m; b_entries; b_upper };
            warm_used;
            phase1_skipped;
            repaired;
            refactorizations = st.c_factor;
            ftran_nnz = st.c_ftran;
            btran_nnz = st.c_btran;
            ft_updates = st.c_ft;
            bound_flips = st.c_flips;
            lu_fill_nnz = Sparse.Lu.nnz st.f;
            presolve_rows = red.Presolve.rows_removed;
            presolve_cols = red.Presolve.cols_removed;
            presolve_wall;
            state_wall = !state_wall;
            factor_wall = st.fwall.(0);
            pivot_wall =
              Float.max 0.0
                (Prete_util.Clock.elapsed_since t0 -. presolve_wall -. !state_wall);
          }
      in
      match optimize st ~cost ~max_iters ~deadline iters with
      | `Unbounded -> Unbounded
      | `Optimal -> extract ~degraded:false
      | `Budget -> extract ~degraded:true
    end

  (* [solve_reduced] in the domain's state, or in a fresh one when a
     solve on this domain already holds it. *)
  let with_state k =
    let st = Domain.DLS.get state_key in
    if st.busy then k (state_make ())
    else begin
      st.busy <- true;
      match k st with
      | r ->
        st.busy <- false;
        r
      | exception e ->
        st.busy <- false;
        raise e
    end

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
        else begin
          (* A supplied warm basis is subsumed: presolve reached the
             optimum without a single pivot, which is at least as good
             as any reinstall. *)
          let x_orig, y_min =
            Presolve.postsolve red ~x:[||] ~y:(Array.make red.Presolve.r_nc 0.0)
          in
          let sign = red.Presolve.sign in
          let objective = ref 0.0 in
          for j = 0 to red.Presolve.p_nv - 1 do
            objective :=
              !objective +. (sign *. red.Presolve.cost_min.(j) *. x_orig.(j))
          done;
          Optimal
            {
              objective = !objective;
              values = x_orig;
              duals = Array.map (fun v -> sign *. v) y_min;
              iterations = 0;
              degraded = false;
              basis = { b_nv = red.Presolve.p_nv; b_m = 0; b_entries = [||]; b_upper = [||] };
              warm_used = Option.is_some warm;
              phase1_skipped = true;
              repaired = false;
              refactorizations = 0;
              ftran_nnz = 0;
              btran_nnz = 0;
              ft_updates = 0;
              bound_flips = 0;
              lu_fill_nnz = 0;
              presolve_rows = red.Presolve.rows_removed;
              presolve_cols = red.Presolve.cols_removed;
              presolve_wall;
              state_wall = 0.0;
              factor_wall = 0.0;
              pivot_wall =
                Float.max 0.0 (Prete_util.Clock.elapsed_since t0 -. presolve_wall);
            }
        end
      end
      else
        with_state (fun st ->
            solve_reduced red st ~t0 ~presolve_wall ~max_iters ~deadline ~warm)
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
