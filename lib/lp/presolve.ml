(* LP presolve / postsolve for the LU simplex engine.

   [reduce] applies a fixpoint of structural reductions to an {!Lp.model}
   and emits a smaller scaled problem; [postsolve] maps a reduced
   primal/dual solution back to the original space, reconstructing the
   duals of eliminated rows.

   Reductions (all deterministic, lowest-index tie-breaks):
   - empty rows           -> consistency check, drop (dual 0);
   - singleton Le/Ge rows -> variable bound tightening, drop the row
                             (the column stays; its dual is recovered at
                             postsolve from the residual reduced cost
                             when the solution sits on the tightened
                             bound);
   - singleton Eq rows    -> fix the variable, drop row and column;
   - duplicate rows       -> rows equal up to a positive scale with the
                             same sense collapse onto the lowest-index
                             member carrying the group-tightest rhs; at
                             postsolve the kept dual transfers to the
                             member whose constraint is actually tight;
   - empty columns        -> fix at the cost-preferred bound (detecting
                             unboundedness on an infinite bound);
   - dominated columns    -> a nonnegative min-form cost whose column
                             only relaxes constraints (>= 0 in Le rows,
                             <= 0 in Ge rows, absent from Eq rows) fixes
                             at its lower bound — this also covers the
                             eliminable singleton columns of the TE
                             models;
   - geometric-mean equilibration of the surviving structure.

   Warm-start invariant: which rows and columns survive — and hence the
   reduced column layout the simplex engine builds — depends only on the
   constraint {e patterns, senses and cost signs}, never on rhs or bound
   values.  Bound tightenings and fixed-variable {e values} are
   rhs-dependent, but they do not move the structure, so a basis stored
   against one reduction reinstalls exactly after rhs-only model changes
   (MIP bound fixings, Benders rhs updates, capacity perturbations). *)

type action =
  | Row_empty of int
  | Row_singleton_ineq of {
      row : int;
      col : int;
      coef : float;
      le : bool;  (* original sense Le (after coef sign, the bound side
                     follows from [coef] and [le]) *)
      bound : float;  (* the tightened bound value this row imposed *)
    }
  | Row_singleton_eq of { row : int; col : int; coef : float }
  | Dup_group of {
      kept : int;
      members : (int * float) list;  (* (row, coef at the anchor column),
                                        kept included *)
      ge_like : bool;  (* normalized sense: true when larger scaled rhs
                          is tighter *)
      eq : bool;
    }
  | Col_fixed of { col : int; value : float }

type t = {
  p_nv : int;
  p_nc : int;
  sign : float;  (* Minimize -> 1.0, Maximize -> -1.0 *)
  cost_min : float array;  (* min-form costs over original columns *)
  c_start : int array;  (* original column j's (row, coef) occurrences: *)
  c_row : int array;  (* entries c_start.(j) .. c_start.(j+1)-1, rows *)
  c_val : float array;  (* ascending *)
  rhs_eff : float array;  (* per original row: rhs minus fixed-column
                             contributions (kept current for dead rows
                             too — duplicate-group postsolve needs it) *)
  r_nv : int;
  r_nc : int;
  r_start : int array;  (* scaled reduced rows, columns ascending: row ri *)
  r_col : int array;  (* is r_start.(ri) .. r_start.(ri+1)-1 *)
  r_val : float array;
  r_sense : Lp.sense array;
  r_rhs : float array;
  r_lb : float array;  (* scaled reduced bounds *)
  r_ub : float array;
  r_cost : float array;  (* scaled min-form reduced costs *)
  col_of : int array;  (* reduced col -> original col *)
  col_map : int array;  (* original col -> reduced col or -1 *)
  row_of : int array;  (* reduced row -> original row *)
  row_map : int array;  (* original row -> reduced row or -1 *)
  rowscale : float array;  (* per original kept row *)
  colscale : float array;  (* per original kept col *)
  fixed : float array;  (* per original col; valid when col_map = -1 *)
  actions : action list;  (* head = last reduction applied *)
  rows_removed : int;
  cols_removed : int;
}

type outcome = Reduced of t | Infeasible | Unbounded

let feas = 1e-7

(* Duplicate-row key: sense, sign of the anchor (lowest-column)
   coefficient c0, and the row's alive terms as (column, a /. c0) in
   ascending column order.  Ratios compare by bit pattern, which is
   exactly as strict as comparing their hex renderings — these ratios are
   never NaN, and ±0 differ in both.  The hash is computed once, when the
   key is built. *)
module Row_key = struct
  type t = { tag : int; cols : int array; ratios : float array; h : int }

  let make tag cols ratios =
    let h = ref tag in
    for i = 0 to Array.length cols - 1 do
      h := (!h * 31) + cols.(i);
      h := (!h * 31) + Int64.to_int (Int64.bits_of_float ratios.(i))
    done;
    { tag; cols; ratios; h = !h land max_int }

  let equal a b =
    a.h = b.h && a.tag = b.tag
    && Array.length a.cols = Array.length b.cols
    &&
    let n = Array.length a.cols in
    let k = ref 0 in
    while
      !k < n
      && a.cols.(!k) = b.cols.(!k)
      && Int64.equal
           (Int64.bits_of_float a.ratios.(!k))
           (Int64.bits_of_float b.ratios.(!k))
    do
      incr k
    done;
    !k = n

  let hash k = k.h

  let none = { tag = -1; cols = [||]; ratios = [||]; h = 0 }
end

module Row_tbl = Hashtbl.Make (Row_key)

(* Presolve's scratch, one per domain, grown to the largest model
   reduced and reused: alive flags, alive-term counts, cached duplicate
   keys, the transpose cursor, the equilibration factors and the
   duplicate-row table.  A reduction holds it until it returns or
   raises, and then lets go of its keys and table entries; a reduction
   that finds it held takes a fresh one.  Every entry a reduction reads
   is written first, so nothing depends on an earlier model or on the
   capacity. *)
type scratch = {
  mutable busy : bool;
  mutable row_alive : bool array;
  mutable col_alive : bool array;
  mutable rowlen : int array;
  mutable keys : Row_key.t array;
  mutable anchor : float array;
  mutable key_ok : bool array;
  mutable cursor : int array;
  mutable rho : float array;
  mutable kap : float array;
  mutable cmn : float array;
  mutable cmx : float array;
  tbl : (int * float * (int * float) list ref) Row_tbl.t;
}

let scratch_make () =
  { busy = false; row_alive = [||]; col_alive = [||]; rowlen = [||]; keys = [||];
    anchor = [||]; key_ok = [||]; cursor = [||]; rho = [||]; kap = [||]; cmn = [||];
    cmx = [||]; tbl = Row_tbl.create 64 }

let scratch_key = Domain.DLS.new_key scratch_make

let grow a n x = if Array.length a >= n then a else Array.make n x

(* The [n]-column compressed form of [m] rows given as slices
   [start.(i) .. start.(i+1)-1] of [idx]/[vals]: each column's entries
   land in ascending row order. *)
let transpose sc ~n ~m start idx vals =
  let nnz = start.(m) in
  let tstart = Array.make (n + 1) 0 in
  for k = 0 to nnz - 1 do
    let j = idx.(k) in
    tstart.(j + 1) <- tstart.(j + 1) + 1
  done;
  for j = 1 to n do
    tstart.(j) <- tstart.(j) + tstart.(j - 1)
  done;
  let tidx = Array.make nnz 0 and tvals = Array.make nnz 0.0 in
  sc.cursor <- grow sc.cursor n 0;
  let cursor = sc.cursor in
  Array.blit tstart 0 cursor 0 n;
  for i = 0 to m - 1 do
    for k = start.(i) to start.(i + 1) - 1 do
      let j = idx.(k) in
      let p = cursor.(j) in
      tidx.(p) <- i;
      tvals.(p) <- vals.(k);
      cursor.(j) <- p + 1
    done
  done;
  (tstart, tidx, tvals)

let reduce_in sc model =
  let rows = Lp.Internal.rows model in
  let lb = Lp.Internal.lower model and ub = Lp.Internal.upper model in
  let dir, obj = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = rows.Lp.Internal.nrows in
  Array.iter
    (fun l ->
      if l = neg_infinity then
        invalid_arg "Presolve.reduce: free variables (lb = -inf) unsupported")
    lb;
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost_min = Array.map (fun c -> sign *. c) obj in
  let row_sense = rows.Lp.Internal.sense in
  let rhs_eff = Array.sub rows.Lp.Internal.rhs 0 nc in
  (* The model's rows (a variable at most once each, in whatever order
     the model stored them) and their column view, rows ascending. *)
  let start = rows.Lp.Internal.start and var = rows.Lp.Internal.var in
  let coef = rows.Lp.Internal.coef in
  let c_start, c_row, c_val = transpose sc ~n:nv ~m:nc start var coef in
  sc.row_alive <- grow sc.row_alive nc true;
  sc.col_alive <- grow sc.col_alive nv true;
  sc.rowlen <- grow sc.rowlen nc 0;
  let row_alive = sc.row_alive and col_alive = sc.col_alive and rowlen = sc.rowlen in
  Array.fill row_alive 0 nc true;
  Array.fill col_alive 0 nv true;
  for i = 0 to nc - 1 do
    rowlen.(i) <- start.(i + 1) - start.(i)
  done;
  (* Row i's alive terms into [cols]/[vals] from offset [at], sorted by
     column (insertion: rows are short) — so nothing below depends on
     the stored term order. *)
  let alive_sorted i cols vals at =
    let k = ref at in
    for p = start.(i) to start.(i + 1) - 1 do
      let j = var.(p) in
      if col_alive.(j) then begin
        let q = ref !k in
        while !q > at && cols.(!q - 1) > j do
          cols.(!q) <- cols.(!q - 1);
          vals.(!q) <- vals.(!q - 1);
          decr q
        done;
        cols.(!q) <- j;
        vals.(!q) <- coef.(p);
        incr k
      end
    done
  in
  (* Cached duplicate-row keys; a fixed column invalidates its rows'. *)
  sc.keys <- grow sc.keys nc Row_key.none;
  sc.anchor <- grow sc.anchor nc 0.0;
  sc.key_ok <- grow sc.key_ok nc false;
  let keys = sc.keys and anchor = sc.anchor and key_ok = sc.key_ok in
  Array.fill keys 0 nc Row_key.none;
  Array.fill anchor 0 nc 0.0;
  Array.fill key_ok 0 nc false;
  let fixed = Array.make nv 0.0 in
  let actions = ref [] in
  let failure = ref None in
  let fail o = if !failure = None then failure := Some o in
  let fix_col j v =
    col_alive.(j) <- false;
    fixed.(j) <- v;
    for p = c_start.(j) to c_start.(j + 1) - 1 do
      let i = c_row.(p) in
      rhs_eff.(i) <- rhs_eff.(i) -. (c_val.(p) *. v);
      if row_alive.(i) then begin
        rowlen.(i) <- rowlen.(i) - 1;
        key_ok.(i) <- false
      end
    done;
    if v < lb.(j) -. (feas *. (1.0 +. Float.abs v))
       || v > ub.(j) +. (feas *. (1.0 +. Float.abs v))
    then fail Infeasible
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
          (* [rowlen] counts alive terms exactly: find the one. *)
          let k = ref start.(i) in
          while not col_alive.(var.(!k)) do
            incr k
          done;
          let j = var.(!k) and a = coef.(!k) in
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
        end
    done;
    !changed
  in
  (* ---- Duplicate rows: equal patterns up to a positive scale ---- *)
  (* (Re)build the key of alive row i (>= 2 alive terms). *)
  let build_key i =
    let n = rowlen.(i) in
    let cols = Array.make n 0 and ratios = Array.make n 0.0 in
    alive_sorted i cols ratios 0;
    let c0 = ratios.(0) in
    for k = 0 to n - 1 do
      ratios.(k) <- ratios.(k) /. c0
    done;
    let sense = match row_sense.(i) with Lp.Le -> 0 | Lp.Ge -> 2 | Lp.Eq -> 4 in
    keys.(i) <- Row_key.make (sense + if c0 > 0.0 then 1 else 0) cols ratios;
    anchor.(i) <- c0;
    key_ok.(i) <- true
  in
  let scan_dups () =
    let changed = ref false in
    let tbl = sc.tbl in
    Row_tbl.clear tbl;
    let groups = ref [] in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) && rowlen.(i) >= 2 then begin
        if not key_ok.(i) then build_key i;
        let c0 = anchor.(i) and key = keys.(i) in
        match Row_tbl.find_opt tbl key with
        | None -> Row_tbl.add tbl key (i, c0, ref [ (i, c0) ])
        | Some (kept, ck, members) ->
          (match !members with [ _ ] -> groups := (kept, members) :: !groups | _ -> ());
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
          changed := true
      end
    done;
    (* One action per multi-member group, in kept-row order; members
       joined in ascending row order behind the kept row. *)
    List.iter
      (fun (kept, members) ->
        let members = List.rev !members in
        let ge_like =
          match members with
          | (r0, c0) :: _ -> (row_sense.(r0) = Lp.Ge) = (c0 > 0.0)
          | [] -> false
        in
        actions :=
          Dup_group { kept; members; ge_like; eq = row_sense.(kept) = Lp.Eq }
          :: !actions)
      (List.sort (fun (a, _) (b, _) -> compare (a : int) b) !groups);
    !changed
  in
  (* ---- Column scan: empty and dominated columns ---- *)
  let scan_cols () =
    let changed = ref false in
    for j = 0 to nv - 1 do
      if !failure = None && col_alive.(j) then begin
        let occupied = ref false in
        for p = c_start.(j) to c_start.(j + 1) - 1 do
          if row_alive.(c_row.(p)) then occupied := true
        done;
        if not !occupied then begin
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
          let dominated = ref true in
          for p = c_start.(j) to c_start.(j + 1) - 1 do
            let i = c_row.(p) and a = c_val.(p) in
            if
              row_alive.(i)
              && not
                   (match row_sense.(i) with
                   | Lp.Le -> a >= 0.0
                   | Lp.Ge -> a <= 0.0
                   | Lp.Eq -> false)
            then dominated := false
          done;
          if !dominated then begin
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
  | Some o -> o
  | None ->
    (* ---- Materialize the reduced problem ---- *)
    let col_map = Array.make nv (-1) and row_map = Array.make nc (-1) in
    let r_nv = ref 0 and r_nc = ref 0 in
    for j = 0 to nv - 1 do
      if col_alive.(j) then begin
        col_map.(j) <- !r_nv;
        incr r_nv
      end
    done;
    for i = 0 to nc - 1 do
      if row_alive.(i) then begin
        row_map.(i) <- !r_nc;
        incr r_nc
      end
    done;
    let r_nv = !r_nv and r_nc = !r_nc in
    let col_of = Array.make r_nv 0 and row_of = Array.make r_nc 0 in
    Array.iteri (fun j rj -> if rj >= 0 then col_of.(rj) <- j) col_map;
    Array.iteri (fun i ri -> if ri >= 0 then row_of.(ri) <- i) row_map;
    (* Surviving terms by reduced row: [col_map] is monotone, so they
       keep ascending column order. *)
    let r_start = Array.make (r_nc + 1) 0 in
    for ri = 0 to r_nc - 1 do
      r_start.(ri + 1) <- r_start.(ri) + rowlen.(row_of.(ri))
    done;
    let nnz = r_start.(r_nc) in
    let r_col = Array.make nnz 0 and r_val = Array.make nnz 0.0 in
    Array.iteri (fun ri i -> alive_sorted i r_col r_val r_start.(ri)) row_of;
    for p = 0 to nnz - 1 do
      r_col.(p) <- col_map.(r_col.(p))
    done;
    (* ---- Geometric-mean equilibration over the surviving structure ---- *)
    (* Each sweep takes the min and max of a row's (a column's) scaled
       magnitudes with strict comparisons, so the order in which they
       are visited does not matter: the column sweep runs over the rows. *)
    sc.rho <- grow sc.rho r_nc 1.0;
    sc.kap <- grow sc.kap r_nv 1.0;
    sc.cmn <- grow sc.cmn r_nv infinity;
    sc.cmx <- grow sc.cmx r_nv 0.0;
    let rho = sc.rho and kap = sc.kap and cmn = sc.cmn and cmx = sc.cmx in
    Array.fill rho 0 r_nc 1.0;
    Array.fill kap 0 r_nv 1.0;
    for _ = 1 to 2 do
      for ri = 0 to r_nc - 1 do
        let mn = ref infinity and mx = ref 0.0 in
        for p = r_start.(ri) to r_start.(ri + 1) - 1 do
          let v = Float.abs (r_val.(p) *. kap.(r_col.(p))) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        if !mx > 0.0 then rho.(ri) <- 1.0 /. sqrt (!mn *. !mx)
      done;
      Array.fill cmn 0 r_nv infinity;
      Array.fill cmx 0 r_nv 0.0;
      for ri = 0 to r_nc - 1 do
        for p = r_start.(ri) to r_start.(ri + 1) - 1 do
          let rj = r_col.(p) in
          let v = Float.abs (r_val.(p) *. rho.(ri)) in
          if v < cmn.(rj) then cmn.(rj) <- v;
          if v > cmx.(rj) then cmx.(rj) <- v
        done
      done;
      for rj = 0 to r_nv - 1 do
        if cmx.(rj) > 0.0 then kap.(rj) <- 1.0 /. sqrt (cmn.(rj) *. cmx.(rj))
      done
    done;
    for ri = 0 to r_nc - 1 do
      for p = r_start.(ri) to r_start.(ri + 1) - 1 do
        r_val.(p) <- r_val.(p) *. rho.(ri) *. kap.(r_col.(p))
      done
    done;
    let r_sense = Array.map (fun i -> row_sense.(i)) row_of in
    let r_rhs = Array.mapi (fun ri i -> rhs_eff.(i) *. rho.(ri)) row_of in
    let r_lb = Array.mapi (fun rj j -> lb.(j) /. kap.(rj)) col_of in
    let r_ub =
      Array.mapi
        (fun rj j -> if ub.(j) = infinity then infinity else ub.(j) /. kap.(rj))
        col_of
    in
    let r_cost = Array.mapi (fun rj j -> cost_min.(j) *. kap.(rj)) col_of in
    let rowscale = Array.make nc 1.0 and colscale = Array.make nv 1.0 in
    Array.iteri (fun ri i -> rowscale.(i) <- rho.(ri)) row_of;
    Array.iteri (fun rj j -> colscale.(j) <- kap.(rj)) col_of;
    Reduced
      {
        p_nv = nv;
        p_nc = nc;
        sign;
        cost_min;
        c_start;
        c_row;
        c_val;
        rhs_eff;
        r_nv;
        r_nc;
        r_start;
        r_col;
        r_val;
        r_sense;
        r_rhs;
        r_lb;
        r_ub;
        r_cost;
        col_of;
        col_map;
        row_of;
        row_map;
        rowscale;
        colscale;
        fixed;
        actions = !actions;
        rows_removed = nc - r_nc;
        cols_removed = nv - r_nv;
      }

let reduce model =
  let held = Domain.DLS.get scratch_key in
  let sc = if held.busy then scratch_make () else held in
  let release () =
    (* Keep no key or table entry of this model alive. *)
    Array.fill sc.keys 0 (Array.length sc.keys) Row_key.none;
    Row_tbl.clear sc.tbl;
    sc.busy <- false
  in
  sc.busy <- true;
  match reduce_in sc model with
  | r ->
    release ();
    r
  | exception e ->
    release ();
    raise e

(* Map a reduced (scaled) primal/dual point back to the original space.
   [x] is indexed by reduced column, [y] by reduced row; the returned
   duals are {e min-form} shadow prices (∂ min-objective / ∂ rhs) over
   the original rows — the caller applies the direction sign. *)
let postsolve t ~x ~y =
  let xo = Array.copy t.fixed in
  Array.iteri (fun rj j -> xo.(j) <- x.(rj) *. t.colscale.(j)) t.col_of;
  let yo = Array.make t.p_nc 0.0 in
  Array.iteri (fun ri i -> yo.(i) <- y.(ri) *. t.rowscale.(i)) t.row_of;
  (* Residual min-form reduced cost of an original column under the
     current original-row duals. *)
  let reduced_cost j =
    let acc = ref t.cost_min.(j) in
    for p = t.c_start.(j) to t.c_start.(j + 1) - 1 do
      acc := !acc -. (t.c_val.(p) *. yo.(t.c_row.(p)))
    done;
    !acc
  in
  (* Actions head = last applied, so walking the list is already the
     reverse (LIFO) replay order. *)
  List.iter
    (fun act ->
      match act with
      | Row_empty _ | Col_fixed _ -> ()
      | Row_singleton_eq { row; col; coef } -> yo.(row) <- reduced_cost col /. coef
      | Row_singleton_ineq { row; col; coef; le; bound } ->
        if Float.abs (xo.(col) -. bound) <= 1e-6 *. (1.0 +. Float.abs bound) then begin
          let yv = reduced_cost col /. coef in
          (* Min-form sign guard: Le rows price <= 0, Ge rows >= 0.
             A violation only arises on degraded (budget-truncated)
             incumbents, whose duals are documented unreliable — clamp
             to 0 rather than emit a sign-infeasible price. *)
          let yv = if le then Float.min yv 0.0 else Float.max yv 0.0 in
          yo.(row) <- yv
        end
      | Dup_group { kept; members; ge_like; eq } ->
        let ck = List.assoc kept members in
        let yk = yo.(kept) in
        if yk <> 0.0 then begin
          let tight =
            if eq then (kept, ck)
            else
              List.fold_left
                (fun (bi, bc) (i, c) ->
                  let tb = t.rhs_eff.(bi) /. bc and ti = t.rhs_eff.(i) /. c in
                  let better = if ge_like then ti > tb else ti < tb in
                  if better then (i, c) else (bi, bc))
                (List.hd members) (List.tl members)
          in
          let ti, tc = tight in
          if ti <> kept then begin
            yo.(kept) <- 0.0;
            yo.(ti) <- yk *. ck /. tc
          end
        end)
    t.actions;
  (xo, yo)
