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
  colview : (int * float) list array;  (* original column -> (row, coef) *)
  rhs_eff : float array;  (* per original row: rhs minus fixed-column
                             contributions (kept current for dead rows
                             too — duplicate-group postsolve needs it) *)
  r_nv : int;
  r_nc : int;
  r_rows : (int * float) list array;  (* scaled reduced rows *)
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
   never NaN, and ±0 differ in both. *)
module Row_key = struct
  type t = { tag : int; cols : int array; ratios : float array }

  let equal a b =
    a.tag = b.tag
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

  let hash k =
    let h = ref k.tag in
    for i = 0 to Array.length k.cols - 1 do
      h := (!h * 31) + k.cols.(i);
      h := (!h * 31) + Int64.to_int (Int64.bits_of_float k.ratios.(i))
    done;
    !h land max_int
end

module Row_tbl = Hashtbl.Make (Row_key)

let reduce model =
  let bounds = Lp.Internal.bounds model in
  let constrs = Lp.Internal.constraints model in
  let dir, obj = Lp.Internal.objective model in
  let nv = Lp.num_vars model in
  let nc = Array.length constrs in
  Array.iter
    (fun (lb, _) ->
      if lb = neg_infinity then
        invalid_arg "Presolve.reduce: free variables (lb = -inf) unsupported")
    bounds;
  let sign = match dir with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost_min = Array.map (fun c -> sign *. c) obj in
  let lb = Array.map fst bounds and ub = Array.map snd bounds in
  let row_terms = Array.map (fun c -> c.Lp.Internal.terms) constrs in
  let row_sense = Array.map (fun c -> c.Lp.Internal.sense) constrs in
  let rhs_eff = Array.map (fun c -> c.Lp.Internal.rhs) constrs in
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
  (* The key of alive row i (>= 1 alive term): its alive terms sorted
     stably by column, computed once per pass. *)
  let row_key i =
    let n = List.fold_left (fun n (j, _) -> if col_alive.(j) then n + 1 else n) 0 row_terms.(i) in
    let cols = Array.make n 0 and coefs = Array.make n 0.0 in
    let k = ref 0 in
    List.iter
      (fun (j, a) ->
        if col_alive.(j) then begin
          (* Stable insertion by column: equal columns keep term order. *)
          let p = ref !k in
          while !p > 0 && cols.(!p - 1) > j do
            cols.(!p) <- cols.(!p - 1);
            coefs.(!p) <- coefs.(!p - 1);
            decr p
          done;
          cols.(!p) <- j;
          coefs.(!p) <- a;
          incr k
        end)
      row_terms.(i);
    let c0 = coefs.(0) in
    let sense = match row_sense.(i) with Lp.Le -> 0 | Lp.Ge -> 2 | Lp.Eq -> 4 in
    ( c0,
      { Row_key.tag = (sense + if c0 > 0.0 then 1 else 0);
        cols;
        ratios = Array.map (fun a -> a /. c0) coefs } )
  in
  let scan_dups () =
    let changed = ref false in
    let tbl = Row_tbl.create 64 in
    for i = 0 to nc - 1 do
      if !failure = None && row_alive.(i) && rowlen.(i) >= 2 then begin
        let c0, key = row_key i in
        match Row_tbl.find_opt tbl key with
        | None -> Row_tbl.add tbl key (i, c0, ref [ (i, c0) ])
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
          changed := true
      end
    done;
    (* Record one action per multi-member group, deterministically in
       kept-row order. *)
    let groups = ref [] in
    Row_tbl.iter
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
        let occupied = List.exists (fun (i, _) -> row_alive.(i)) colview.(j) in
        if not occupied then begin
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
                (not row_alive.(i))
                ||
                match row_sense.(i) with
                | Lp.Le -> a >= 0.0
                | Lp.Ge -> a <= 0.0
                | Lp.Eq -> false)
              colview.(j)
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
  | Some o -> o
  | None ->
    (* ---- Materialize the reduced problem ---- *)
    let col_map = Array.make nv (-1) and row_map = Array.make nc (-1) in
    let col_of =
      let acc = ref [] in
      for j = nv - 1 downto 0 do
        if col_alive.(j) then acc := j :: !acc
      done;
      Array.of_list !acc
    in
    Array.iteri (fun rj j -> col_map.(j) <- rj) col_of;
    let row_of =
      let acc = ref [] in
      for i = nc - 1 downto 0 do
        if row_alive.(i) then acc := i :: !acc
      done;
      Array.of_list !acc
    in
    Array.iteri (fun ri i -> row_map.(i) <- ri) row_of;
    let r_nv = Array.length col_of and r_nc = Array.length row_of in
    let raw_rows =
      Array.map
        (fun i ->
          alive_terms i
          |> List.map (fun (j, a) -> (col_map.(j), a))
          |> List.sort (fun (a, _) (b, _) -> compare a b))
        row_of
    in
    (* ---- Geometric-mean equilibration over the surviving structure ---- *)
    let rho = Array.make r_nc 1.0 and kap = Array.make r_nv 1.0 in
    let rcolview = Array.make r_nv [] in
    Array.iteri
      (fun ri terms -> List.iter (fun (rj, a) -> rcolview.(rj) <- (ri, a) :: rcolview.(rj)) terms)
      raw_rows;
    for _ = 1 to 2 do
      Array.iteri
        (fun ri terms ->
          let mn = ref infinity and mx = ref 0.0 in
          List.iter
            (fun (rj, a) ->
              let v = Float.abs (a *. kap.(rj)) in
              if v < !mn then mn := v;
              if v > !mx then mx := v)
            terms;
          if !mx > 0.0 then rho.(ri) <- 1.0 /. sqrt (!mn *. !mx))
        raw_rows;
      Array.iteri
        (fun rj occ ->
          let mn = ref infinity and mx = ref 0.0 in
          List.iter
            (fun (ri, a) ->
              let v = Float.abs (a *. rho.(ri)) in
              if v < !mn then mn := v;
              if v > !mx then mx := v)
            occ;
          if !mx > 0.0 then kap.(rj) <- 1.0 /. sqrt (!mn *. !mx))
        rcolview
    done;
    let r_rows =
      Array.mapi
        (fun ri terms ->
          List.map (fun (rj, a) -> (rj, a *. rho.(ri) *. kap.(rj))) terms)
        raw_rows
    in
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
        colview;
        rhs_eff;
        r_nv;
        r_nc;
        r_rows;
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
    List.fold_left
      (fun acc (i, a) -> acc -. (a *. yo.(i)))
      t.cost_min.(j) t.colview.(j)
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
