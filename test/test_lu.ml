(* Isolated differential tests for the sparse LU kernel (Sparse.Lu):
   factorize / ftran / btran / Forrest–Tomlin update are checked against
   dense Gaussian elimination on seeded random basis matrices.  The
   simplex-level suites (test_solvers_diff) then pin the engine built on
   top; this file localizes kernel regressions. *)

open Prete_lp
module Dense = Prete_lp_oracle.Dense
module Kkt = Prete_lp_oracle.Kkt
module Ref_lu = Prete_lp_oracle.Ref_lu

let rand_state seed = Random.State.make [| 0x15eed; seed |]

(* Dense solve B x = rhs by Gaussian elimination with partial pivoting;
   returns None when B is singular. *)
let dense_solve b rhs =
  let m = Array.length rhs in
  let a = Array.init m (fun i -> Array.copy b.(i)) in
  let x = Array.copy rhs in
  let piv_of = Array.make m 0 in
  let used = Array.make m false in
  let ok = ref true in
  for c = 0 to m - 1 do
    if !ok then begin
      let p = ref (-1) and best = ref 1e-9 in
      for i = 0 to m - 1 do
        if (not used.(i)) && Float.abs a.(i).(c) > !best then begin
          best := Float.abs a.(i).(c);
          p := i
        end
      done;
      if !p = -1 then ok := false
      else begin
        used.(!p) <- true;
        piv_of.(c) <- !p;
        let inv = 1.0 /. a.(!p).(c) in
        for i = 0 to m - 1 do
          if i <> !p && a.(i).(c) <> 0.0 then begin
            let f = a.(i).(c) *. inv in
            for j = 0 to m - 1 do
              a.(i).(j) <- a.(i).(j) -. (f *. a.(!p).(j))
            done;
            x.(i) <- x.(i) -. (f *. x.(!p))
          end
        done
      end
    end
  done;
  if not !ok then None
  else Some (Array.init m (fun c -> x.(piv_of.(c)) /. a.(piv_of.(c)).(c)))

(* A random sparse m×n matrix whose first m columns are guaranteed
   nonsingular (identity + noise); extra columns are candidate entering
   columns for update tests. *)
let random_mat st ~m ~n =
  let trips = ref [] in
  for i = 0 to m - 1 do
    trips := (i, i, 1.0 +. Random.State.float st 2.0) :: !trips
  done;
  for j = 0 to n - 1 do
    let cnt = 1 + Random.State.int st 4 in
    for _ = 1 to cnt do
      let i = Random.State.int st m in
      let v = Random.State.float st 4.0 -. 2.0 in
      if v <> 0.0 then trips := (i, j, v) :: !trips
    done
  done;
  Sparse.of_triplets ~rows:m ~cols:n !trips

let col_dense a j m =
  let x = Array.make m 0.0 in
  Sparse.scatter_col a j x;
  x

let check_vec ~tol name expect got =
  Array.iteri
    (fun i e ->
      if Float.abs (e -. got.(i)) > tol then
        Alcotest.failf "%s: component %d: expected %.12g got %.12g" name i e got.(i))
    expect

(* ftran/btran agree with a dense solve of the factorized basis. *)
let test_factorize_solves () =
  for seed = 1 to 20 do
    let st = rand_state seed in
    let m = 3 + Random.State.int st 20 in
    let a = random_mat st ~m ~n:(2 * m) in
    let targets = Array.init m (fun i -> i) in
    let crash = Array.init m (fun i -> i) in
    let basis_out = Array.make m (-1) in
    let f, dropped = Sparse.Lu.factorize a ~targets ~crash ~basis_out in
    Alcotest.(check (list int)) "nothing dropped" [] dropped;
    (* Dense basis matrix in basis_out order: column of row r is whatever
       ends up basic there; B's column order is irrelevant to solves as
       long as we compare consistently.  ftran solves B z = rhs where B's
       columns are the basic set in *some* pairing; the result is indexed
       by row, with z.(r) the multiplier of the column basic in row r. *)
    let bd =
      Array.init m (fun i ->
          Array.init m (fun r ->
              let c = col_dense a basis_out.(r) m in
              c.(i)))
    in
    let rhs = Array.init m (fun _ -> Random.State.float st 10.0 -. 5.0) in
    (match dense_solve bd rhs with
    | None -> Alcotest.fail "dense oracle found basis singular"
    | Some z ->
      let x = Array.copy rhs in
      Sparse.Lu.ftran f x;
      check_vec ~tol:1e-8 "ftran" z x);
    (* btran: y = B⁻ᵀ c  <=>  Bᵀ y = c  <=>  y solves the transposed
       dense system. *)
    let c = Array.init m (fun _ -> Random.State.float st 10.0 -. 5.0) in
    let bdt = Array.init m (fun i -> Array.init m (fun j -> bd.(j).(i))) in
    (match dense_solve bdt c with
    | None -> Alcotest.fail "dense oracle found basis^T singular"
    | Some y ->
      let v = Array.copy c in
      Sparse.Lu.btran f v;
      check_vec ~tol:1e-8 "btran" y v)
  done

(* Forrest–Tomlin updates keep ftran/btran exact vs a dense oracle of the
   updated basis. *)
let test_updates () =
  for seed = 1 to 20 do
    let st = rand_state (1000 + seed) in
    let m = 4 + Random.State.int st 16 in
    let n = 3 * m in
    let a = random_mat st ~m ~n in
    let targets = Array.init m (fun i -> i) in
    let crash = Array.init m (fun i -> i) in
    let basis = Array.make m (-1) in
    let f, dropped = Sparse.Lu.factorize a ~targets ~crash ~basis_out:basis in
    Alcotest.(check (list int)) "nothing dropped" [] dropped;
    let fref = ref f in
    let steps = 8 + Random.State.int st 8 in
    for _ = 1 to steps do
      let f = !fref in
      (* Pick a random entering column not currently basic and a random
         leaving row, but only commit when the update is stable and the
         new basis nonsingular. *)
      let q = m + Random.State.int st (n - m) in
      let in_basis = Array.exists (fun c -> c = q) basis in
      if not in_basis then begin
        let rl = Random.State.int st m in
        let w = col_dense a q m in
        Sparse.Lu.ftran f w;
        (* The FT update needs a usable pivot in the leaving row. *)
        if Float.abs w.(rl) > 1e-6 then
          if Sparse.Lu.update f ~leaving_row:rl then begin
            basis.(rl) <- q;
            (* Verify against the dense oracle of the updated basis. *)
            let bd =
              Array.init m (fun i ->
                  Array.init m (fun r ->
                      let c = col_dense a basis.(r) m in
                      c.(i)))
            in
            let rhs = Array.init m (fun _ -> Random.State.float st 4.0 -. 2.0) in
            match dense_solve bd rhs with
            | None -> Alcotest.fail "updated basis singular in oracle"
            | Some z ->
              let x = Array.copy rhs in
              Sparse.Lu.ftran f x;
              check_vec ~tol:1e-7 "ftran after update" z x;
              let c = Array.init m (fun _ -> Random.State.float st 4.0 -. 2.0) in
              let bdt = Array.init m (fun i -> Array.init m (fun j -> bd.(j).(i))) in
              (match dense_solve bdt c with
              | None -> Alcotest.fail "updated basis^T singular in oracle"
              | Some y ->
                let v = Array.copy c in
                Sparse.Lu.btran f v;
                check_vec ~tol:1e-7 "btran after update" y v)
          end
          else begin
            (* Refused update: refactorize from the intended new basis,
               mirroring what the simplex engine does. *)
            basis.(rl) <- q;
            let basis_out = Array.make m (-1) in
            let f', dropped =
              Sparse.Lu.factorize a ~targets:basis ~crash ~basis_out
            in
            Alcotest.(check (list int)) "refactor clean" [] dropped;
            Array.blit basis_out 0 basis 0 m;
            fref := f'
          end
      end
    done
  done

(* Rank-deficient target sets: dropped columns are reported and the
   uncovered rows fall back to their crash columns. *)
let test_singular_drop () =
  let m = 6 in
  (* Columns 0..5 identity crash; columns 6 and 7 are the same vector
     (duplicate => one of them cannot be pivoted). *)
  let trips = ref [] in
  for i = 0 to m - 1 do
    trips := (i, i, 1.0) :: !trips
  done;
  List.iter (fun c -> trips := (0, c, 1.0) :: (1, c, 2.0) :: !trips) [ 6; 7 ];
  let a = Sparse.of_triplets ~rows:m ~cols:8 !trips in
  let targets = [| 6; 7; 2; 3; 4; 5 |] in
  let crash = Array.init m (fun i -> i) in
  let basis_out = Array.make m (-1) in
  let _f, dropped = Sparse.Lu.factorize a ~targets ~crash ~basis_out in
  Alcotest.(check int) "one column dropped" 1 (List.length dropped);
  Array.iteri
    (fun r c ->
      if not (List.mem c dropped) then
        Alcotest.(check bool) (Printf.sprintf "row %d covered" r) true (c >= 0))
    basis_out

(* Reference model for target deduplication: the distinct non-negative
   targets in ascending order, as [factorize] computed them with a
   [Hashtbl] and a polymorphic sort before the mark-array scan replaced
   them.  Factorizing the raw targets must equal factorizing this list. *)
let old_dedup targets =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun c ->
      if c >= 0 && not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        acc := c :: !acc
      end)
    targets;
  let arr = Array.of_list !acc in
  Array.sort compare arr;
  arr

(* A random matrix with repeated columns, so some target sets are
   singular and drop columns to their crash rows. *)
let random_mat_with_copies st ~m ~n =
  let a = random_mat st ~m ~n in
  let d = Sparse.to_dense a in
  let trips = ref [] in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      if d.(i).(j) <> 0.0 then trips := (i, j, d.(i).(j)) :: !trips
    done
  done;
  for c = 0 to 2 do
    let src = m + Random.State.int st (n - m) in
    for i = 0 to m - 1 do
      if d.(i).(src) <> 0.0 then trips := (i, n + c, d.(i).(src)) :: !trips
    done
  done;
  Sparse.of_triplets ~rows:m ~cols:(n + 3) !trips

(* Unsorted targets with duplicates and -1 holes. *)
let random_targets st ~m ~ncols =
  Array.init m (fun _ ->
      match Random.State.int st 5 with
      | 0 -> -1
      | _ -> Random.State.int st ncols)

let bits v = Array.map Int64.bits_of_float v

let prop_dedup_matches_reference =
  QCheck.Test.make ~name:"target dedup == Hashtbl+sort reference" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let st = rand_state (7000 + seed) in
      let m = 2 + Random.State.int st 24 in
      let a = random_mat_with_copies st ~m ~n:(2 * m) in
      let targets = random_targets st ~m ~ncols:(2 * m + 3) in
      let crash = Array.init m Fun.id in
      let b1 = Array.make m (-1) and b2 = Array.make m (-1) in
      let f1, d1 = Sparse.Lu.factorize a ~targets ~crash ~basis_out:b1 in
      let f2, d2 =
        Sparse.Lu.factorize a ~targets:(old_dedup targets) ~crash ~basis_out:b2
      in
      (* Same slot order, same factor: solves agree bit for bit. *)
      let x = Array.init m (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let x1 = Array.copy x and x2 = Array.copy x in
      Sparse.Lu.ftran f1 x1;
      Sparse.Lu.ftran f2 x2;
      b1 = b2 && d1 = d2 && bits x1 = bits x2)

(* Rebuilding into a used factor (one that absorbed Forrest–Tomlin
   updates and whose update may have been refused half-way) gives the
   fresh factorization bit for bit. *)
let prop_factorize_into_reuse =
  QCheck.Test.make ~name:"factorize ~into used storage == fresh" ~count:150
    QCheck.(small_int)
    (fun seed ->
      let st = rand_state (9000 + seed) in
      let m = 2 + Random.State.int st 24 in
      let n = 2 * m in
      let a = random_mat_with_copies st ~m ~n in
      let crash = Array.init m Fun.id in
      let used, _ =
        Sparse.Lu.factorize a ~targets:(Array.init m Fun.id) ~crash
          ~basis_out:(Array.make m (-1))
      in
      for _ = 1 to Random.State.int st 12 do
        let w = col_dense a (m + Random.State.int st (n - m)) m in
        Sparse.Lu.ftran used w;
        ignore (Sparse.Lu.update used ~leaving_row:(Random.State.int st m))
      done;
      let targets = random_targets st ~m ~ncols:(n + 3) in
      let b1 = Array.make m (-1) and b2 = Array.make m (-1) in
      let fresh, d1 = Sparse.Lu.factorize a ~targets ~crash ~basis_out:b1 in
      let reused, d2 = Sparse.Lu.factorize ~into:used a ~targets ~crash ~basis_out:b2 in
      let x = Array.init m (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let x1 = Array.copy x and x2 = Array.copy x in
      Sparse.Lu.ftran fresh x1;
      Sparse.Lu.ftran reused x2;
      let y1 = Array.copy x and y2 = Array.copy x in
      Sparse.Lu.btran fresh y1;
      Sparse.Lu.btran reused y2;
      let same_factor =
        Sparse.Lu.nnz fresh = Sparse.Lu.nnz reused && Sparse.Lu.updates reused = 0
      in
      let same_solves = bits x1 = bits x2 && bits y1 = bits y2 in
      (* The update scratch must be as clean as a fresh factor's too. *)
      let q = m + Random.State.int st (n - m) and rl = Random.State.int st m in
      let w1 = col_dense a q m in
      let w2 = Array.copy w1 in
      Sparse.Lu.ftran fresh w1;
      Sparse.Lu.ftran reused w2;
      let u1 = Sparse.Lu.update fresh ~leaving_row:rl in
      let u2 = Sparse.Lu.update reused ~leaving_row:rl in
      let z1 = Array.copy x and z2 = Array.copy x in
      Sparse.Lu.ftran fresh z1;
      Sparse.Lu.ftran reused z2;
      reused == used && b1 = b2 && d1 = d2 && same_factor && same_solves
      && u1 = u2 && bits z1 = bits z2)

(* ---- factorize == the reference elimination, field by field -------- *)

(* A factor as comparable data, floats by their bits. *)
let view_key (v : Sparse.Lu.Internal.view) =
  let b = Array.map Int64.bits_of_float in
  let ops = Array.map (fun (p, r, x) -> (p, r, b x)) in
  let slices = Array.map (fun (r, x) -> (r, b x)) in
  Sparse.Lu.Internal.
    ( v.v_m, v.v_ord, v.v_row_of, ops v.v_l, ops v.v_h, slices v.v_ucols,
      slices v.v_urows, b v.v_udiag, v.v_nnz )

(* Bases in three shapes, each over m structural columns followed by the
   m identity columns the crash takes (crash.(r) = m + r):

   - random: sparse random columns (up to four entries) with exact
     copies, so some targets drop;
   - singleton-heavy: isolated singletons (rows no other column
     touches), a permuted triangle whose singletons appear one by one as
     their rows are pivoted (requeued at the head of the count-1
     bucket), and a few denser columns that need real eliminations;
   - dense: every entry nonzero (m <= 10), plus a copied column. *)
let lu_case st shape =
  let m = 2 + Random.State.int st (match shape with 2 -> 9 | _ -> 40) in
  let v () =
    let x = Random.State.float st 4.0 -. 2.0 in
    if x = 0.0 then 1.0 else x
  in
  let trips = ref [] in
  let add i j x = trips := (i, j, x) :: !trips in
  (match shape with
  | 0 ->
    for j = 0 to m - 1 do
      for _ = 1 to 1 + Random.State.int st 4 do
        add (Random.State.int st m) j (v ())
      done
    done;
    if m > 2 then
      for i = 0 to m - 1 do
        (* column m-1 repeats column 0 *)
        List.iter (fun (r, c, x) -> if c = 0 && r = i then add r (m - 1) x) !trips
      done
  | 1 ->
    let perm = Array.init m Fun.id in
    for i = m - 1 downto 1 do
      let k = Random.State.int st (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(k);
      perm.(k) <- t
    done;
    let isolated = Random.State.int st (m / 2 + 1) in
    for j = 0 to m - 1 do
      add perm.(j) j (v ());
      if j >= isolated then begin
        (* below-diagonal entries of the triangle, in rows of later
           columns, and now and then a denser column *)
        let extra = if Random.State.int st 6 = 0 then 3 + Random.State.int st 3 else Random.State.int st 3 in
        for _ = 1 to extra do
          let k = isolated + Random.State.int st (m - isolated) in
          if k <> j then add perm.(k) j (v ())
        done
      end
    done
  | _ ->
    for j = 0 to m - 2 do
      for i = 0 to m - 1 do
        add i j (v ())
      done
    done;
    for i = 0 to m - 1 do
      List.iter (fun (r, c, x) -> if c = 0 && r = i then add r (m - 1) x) !trips
    done);
  for r = 0 to m - 1 do
    add r (m + r) 1.0
  done;
  let a = Sparse.of_triplets ~rows:m ~cols:(2 * m) !trips in
  let targets =
    Array.init (m + Random.State.int st 3) (fun _ ->
        match Random.State.int st 6 with 0 -> -1 | 1 -> m + Random.State.int st m | _ -> Random.State.int st m)
  in
  (a, targets, Array.init m (fun r -> m + r))

let prop_factorize_matches_reference =
  QCheck.Test.make ~name:"factorize == reference elimination, field by field" ~count:400
    QCheck.(small_int)
    (fun seed ->
      let st = rand_state (41_000 + seed) in
      let a, targets, crash = lu_case st (seed mod 3) in
      let m = a.Sparse.rows in
      let reference () =
        let b = Array.make m (-1) in
        let f, d = Ref_lu.Lu.factorize a ~targets ~crash ~basis_out:b in
        (view_key (Ref_lu.view f), d, b)
      in
      let ours ?into () =
        let b = Array.make m (-1) in
        let f, d = Sparse.Lu.factorize ?into a ~targets ~crash ~basis_out:b in
        (view_key (Sparse.Lu.Internal.view f), d, b)
      in
      let expect = reference () in
      (* A used factor: built on a larger basis, updated (some updates
         refused half-way), then refactorized into. *)
      let used =
        let a', targets', crash' = lu_case st (Random.State.int st 3) in
        let m' = a'.Sparse.rows in
        let f, _ =
          Sparse.Lu.factorize a' ~targets:targets' ~crash:crash'
            ~basis_out:(Array.make m' (-1))
        in
        for _ = 1 to Random.State.int st 20 do
          let w = col_dense a' (Random.State.int st (2 * m')) m' in
          Sparse.Lu.ftran f w;
          ignore (Sparse.Lu.update f ~leaving_row:(Random.State.int st m'))
        done;
        f
      in
      ours () = expect && ours ~into:used () = expect)

(* [of_csc] adopts what [of_triplets] builds and rejects columns whose
   rows do not ascend, out-of-range rows and stored zeros. *)
let test_of_csc () =
  let a = random_mat (rand_state 77) ~m:9 ~n:14 in
  let copy = Sparse.of_csc ~rows:9 ~cols:14 ~colptr:(Array.copy a.Sparse.colptr)
      ~rowidx:(Array.copy a.Sparse.rowidx) ~values:(Array.copy a.Sparse.values) in
  Alcotest.(check bool) "same matrix" true (Sparse.to_dense copy = Sparse.to_dense a);
  let bad ~colptr ~rowidx ~values name =
    match Sparse.of_csc ~rows:3 ~cols:2 ~colptr ~rowidx ~values with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  bad ~colptr:[| 0; 2; 3 |] ~rowidx:[| 1; 0; 2 |] ~values:[| 1.0; 2.0; 3.0 |] "descending rows";
  bad ~colptr:[| 0; 2; 3 |] ~rowidx:[| 1; 1; 2 |] ~values:[| 1.0; 2.0; 3.0 |] "repeated row";
  bad ~colptr:[| 0; 1; 2 |] ~rowidx:[| 0; 3 |] ~values:[| 1.0; 2.0 |] "row out of range";
  bad ~colptr:[| 0; 1; 2 |] ~rowidx:[| 0; 1 |] ~values:[| 1.0; 0.0 |] "stored zero";
  bad ~colptr:[| 0; 1 |] ~rowidx:[| 0 |] ~values:[| 1.0 |] "short colptr"

(* A target set of singleton columns on distinct rows (a crash basis)
   takes the diagonal shortcut; the same set plus one more singleton on
   an already-claimed row takes the general elimination, which drops
   that extra column and must otherwise build the same factor.  Rows
   no target claims take their crash column in both.  Solves and a run
   of Forrest–Tomlin updates must agree bit for bit. *)
let prop_diagonal_factor_matches_elimination =
  QCheck.Test.make ~name:"singleton basis: diagonal factor == elimination" ~count:150
    QCheck.(small_int)
    (fun seed ->
      let st = rand_state (12_000 + seed) in
      let m = 2 + Random.State.int st 24 in
      let perm = Array.init m Fun.id in
      for i = m - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let value () =
        (if Random.State.bool st then 1.0 else -1.0) *. (0.5 +. Random.State.float st 2.5)
      in
      (* Columns: m singletons (column j on row perm.(j)), m random
         entering columns, then the extra singleton. *)
      let trips = ref [] in
      for j = 0 to m - 1 do
        trips := (perm.(j), j, value ()) :: !trips
      done;
      let extra = random_mat st ~m ~n:m in
      for j = 0 to m - 1 do
        Sparse.iter_col extra j (fun i v -> trips := (i, m + j, v) :: !trips)
      done;
      (* The extra singleton sits on a row a target claims. *)
      let dup = 2 * m and dup_row = Random.State.int st m in
      trips := (dup_row, dup, value ()) :: !trips;
      let a = Sparse.of_triplets ~rows:m ~cols:(dup + 1) !trips in
      let crash = Array.make m 0 in
      Array.iteri (fun j r -> crash.(r) <- j) perm;
      let targets =
        Array.init m (fun r ->
            if r <> dup_row && Random.State.int st 4 = 0 then -1 else crash.(r))
      in
      let b1 = Array.make m (-1) and b2 = Array.make m (-1) in
      let f1, d1 = Sparse.Lu.factorize a ~targets ~crash ~basis_out:b1 in
      let f2, d2 =
        Sparse.Lu.factorize a ~targets:(Array.append targets [| dup |]) ~crash ~basis_out:b2
      in
      let solves_agree () =
        let x = Array.init m (fun _ -> Random.State.float st 4.0 -. 2.0) in
        let x1 = Array.copy x and x2 = Array.copy x in
        Sparse.Lu.ftran f1 x1;
        Sparse.Lu.ftran f2 x2;
        let y1 = Array.copy x and y2 = Array.copy x in
        Sparse.Lu.btran f1 y1;
        Sparse.Lu.btran f2 y2;
        bits x1 = bits x2 && bits y1 = bits y2 && Sparse.Lu.nnz f1 = Sparse.Lu.nnz f2
      in
      let ok = ref (d1 = [] && d2 = [ dup ] && b1 = b2 && solves_agree ()) in
      (* A refused update leaves both factors to a refactorization. *)
      let live = ref true in
      for _ = 1 to Random.State.int st 10 do
        if !ok && !live then begin
          let q = m + Random.State.int st m and rl = Random.State.int st m in
          let w1 = col_dense a q m in
          let w2 = Array.copy w1 in
          Sparse.Lu.ftran f1 w1;
          Sparse.Lu.ftran f2 w2;
          let u1 = Sparse.Lu.update f1 ~leaving_row:rl in
          let u2 = Sparse.Lu.update f2 ~leaving_row:rl in
          ok := u1 = u2 && bits w1 = bits w2;
          if u1 then ok := !ok && solves_agree () else live := false
        end
      done;
      !ok)

(* [ftran_col] is [ftran] of the column bit for bit and lists exactly
   the rows it leaves nonzero, each once: on a fresh factor, after every
   Forrest–Tomlin update, and right after a refactorization into used
   storage.  Columns are random ones and an empty one.  A vector reused
   the way the simplex reuses it (only the previously listed rows reset,
   so other rows may hold -0.0) gives the same nonzeros and list. *)
let prop_ftran_col_lists_nonzeros =
  QCheck.Test.make ~name:"ftran_col == ftran and lists its nonzeros" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let st = rand_state (11000 + seed) in
      let m = 1 + Random.State.int st 24 in
      let n = 2 * m in
      (* Column n + 3 (past the copies) is empty. *)
      let a0 = random_mat_with_copies st ~m ~n in
      let trips = ref [] in
      for j = 0 to n + 2 do
        Sparse.iter_col a0 j (fun i v -> trips := (i, j, v) :: !trips)
      done;
      let a = Sparse.of_triplets ~rows:m ~cols:(n + 4) !trips in
      let crash = Array.init m Fun.id in
      let reused = Array.make m 0.0 and rnz = Array.make m 0 and rn = ref 0 in
      let nonzeros x = List.filter (fun i -> x.(i) <> 0.0) (List.init m Fun.id) in
      let agrees f =
        let one j =
          let x1 = col_dense a j m in
          Sparse.Lu.ftran f x1;
          let x2 = Array.make m 0.0 and nz = Array.make m (-1) in
          let k = Sparse.Lu.ftran_col f a j x2 nz in
          let listed = List.sort compare (Array.to_list (Array.sub nz 0 k)) in
          for i = 0 to !rn - 1 do
            reused.(rnz.(i)) <- 0.0
          done;
          rn := Sparse.Lu.ftran_col f a j reused rnz;
          let rlisted = List.sort compare (Array.to_list (Array.sub rnz 0 !rn)) in
          bits x1 = bits x2 && listed = nonzeros x2 && rlisted = listed
          && List.for_all (fun i -> Int64.bits_of_float reused.(i) = Int64.bits_of_float x1.(i)) listed
          && nonzeros reused = listed
        in
        one (Random.State.int st (n + 3)) && one (n + 3) && one (Random.State.int st (n + 3))
      in
      let f, _ =
        Sparse.Lu.factorize a ~targets:(Array.init m Fun.id) ~crash
          ~basis_out:(Array.make m (-1))
      in
      let ok = ref (agrees f) in
      for _ = 1 to Random.State.int st 16 do
        let w = col_dense a (m + Random.State.int st (n + 3 - m)) m in
        Sparse.Lu.ftran f w;
        if Sparse.Lu.update f ~leaving_row:(Random.State.int st m) then
          ok := !ok && agrees f
        else begin
          let targets = random_targets st ~m ~ncols:(n + 4) in
          let f', _ =
            Sparse.Lu.factorize ~into:f a ~targets ~crash
              ~basis_out:(Array.make m (-1))
          in
          ok := !ok && agrees f'
        end
      done;
      !ok)

(* A refused update (exploding multiplier) abandons its elimination
   half-way; a factorization rebuilt into that factor's storage must not
   inherit anything from it.  Columns a, b, c factor as U rows
   0: (b, 1), 1: (c, 1) with b's diagonal 1e-9 in [tiny]; replacing row
   0's column then eliminates against b with multiplier 1e9 and is
   refused.  The second matrix is the same shape with a unit diagonal,
   where the same update succeeds by eliminating through c. *)
let test_refused_update_leaves_no_trace () =
  let mat bdiag =
    Sparse.of_triplets ~rows:3 ~cols:7
      [ (0, 0, 1.0); (0, 1, 1.0); (1, 1, bdiag); (1, 2, 1.0); (2, 2, 1.0);
        (0, 3, 1.0); (2, 3, 1.0); (0, 4, 1.0); (1, 5, 1.0); (2, 6, 1.0) ]
  in
  let tiny = mat 1e-9 and unit = mat 1.0 in
  let crash = [| 4; 5; 6 |] and targets = [| 0; 1; 2 |] in
  let replace_row0 a f =
    let w = col_dense a 3 3 in
    Sparse.Lu.ftran f w;
    Sparse.Lu.update f ~leaving_row:0
  in
  let used, _ = Sparse.Lu.factorize tiny ~targets ~crash ~basis_out:(Array.make 3 (-1)) in
  Alcotest.(check bool) "exploding multiplier refused" false (replace_row0 tiny used);
  let fresh, _ = Sparse.Lu.factorize unit ~targets ~crash ~basis_out:(Array.make 3 (-1)) in
  let reused, _ =
    Sparse.Lu.factorize ~into:used unit ~targets ~crash ~basis_out:(Array.make 3 (-1))
  in
  Alcotest.(check bool) "fresh update" true (replace_row0 unit fresh);
  Alcotest.(check bool) "reused update" true (replace_row0 unit reused);
  let x1 = [| 0.3; -1.7; 2.9 |] in
  let x2 = Array.copy x1 in
  Sparse.Lu.ftran fresh x1;
  Sparse.Lu.ftran reused x2;
  Alcotest.(check (array int64)) "solves after the update" (bits x1) (bits x2)

(* A refactor-heavy LP: dense enough that the solve outlives several
   refactorization cycles (64 Forrest–Tomlin updates each), with Ge rows
   so Phase 1 runs too.  Iterations and objective bits are pinned: the
   factor's storage and bookkeeping may change, its arithmetic may not. *)
let refactor_heavy_lp () =
  let st = rand_state 4242 in
  let nv = 140 and nrows = 90 in
  let m = Lp.create () in
  let xs =
    Array.init nv (fun j ->
        Lp.add_var m ~ub:(1.0 +. Random.State.float st 9.0) (Printf.sprintf "x%d" j))
  in
  for i = 0 to nrows - 1 do
    let terms = ref [] in
    Array.iter
      (fun x ->
        if Random.State.float st 1.0 < 0.25 then
          terms := (0.1 +. Random.State.float st 3.0, x) :: !terms)
      xs;
    let sense, rhs =
      if i mod 6 = 5 then (Lp.Ge, 1.0 +. Random.State.float st 5.0)
      else (Lp.Le, 20.0 +. Random.State.float st 40.0)
    in
    ignore (Lp.add_constraint m !terms sense rhs)
  done;
  Lp.set_objective m Lp.Maximize
    (Array.to_list (Array.map (fun x -> (0.5 +. Random.State.float st 2.0, x)) xs));
  m

let test_refactor_heavy_golden () =
  match Simplex.solve (refactor_heavy_lp ()) with
  | Simplex.Optimal s ->
    Alcotest.(check int) "iterations" 394 s.Simplex.iterations;
    Alcotest.(check int) "refactorizations" 6 s.Simplex.refactorizations;
    Alcotest.(check int64) "objective bits" 4641508187145773220L
      (Int64.bits_of_float s.Simplex.objective);
    Alcotest.(check int) "ft_updates" 392 s.Simplex.ft_updates;
    Alcotest.(check int) "bound_flips" 2 s.Simplex.bound_flips;
    Alcotest.(check int) "lu_fill_nnz" 1655 s.Simplex.lu_fill_nnz
  | _ -> Alcotest.fail "refactor-heavy LP must be optimal"

(* Near-tied ratios for Bland's pass: maximize x over rows x ± w ≤ a_i,
   x ± v ≤ a_i with a = 1 + 1.2e-9, 1 + 0.6e-9, 1, 5.  All coefficients
   are ±1, so presolve's equilibration scales by exactly 1 and x's
   first ratio test sees the a_i as its ratios: three within 1e-9 of
   their neighbours but not of each other, in rows whose slacks ascend
   against the ratios.  The eps-window tie-breaks then pick row 2
   (x = 1) scanning rows upwards and row 0 (x = 1 + 1.2e-9) scanning
   downwards, so the optimum's bits pin the scan order. *)
let near_tie_lp () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and w = Lp.add_var m "w" and v = Lp.add_var m "v" in
  List.iter
    (fun (terms, a) -> ignore (Lp.add_constraint m terms Lp.Le a))
    [ ([ (1.0, x); (1.0, w) ], 1.0 +. 1.2e-9);
      ([ (1.0, x); (-1.0, w) ], 1.0 +. 0.6e-9);
      ([ (1.0, x); (1.0, v) ], 1.0);
      ([ (1.0, x); (-1.0, v) ], 5.0) ];
  Lp.set_objective m Lp.Maximize [ (1.0, x) ];
  m

(* A pivot whose leaving column keeps the y of its rows bit for bit:
   minimize -M·l - (M + 1)·x + (1 - 2⁻²⁸)·q over l + x ≤ 3, x - q ≤ 1
   with M = 2²⁷ (±1 coefficients again).  x enters, then l (its reduced
   cost ties q's at -M and the lower index wins), giving y = (-M, -1);
   q's reduced cost is then -2⁻²⁸, q enters and l leaves.  y_0 moves by
   2⁻²⁸, under half an ulp of M, so row 0 — l's only row — keeps its
   bits: d_l reads 0 again only if the leaving column is repriced, and
   the -M it had on entering would send it straight back in. *)
let leave_unchanged_lp () =
  let m = Lp.create () in
  let l = Lp.add_var m "l" and x = Lp.add_var m "x" and q = Lp.add_var m "q" in
  let big = Float.ldexp 1.0 27 in
  ignore (Lp.add_constraint m [ (1.0, l); (1.0, x) ] Lp.Le 3.0);
  ignore (Lp.add_constraint m [ (1.0, x); (-1.0, q) ] Lp.Le 1.0);
  Lp.set_objective m Lp.Minimize
    [ (-.big, l); (-.(big +. 1.0), x); (1.0 -. Float.ldexp 1.0 (-28), q) ];
  m

(* Small LPs pinned like the refactor-heavy one; [Some k] solves with
   Bland's rule from iteration k, whose exact minimum-ratio pass and
   eps-window tie-breaks ordinary solves reach only after 20·(m + n)
   iterations. *)
let small_lp_pins =
  (* LP, Bland from, iterations, refactorizations, objective bits,
     ft_updates, bound_flips, factor nnz at extraction *)
  [
    ( "refactor-heavy", refactor_heavy_lp, Some 0,
      2405, 28, 4641508187145773239L, 2404, 1, 1412 );
    ( "refactor-heavy", refactor_heavy_lp, Some 150,
      1577, 19, 4641508187145773238L, 1574, 3, 1562 );
    ("near-tie", near_tie_lp, Some 0, 1, 1, 4607182418800017408L, 1, 0, 7);
    ( "leave-unchanged", leave_unchanged_lp, None,
      3, 1, -4487837028657922048L, 3, 0, 4 );
  ]

let test_small_lp_goldens () =
  List.iter
    (fun (lp, model, bland, iters, refac, obj, ft, flips, fill) ->
      let name =
        match bland with
        | Some k -> Printf.sprintf "%s, Bland from %d" lp k
        | None -> lp
      in
      let saved = !Simplex.bland_from in
      Simplex.bland_from := bland;
      let outcome =
        Fun.protect
          ~finally:(fun () -> Simplex.bland_from := saved)
          (fun () -> Simplex.solve (model ()))
      in
      match outcome with
      | Simplex.Optimal s ->
        Alcotest.(check int) (name ^ ": iterations") iters s.Simplex.iterations;
        Alcotest.(check int) (name ^ ": refactorizations") refac
          s.Simplex.refactorizations;
        Alcotest.(check int64) (name ^ ": objective bits") obj
          (Int64.bits_of_float s.Simplex.objective);
        Alcotest.(check int) (name ^ ": ft_updates") ft s.Simplex.ft_updates;
        Alcotest.(check int) (name ^ ": bound_flips") flips s.Simplex.bound_flips;
        Alcotest.(check int) (name ^ ": lu_fill_nnz") fill s.Simplex.lu_fill_nnz
      | _ -> Alcotest.fail (name ^ ": must be optimal"))
    small_lp_pins

(* Dual repair after a refused Forrest–Tomlin update.  Columns x1 =
   (1, 1) and x2 = (1, 1 + 1e-7) form an ill-conditioned but regular
   basis; x3 = (1, 1 - 1e-12) differs from x1 by 1e-12 in row 1.  The
   optimal basis {x1, x2} of the first right-hand side reinstalls
   exactly on the second, where x2 goes negative.  x3 is the only
   column the dual ratio test may enter there, its alpha of
   -1e-12 / 1e-7 is well above the 1e-9 threshold, and the new basis
   {x1, x3} has a 1e-12 pivot: the update is refused and refactorizing
   finds the basis singular.  The repair must give up ("any doubt ->
   false") and the solve restart from a fresh state instead of raising.
   The second system is infeasible by a wide margin (x3 would have to
   be 2.5e11 while x1 + x2 + x3 = 1), so every engine agrees on it
   whatever its tolerances. *)
let repair_fixture b2 =
  let m = Lp.create () in
  let x1 = Lp.add_var m "x1" and x2 = Lp.add_var m "x2" and x3 = Lp.add_var m "x3" in
  ignore (Lp.add_constraint m [ (1.0, x1); (1.0, x2); (1.0, x3) ] Lp.Eq 1.0);
  ignore
    (Lp.add_constraint m
       [ (1.0, x1); (1.0 +. 1e-7, x2); (1.0 -. 1e-12, x3) ]
       Lp.Eq b2);
  Lp.set_objective m Lp.Minimize [ (1.0, x1); (1.0, x2); (2.0, x3) ];
  m

let test_dual_repair_singular () =
  let outcome = function
    | Simplex.Optimal s -> Printf.sprintf "optimal %h" s.Simplex.objective
    | Simplex.Infeasible -> "infeasible"
    | Simplex.Unbounded -> "unbounded"
  in
  let oracle m =
    match Dense.solve m with
    | Dense.Optimal s -> Printf.sprintf "optimal %h" s.Dense.objective
    | Dense.Infeasible -> "infeasible"
    | Dense.Unbounded -> "unbounded"
  in
  let first = repair_fixture (1.0 +. 5e-8) in
  let warm =
    match Simplex.solve first with
    | Simplex.Optimal s -> s.Simplex.basis
    | _ -> Alcotest.fail "first solve must be optimal"
  in
  Alcotest.(check string) "first system: LU vs dense"
    (oracle first)
    (outcome (Simplex.solve first));
  let second = repair_fixture 0.5 in
  Alcotest.(check string) "second system: warm LU vs dense"
    (oracle second)
    (outcome (Simplex.solve ~warm second));
  Alcotest.(check string) "second system is infeasible" "infeasible"
    (oracle second)

(* Degenerate vertices, where only the Bland fallback stops Dantzig's
   rule from cycling.  Two hand-written shapes, by seed parity:

   - Even seeds: an integral vertex v with many rows through it — ≥
     rows tied at v (rhs = a·v), zero-rhs ≥ rows on the zero
     coordinates of v — and a few slack ≤ rows.  The cost is a
     nonnegative combination of the tied rows plus bound multipliers,
     so v is optimal and the optimum is c·v.
   - Odd seeds: Hall and McKinnon's cycling LP, perturbed.  With
     P² + P + I = 0, A = [P | P²] in two zero-rhs ≤ rows and
     c = [c₁₂ | −c₁₂·P²] (min form), two Dantzig pivots with
     largest-pivot leaving rows give back the starting tableau with
     its columns relabelled, so the engine cycles at the origin until
     the Bland switch.  Gadget entries t and 1/t (two extra ≤ rows on
     the x columns, two z columns in the cycling rows, priced out of
     entering) make presolve's equilibration the identity, so the
     engine sees the cycle as written.  Every variable lies in [0, 1].

   LU must match the dense oracle's objective at the engine group's
   1e-6, return a feasible point, and not run out of budget.  Duals
   are not compared: a degenerate optimum has many. *)
let degenerate_lp seed =
  let st = rand_state (31_000 + seed) in
  let ri lo hi = lo + Random.State.int st (hi - lo + 1) in
  let m = Lp.create () in
  let terms xs a =
    List.filter (fun (c, _) -> c <> 0.0)
      (Array.to_list (Array.mapi (fun j c -> (c, xs.(j))) a))
  in
  if seed land 1 = 0 then begin
    let nv = ri 3 7 in
    let v = Array.init nv (fun _ -> if Random.State.bool st then 0 else ri 1 2) in
    let ub =
      Array.init nv (fun j ->
          if Random.State.int st 3 = 0 then infinity
          else float_of_int (v.(j) + ri 0 2))
    in
    let xs = Array.init nv (fun j -> Lp.add_var m ~ub:ub.(j) (Printf.sprintf "x%d" j)) in
    let c = Array.make nv 0.0 in
    let row () = Array.init nv (fun _ -> float_of_int (ri (-2) 2)) in
    let at_v a =
      let acc = ref 0.0 in
      Array.iteri (fun j aj -> acc := !acc +. (aj *. float_of_int v.(j))) a;
      !acc
    in
    for _ = 1 to ri nv (3 * nv) do
      let a = row () in
      let a =
        if Random.State.int st 3 = 0 then
          Array.mapi (fun j aj -> if v.(j) = 0 then aj else 0.0) a
        else a
      in
      if terms xs a <> [] then begin
        ignore (Lp.add_constraint m (terms xs a) Lp.Ge (at_v a));
        let lam = float_of_int (ri 0 2) in
        Array.iteri (fun j aj -> c.(j) <- c.(j) +. (lam *. aj)) a
      end
    done;
    for _ = 1 to ri 0 3 do
      let a = row () in
      if terms xs a <> [] then
        ignore
          (Lp.add_constraint m (terms xs a) Lp.Le
             (at_v a +. float_of_int (ri 1 4)))
    done;
    Array.iteri
      (fun j x ->
        if x = 0 then c.(j) <- c.(j) +. float_of_int (ri 0 2)
        else if float_of_int x = ub.(j) then
          c.(j) <- c.(j) -. float_of_int (ri 0 2))
      v;
    Lp.set_objective m Lp.Minimize (terms xs c);
    (m, Some (at_v c))
  end
  else begin
    let u s = 1.0 +. Random.State.float st (2.0 *. s) -. s in
    let p11 = 0.4 *. u 0.1 and p12 = 0.2 *. u 0.1 in
    let p = [| [| p11; p12 |]; [| -.((p11 *. p11) +. p11 +. 1.0) /. p12; -1.0 -. p11 |] |] in
    let sq i j = (p.(i).(0) *. p.(0).(j)) +. (p.(i).(1) *. p.(1).(j)) in
    let a i = [| p.(i).(0); p.(i).(1); sq i 0; sq i 1 |] in
    let c12 = [| -2.3 *. u 0.05; -2.15 *. u 0.05 |] in
    let c = Array.append c12 (Array.init 2 (fun j -> -.((c12.(0) *. sq 0 j) +. (c12.(1) *. sq 1 j)))) in
    let t = if Random.State.bool st then 1e2 else 1e3 in
    let xs = Array.init 4 (fun j -> Lp.add_var m ~ub:1.0 (Printf.sprintf "x%d" j)) in
    let z1 = Lp.add_var m ~ub:1.0 "z1" and z2 = Lp.add_var m ~ub:1.0 "z2" in
    ignore (Lp.add_constraint m (terms xs (a 0) @ [ (t, z1); (-1.0 /. t, z2) ]) Lp.Le 0.0);
    ignore (Lp.add_constraint m (terms xs (a 1) @ [ (-1.0 /. t, z1); (t, z2) ]) Lp.Le 0.0);
    let gadget odd = Array.init 4 (fun j -> if j land 1 = odd then t else 1.0 /. t) in
    ignore (Lp.add_constraint m (terms xs (gadget 0)) Lp.Le (100.0 *. t));
    ignore (Lp.add_constraint m (terms xs (gadget 1)) Lp.Le (100.0 *. t));
    Lp.set_objective m Lp.Minimize (terms xs c @ [ (1e3 *. t, z1); (1e3 *. t, z2) ]);
    (m, None)
  end

let prop_degenerate_vertices =
  QCheck.Test.make ~name:"degenerate vertices: lu == dense" ~count:300
    QCheck.(int_bound 99_999)
    (fun seed ->
      let m, known = degenerate_lp seed in
      match (Dense.solve m, Simplex.solve m) with
      | Dense.Optimal d, Simplex.Optimal l ->
        (not l.Simplex.degraded)
        && Float.abs (d.Dense.objective -. l.Simplex.objective) <= 1e-6
        && Simplex.feasible m l.Simplex.values
        && Prete_lp_oracle.Kkt.certify m l = Ok ()
        && Option.fold ~none:true
             ~some:(fun v -> Float.abs (l.Simplex.objective -. v) <= 1e-6)
             known
      | _ -> false)

(* The engine's per-domain workspace keeps the arrays and the factor of
   the largest model solved so far.  Solving the small near-tie LP and
   a warm re-solve of the refactor-heavy LP after the refactor-heavy LP
   (and the reverse order) gives every output bit and counter a fresh
   domain gives. *)
let test_workspace_reuse () =
  let key (o : Simplex.outcome) =
    match o with
    | Simplex.Optimal s ->
      Simplex.
        ( Int64.bits_of_float s.objective, bits s.values, bits s.duals, s.iterations,
          s.refactorizations, s.ft_updates, s.bound_flips, s.lu_fill_nnz,
          s.ftran_nnz, s.btran_nnz, s.basis )
    | _ -> Alcotest.fail "must be optimal"
  in
  let fresh f = Domain.join (Domain.spawn (fun () -> key (f ()))) in
  let big () = Simplex.solve (refactor_heavy_lp ()) in
  let small () = Simplex.solve (near_tie_lp ()) in
  let warm_big () =
    match big () with
    | Simplex.Optimal s -> Simplex.solve ~warm:s.Simplex.basis (refactor_heavy_lp ())
    | _ -> Alcotest.fail "must be optimal"
  in
  let after first f = Domain.join (Domain.spawn (fun () -> ignore (first ()); key (f ()))) in
  Alcotest.(check bool) "small after big" true (fresh small = after big small);
  Alcotest.(check bool) "big after small" true (fresh big = after small big);
  Alcotest.(check bool) "warm big after small" true (fresh warm_big = after small warm_big)

(* ---- LU robustness families -------------------------------------- *)

(* Hand-written shapes that stress the factor's pivoting rather than the
   pricing, each solved by the LU engine and the dense oracle:

   - near-parallel rows: copies of one row tilted by 1e-7 .. 1e-3 with
     rhs a hair apart, so bases mix nearly dependent rows;
   - wide magnitudes: a well-conditioned LP in badly chosen units, rows
     and columns scaled by 10^-3 .. 10^3, so coefficients span
     10^-6 .. 10^6 (bounds, rhs and costs scaled to match);
   - near-infeasible rhs: pairs a·x >= b, a·x <= b + δ with δ from 0
     (an equality in two rows) to 1e-3, and now and then δ = -1e-2,
     infeasible by a margin every tolerance sees.

   Both engines must agree on the status; an optimum must agree on the
   objective (relative 1e-6), be feasible and pass the KKT
   certificate. *)
let robust_lp family seed =
  let st = rand_state (52_000 + seed) in
  let m = Lp.create () in
  let nv = 3 + Random.State.int st 6 in
  let ub () = 1.0 +. Random.State.float st 9.0 in
  let sign () = if Random.State.bool st then 1.0 else -1.0 in
  (match family with
  | 0 ->
    let xs = Array.init nv (fun j -> Lp.add_var m ~ub:(ub ()) (Printf.sprintf "x%d" j)) in
    let base = Array.init nv (fun _ -> 0.5 +. Random.State.float st 2.0) in
    let rhs = 5.0 +. Random.State.float st 5.0 in
    for k = 0 to 2 + Random.State.int st 5 do
      let tilt = 10.0 ** (-.(3.0 +. Random.State.float st 4.0)) in
      let row =
        Array.to_list
          (Array.mapi (fun j c -> (c *. (1.0 +. (tilt *. sign () *. float_of_int (k + j)))), xs.(j)) base)
      in
      ignore (Lp.add_constraint m row Lp.Le (rhs +. (tilt *. float_of_int k)))
    done;
    Lp.set_objective m Lp.Maximize
      (Array.to_list (Array.map (fun x -> (0.5 +. Random.State.float st 1.0, x)) xs))
  | 1 ->
    (* A well-conditioned LP (entries 0.5 .. 2.5) with row i scaled by
       r_i and column j by c_j, both 10^-3 .. 10^3: its coefficients
       span 1e-6 .. 1e6 and its bounds, rhs and costs follow the
       scaling, so it is the same LP in other units. *)
    let scale () = 10.0 ** (Random.State.float st 6.0 -. 3.0) in
    let c = Array.init nv (fun _ -> scale ()) in
    let xs =
      Array.init nv (fun j -> Lp.add_var m ~ub:(ub () /. c.(j)) (Printf.sprintf "x%d" j))
    in
    for _ = 1 to 2 + Random.State.int st 6 do
      let r = scale () in
      let row =
        List.filter_map
          (fun j ->
            if Random.State.int st 3 = 0 then None
            else Some (r *. c.(j) *. (0.5 +. Random.State.float st 2.0), xs.(j)))
          (List.init nv Fun.id)
      in
      if row <> [] then
        ignore (Lp.add_constraint m row Lp.Le (r *. (2.0 +. Random.State.float st 8.0)))
    done;
    Lp.set_objective m Lp.Maximize
      (List.init nv (fun j -> (c.(j) *. (0.5 +. Random.State.float st 1.0), xs.(j))))
  | _ ->
    let xs = Array.init nv (fun j -> Lp.add_var m ~ub:(ub ()) (Printf.sprintf "x%d" j)) in
    for _ = 1 to 1 + Random.State.int st 4 do
      let row =
        List.filter_map
          (fun x -> if Random.State.int st 2 = 0 then None else Some (0.5 +. Random.State.float st 2.0, x))
          (Array.to_list xs)
      in
      if row <> [] then begin
        let b = 1.0 +. Random.State.float st 3.0 in
        let delta =
          match Random.State.int st 6 with
          | 0 -> 0.0 | 1 -> 1e-9 | 2 -> 1e-7 | 3 -> 1e-5 | 4 -> 1e-3 | _ -> -1e-2
        in
        ignore (Lp.add_constraint m row Lp.Ge b);
        ignore (Lp.add_constraint m row Lp.Le (b +. delta))
      end
    done;
    Lp.set_objective m Lp.Minimize
      (Array.to_list (Array.map (fun x -> (Random.State.float st 2.0 -. 0.5, x)) xs)));
  m

let prop_robust_family family name =
  QCheck.Test.make ~name:("LU robustness: " ^ name ^ " == dense, KKT") ~count:200
    QCheck.(small_int)
    (fun seed ->
      let m = robust_lp family seed in
      match (Dense.solve m, Simplex.solve m) with
      | Dense.Optimal d, Simplex.Optimal l ->
        (not l.Simplex.degraded)
        && Float.abs (d.Dense.objective -. l.Simplex.objective)
           <= 1e-6 *. (1.0 +. Float.abs d.Dense.objective)
        && Simplex.feasible m l.Simplex.values
        && Kkt.certify m l = Ok ()
      | Dense.Infeasible, Simplex.Infeasible | Dense.Unbounded, Simplex.Unbounded -> true
      | _ -> false)

let () =
  Alcotest.run "lu"
    [
      ( "kernel",
        [
          Alcotest.test_case "factorize ftran/btran vs dense" `Quick
            test_factorize_solves;
          Alcotest.test_case "forrest-tomlin updates vs dense" `Quick test_updates;
          Alcotest.test_case "singular targets drop to crash" `Quick
            test_singular_drop;
          Alcotest.test_case "refactor-heavy LP golden" `Quick
            test_refactor_heavy_golden;
          Alcotest.test_case "small LP goldens" `Quick test_small_lp_goldens;
          Alcotest.test_case "refused update leaves no trace on reuse" `Quick
            test_refused_update_leaves_no_trace;
          Alcotest.test_case "singular dual repair falls back" `Quick
            test_dual_repair_singular;
          Alcotest.test_case "of_csc adopts valid columns only" `Quick test_of_csc;
          Alcotest.test_case "workspace reuse leaves no trace" `Quick test_workspace_reuse;
        ] );
      ( "model",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_dedup_matches_reference; prop_factorize_into_reuse;
            prop_ftran_col_lists_nonzeros; prop_diagonal_factor_matches_elimination;
            prop_degenerate_vertices; prop_factorize_matches_reference;
            prop_robust_family 0 "near-parallel rows";
            prop_robust_family 1 "coefficients 1e-6 .. 1e6";
            prop_robust_family 2 "near-infeasible rhs" ] );
    ]
