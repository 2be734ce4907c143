(* Tests for the prete_lp substrate: modeling layer, two-phase simplex
   (including duals), and branch-and-bound MIP. *)

open Prete_lp

let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Modeling layer                                                       *)
(* ------------------------------------------------------------------ *)

let test_model_counts () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  let y = Lp.add_var m ~lb:1.0 ~ub:2.0 "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (2.0, y) ] Lp.Le 10.0);
  Alcotest.(check int) "vars" 2 (Lp.num_vars m);
  Alcotest.(check int) "constraints" 1 (Lp.num_constraints m);
  Alcotest.(check string) "name" "y" (Lp.var_name m y)

let test_model_duplicate_terms_merge () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  ignore (Lp.add_constraint m [ (1.0, x); (2.0, x) ] Lp.Le 6.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "3x <= 6 -> x = 2" 2.0 (Simplex.value sol x)
  | _ -> Alcotest.fail "expected optimal"

let test_model_binary_bounds () =
  let m = Lp.create () in
  let b = Lp.add_var m ~binary:true "b" in
  Alcotest.(check (list int)) "binaries" [ (b :> int) ]
    (List.map (fun v -> (v : Lp.var :> int)) (Lp.binaries m));
  let lb = (Lp.Internal.lower m).((b :> int)) and ub = (Lp.Internal.upper m).((b :> int)) in
  check_close 0.0 "lb" 0.0 lb;
  check_close 0.0 "ub" 1.0 ub

let test_model_invalid_bounds () =
  let m = Lp.create () in
  Alcotest.check_raises "lb > ub" (Invalid_argument "Lp.add_var: lb > ub")
    (fun () -> ignore (Lp.add_var m ~lb:2.0 ~ub:1.0 "x"))

(* Row i's stored terms as (variable index, coefficient). *)
let row_terms m i =
  let r = Lp.Internal.rows m in
  List.init
    (r.Lp.Internal.start.(i + 1) - r.Lp.Internal.start.(i))
    (fun k ->
      let p = r.Lp.Internal.start.(i) + k in
      (r.Lp.Internal.var.(p), r.Lp.Internal.coef.(p)))

(* A model whose rows repeat variables, cancel them and run past the
   16- and 32-term marks, with named and unnamed rows. *)
let pp_model () =
  let m = Lp.create () in
  let xs =
    Array.init 70 (fun j -> Lp.add_var m ~ub:(float_of_int (j + 1)) (Printf.sprintf "v%d" j))
  in
  let x j = xs.(j) in
  ignore
    (Lp.add_constraint m [ (0.1, x 3); (2.0, x 0); (0.2, x 3); (0.3, x 3); (1.0, x 9) ] Lp.Le 4.0);
  ignore
    (Lp.add_constraint m ~name:"cap" [ (1.0, x 5); (-1.0, x 5); (2.5, x 1); (1.0, x 2) ] Lp.Ge 1.0);
  ignore (Lp.add_constraint m [ (0.3, x 7); (0.2, x 7); (0.1, x 7) ] Lp.Eq 0.5);
  ignore (Lp.add_constraint m [ (1.0, x 4); (-1.0, x 4) ] Lp.Le 0.0);
  ignore
    (Lp.add_constraint m
       (List.init 40 (fun k -> (float_of_int (k + 1), x ((k * 7) mod 69)))
        @ [ (0.5, x 0); (0.25, x 14) ])
       Lp.Le 100.0);
  ignore
    (Lp.add_constraint m
       (List.init 70 (fun k -> (1.0 /. float_of_int (k + 1), x (69 - k))))
       Lp.Ge 2.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x 3); (-2.0, x 1); (0.5, x 3) ];
  m

let test_model_pp_pinned () =
  let m = pp_model () in
  let out = Format.asprintf "%a" Lp.pp m in
  let head = String.concat "\n" (List.filteri (fun i _ -> i < 5) (String.split_on_char '\n' out)) in
  Alcotest.(check string) "first rows"
    "max +1·v3 -2·v1 +0.5·v3 \n  c0: +2·v0 +1·v9 +0.6·v3 <= 4\n\
    \  cap: +2.5·v1 +1·v2 >= 1\n  c2: +0.6·v7 = 0.5\n  c3: <= 0"
    head;
  Alcotest.(check string) "whole dump" "24fc31da4c05eadb5e3debc88e86b52b"
    (Digest.to_hex (Digest.string out));
  (* Repeated variables sum in input order from 0.0: 0.1 + 0.2 + 0.3 and
     0.3 + 0.2 + 0.1 differ in the last bit. *)
  let coef i v = List.assoc v (row_terms m i) in
  Alcotest.(check int64) "0.1 + 0.2 + 0.3" (Int64.bits_of_float ((0.1 +. 0.2) +. 0.3))
    (Int64.bits_of_float (coef 0 3));
  Alcotest.(check int64) "0.3 + 0.2 + 0.1" (Int64.bits_of_float ((0.3 +. 0.2) +. 0.1))
    (Int64.bits_of_float (coef 2 7));
  Alcotest.(check bool) "the two orders differ" true (coef 0 3 <> coef 2 7);
  Alcotest.(check (list int)) "cancelled terms dropped" [ 1; 2 ]
    (List.sort compare (List.map fst (row_terms m 1)));
  Alcotest.(check (list int)) "fully cancelled row empty" [] (List.map fst (row_terms m 3));
  Alcotest.(check string) "stored term order"
    "0,9,3 1,2 7  22,45,50,17,28,1,23,65,49,44,52,30,3,16,24,14,21,64,37,59,36,15,57,42,56,\
     10,38,0,9,31,58,63,66,7,35,8,51,29,43,2 32,19,18,50,17,25,40,67,52,49,55,4,62,30,60,59,\
     14,6,15,27,61,56,38,31,58,12,69,34,8,48,22,54,45,53,28,1,65,23,47,44,5,3,24,16,64,37,\
     33,21,36,68,57,41,42,26,10,11,0,9,46,66,63,39,13,7,51,35,29,43,20,2"
    (String.concat " "
       (List.init (Lp.num_constraints m) (fun i ->
            String.concat "," (List.map (fun (v, _) -> string_of_int v) (row_terms m i)))))

(* ------------------------------------------------------------------ *)
(* Simplex: known optima                                                *)
(* ------------------------------------------------------------------ *)

(* Dantzig's classic: max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18. *)
let test_simplex_dantzig () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x) ] Lp.Le 4.0);
  ignore (Lp.add_constraint m [ (2.0, y) ] Lp.Le 12.0);
  ignore (Lp.add_constraint m [ (3.0, x); (2.0, y) ] Lp.Le 18.0);
  Lp.set_objective m Lp.Maximize [ (3.0, x); (5.0, y) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    check_close 1e-9 "objective" 36.0 sol.Simplex.objective;
    check_close 1e-9 "x" 2.0 (Simplex.value sol x);
    check_close 1e-9 "y" 6.0 (Simplex.value sol y)
  | _ -> Alcotest.fail "expected optimal"

(* Minimization with >= rows (tiny diet problem). *)
let test_simplex_diet () =
  let m = Lp.create () in
  let a = Lp.add_var m "a" and b = Lp.add_var m "b" in
  ignore (Lp.add_constraint m [ (2.0, a); (1.0, b) ] Lp.Ge 8.0);
  ignore (Lp.add_constraint m [ (1.0, a); (2.0, b) ] Lp.Ge 8.0);
  Lp.set_objective m Lp.Minimize [ (3.0, a); (2.0, b) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    (* Optimal at intersection a = b = 8/3: cost 40/3;
       check against corners (4,0):12... (0,8):16, (8/3,8/3):13.33, (0? a=4,b=0 violates second) —
       corner candidates: (8,0) cost 24, (0,8) cost 16, (8/3,8/3) cost 40/3 ≈ 13.33. *)
    check_close 1e-9 "objective" (40.0 /. 3.0) sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 5.0);
  ignore (Lp.add_constraint m [ (1.0, x) ] Lp.Le 2.0);
  Lp.set_objective m Lp.Maximize [ (2.0, x); (1.0, y) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    check_close 1e-9 "objective" 7.0 sol.Simplex.objective;
    check_close 1e-9 "x" 2.0 (Simplex.value sol x);
    check_close 1e-9 "y" 3.0 (Simplex.value sol y)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  ignore (Lp.add_constraint m [ (1.0, x) ] Lp.Ge 2.0);
  ignore (Lp.add_constraint m [ (1.0, x) ] Lp.Le 1.0);
  Lp.set_objective m Lp.Minimize [ (1.0, x) ];
  match Simplex.solve m with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.set_objective m Lp.Maximize [ (1.0, x) ];
  match Simplex.solve m with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_bounds_shift () =
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:1.5 ~ub:3.5 "x" in
  Lp.set_objective m Lp.Maximize [ (2.0, x) ];
  (match Simplex.solve m with
  | Simplex.Optimal sol ->
    check_close 1e-9 "max at ub" 3.5 (Simplex.value sol x);
    check_close 1e-9 "objective" 7.0 sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal");
  Lp.set_objective m Lp.Minimize [ (2.0, x) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "min at lb" 1.5 (Simplex.value sol x)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_fixed_var () =
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:2.0 ~ub:2.0 "x" in
  let y = Lp.add_var m ~ub:10.0 "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 5.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    check_close 1e-9 "x fixed" 2.0 (Simplex.value sol x);
    check_close 1e-9 "y" 3.0 (Simplex.value sol y)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_negative_rhs () =
  (* -x <= -3 is x >= 3; exercises the rhs flip. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:10.0 "x" in
  ignore (Lp.add_constraint m [ (-1.0, x) ] Lp.Le (-3.0));
  Lp.set_objective m Lp.Minimize [ (1.0, x) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "x = 3" 3.0 (Simplex.value sol x)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_degenerate () =
  (* Degenerate vertex (redundant constraints through a point). *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 4.0);
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 4.0);
  ignore (Lp.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Le 8.0);
  ignore (Lp.add_constraint m [ (1.0, x) ] Lp.Le 4.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "objective" 4.0 sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_redundant_equalities () =
  (* Duplicated equality leaves an artificial basic at zero — must still
     solve. *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 3.0);
  ignore (Lp.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Eq 6.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "x" 3.0 (Simplex.value sol x)
  | _ -> Alcotest.fail "expected optimal"

(* A 4-node max-flow encoded by hand: s->a (3), s->b (2), a->t (2),
   b->t (3), a->b (10).  Max flow = 5: a->t carries 2, the rest of s->a
   rides a->b to t. *)
let test_simplex_max_flow () =
  let m = Lp.create () in
  let sa = Lp.add_var m ~ub:3.0 "sa" in
  let sb = Lp.add_var m ~ub:2.0 "sb" in
  let at = Lp.add_var m ~ub:2.0 "at" in
  let bt = Lp.add_var m ~ub:3.0 "bt" in
  let ab = Lp.add_var m ~ub:10.0 "ab" in
  (* Conservation at a and b. *)
  ignore (Lp.add_constraint m [ (1.0, sa); (-1.0, at); (-1.0, ab) ] Lp.Eq 0.0);
  ignore (Lp.add_constraint m [ (1.0, sb); (1.0, ab); (-1.0, bt) ] Lp.Eq 0.0);
  Lp.set_objective m Lp.Maximize [ (1.0, at); (1.0, bt) ];
  match Simplex.solve m with
  | Simplex.Optimal sol -> check_close 1e-9 "max flow" 5.0 sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Simplex: duals                                                       *)
(* ------------------------------------------------------------------ *)

let test_duals_strong_duality () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  let c1 = Lp.add_constraint m [ (1.0, x) ] Lp.Le 4.0 in
  let c2 = Lp.add_constraint m [ (2.0, y) ] Lp.Le 12.0 in
  let c3 = Lp.add_constraint m [ (3.0, x); (2.0, y) ] Lp.Le 18.0 in
  Lp.set_objective m Lp.Maximize [ (3.0, x); (5.0, y) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    let dual_obj =
      (Simplex.dual sol c1 *. 4.0)
      +. (Simplex.dual sol c2 *. 12.0)
      +. (Simplex.dual sol c3 *. 18.0)
    in
    check_close 1e-9 "b·y = objective" sol.Simplex.objective dual_obj;
    (* Known duals for this textbook instance: (0, 3/2, 1). *)
    check_close 1e-9 "y1" 0.0 (Simplex.dual sol c1);
    check_close 1e-9 "y2" 1.5 (Simplex.dual sol c2);
    check_close 1e-9 "y3" 1.0 (Simplex.dual sol c3)
  | _ -> Alcotest.fail "expected optimal"

let test_duals_shadow_price () =
  (* Finite-difference check: dual ≈ d obj / d rhs. *)
  let solve_with rhs =
    let m = Lp.create () in
    let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
    let c1 = Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le rhs in
    ignore (Lp.add_constraint m [ (1.0, x); (3.0, y) ] Lp.Le 12.0);
    Lp.set_objective m Lp.Maximize [ (2.0, x); (3.0, y) ];
    match Simplex.solve m with
    | Simplex.Optimal sol -> (sol.Simplex.objective, Simplex.dual sol c1)
    | _ -> Alcotest.fail "expected optimal"
  in
  let obj0, dual0 = solve_with 6.0 in
  let obj1, _ = solve_with 6.01 in
  check_close 1e-6 "shadow price" ((obj1 -. obj0) /. 0.01) dual0

let test_duals_min_ge () =
  (* Minimization with >= rows: shadow prices are non-negative
     (raising a covering requirement cannot cheapen the diet). *)
  let m = Lp.create () in
  let a = Lp.add_var m "a" and b = Lp.add_var m "b" in
  let c1 = Lp.add_constraint m [ (2.0, a); (1.0, b) ] Lp.Ge 8.0 in
  let c2 = Lp.add_constraint m [ (1.0, a); (2.0, b) ] Lp.Ge 8.0 in
  Lp.set_objective m Lp.Minimize [ (3.0, a); (2.0, b) ];
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    Alcotest.(check bool) "dual1 >= 0" true (Simplex.dual sol c1 >= -1e-9);
    Alcotest.(check bool) "dual2 >= 0" true (Simplex.dual sol c2 >= -1e-9);
    let dual_obj = (Simplex.dual sol c1 *. 8.0) +. (Simplex.dual sol c2 *. 8.0) in
    check_close 1e-9 "strong duality" sol.Simplex.objective dual_obj
  | _ -> Alcotest.fail "expected optimal"

let test_feasible_checker () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:5.0 "x" in
  let y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 6.0);
  ignore (Lp.add_constraint m [ (1.0, y) ] Lp.Ge 1.0);
  ignore (x, y);
  Alcotest.(check bool) "feasible point" true (Simplex.feasible m [| 2.0; 3.0 |]);
  Alcotest.(check bool) "violates row" false (Simplex.feasible m [| 5.0; 3.0 |]);
  Alcotest.(check bool) "violates bound" false (Simplex.feasible m [| 6.0; 0.0 |]);
  Alcotest.(check bool) "violates ge" false (Simplex.feasible m [| 1.0; 0.0 |])

(* A random LP over box-bounded columns and [<=] rows with rhs in
   [1, 20] and coefficients up to 3.  Odd seeds draw each upper bound in
   [0.2, 2], tight enough that optimal vertices rest on them (columns
   nonbasic at their upper bound); even seeds keep the loose bound 10,
   which no optimum reaches. *)
let sampled_lp seed =
  let rng = Prete_util.Rng.create (seed + 1000) in
  let nv = 2 + Prete_util.Rng.int rng 4 in
  let nc = 2 + Prete_util.Rng.int rng 4 in
  let ubs =
    Array.init nv (fun _ ->
        if seed land 1 = 1 then Prete_util.Rng.uniform rng 0.2 2.0 else 10.0)
  in
  let m = Lp.create () in
  let vars = Array.init nv (fun i -> Lp.add_var m ~ub:ubs.(i) (Printf.sprintf "x%d" i)) in
  let rows =
    Array.init nc (fun _ ->
        let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.0 3.0) in
        let rhs = Prete_util.Rng.uniform rng 1.0 20.0 in
        let terms = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs) in
        ignore (Lp.add_constraint m terms Lp.Le rhs);
        (coefs, rhs))
  in
  let c = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-2.0) 5.0) in
  Lp.set_objective m Lp.Maximize
    (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i))) c));
  (rng, m, vars, ubs, rows, c)

(* Random LPs: optimum must be feasible, dominate random feasible
   points and pass the KKT certificate; strong duality must hold. *)
let prop_simplex_optimality =
  QCheck.Test.make ~name:"simplex dominates sampled feasible points" ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng, m, _, ubs, rows, c = sampled_lp seed in
      let nv = Array.length ubs in
      match Simplex.solve m with
      | Simplex.Optimal sol ->
        let feas = Simplex.feasible m sol.Simplex.values in
        (* Sample feasible points by scaling random rays to fit. *)
        let dominated = ref true in
        for _ = 1 to 50 do
          let dir = Array.init nv (fun _ -> Prete_util.Rng.float rng) in
          let scale = ref 10.0 in
          Array.iter
            (fun (coefs, rhs) ->
              let dot = ref 0.0 in
              Array.iteri (fun i d -> dot := !dot +. (coefs.(i) *. d)) dir;
              if !dot > 1e-9 then scale := Float.min !scale (rhs /. !dot))
            rows;
          let x = Array.mapi (fun i d -> Float.min ubs.(i) (d *. !scale)) dir in
          if Simplex.feasible m x then begin
            let v = ref 0.0 in
            Array.iteri (fun i ci -> v := !v +. (ci *. x.(i))) c;
            if !v > sol.Simplex.objective +. 1e-6 then dominated := false
          end
        done;
        feas && !dominated && Prete_lp_oracle.Kkt.certify m sol = Ok ()
      | Simplex.Unbounded -> false (* impossible: box-bounded *)
      | Simplex.Infeasible -> false (* impossible: 0 is feasible *))

(* The property above only tests the bound handling if its optima rest
   on upper bounds: count the seeds of its range whose optimum has a
   column at its upper bound. *)
let test_sampled_lps_reach_upper_bounds () =
  let at_upper = ref 0 in
  for seed = 0 to 99 do
    let _, m, vars, ubs, _, _ = sampled_lp seed in
    match Simplex.solve m with
    | Simplex.Optimal sol ->
      if Array.exists2 (fun v ub -> ub < 10.0 && Simplex.value sol v = ub) vars ubs then
        incr at_upper
    | _ -> Alcotest.fail "box-bounded LP with a feasible origin must be optimal"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 100 optima rest on an upper bound (>= 20)" !at_upper)
    true (!at_upper >= 20)

let prop_simplex_strong_duality =
  QCheck.Test.make ~name:"strong duality on random LPs" ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 5000) in
      let nv = 2 + Prete_util.Rng.int rng 3 in
      let nc = 2 + Prete_util.Rng.int rng 3 in
      let m = Lp.create () in
      (* No finite ubs so every row is a model constraint and b·y must
         equal the optimum exactly. *)
      let vars = Array.init nv (fun i -> Lp.add_var m (Printf.sprintf "x%d" i)) in
      let rhss = Array.make nc 0.0 in
      for k = 0 to nc - 1 do
        let terms =
          Array.to_list
            (Array.map (fun v -> (Prete_util.Rng.uniform rng 0.5 3.0, v)) vars)
        in
        let rhs = Prete_util.Rng.uniform rng 1.0 20.0 in
        rhss.(k) <- rhs;
        ignore (Lp.add_constraint m terms Lp.Le rhs)
      done;
      let c = Array.map (fun _ -> Prete_util.Rng.uniform rng 0.1 4.0) vars in
      Lp.set_objective m Lp.Maximize
        (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i))) c));
      match Simplex.solve m with
      | Simplex.Optimal sol ->
        let dual_obj = ref 0.0 in
        for k = 0 to nc - 1 do
          dual_obj := !dual_obj +. (Simplex.dual sol k *. rhss.(k))
        done;
        Float.abs (!dual_obj -. sol.Simplex.objective) < 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* MIP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_mip_knapsack () =
  (* max 10a + 13b + 7c, 3a + 4b + 2c <= 5, binary -> a=c=1 (17). *)
  let m = Lp.create () in
  let a = Lp.add_var m ~binary:true "a" in
  let b = Lp.add_var m ~binary:true "b" in
  let c = Lp.add_var m ~binary:true "c" in
  ignore (Lp.add_constraint m [ (3.0, a); (4.0, b); (2.0, c) ] Lp.Le 5.0);
  Lp.set_objective m Lp.Maximize [ (10.0, a); (13.0, b); (7.0, c) ];
  match Mip.solve m with
  | Mip.Optimal sol ->
    check_close 1e-9 "objective" 17.0 sol.Mip.objective;
    check_close 1e-9 "a" 1.0 (Mip.value sol a);
    check_close 1e-9 "b" 0.0 (Mip.value sol b);
    check_close 1e-9 "c" 1.0 (Mip.value sol c)
  | _ -> Alcotest.fail "expected optimal"

let test_mip_no_binaries_is_lp () =
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:7.0 "x" in
  Lp.set_objective m Lp.Maximize [ (1.0, x) ];
  match Mip.solve m with
  | Mip.Optimal sol ->
    check_close 1e-9 "objective" 7.0 sol.Mip.objective;
    Alcotest.(check int) "single node" 1 sol.Mip.nodes
  | _ -> Alcotest.fail "expected optimal"

let test_mip_infeasible () =
  let m = Lp.create () in
  let a = Lp.add_var m ~binary:true "a" in
  let b = Lp.add_var m ~binary:true "b" in
  ignore (Lp.add_constraint m [ (1.0, a); (1.0, b) ] Lp.Ge 3.0);
  Lp.set_objective m Lp.Minimize [ (1.0, a) ];
  match Mip.solve m with
  | Mip.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_mip_mixed () =
  (* Mixed binary/continuous: fixed-charge flavour.
     max 5x - 10y, x <= 4y, x <= 3, y binary -> y=1, x=3, obj 5. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:3.0 "x" in
  let y = Lp.add_var m ~binary:true "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (-4.0, y) ] Lp.Le 0.0);
  Lp.set_objective m Lp.Maximize [ (5.0, x); (-10.0, y) ];
  match Mip.solve m with
  | Mip.Optimal sol ->
    check_close 1e-9 "objective" 5.0 sol.Mip.objective;
    check_close 1e-9 "y" 1.0 (Mip.value sol y);
    check_close 1e-9 "x" 3.0 (Mip.value sol x)
  | _ -> Alcotest.fail "expected optimal"

(* Exhaustive cross-check on random pure-binary problems. *)
let prop_mip_matches_enumeration =
  QCheck.Test.make ~name:"MIP matches exhaustive enumeration" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 9000) in
      let nv = 2 + Prete_util.Rng.int rng 4 in
      let nc = 1 + Prete_util.Rng.int rng 3 in
      let m = Lp.create () in
      let vars = Array.init nv (fun i -> Lp.add_var m ~binary:true (Printf.sprintf "b%d" i)) in
      let rows =
        Array.init nc (fun _ ->
            let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.0 3.0) in
            let rhs = Prete_util.Rng.uniform rng 1.0 (float_of_int nv *. 1.5) in
            let terms = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs) in
            ignore (Lp.add_constraint m terms Lp.Le rhs);
            (coefs, rhs))
      in
      let c = Array.init nv (fun _ -> Prete_util.Rng.uniform rng (-3.0) 5.0) in
      Lp.set_objective m Lp.Maximize
        (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i))) c));
      (* Enumerate all 2^nv assignments. *)
      let best = ref neg_infinity in
      for mask = 0 to (1 lsl nv) - 1 do
        let x = Array.init nv (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
        let ok =
          Array.for_all
            (fun (coefs, rhs) ->
              let dot = ref 0.0 in
              Array.iteri (fun i d -> dot := !dot +. (coefs.(i) *. d)) x;
              !dot <= rhs +. 1e-9)
            rows
        in
        if ok then begin
          let v = ref 0.0 in
          Array.iteri (fun i ci -> v := !v +. (ci *. x.(i))) c;
          if !v > !best then best := !v
        end
      done;
      match Mip.solve m with
      | Mip.Optimal sol -> Float.abs (sol.Mip.objective -. !best) < 1e-6
      | Mip.Infeasible -> !best = neg_infinity
      | Mip.Unbounded | Mip.Node_limit _ -> false)

let prop_mip_solution_integral_and_feasible =
  QCheck.Test.make ~name:"MIP incumbents integral and feasible" ~count:40
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 13000) in
      let nv = 2 + Prete_util.Rng.int rng 3 in
      let m = Lp.create () in
      let bvars = Array.init nv (fun i -> Lp.add_var m ~binary:true (Printf.sprintf "b%d" i)) in
      let x = Lp.add_var m ~ub:4.0 "x" in
      let terms = Array.to_list (Array.map (fun v -> (1.0, v)) bvars) in
      ignore (Lp.add_constraint m ((0.5, x) :: terms) Lp.Le 2.5);
      Lp.set_objective m Lp.Maximize ((1.0, x) :: terms);
      match Mip.solve m with
      | Mip.Optimal sol ->
        Simplex.feasible m sol.Mip.values
        && Array.for_all
             (fun v ->
               let xv = Mip.value sol v in
               Float.abs (xv -. Float.round xv) < 1e-6)
             bvars
      | _ -> false)

(* Transportation problem with a known optimum: 2 sources (30, 70),
   3 sinks (20, 50, 30), costs [[8;6;10];[9;12;13]] -> optimum 1000
   (classic instance: x12=30 ... computed below by enumeration logic). *)
let test_simplex_transportation () =
  let m = Lp.create () in
  let supply = [| 30.0; 70.0 |] and demand = [| 20.0; 50.0; 30.0 |] in
  let cost = [| [| 8.0; 6.0; 10.0 |]; [| 9.0; 12.0; 13.0 |] |] in
  let x = Array.init 2 (fun i -> Array.init 3 (fun j -> Lp.add_var m (Printf.sprintf "x%d%d" i j))) in
  for i = 0 to 1 do
    ignore (Lp.add_constraint m (Array.to_list (Array.map (fun v -> (1.0, v)) x.(i))) Lp.Eq supply.(i))
  done;
  for j = 0 to 2 do
    ignore (Lp.add_constraint m [ (1.0, x.(0).(j)); (1.0, x.(1).(j)) ] Lp.Eq demand.(j))
  done;
  let obj = ref [] in
  for i = 0 to 1 do
    for j = 0 to 2 do
      obj := (cost.(i).(j), x.(i).(j)) :: !obj
    done
  done;
  Lp.set_objective m Lp.Minimize !obj;
  match Simplex.solve m with
  | Simplex.Optimal sol ->
    (* Verify against exhaustive corner search over the transportation
       polytope parametrized by (x00, x01): x02 = 30-x00-x01, row 2 by
       column balance. *)
    let best = ref infinity in
    for a = 0 to 20 do
      for b = 0 to 50 do
        let a = float_of_int a and b = float_of_int b in
        let c = 30.0 -. a -. b in
        if c >= 0.0 && c <= 30.0 then begin
          let d = 20.0 -. a and e = 50.0 -. b and f = 30.0 -. c in
          if d >= 0.0 && e >= 0.0 && f >= 0.0 then begin
            let v =
              (8.0 *. a) +. (6.0 *. b) +. (10.0 *. c) +. (9.0 *. d) +. (12.0 *. e)
              +. (13.0 *. f)
            in
            if v < !best then best := v
          end
        end
      done
    done;
    check_close 1e-6 "matches exhaustive optimum" !best sol.Simplex.objective
  | _ -> Alcotest.fail "expected optimal"

(* Complementary slackness: dual > 0 only on tight rows; primal > 0 only
   on zero-reduced-cost columns (checked indirectly through objective
   equality which subsumes it, plus explicit slackness on rows). *)
let prop_complementary_slackness =
  QCheck.Test.make ~name:"complementary slackness on rows" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let rng = Prete_util.Rng.create (seed + 31000) in
      let nv = 2 + Prete_util.Rng.int rng 3 in
      let nc = 2 + Prete_util.Rng.int rng 3 in
      let m = Lp.create () in
      let vars = Array.init nv (fun i -> Lp.add_var m (Printf.sprintf "x%d" i)) in
      let rows =
        Array.init nc (fun _ ->
            let coefs = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.5 3.0) in
            let rhs = Prete_util.Rng.uniform rng 2.0 15.0 in
            let terms = Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) coefs) in
            let idx = Lp.add_constraint m terms Lp.Le rhs in
            (idx, coefs, rhs))
      in
      let c = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.5 4.0) in
      Lp.set_objective m Lp.Maximize
        (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i))) c));
      match Simplex.solve m with
      | Simplex.Optimal sol ->
        Array.for_all
          (fun (idx, coefs, rhs) ->
            let lhs = ref 0.0 in
            Array.iteri (fun i cf -> lhs := !lhs +. (cf *. sol.Simplex.values.(i))) coefs;
            let slack = rhs -. !lhs in
            (* y_i * slack_i = 0 *)
            Float.abs (Simplex.dual sol idx *. slack) < 1e-6)
          rows
      | _ -> false)

let test_simplex_iteration_limit () =
  (* Anytime semantics: a pathological pivot limit in Phase 2 returns the
     current feasible vertex flagged degraded instead of raising. *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  ignore (Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 10.0);
  Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ];
  (match Simplex.solve ~max_iters:0 m with
  | Simplex.Optimal sol ->
    Alcotest.(check bool) "degraded" true sol.Simplex.degraded;
    Alcotest.(check bool) "feasible incumbent" true (Simplex.feasible m sol.Simplex.values)
  | _ -> Alcotest.fail "expected a degraded incumbent");
  (* Budget expiry in Phase 1 (a Ge row needs an artificial pivot) has no
     incumbent to return and raises Timeout.  Two variables keep the row
     out of presolve's singleton reduction, so Phase 1 actually runs
     under every engine. *)
  let m1 = Lp.create () in
  let z = Lp.add_var m1 "z" and w = Lp.add_var m1 "w" in
  ignore (Lp.add_constraint m1 [ (1.0, z); (1.0, w) ] Lp.Ge 5.0);
  Lp.set_objective m1 Lp.Minimize [ (1.0, z); (1.0, w) ];
  Alcotest.check_raises "phase 1 budget" Simplex.Timeout (fun () ->
      ignore (Simplex.solve ~max_iters:0 m1))

(* ------------------------------------------------------------------ *)
(* Warm starting: a warm basis must never change results, only pivot
   counts.  Three staleness regimes: identical model (the reinstalled
   basis is already optimal), moved rhs (the dual-repair path), moved
   costs (primal Phase 2 work from a still-feasible vertex). *)

let random_warm_instance seed =
  let rng = Prete_util.Rng.create (seed + 7000) in
  let nv = 2 + Prete_util.Rng.int rng 3 in
  let nc = 2 + Prete_util.Rng.int rng 3 in
  let coefs =
    Array.init nc (fun _ ->
        Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.2 3.0))
  in
  let rhs = Array.init nc (fun _ -> Prete_util.Rng.uniform rng 2.0 20.0) in
  let cost = Array.init nv (fun _ -> Prete_util.Rng.uniform rng 0.1 4.0) in
  let build ~rhs ~cost =
    let m = Lp.create () in
    let vars =
      Array.init nv (fun i -> Lp.add_var m ~ub:15.0 (Printf.sprintf "x%d" i))
    in
    Array.iteri
      (fun k row ->
        ignore
          (Lp.add_constraint m
             (Array.to_list (Array.mapi (fun i c -> (c, vars.(i))) row))
             Lp.Le rhs.(k)))
      coefs;
    Lp.set_objective m Lp.Maximize
      (Array.to_list (Array.mapi (fun i ci -> (ci, vars.(i))) cost));
    m
  in
  (build, rhs, cost, rng)

let opt = function
  | Simplex.Optimal sol -> sol
  | _ -> Alcotest.fail "expected optimal"

let prop_warm_identical_model =
  QCheck.Test.make ~name:"warm re-solve of the same model is free" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let build, rhs, cost, _ = random_warm_instance seed in
      let cold = opt (Simplex.solve (build ~rhs ~cost)) in
      let warm = opt (Simplex.solve ~warm:cold.Simplex.basis (build ~rhs ~cost)) in
      Float.abs (warm.Simplex.objective -. cold.Simplex.objective) < 1e-9
      && warm.Simplex.warm_used && warm.Simplex.phase1_skipped
      && (not warm.Simplex.repaired)
      && warm.Simplex.iterations = 0)

let prop_warm_stale_rhs =
  QCheck.Test.make ~name:"warm from a stale basis after rhs moves" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let build, rhs, cost, rng = random_warm_instance seed in
      let stale = opt (Simplex.solve (build ~rhs ~cost)) in
      let rhs' =
        Array.map
          (fun r -> Float.max 0.5 (r +. Prete_util.Rng.uniform rng (-4.0) 4.0))
          rhs
      in
      let cold = opt (Simplex.solve (build ~rhs:rhs' ~cost)) in
      let warm =
        opt (Simplex.solve ~warm:stale.Simplex.basis (build ~rhs:rhs' ~cost))
      in
      Float.abs (warm.Simplex.objective -. cold.Simplex.objective) < 1e-7
      && warm.Simplex.warm_used
      && Simplex.feasible (build ~rhs:rhs' ~cost) warm.Simplex.values)

let prop_warm_stale_costs =
  QCheck.Test.make ~name:"warm from a stale basis after costs move" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let build, rhs, cost, rng = random_warm_instance seed in
      let stale = opt (Simplex.solve (build ~rhs ~cost)) in
      let cost' =
        Array.map (fun c -> c +. Prete_util.Rng.uniform rng (-1.0) 2.0) cost
      in
      let cold = opt (Simplex.solve (build ~rhs ~cost:cost')) in
      let warm =
        opt (Simplex.solve ~warm:stale.Simplex.basis (build ~rhs ~cost:cost'))
      in
      (* The stale vertex stays primal feasible when only costs move, so
         Phase 1 must be skipped outright. *)
      Float.abs (warm.Simplex.objective -. cold.Simplex.objective) < 1e-7
      && warm.Simplex.warm_used && warm.Simplex.phase1_skipped)

let prop_warm_anytime_monotone =
  QCheck.Test.make
    ~name:"degraded warm incumbents are feasible and improve with budget"
    ~count:40
    QCheck.(small_int)
    (fun seed ->
      (* Deadline-regression guard: under a tightening pivot budget the
         solver must still return a feasible incumbent (never raise, never
         go infeasible) and a larger budget must never yield a worse
         objective than a smaller one. *)
      let build, rhs, cost, rng = random_warm_instance seed in
      let stale = opt (Simplex.solve (build ~rhs ~cost)) in
      let cost' =
        Array.map (fun c -> c +. Prete_util.Rng.uniform rng 0.0 3.0) cost
      in
      let m () = build ~rhs ~cost:cost' in
      let prev = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun budget ->
          let sol =
            opt (Simplex.solve ~warm:stale.Simplex.basis ~max_iters:budget (m ()))
          in
          if not (Simplex.feasible (m ()) sol.Simplex.values) then ok := false;
          if sol.Simplex.objective < !prev -. 1e-9 then ok := false;
          prev := sol.Simplex.objective)
        [ 0; 1; 2; 4; 8; 1000 ];
      let full = opt (Simplex.solve (m ())) in
      (* The largest budget reaches the true optimum. *)
      !ok && Float.abs (!prev -. full.Simplex.objective) < 1e-7)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "prete_lp"
    [
      ( "model",
        [
          Alcotest.test_case "counts and names" `Quick test_model_counts;
          Alcotest.test_case "duplicate terms merge" `Quick test_model_duplicate_terms_merge;
          Alcotest.test_case "binary bounds" `Quick test_model_binary_bounds;
          Alcotest.test_case "invalid bounds" `Quick test_model_invalid_bounds;
          Alcotest.test_case "pp and term sums pinned" `Quick test_model_pp_pinned;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "dantzig max" `Quick test_simplex_dantzig;
          Alcotest.test_case "diet min" `Quick test_simplex_diet;
          Alcotest.test_case "equality rows" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "bound shifting" `Quick test_simplex_bounds_shift;
          Alcotest.test_case "fixed variable" `Quick test_simplex_fixed_var;
          Alcotest.test_case "negative rhs flip" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate vertex" `Quick test_simplex_degenerate;
          Alcotest.test_case "redundant equalities" `Quick test_simplex_redundant_equalities;
          Alcotest.test_case "max flow" `Quick test_simplex_max_flow;
          Alcotest.test_case "transportation" `Quick test_simplex_transportation;
          Alcotest.test_case "iteration limit" `Quick test_simplex_iteration_limit;
        ] );
      ( "duals",
        [
          Alcotest.test_case "strong duality (known)" `Quick test_duals_strong_duality;
          Alcotest.test_case "shadow price" `Quick test_duals_shadow_price;
          Alcotest.test_case "min with >= rows" `Quick test_duals_min_ge;
          Alcotest.test_case "feasibility checker" `Quick test_feasible_checker;
        ] );
      ( "simplex.props",
        qsuite
          [ prop_simplex_optimality; prop_simplex_strong_duality; prop_complementary_slackness ]
        @ [
            Alcotest.test_case "sampled LPs reach upper bounds" `Quick
              test_sampled_lps_reach_upper_bounds;
          ] );
      ( "simplex.warm",
        qsuite
          [
            prop_warm_identical_model;
            prop_warm_stale_rhs;
            prop_warm_stale_costs;
            prop_warm_anytime_monotone;
          ] );
      ( "mip",
        [
          Alcotest.test_case "knapsack" `Quick test_mip_knapsack;
          Alcotest.test_case "no binaries = LP" `Quick test_mip_no_binaries_is_lp;
          Alcotest.test_case "infeasible" `Quick test_mip_infeasible;
          Alcotest.test_case "mixed integer" `Quick test_mip_mixed;
        ] );
      ( "mip.props",
        qsuite [ prop_mip_matches_enumeration; prop_mip_solution_integral_and_feasible ] );
    ]
