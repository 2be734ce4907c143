type t = {
  mutable solves : int;
  mutable warm_solves : int;
  mutable phase1_skips : int;
  mutable repairs : int;
  mutable pivots : int;
  mutable warm_pivots : int;
  mutable cold_pivots : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable refactorizations : int;
  mutable ftran_nnz : int;
  mutable btran_nnz : int;
  mutable ft_updates : int;
  mutable bound_flips : int;
  mutable lu_fill_nnz : int;
  mutable presolve_rows : int;
  mutable presolve_cols : int;
  mutable presolve_wall : float;
  mutable state_wall : float;
  mutable factor_wall : float;
  mutable pivot_wall : float;
  mutable walls : (string * float) list;
  lock : Mutex.t;
}

let create () =
  {
    solves = 0;
    warm_solves = 0;
    phase1_skips = 0;
    repairs = 0;
    pivots = 0;
    warm_pivots = 0;
    cold_pivots = 0;
    cache_hits = 0;
    cache_misses = 0;
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
    factor_wall = 0.0;
    pivot_wall = 0.0;
    walls = [];
    lock = Mutex.create ();
  }

(* All mutation goes through [guarded]: one record may be fed by several
   domains at once (e.g. parallel Benders subproblems recording into the
   iteration's shared stats).  Every counter update is an order-free sum,
   so the totals stay deterministic regardless of interleaving. *)
let guarded t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t (sol : Simplex.solution) =
  guarded t (fun () ->
      t.solves <- t.solves + 1;
      t.pivots <- t.pivots + sol.Simplex.iterations;
      if sol.Simplex.warm_used then begin
        t.warm_solves <- t.warm_solves + 1;
        t.warm_pivots <- t.warm_pivots + sol.Simplex.iterations;
        if sol.Simplex.phase1_skipped then t.phase1_skips <- t.phase1_skips + 1;
        if sol.Simplex.repaired then t.repairs <- t.repairs + 1
      end
      else t.cold_pivots <- t.cold_pivots + sol.Simplex.iterations;
      t.refactorizations <- t.refactorizations + sol.Simplex.refactorizations;
      t.ftran_nnz <- t.ftran_nnz + sol.Simplex.ftran_nnz;
      t.btran_nnz <- t.btran_nnz + sol.Simplex.btran_nnz;
      t.ft_updates <- t.ft_updates + sol.Simplex.ft_updates;
      t.bound_flips <- t.bound_flips + sol.Simplex.bound_flips;
      t.lu_fill_nnz <- t.lu_fill_nnz + sol.Simplex.lu_fill_nnz;
      t.presolve_rows <- t.presolve_rows + sol.Simplex.presolve_rows;
      t.presolve_cols <- t.presolve_cols + sol.Simplex.presolve_cols;
      t.presolve_wall <- t.presolve_wall +. sol.Simplex.presolve_wall;
      t.state_wall <- t.state_wall +. sol.Simplex.state_wall;
      t.factor_wall <- t.factor_wall +. sol.Simplex.factor_wall;
      t.pivot_wall <- t.pivot_wall +. sol.Simplex.pivot_wall)

let add_wall_unlocked t stage s =
  t.walls <-
    (match List.assoc_opt stage t.walls with
    | Some prev -> (stage, prev +. s) :: List.remove_assoc stage t.walls
    | None -> (stage, s) :: t.walls)

let add_wall t stage s = guarded t (fun () -> add_wall_unlocked t stage s)

let time t stage f =
  let t0 = Prete_util.Clock.now () in
  Fun.protect ~finally:(fun () -> add_wall t stage (Prete_util.Clock.elapsed_since t0)) f

let merge_into ~dst src =
  (* [src] must be quiescent (no concurrent writers) — the usual pattern
     merges per-task records after their tasks have joined. *)
  guarded dst (fun () ->
      dst.solves <- dst.solves + src.solves;
      dst.warm_solves <- dst.warm_solves + src.warm_solves;
      dst.phase1_skips <- dst.phase1_skips + src.phase1_skips;
      dst.repairs <- dst.repairs + src.repairs;
      dst.pivots <- dst.pivots + src.pivots;
      dst.warm_pivots <- dst.warm_pivots + src.warm_pivots;
      dst.cold_pivots <- dst.cold_pivots + src.cold_pivots;
      dst.cache_hits <- dst.cache_hits + src.cache_hits;
      dst.cache_misses <- dst.cache_misses + src.cache_misses;
      dst.refactorizations <- dst.refactorizations + src.refactorizations;
      dst.ftran_nnz <- dst.ftran_nnz + src.ftran_nnz;
      dst.btran_nnz <- dst.btran_nnz + src.btran_nnz;
      dst.ft_updates <- dst.ft_updates + src.ft_updates;
      dst.bound_flips <- dst.bound_flips + src.bound_flips;
      dst.lu_fill_nnz <- dst.lu_fill_nnz + src.lu_fill_nnz;
      dst.presolve_rows <- dst.presolve_rows + src.presolve_rows;
      dst.presolve_cols <- dst.presolve_cols + src.presolve_cols;
      dst.presolve_wall <- dst.presolve_wall +. src.presolve_wall;
      dst.state_wall <- dst.state_wall +. src.state_wall;
      dst.factor_wall <- dst.factor_wall +. src.factor_wall;
      dst.pivot_wall <- dst.pivot_wall +. src.pivot_wall;
      List.iter (fun (stage, s) -> add_wall_unlocked dst stage s) src.walls)

let cache_hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total

let to_json t =
  let module J = Prete_util.Json in
  let int = J.int and wall = J.fixed 6 in
  J.Object
    [ ("solves", int t.solves); ("warm_solves", int t.warm_solves);
      ("phase1_skips", int t.phase1_skips); ("repairs", int t.repairs); ("pivots", int t.pivots);
      ("warm_pivots", int t.warm_pivots); ("cold_pivots", int t.cold_pivots);
      ("cache_hits", int t.cache_hits); ("cache_misses", int t.cache_misses);
      ("cache_hit_rate", J.fixed 4 (cache_hit_rate t));
      ("refactorizations", int t.refactorizations);
      ("ftran_nnz", int t.ftran_nnz); ("btran_nnz", int t.btran_nnz);
      ("ft_updates", int t.ft_updates); ("bound_flips", int t.bound_flips);
      ("lu_fill_nnz", int t.lu_fill_nnz); ("presolve_rows", int t.presolve_rows);
      ("presolve_cols", int t.presolve_cols);
      ( "lu_wall_s",
        J.Object
          [ ("presolve", wall t.presolve_wall); ("state", wall t.state_wall);
            ("factor", wall t.factor_wall); ("pivot", wall t.pivot_wall) ] );
      ("wall_s", J.Object (List.rev_map (fun (stage, s) -> (stage, wall s)) t.walls)) ]

let pp ppf t =
  Format.fprintf ppf
    "solves=%d warm=%d p1skip=%d repair=%d pivots=%d (warm %d / cold %d) cache %d/%d \
     refactors=%d ft=%d flips=%d \
     lu wall: presolve %.2f ms, state %.2f ms, pivot %.2f ms (factor %.2f ms)"
    t.solves t.warm_solves t.phase1_skips t.repairs t.pivots t.warm_pivots t.cold_pivots
    t.cache_hits (t.cache_hits + t.cache_misses)
    t.refactorizations
    t.ft_updates t.bound_flips (1e3 *. t.presolve_wall) (1e3 *. t.state_wall)
    (1e3 *. t.pivot_wall) (1e3 *. t.factor_wall)
