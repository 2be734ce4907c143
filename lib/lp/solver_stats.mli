(** Mutable solver telemetry accumulated across the warm-start path.

    One record aggregates every {!Simplex} solve it sees — cold or warm —
    plus plan-cache hits/misses and per-stage wall clocks.  The record is
    threaded (not global): {!Te} creates one per strategy call, {!Mip}
    records each node LP into the one it is handed, and the controller
    merges per-epoch records into its report.  Counters let the bench
    compute the headline warm-vs-cold pivot ratio; [to_json] emits the
    machine-readable form used by [BENCH_PR2.json]. *)

type t = {
  mutable solves : int;  (** Total simplex solves observed. *)
  mutable warm_solves : int;  (** Solves that consumed a warm basis. *)
  mutable phase1_skips : int;  (** Warm solves whose reinstall skipped Phase 1. *)
  mutable repairs : int;  (** Warm solves that took the guided-repair path. *)
  mutable pivots : int;  (** Total pivots across all solves. *)
  mutable warm_pivots : int;  (** Pivots spent by warm solves. *)
  mutable cold_pivots : int;  (** Pivots spent by cold solves. *)
  mutable cache_hits : int;  (** Plan-cache hits (solve skipped entirely). *)
  mutable cache_misses : int;
  mutable refactorizations : int;
      (** LU engine: LU factorizations (incl. warm reinstalls). *)
  mutable ftran_nnz : int;  (** LU engine: FTRAN result nonzeros. *)
  mutable btran_nnz : int;  (** LU engine: BTRAN result nonzeros. *)
  mutable ft_updates : int;  (** LU engine: Forrest–Tomlin basis updates. *)
  mutable bound_flips : int;  (** LU engine: ratio-test bound flips. *)
  mutable lu_fill_nnz : int;
      (** LU engine: factor nonzeros at extraction, summed over solves. *)
  mutable presolve_rows : int;  (** LU engine: presolve-removed rows. *)
  mutable presolve_cols : int;  (** LU engine: presolve-removed columns. *)
  mutable presolve_wall : float;
      (** LU engine: wall seconds in presolve (set-up). *)
  mutable state_wall : float;
      (** LU engine: wall seconds building engine states (set-up). *)
  mutable factor_wall : float;
      (** LU engine: wall seconds in LU factorizations (crash, warm
          reinstall, refactorizations) — a part of [state_wall] and
          [pivot_wall], not in addition to them. *)
  mutable pivot_wall : float;
      (** LU engine: the rest of the solve wall (pivots, repair,
          postsolve).  The walls are timing, not deterministic output;
          [to_json] reports them as ["lu_wall_s"], which no
          deterministic core includes. *)
  mutable walls : (string * float) list;  (** Per-stage wall seconds. *)
  lock : Mutex.t;
      (** Guards every mutation, so one record can be fed from several
          domains at once (parallel Benders subproblems, pool-sharded
          epochs).  Each update is an order-free sum, so totals are
          deterministic regardless of interleaving.  Read fields directly
          only once concurrent writers have joined. *)
}

val create : unit -> t

val record : t -> Simplex.solution -> unit
(** Fold one solve's counters (pivots, warm/cold, skip/repair) in. *)

val add_wall : t -> string -> float -> unit
(** [add_wall t stage s] accumulates [s] seconds under [stage]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk, charging its wall time to the named stage (accumulated
    even when the thunk raises). *)

val merge_into : dst:t -> t -> unit
(** Fold all counters and stage walls of the source into [dst]. *)

val to_json : t -> Prete_util.Json.t

val pp : Format.formatter -> t -> unit
