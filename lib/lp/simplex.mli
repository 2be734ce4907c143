(** Two-phase primal simplex for {!Lp} models.

    Replaces the Gurobi LP path of the paper's implementation.  Two
    engines share one warm-start contract and one solution type:

    - {b Lu} (the default, and the engine every production solve runs) —
      the bounded-variable engine.  The model first goes through a
      presolve ({!Presolve}): empty, singleton and duplicate rows and
      empty/dominated columns are eliminated and the survivors
      equilibrated; the engine solves the reduced problem and postsolve
      recovers the original primal and dual solution.  Columns carry
      ranges [0 <= x <= u] directly (nonbasic-at-upper status and bound
      flips in the ratio test), so finite upper bounds stop costing
      explicit rows.  The basis inverse is a sparse LU factorization
      ({!Sparse.Lu}) with Markowitz-style pivoting, Forrest–Tomlin
      updates on pivots, and periodic refactorization on fill-in or
      stability triggers, so FTRAN/BTRAN cost O(LU nonzeros).  The ratio
      test is a Harris-style two-pass rule (numerically largest pivot
      among near-minimal ratios).  Entering columns follow Dantzig's rule
      (the most attractive reduced cost, lowest index on ties) over
      reduced costs kept current incrementally: after a pivot only the
      columns in rows whose dual moved are repriced.  When presolve finds
      an empty improving column with no finite bound, the engine's own
      Phase 1 on the model with its objective cleared decides between
      {!Unbounded} (the rest is feasible) and {!Infeasible}.
    - {b Dense} — the original dense-tableau engine, retained as the
      differential-testing oracle (see [test_solvers_diff.ml]) and
      selectable via [?engine] or {!default_engine}.

    Both engines: Phase 1 minimizes the sum of artificial variables to
    find a basic feasible solution, Phase 2 optimizes the user objective,
    and an automatic switch to Bland's rule (guaranteeing termination)
    happens after a degeneracy threshold.

    Normalization: variables are shifted to zero lower bound, binary
    declarations are relaxed to [0, 1], and finite upper bounds become
    additional rows (dense engine) or column ranges (LU engine).  Free
    variables (infinite lower bound) are not supported — the TE
    formulations never produce them.

    Duals are reported as shadow prices of the original constraints:
    [dual sol i] is ∂(objective)/∂(rhs of constraint i) at the optimum,
    regardless of constraint sense or optimization direction.

    {b Anytime semantics.}  The solve budget is a pivot limit and an
    optional wall-clock deadline (read on {!Prete_util.Clock}).  Because
    the primal simplex maintains feasibility throughout Phase 2, budget
    expiry after feasibility is reached is {e not} an error: the solver
    stops and returns the current vertex as an {!Optimal} solution with
    [degraded = true] — a feasible incumbent whose objective is only an
    upper bound (for minimization) on the true optimum, and whose duals
    are those of the interrupted basis (not valid shadow prices).  Budget
    expiry during Phase 1, before any feasible point is known, raises
    {!Timeout}.

    {b Warm starting.}  Every solution carries the final simplex {!basis}
    in a representation that survives model rebuilds: basic columns are
    recorded as structural-variable indices or as the slack / surplus /
    artificial of a row index.  Passing it back as [?warm] on a later
    solve reuses it:

    - {e Exact reinstall} — when the new model has the same variable and
      row counts, the stored basic-column set is factorized back into the
      engine (Gaussian elimination with partial pivoting; under the LU
      engine this is a single LU factorization, counted as one
      refactorization, not as simplex iterations).  If the resulting
      vertex is primal feasible for the new data, Phase 1 is skipped
      entirely and Phase 2 starts from the old vertex
      ([phase1_skipped = true]).
    - {e Dual-simplex repair} — a reinstalled optimal basis keeps its
      reduced costs nonnegative, so when only the rhs moved (MIP bound
      fixings, Benders cut updates) the vertex is still dual feasible
      and a short dual-simplex loop walks back to primal feasibility in
      a few pivots, still skipping Phase 1 ([phase1_skipped = true],
      [repaired = true]).
    - {e Guided Phase 1} — when the reinstall fails, is dual infeasible,
      or the row structure changed (e.g. a δ-fixpoint round added
      coverage rows), Phase 1 runs from the usual crash start with
      warm-guided pricing: previously basic structural columns are
      preferred entering candidates, so the search lands near the old
      vertex ([repaired = true]).  Every repair step is an ordinary
      simplex pivot, so optimality and the anytime guarantees are
      unchanged.

    The column layout of the normalized problem depends only on the
    constraint senses, never on rhs signs, so structurally identical
    models share it and the exact reinstall applies across arbitrary
    rhs / bound / cost changes.  A warm basis whose structural dimension
    differs from the new model is ignored ([warm_used = false]).  Warm
    starting never changes the reported optimum — only the pivot count
    taken to reach it.  LU-engine bases live in the presolved row space
    and dense-engine bases in the normalized one, so a cross-engine
    transfer fails the shape check and degrades to guided Phase 1 — the
    structural variable ids still steer the pricing; within the LU
    engine, bases reinstall exactly across rhs-only changes because the
    presolve reductions that decide the reduced structure depend only on
    constraint patterns, senses and cost signs. *)

type basis
(** A simplex basis in model-independent form, transferable to later
    solves of structurally similar models (and across engines). *)

val basis_size : basis -> int
(** Number of rows of the normalized problem the basis was extracted
    from. *)

type engine =
  | Dense  (** Original dense tableau; differential-testing oracle. *)
  | Lu
      (** Bounded-variable simplex over the presolved model with a
          sparse LU basis and Forrest–Tomlin updates (default). *)

val default_engine : engine ref
(** Engine used when [?engine] is omitted; [Lu] unless overridden
    (e.g. by the [--lp-engine] CLI flag). *)

val bland_from : int option ref
(** [Some k]: the LU engine uses Bland's rule from its k-th iteration
    on (counting from 0).  [None], the default, means after 20·(m + n)
    iterations.  A testing hook: solves reach the Bland path on their
    own only after stalling that long. *)

val engine_name : engine -> string

val engine_of_string : string -> engine option
(** ["lu" | "dense"]. *)

type solution = {
  objective : float;  (** Objective in the original direction. *)
  values : float array;  (** Primal values indexed by variable. *)
  duals : float array;  (** Shadow prices indexed by constraint. *)
  iterations : int;
      (** Priced simplex pivots (Phase 1, dual repair, Phase 2).  Basis
          reinstall eliminations are factorization work, not counted. *)
  degraded : bool;
      (** [true] when the budget expired in Phase 2: [values] is feasible
          but possibly suboptimal and [duals] is unreliable. *)
  basis : basis;  (** Final basis; feed back via [?warm]. *)
  warm_used : bool;
      (** A compatible warm basis was supplied and consumed. *)
  phase1_skipped : bool;
      (** The warm basis reinstalled into a primal-feasible vertex
          (directly or via dual repair); Phase 1 was skipped. *)
  repaired : bool;
      (** The warm basis needed repair: the dual-simplex walk (when also
          [phase1_skipped]) or the guided-Phase-1 path (reinstall failed
          or row structure changed). *)
  engine : engine;  (** Engine that produced this solution. *)
  refactorizations : int;
      (** LU engine: LU factorizations (initial, warm reinstall,
          periodic); 0 under [Dense]. *)
  ftran_nnz : int;  (** LU engine: total FTRAN result nonzeros. *)
  btran_nnz : int;  (** LU engine: total BTRAN result nonzeros. *)
  ft_updates : int;
      (** LU engine: Forrest–Tomlin basis updates absorbed (pivots that
          did not trigger a refactorization); 0 elsewhere. *)
  bound_flips : int;
      (** LU engine: ratio-test bound flips (iterations that moved a
          nonbasic column across its range with no basis change); 0
          elsewhere. *)
  lu_fill_nnz : int;
      (** LU engine: resident factor nonzeros at extraction (U + ops) —
          the fill-in telemetry; 0 elsewhere. *)
  presolve_rows : int;  (** LU engine: rows removed by presolve. *)
  presolve_cols : int;  (** LU engine: columns removed by presolve. *)
  presolve_wall : float;
      (** LU engine: wall seconds in {!Presolve.reduce}; 0 elsewhere.
          Like the other walls, not a deterministic output. *)
  state_wall : float;
      (** LU engine: wall seconds building engine states (bounded
          matrix, row view, crash factor) — one per state the warm-start
          ladder builds; 0 elsewhere. *)
  pivot_wall : float;
      (** LU engine: the rest of the solve's wall — reinstall, repair,
          Phase 1 and 2 pivots, postsolve; 0 elsewhere. *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical of string
(** Raised on internal numerical failures (e.g. an unbounded Phase 1,
    which cannot happen on well-formed input, or a refactorization that
    finds the LU engine's basis singular). *)

exception Timeout
(** Raised when the pivot or deadline budget expires before a feasible
    point exists (Phase 1), so no incumbent can be returned. *)

val solve :
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:basis ->
  ?engine:engine ->
  Lp.model ->
  outcome
(** Solve the continuous relaxation of the model.  [max_iters] defaults to
    200_000 pivots.  [deadline] is an absolute time on
    {!Prete_util.Clock.now}; see the anytime semantics above.  [warm]
    reuses a basis from a previous solve (see warm starting above); with
    a feasible reinstall and [max_iters = 0] the returned degraded
    incumbent is exactly the warm vertex re-evaluated on the new model.
    [engine] defaults to {!default_engine}.  Both engines return the same optimum (the
    differential suite pins objective, dual and outcome agreement);
    pivot paths — and therefore [iterations] and degenerate-optimum
    vertex choices — may differ. *)

val value : solution -> Lp.var -> float
val dual : solution -> int -> float

val feasible : ?eps:float -> Lp.model -> float array -> bool
(** [feasible m x] checks a candidate point against every constraint and
    bound of the model; used by tests, the MIP layer, and the resilience
    fallback ladder to validate incumbents. Default [eps] 1e-6. *)
