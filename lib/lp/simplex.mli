(** Two-phase primal simplex for {!Lp} models.

    Replaces the Gurobi LP path of the paper's implementation with one
    engine, a bounded-variable simplex over a presolved model with a
    sparse LU basis:

    - The model first goes through a presolve ({!Presolve}): empty,
      singleton and duplicate rows and empty/dominated columns are
      eliminated and the survivors equilibrated; the engine solves the
      reduced problem and postsolve recovers the original primal and
      dual solution.
    - Columns carry ranges [0 <= x <= u] directly (nonbasic-at-upper
      status and bound flips in the ratio test), so finite upper bounds
      cost no rows.
    - The basis inverse is a sparse LU factorization ({!Sparse.Lu}) with
      Markowitz-style pivoting, Forrest–Tomlin updates on pivots, and
      periodic refactorization on fill-in or stability triggers, so
      FTRAN/BTRAN cost O(LU nonzeros).
    - The ratio test is a Harris-style two-pass rule (numerically largest
      pivot among near-minimal ratios).  Entering columns follow
      Dantzig's rule (the most attractive reduced cost, lowest index on
      ties) over reduced costs kept current incrementally: after a pivot
      only the columns in rows whose dual moved are repriced.
    - When presolve finds an empty improving column with no finite bound,
      the engine's own Phase 1 on the model with its objective cleared
      decides between {!Unbounded} (the rest is feasible) and
      {!Infeasible}.

    Phase 1 minimizes the sum of artificial variables to find a basic
    feasible solution, Phase 2 optimizes the user objective, and an
    automatic switch to Bland's rule (guaranteeing termination) happens
    after a degeneracy threshold.

    Normalization: variables are shifted to zero lower bound and binary
    declarations are relaxed to [0, 1].  Free variables (infinite lower
    bound) are not supported — the TE formulations never produce them.

    The test suites check this engine against a separate dense-tableau
    oracle and a KKT certificate ([test/oracle/]).

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
    artificial of a row index, plus the set of variables nonbasic at
    their upper bound.  Passing it back as [?warm] on a later solve
    reuses it:

    - {e Exact reinstall} — when the new model reduces to the same
      variable and row counts, the stored basic-column set is factorized
      back into the engine (a single LU factorization, counted as one
      refactorization, not as simplex iterations).  If the resulting
      vertex is primal feasible for the new data, Phase 1 is skipped
      entirely and Phase 2 starts from the old vertex
      ([phase1_skipped = true]).
    - {e Dual-simplex repair} — a reinstalled optimal basis keeps its
      reduced costs of the right sign, so when only the rhs or bounds
      moved (MIP bound fixings, Benders cut updates) the vertex is still
      dual feasible and a short dual-simplex loop walks back to primal
      feasibility in a few pivots, still skipping Phase 1
      ([phase1_skipped = true], [repaired = true]).
    - {e Guided Phase 1} — when the reinstall fails, is dual infeasible,
      or the row structure changed (e.g. a δ-fixpoint round added
      coverage rows), Phase 1 runs from the usual crash start with
      warm-guided pricing: previously basic structural columns are
      preferred entering candidates, so the search lands near the old
      vertex ([repaired = true]).  Every repair step is an ordinary
      simplex pivot, so optimality and the anytime guarantees are
      unchanged.

    Bases live in the presolved row space.  The presolve reductions that
    decide the reduced structure depend only on constraint patterns,
    senses and cost signs, and the column layout of the reduced problem
    only on the constraint senses (negative-rhs rows are flipped inside
    the matrix), so structurally identical models share it and the exact
    reinstall applies across arbitrary rhs / bound / cost changes.  A
    warm basis whose structural dimension differs from the new model is
    ignored ([warm_used = false]).  Warm starting never changes the
    reported optimum — only the pivot count taken to reach it. *)

type basis
(** A simplex basis in model-independent form, transferable to later
    solves of structurally similar models. *)

val bland_from : int option ref
(** [Some k]: the engine uses Bland's rule from its k-th iteration
    on (counting from 0).  [None], the default, means after 20·(m + n)
    iterations.  A testing hook: solves reach the Bland path on their
    own only after stalling that long. *)

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
  refactorizations : int;
      (** LU factorizations (initial, warm reinstall, periodic). *)
  ftran_nnz : int;  (** Total FTRAN result nonzeros. *)
  btran_nnz : int;  (** Total BTRAN result nonzeros. *)
  ft_updates : int;
      (** Forrest–Tomlin basis updates absorbed (pivots that did not
          trigger a refactorization). *)
  bound_flips : int;
      (** Ratio-test bound flips (iterations that moved a nonbasic
          column across its range with no basis change). *)
  lu_fill_nnz : int;
      (** Resident factor nonzeros at extraction (U + ops) — the fill-in
          telemetry; 0 when presolve solved the model outright. *)
  presolve_rows : int;  (** Rows removed by presolve. *)
  presolve_cols : int;  (** Columns removed by presolve. *)
  presolve_wall : float;
      (** Wall seconds in {!Presolve.reduce}.  Like the other walls, not
          a deterministic output. *)
  state_wall : float;
      (** Wall seconds building engine states (bounded matrix, row view,
          crash factor) — one per state the warm-start ladder builds. *)
  factor_wall : float;
      (** Wall seconds in LU factorizations (crash, warm reinstall,
          refactorizations): a part of [state_wall] and [pivot_wall],
          not in addition to them. *)
  pivot_wall : float;
      (** The rest of the solve's wall — reinstall, repair, Phase 1 and
          2 pivots, postsolve. *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

exception Numerical of string
(** Raised on internal numerical failures (e.g. an unbounded Phase 1,
    which cannot happen on well-formed input, or a refactorization that
    finds the basis singular). *)

exception Timeout
(** Raised when the pivot or deadline budget expires before a feasible
    point exists (Phase 1), so no incumbent can be returned. *)

val solve :
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:basis ->
  Lp.model ->
  outcome
(** Solve the continuous relaxation of the model.  [max_iters] defaults to
    200_000 pivots.  [deadline] is an absolute time on
    {!Prete_util.Clock.now}; see the anytime semantics above.  [warm]
    reuses a basis from a previous solve (see warm starting above); with
    a feasible reinstall and [max_iters = 0] the returned degraded
    incumbent is exactly the warm vertex re-evaluated on the new model. *)

val value : solution -> Lp.var -> float
val dual : solution -> int -> float

val feasible : ?eps:float -> Lp.model -> float array -> bool
(** [feasible m x] checks a candidate point against every constraint and
    bound of the model; used by tests, the MIP layer, and the resilience
    fallback ladder to validate incumbents. Default [eps] 1e-6. *)
