(** Branch-and-bound for models with binary variables.

    The PreTE optimization (Eqns. 2–8) is a mixed-integer program with one
    binary δ per (flow, failure-scenario) pair.  This module provides an
    exact solver on top of {!Simplex}: depth-first branch and bound over the
    binary variables, branching on the most fractional one, pruning by the
    LP relaxation bound against the incumbent.

    For minimization: a node is pruned when its relaxation is no better
    than [incumbent - gap].  Default absolute gap 1e-6.

    {b Anytime semantics.}  Exhausting the node budget or the wall-clock
    deadline does not raise: the search stops and returns {!Node_limit}
    carrying the best integral incumbent found so far ([None] when the
    budget expired before any incumbent).  The same happens when an inner
    LP relaxation runs out of budget, since a degraded relaxation
    objective is no longer a valid pruning bound. *)

type solution = {
  objective : float;
  values : float array;
  nodes : int;  (** Branch-and-bound nodes explored. *)
  pivots : int;  (** Total simplex pivots across all node LPs. *)
  basis : Simplex.basis option;
      (** Basis of the incumbent's node LP; reusable as [?warm] on a
          later structurally-similar solve (e.g. the next Benders
          master). *)
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Node_limit of solution option
      (** Search budget exhausted; carries the best feasible integral
          incumbent, which is {e not} proven optimal. *)

val solve :
  ?max_nodes:int ->
  ?gap:float ->
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:Simplex.basis ->
  ?warm_start:bool ->
  ?stats:Solver_stats.t ->
  Lp.model ->
  outcome
(** [solve m] solves [m] to proven optimality over its binary variables.
    [max_nodes] (default 100_000) caps the search; exceeding it — or the
    absolute [deadline] on {!Prete_util.Clock.now} — yields {!Node_limit}
    with the incumbent instead of raising.  Models without binaries reduce
    to one simplex solve.

    [warm] seeds the root node LP; thereafter each node's final basis
    warm-starts its children (node LPs share the model shape, so the
    reinstall is exact and either skips Phase 1 outright or reaches
    feasibility through a short dual-simplex repair).  [warm_start]
    (default true) gates that intra-tree basis threading — pass [false]
    for a truly cold baseline where every node LP solves from scratch.
    [stats] accumulates per-node solver telemetry into the caller's
    record. *)

val value : solution -> Lp.var -> float
