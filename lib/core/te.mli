(** The PreTE traffic-allocation optimization (§4.3, Eqns. 2–8).

    Minimize the maximum loss Φ across flows at availability level β:

    {v
      min Φ
      s.t.  Σ_t a_{f,t} L(t,e) ≤ c_e                        ∀e        (3)
            Σ_{t ∈ T_{f,q} ∪ Y_{f,q}} a_{f,t} ≥ (1−l_{f,q}) d_f  ∀f,q (4)
            Σ_q δ_{f,q} p_q ≥ β                              ∀f        (5)
            Φ ≥ l_{f,q} − 1 + δ_{f,q}                        ∀f,q      (6)
            δ binary, 0 ≤ l ≤ 1, a ≥ 0                                (7,8)
    v}

    Scenarios are collapsed into per-flow {!Scenario.Classes} (identical
    surviving-tunnel sets share one l/δ), which keeps instances inside
    dense-simplex reach without changing the optimum.

    Three solution strategies (compared in the [ablate_mip] bench):

    - {!solve}: the production path.  A δ-fixing fixpoint: start with all
      scenario classes covered, solve the LP (with l eliminated —
      equivalent by substitution, see below), then per flow uncover the
      highest-loss classes while keeping Σ δ p ≥ β, and repeat.  A second
      LP maximizes probability-weighted served demand at the optimal Φ so
      spare capacity still protects uncovered scenarios.
    - {!solve_mip}: exact branch-and-bound on the full formulation
      (reference for small instances).
    - {!solve_benders}: Algorithm 2 / Appendix A.4 — subproblem LP with δ
      fixed, optimality cuts from the duals of constraint (6), master MIP.

    l-elimination: for fixed δ, constraint (4) defines the minimal loss
    l = max(0, 1 − Σa/d) and (6) is active only on covered classes, so
    covered classes satisfy Σ_t a_{f,t} + d_f·Φ ≥ d_f and l never needs to
    be materialized.

    {b Anytime semantics.}  Every strategy accepts an optional absolute
    [deadline] (on {!Prete_util.Clock.now}) threaded through to
    {!Prete_lp.Simplex} and {!Prete_lp.Mip}.  Budget expiry does not
    raise once any feasible allocation is known: the strategy stops,
    returns its best incumbent, and sets [degraded = true] on the result
    (the Φ reported is an upper bound, not proven optimal).  Only when
    the budget expires before {e any} feasible point exists does the
    strategy raise {!Prete_lp.Simplex.Timeout}.

    {b Warm starting.}  Every strategy accepts [?warm] (a final basis
    from an earlier, structurally similar solve — e.g. the previous
    controller epoch) and internally threads bases across its own
    iteration structure: δ-fixpoint rounds, branch-and-bound nodes, and
    Benders master/subproblem iterations each reuse the previous basis
    via {!Prete_lp.Simplex}'s exact-reinstall / guided-repair path.
    [?warm_start:false] disables all reuse (the cold baseline the bench
    compares against).  Warm starting changes pivot counts, never
    results.  Per-call telemetry is accumulated in [solution.solver]
    (a {!Prete_lp.Solver_stats.t}). *)

type problem = {
  ts : Prete_net.Tunnels.t;  (** Pre-established ∪ newly-established tunnels. *)
  demands : float array;  (** d_f per flow. *)
  scenarios : Scenario.set;
  beta : float;
}

type stats = { lp_solves : int; lp_pivots : int; mip_nodes : int }

type solution = {
  phi : float;  (** Max loss across flows at level β. *)
  alloc : float array;  (** a_{f,t} indexed by tunnel id. *)
  delta : bool array array;  (** Covered classes, [flow][class]. *)
  classes : Scenario.Classes.cls array array;  (** [flow][class]. *)
  expected_served : float;
      (** Probability- and demand-weighted served fraction (second phase);
          [nan] when the second phase is disabled. *)
  degraded : bool;
      (** [true] when a solve budget expired along the way: [alloc] is
          feasible but [phi] is only an upper bound on the optimum. *)
  stats : stats;
  basis : Prete_lp.Simplex.basis option;
      (** Final basis of the last fixed-δ (or Benders subproblem / MIP
          incumbent) LP; feed back as [?warm] on a later solve of a
          structurally similar problem. *)
  solver : Prete_lp.Solver_stats.t;  (** Per-call solver telemetry. *)
}

exception Infeasible_problem of string

val make_problem :
  ts:Prete_net.Tunnels.t ->
  demands:float array ->
  probs:float array ->
  ?max_order:int ->
  ?cutoff:float ->
  ?normalize:bool ->
  beta:float ->
  unit ->
  problem
(** Convenience constructor: enumerates scenarios from per-fiber failure
    probabilities.  [normalize] (default true) conditions probabilities on
    the truncated scenario space ({!Scenario.normalize}); with it off, a β
    above the scenario set's total mass raises {!Infeasible_problem}.
    Raises [Invalid_argument] on dimension mismatches. *)

val classes_of : problem -> Scenario.Classes.cls array array

val capacity_terms : Prete_net.Tunnels.t -> (int * (int * float) list) list
(** Link-capacity row structure shared by every allocation LP in this
    module (and by {!Availability}/{!Resilience} variants): for each link
    carrying at least one tunnel, in ascending link id, the list of
    (tunnel id, coefficient) terms of constraint (3).  Built once per
    tunnel set through a {!Prete_lp.Sparse} transpose instead of a
    per-link scan over all tunnels. *)

val class_loss : problem -> alloc:float array -> flow:int -> Scenario.Classes.cls -> float
(** Loss of a flow in a scenario class under rate adaptation:
    [max 0 (1 − surviving_alloc / demand)]; 0 for zero-demand flows. *)

val solve :
  ?second_phase:bool ->
  ?max_rounds:int ->
  ?relaxation_start:bool ->
  ?deadline:float ->
  ?warm:Prete_lp.Simplex.basis ->
  ?warm_start:bool ->
  problem ->
  solution
(** The δ-fixpoint heuristic (default strategy).  [second_phase] default
    [true]; [max_rounds] default 8.  [relaxation_start] (default [true])
    adds a second start from an LP-relaxation-guided δ rounding whenever
    the loss-based fixpoint leaves residual loss — it sees cross-flow
    capacity coupling the greedy misses (cf. the Fig. 2 instance) at the
    cost of one larger LP; evaluation sweeps disable it.  When [deadline]
    expires mid-fixpoint the best round so far is returned with
    [degraded = true]; the relaxation start and second phase are skipped
    under an expired budget. *)

type admission = {
  admitted : float array;  (** b_f per flow: the rate-limited admission. *)
  adm_alloc : float array;  (** a_{f,t} by tunnel id. *)
  adm_delta : bool array array;
  adm_classes : Scenario.Classes.cls array array;
  adm_degraded : bool;  (** Analogous to {!solution.degraded}. *)
  adm_stats : stats;
  adm_basis : Prete_lp.Simplex.basis option;
  adm_solver : Prete_lp.Solver_stats.t;
}

val solve_admission :
  ?max_rounds:int ->
  ?skip_unprotectable:bool ->
  ?deadline:float ->
  ?warm:Prete_lp.Simplex.basis ->
  ?warm_start:bool ->
  problem ->
  admission
(** TeaVar/FFC-style admission control: maximize Σ_f b_f subject to
    [b_f ≤ d_f] and lossless delivery of [b_f] in every covered scenario
    class (coverage ≥ β under the problem's probabilities).  Traffic is
    rate-limited to [b_f] at ingress, so a flow whose admission falls
    short of demand is short in {e every} scenario — this is the
    structural difference between the prior proactive schemes and the
    Flexile-style loss formulation PreTE builds on (§2.1, §4.3).
    [skip_unprotectable] (default false) leaves scenario classes with no
    surviving tunnel uncovered from the start — FFC-k's semantics, which
    guarantees losslessness only for failure combinations that leave the
    flow connected. *)

val solve_mip :
  ?deadline:float ->
  ?warm:Prete_lp.Simplex.basis ->
  ?warm_start:bool ->
  problem ->
  solution
(** Exact branch-and-bound over δ (full formulation).  Intended for small
    instances.  Node-budget or deadline exhaustion returns the best
    integral incumbent with [degraded = true] (raises
    {!Prete_lp.Simplex.Timeout} when none exists yet). *)

val solve_benders :
  ?eps:float ->
  ?max_iters:int ->
  ?deadline:float ->
  ?warm:Prete_lp.Simplex.basis ->
  ?warm_start:bool ->
  ?pool:Prete_exec.Pool.t ->
  problem ->
  solution
(** Algorithm 2.  [eps] (default 1e-4) is the UB−LB convergence threshold;
    [max_iters] default 40.  Under deadline pressure the loop stops with
    the best subproblem incumbent ([degraded = true]); a truncated master
    search invalidates the lower bound but its δ is still coverage-feasible
    and is used for one more subproblem pass.

    Per-flow class construction and the per-iteration subproblem LPs run
    on [pool] (default {!Prete_exec.Pool.default}).  Each iteration
    solves the subproblem at up to two coverage-feasible δ candidates —
    the master's proposal plus a greedy re-cover of the incumbent
    allocation — in parallel; every candidate yields a valid incumbent
    and optimality cut, and candidates merge in a fixed order, so the
    result is bit-identical at any domain count (the candidate set never
    depends on the pool). *)

(** Model builders behind {!solve}, exposed for tests that pin what the
    LP layer makes of them. *)
module Internal : sig
  val fixed_delta_model :
    problem -> Scenario.Classes.cls array array -> bool array array -> Prete_lp.Lp.model
  (** The fixed-δ LP in eliminated form (min Φ) for a coverage set. *)

  val second_phase_model :
    problem -> Scenario.Classes.cls array array -> bool array array -> float ->
    Prete_lp.Lp.model
  (** The second-phase LP at loss level [phi_star]. *)
end

