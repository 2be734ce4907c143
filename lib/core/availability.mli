(** Analytic availability evaluation (§6.2).

    An epoch's state is (degradation state s, cut outcome q).  Degradation
    states are truncated to at most one degrading fiber (two simultaneous
    degradations carry negligible probability), cut outcomes to at most one
    cut, both renormalized — the cutoff treatment of TeaVar §5.1.

    For each state the scheme's allocation is evaluated per flow:

    - proactive rate adaptation (ECMP/FFC/TeaVar/PreTE): the flow is
      available in (s, q) iff its surviving allocated rate covers its
      demand (within ε);
    - ARROW: a flow hit by a cut recovers when optical restoration
      completes, losing [tau_arrow] (8 s) of the epoch;
    - Flexile: a flow hit by a cut waits [tau_flexile] for the controller
      to recompute, then receives the recomputed optimal share (losing the
      whole epoch when even that cannot serve it);
    - Oracle: per-outcome optimal allocation.

    Availability = Σ_s P(s) Σ_q P(q|s) · mean over flows of the available
    time fraction.  PreTE's allocation is recomputed per degradation state
    (calibrated probabilities + Algorithm 1 tunnels); every other scheme
    allocates once.

    Ground truth vs. prediction: each fiber gets one representative
    degradation event (deterministically sampled).  The {e evaluation}
    uses the event's true hazard as the conditional cut probability; the
    {e scheme} sees only its predictor's output on the event's features —
    so prediction error directly costs availability (Fig. 15). *)

type plan_memo
(** The env's memo of cold PreTE plans (see {!Internal.plan_alloc}). *)

type env = {
  ts : Prete_net.Tunnels.t;
  traffic : Prete_net.Traffic.t;
  model : Prete_optics.Fiber_model.t;
  beta : float;  (** Optimization availability level (0.999 default). *)
  epoch : int;  (** Hour used for the demand matrix. *)
  degr_events : Prete_optics.Hazard.features array;
      (** Representative degradation event per fiber. *)
  true_hazard : float array;  (** Ground-truth hazard of those events. *)
  epsilon : float;  (** Loss tolerance counting a flow as available. *)
  tau_flexile : float;  (** Reactive convergence window, seconds. *)
  tau_arrow : float;  (** Optical restoration latency, seconds (8). *)
  epoch_seconds : float;  (** 900. *)
  rerouted :
    (float * Prete_net.Tunnels.t * Prete_net.Tunnels.t) option Atomic.t array;
      (** Per-fiber memo of PreTE's rerouted tunnel set (Algorithm 1 merged
          into [ts]), keyed by the tunnel ratio and the base set; one
          atomic slot per fiber, safe to share across domains. *)
  plans : plan_memo;
      (** Cold PreTE plans already solved on this env, keyed exactly by
          their inputs; mutex-guarded, safe to share across domains.  A
          copy made with [{ e with ... }] shares both memos: build a
          new env with {!make_env} instead. *)
}

val make_env :
  ?seed:int ->
  ?beta:float ->
  ?epoch:int ->
  ?epsilon:float ->
  ?tau_flexile:float ->
  ?tau_arrow:float ->
  ?model:Prete_optics.Fiber_model.t ->
  ?traffic:Prete_net.Traffic.t ->
  ?tunnels:Prete_net.Tunnels.t ->
  Prete_net.Topology.t ->
  env
(** Defaults: seed 23, β 0.999 (the cloud-SLA region the paper evaluates,
    §6.2 — at this level the static-probability baselines must cover
    nearly every scenario, which is where prediction pays), epoch 12,
    ε 1e-4, τ_flexile 300 s (a failed flow is not made whole "until the
    next TE period", §7),
    τ_arrow 8 s (§6.1), model/traffic/tunnels generated with their
    defaults. *)

val availability :
  ?pool:Prete_exec.Pool.t ->
  ?bases:Prete_lp.Simplex.basis option array ->
  env ->
  Schemes.t ->
  scale:float ->
  float
(** Mean-over-flows availability at a demand scale, in [0, 1].

    The per-state plans, the reactive schemes' served-fraction LPs, and
    the per-state expectation all evaluate on [pool] (default
    {!Prete_exec.Pool.default}); results are bit-identical at any domain
    count because every sum folds in distribution order.

    [bases] is a caller-owned warm-start cache with one slot per
    degradation state (length {!Internal.degradation_states}; raises
    [Invalid_argument] otherwise): slot [i] is fed as the warm basis of
    state [i]'s plan solve and overwritten with the final basis that
    solve produced.  Repeated calls on the same env with nearby
    probability vectors — the decision-focused training oracle's access
    pattern — then resolve in a handful of pivots instead of cold
    solves.  Only degradation-aware schemes touch the cache; warm starts
    change pivot counts, never results. *)

val availability_curve :
  ?pool:Prete_exec.Pool.t ->
  env ->
  Schemes.t ->
  scales:float array ->
  (float * float) array
(** [(scale, availability)] samples — a Fig. 13 series. *)

val max_scale_at : (float * float) array -> target:float -> float
(** Largest demand scale sustaining [target] availability, interpolated
    linearly on a (monotonically scanned) curve; 0 when even the smallest
    sampled scale misses the target. *)

val nines : float -> float
(** [-log10 (1 - a)], the "number of nines" axis of Figs. 13/15; capped
    at 6 for a = 1. *)

type plan = {
  p_alloc : float array;  (** a_{f,t} by tunnel id. *)
  p_ts : Prete_net.Tunnels.t;  (** Tunnel set (with Algorithm 1 updates). *)
  p_admitted : float array option;
      (** Ingress rate limits (admission-style schemes only). *)
  p_degraded : bool;
      (** A solve budget expired: the allocation is feasible but not
          proven optimal (see the anytime semantics in {!Te}). *)
}

(** Internal pieces exposed for tests, benches, and the resilience /
    fault-injection layers. *)
module Internal : sig
  val plan_alloc :
    ?deadline:float ->
    ?degr_features:Prete_optics.Hazard.features array ->
    env ->
    Schemes.t ->
    demands:float array ->
    degraded:int option ->
    plan
  (** The plan a scheme uses in a given degradation state.  [deadline]
      bounds the underlying solves (anytime semantics, see {!Te});
      [degr_features] overrides the env's representative degradation
      events — the fault-injection harness uses it to feed corrupted
      telemetry to the predictor.

      A PreTE call with neither [deadline] nor [degr_features] is
      memoized in [env.plans]: it computes the calibrated probabilities
      and the tunnel set as every call does (so the predictor is asked
      each time), then looks the plan up under the tunnel set (by
      physical identity) and the bits of [demands] and of the
      probabilities.  It solves only on a miss and stores only an
      undegraded plan; the memo keeps the last {!memo_capacity} plans
      (first in, first out).  A hit returns the stored plan itself, so
      callers must not mutate a plan's arrays; no caller does.  Every
      other call solves afresh. *)

  val plan_alloc_warm :
    ?deadline:float ->
    ?warm:Prete_lp.Simplex.basis ->
    ?degr_features:Prete_optics.Hazard.features array ->
    env ->
    Schemes.t ->
    demands:float array ->
    degraded:int option ->
    plan * Prete_lp.Simplex.basis option
  (** Warm-aware variant of {!plan_alloc}: accepts the previous epoch's
      simplex basis and returns the plan together with the basis to carry
      forward.  Only the PreTE scheme consumes/produces a basis today;
      every other scheme ignores [warm] and returns [None].  Built for
      the resilience ladder's [primary] thunk. *)

  val max_served :
    env ->
    demands:float array ->
    cuts:int list ->
    float array
  (** Optimal per-flow served fraction on the topology surviving the given
      fiber cuts — the Oracle/Flexile-recompute LP. *)

  val degradation_states : env -> (int option * float) array
  (** Truncated, renormalized degradation-state distribution. *)

  val cut_outcomes : env -> degraded:int option -> (int option * float) array
  (** Truncated, renormalized conditional cut-outcome distribution. *)

  val memo_capacity : int
  (** How many plans [env.plans] holds before it evicts the oldest. *)

  val memo_plans : env -> int
  (** How many plans [env.plans] holds now. *)
end
