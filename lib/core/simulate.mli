(** Monte-Carlo epoch simulator.

    Samples a sequence of TE epochs from the generative optical model —
    per epoch: which fibers degrade, which degradations become cuts (via
    the ground-truth hazard of freshly sampled event features), which
    fibers cut without warning — and plays a TE scheme against the drawn
    sample path, including epochs with {e multiple} simultaneous cuts that
    the analytic evaluator truncates away.

    Used to cross-validate {!Availability.availability}: on schemes with
    instantaneous reaction the two agree within Monte-Carlo noise (see the
    integration tests), and the simulator additionally quantifies the
    truncation error of the analytic single-cut scenario space. *)

type result = {
  availability : float;  (** Demand-weighted mean delivered fraction. *)
  epochs : int;
  degradation_epochs : int;  (** Epochs with at least one degradation. *)
  cut_epochs : int;  (** Epochs with at least one cut. *)
  multi_cut_epochs : int;  (** Epochs the analytic evaluator truncates. *)
}

val run :
  ?seed:int ->
  ?epochs:int ->
  ?pool:Prete_exec.Pool.t ->
  Availability.env ->
  Schemes.t ->
  scale:float ->
  result
(** [run env scheme ~scale] simulates [epochs] (default 20_000) TE periods.
    Plans are cached per degradation state, so the cost is one plan per
    distinct degrading fiber plus O(epochs) bookkeeping.

    Epochs are sampled and evaluated on [pool] (default
    {!Prete_exec.Pool.default}).  Each epoch draws from a private RNG
    substream split from [seed] by epoch index, and partial sums fold in
    a schedule-independent chunk order, so the result is bit-identical at
    any domain count (and to a sequential run).

    Reaction windows: proactive schemes (ECMP, FFC, TeaVar, PreTE, Oracle)
    adapt instantly; ARROW charges its restoration window and Flexile its
    convergence window per cut epoch, as in the analytic evaluator.
    Raises [Invalid_argument] for non-positive [epochs]. *)

(** {1 Chaos harness}

    The fault-injection twin of {!run}: the same generative epoch loop,
    but the controller's {e observations} pass through a {!Faults}
    injector and every plan is produced by the {!Resilience} fallback
    ladder driven through {!Controller.run} — no epoch may raise, and
    every epoch's plan has passed {!Prete_lp.Simplex.feasible}. *)

type chaos_result = {
  c_availability : float;  (** Demand-weighted mean delivered fraction. *)
  c_epochs : int;
  c_detour : int;
      (** Epochs served by the Detour rung (precomputed patch, no solve);
          0 unless [run_chaos ~detours] armed the tier. *)
  c_primary : int;  (** Epochs served by a fresh primary solve. *)
  c_cached : int;  (** Epochs served by the last-good cache. *)
  c_equal_split : int;  (** Epochs on the last-resort equal split. *)
  c_gap_epochs : int;  (** Epochs with a telemetry gap. *)
  c_fault_epochs : int;  (** Epochs where at least one fault fired. *)
  c_degraded_plans : int;
      (** Epochs whose plan was a fallback or an anytime incumbent. *)
  c_causes : (string * int) list;
      (** Fallback root causes by {!Resilience.cause_name}, sorted. *)
  c_cache_hits : int;
      (** Epochs answered from the structural plan cache (solve skipped). *)
  c_cache_misses : int;  (** Cacheable epochs that had to solve. *)
}

val run_chaos :
  ?seed:int ->
  ?epochs:int ->
  ?faults:Faults.spec list ->
  ?fault_seed:int ->
  ?pressure_budget_s:float ->
  ?detours:Prete_net.Detours.t ->
  ?pool:Prete_exec.Pool.t ->
  Availability.env ->
  Schemes.t ->
  scale:float ->
  chaos_result
(** [run_chaos env scheme ~scale] simulates [epochs] (default 400) TE
    periods under the given fault specs (default none).  [detours] arms
    the ladder's Detour rung: every epoch whose observation sees a
    degrading fiber is answered by splicing that fiber's precomputed
    detours into the standing plan instead of re-solving — the
    detour-tier-vs-ladder ablation ([c_detour] counts those epochs).
    The epoch
    sample path is drawn exactly as {!run} draws it from [seed], and the
    injector draws one private substream per epoch from [fault_seed], so
    results across fault settings share the identical ground truth.

    The control loop runs over fixed 50-epoch shards on [pool] (default
    {!Prete_exec.Pool.default}); each shard owns a private fallback
    ladder and structural plan cache, so ladder outcomes are cached per
    observed degradation state (clean observations only) within a shard
    and results are bit-identical at any domain count.
    Raises [Invalid_argument] for non-positive [epochs]. *)

type sweep_entry = {
  sw_class : Faults.class_;
  sw_result : chaos_result;
  sw_delta : float;  (** Availability vs the fault-free baseline. *)
}

(** Internal pieces exposed for the streaming runtime ([prete_rt]), which
    replays the {e same} generative epoch ground truth at 1 Hz telemetry
    granularity and must evaluate its reaction policies with bit-identical
    arithmetic to {!run}. *)
module Internal : sig
  type epoch_sample = {
    es_state : int option;
        (** Planned-for degrading fiber (the first, mirroring the analytic
            truncation); [None] when nothing degrades. *)
    es_cuts : int list;  (** All fibers cut this epoch. *)
    es_degraded : (int * Prete_optics.Hazard.features) list;
        (** Every degrading fiber with its sampled event features, in
            fiber order. *)
  }

  val epoch_streams : seed:int -> epochs:int -> Prete_util.Rng.t array
  (** One private RNG substream per epoch, split sequentially up front —
      an epoch's draws are a function of its index alone. *)

  val sample_epoch : Availability.env -> Prete_util.Rng.t -> epoch_sample
  (** One epoch's ground truth, drawn exactly as {!run} draws it (same
      stream, same draw order). *)

  type plan_table
  (** Plans memoized by (demand class, degradation state), for one
      (env, scheme, demands) triple.  Pass one table to every
      evaluation of a window's policies and each plan is solved once;
      plans are cold solves, so the availabilities are bit-identical to
      evaluating with fresh tables. *)

  val plan_table : unit -> plan_table
  (** An empty table. *)

  val eval_epochs :
    ?epoch_plan:(int -> Availability.plan option) ->
    ?plans:plan_table ->
    Prete_exec.Pool.t ->
    Availability.env ->
    Schemes.t ->
    demands:float array ->
    state:int option array ->
    epoch_cuts:int list array ->
    float
  (** Availability of a drawn sample path: plan/served tables over the
      distinct states/cut sets, then the chunk-ordered epoch replay —
      the exact phases B and C of {!run}, so calling it on {!run}'s own
      sample path reproduces {!run}'s availability bit-for-bit.
      [epoch_plan] (default: none) may override the plan served to a
      specific epoch — the runtime scores its detour-patched plans this
      way; the default preserves bitwise equality with {!run}.
      [plans] (default: a fresh table) supplies and collects the
      state plans; share one only across calls with the same env,
      scheme and demands.  Raises [Invalid_argument] on empty or mismatched arrays. *)

  val eval_epochs_classes :
    ?epoch_plan:(int -> Availability.plan option) ->
    ?plans:plan_table ->
    Prete_exec.Pool.t ->
    Availability.env ->
    Schemes.t ->
    class_demands:float array array ->
    class_of:(int -> int) ->
    state:int option array ->
    epoch_cuts:int list array ->
    float
  (** {!eval_epochs} generalized to an epoch-varying demand sequence:
      [class_of e] selects the demand class evaluated (and normalized
      against) at epoch [e].  [class_of] must be pure in the epoch
      index; the replay is then bit-identical at any domain count.
      The runtime's [traffic] config field rides on it.  Raises
      [Invalid_argument] on empty/mismatched arrays or an out-of-range
      class. *)
end

val chaos_sweep :
  ?seed:int ->
  ?epochs:int ->
  ?fault_seed:int ->
  ?pressure_budget_s:float ->
  ?detours:Prete_net.Detours.t ->
  ?pool:Prete_exec.Pool.t ->
  Availability.env ->
  Schemes.t ->
  scale:float ->
  chaos_result * sweep_entry array
(** One fault class at a time at {!Faults.default_rate}, against the
    fault-free baseline — the per-class availability-delta report behind
    [prete_cli chaos]. *)
