(** Controller pipeline model (§5, Fig. 11; Fig. 16b).

    When the telemetry stream shows a degradation, the controller runs,
    in order: optical-data analysis (detection), NN inference, tunnel
    updates, failure-scenario regeneration, and TE computation.  The
    testbed measured (Fig. 11): detection and inference in milliseconds,
    scenario regeneration ≈ 10 ms, TE computation sub-second, and tunnel
    establishment dominating — serialized, ≈ 250 ms per tunnel (5 s for
    20 tunnels, linear in the count).

    We reproduce the pipeline with the stages we actually run measured by
    wall clock (inference on our MLP, scenario regeneration, TE
    optimization on our solver) and the hardware-bound stages (detection
    in the optical agent, per-tunnel switch programming) taken from the
    paper's measured constants.

    Timing uses {!Prete_util.Clock}, which is monotonicized: an NTP step
    mid-stage can no longer produce a negative duration. *)

type stage =
  | Detection
  | Inference
  | Tunnel_update
  | Scenario_regen
  | Te_compute

val stage_name : stage -> string

type timing = {
  stage : stage;
  start_s : float;  (** Offset from the degradation signal. *)
  duration_s : float;
}

type note = {
  note_stage : stage;  (** Stage the event belongs to. *)
  label : string;  (** Short machine-friendly tag, e.g. ["fallback:cached"]. *)
  detail : string;  (** Human-readable explanation. *)
  tries : int;  (** Attempts made at this stage (1 = first try). *)
  backoff_s : float;  (** Total backoff delay charged to retries. *)
}
(** A structured annotation attached to a pipeline run — the resilience
    layer records fallback-ladder rungs, retries, and degradation causes
    here so operators can audit {e why} a given plan was produced. *)

type report = {
  timeline : timing list;  (** In execution order. *)
  end_to_end_s : float;  (** Total pipeline latency. *)
  notes : note list;  (** Resilience annotations; [[]] on a clean run. *)
  solver : Prete_lp.Solver_stats.t option;
      (** Solver telemetry for this epoch when the caller passed
          [?solver_stats] to {!run}; [None] otherwise. *)
}

val tunnel_update_time : int -> float
(** Linear serialized model of Fig. 11b. *)

val batch_latency : members:int -> n_new_tunnels:int -> float
(** Modeled end-to-end install latency of one batched reactive re-solve
    covering [members] alarmed fibers: detection, per-member batch
    handling, inference + plan push overheads, and the Fig. 11b
    tunnel-establishment time for the Algorithm 1 update the plan
    carries.  A pure (logical) quantity — both the streaming runtime and
    the sharded runtime's cross-shard coalescer use it for their event
    logs, so it never reads a clock.  Raises [Invalid_argument] for
    non-positive [members]. *)

val wall : (unit -> 'a) -> 'a * float
(** [wall f] runs [f] and returns its result with the elapsed wall-clock
    seconds on the monotonicized {!Prete_util.Clock} (never negative). *)

val run :
  ?solver_stats:Prete_lp.Solver_stats.t ->
  infer:(unit -> unit) ->
  regen:(unit -> unit) ->
  te:(unit -> 'a) ->
  n_new_tunnels:int ->
  unit ->
  'a * report
(** Execute and wall-clock the software stages ([infer], [regen], [te]
    are thunks that actually perform the work), model the hardware
    stages, and assemble the Fig. 11a timeline.  Returns [te]'s result
    alongside the report so callers no longer need side-channel refs.
    [solver_stats], when given, is attached to the report and charged
    the TE-compute wall time (stage ["te_compute"]); the [te] thunk is
    expected to merge its per-solve counters into the same record. *)

val with_notes : report -> note list -> report
(** Append resilience notes to a report. *)

val within_budget : report -> gap_to_cut_s:float -> bool
(** Whether the pipeline completes before the expected degradation→cut
    gap — the §5 feasibility argument. *)

(** {2 Per-epoch plan cache}

    Successive controller epochs frequently present {e identical} inputs
    (same tunnel set, same scenario classes, same demands — e.g. a
    telemetry re-trigger with no real change).  The cache keys plans by a
    structural hash of those inputs so an unchanged epoch skips the TE
    solve entirely.

    Invalidation is implicit in the key: anything that should change the
    plan — a tunnel added or rerouted, a demand value, a scenario class's
    survivor set or probability, the observed failure state (via [salt])
    — lands in the hash, so a changed epoch simply misses.  Degraded
    plans are {e never} stored (see {!cache_store}).  Eviction is FIFO at
    a fixed capacity. *)

type cache_key

val plan_key :
  ts:Prete_net.Tunnels.t ->
  demands:float array ->
  ?classes:Scenario.Classes.cls array array ->
  ?probs:float array ->
  ?salt:int list ->
  unit ->
  cache_key
(** Structural hash (FNV-1a over the full contents, not [Hashtbl.hash],
    which truncates) of the plan-determining inputs: flow endpoints,
    tunnel link paths, demands, and — when supplied — per-flow scenario
    classes (survivor sets + probabilities) or raw fiber failure
    probabilities.  [salt] folds in extra discriminants such as the
    observed failure state or the scheme identity. *)

type 'p cache

val cache : ?capacity:int -> unit -> 'p cache
(** Fresh cache holding at most [capacity] (default 64) plans.  All
    operations are mutex-guarded, so one cache may serve epochs sharded
    across domains (find/store remain individually atomic; concurrent
    misses on the same key may each solve and store — last write wins,
    which is harmless because stored plans are deterministic functions
    of the key). *)

val cache_find : 'p cache -> cache_key -> 'p option
(** Lookup; counts a hit or miss. *)

val cache_store : 'p cache -> cache_key -> degraded:bool -> 'p -> unit
(** Insert a plan.  [degraded = true] plans are refused: a deadline-
    truncated plan is not the plan for those inputs, and caching it would
    replay it on every identical future epoch. *)

val cache_stats : 'p cache -> int * int
(** [(hits, misses)] since creation. *)
