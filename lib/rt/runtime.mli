(** The streaming telemetry runtime: online detection → prediction →
    reaction over a deterministic discrete-event loop at 1 Hz.

    One run replays the {e same} generative epoch ground truth that
    {!Prete.Simulate.run} draws from a seed, but at sample granularity:
    every degrading fiber gets a synthesized 1 Hz loss trace, and the
    per-fiber kernel ({!Fiber.process}) sends it through an impaired
    transport ({!Stream.iter_arrivals}), fills the gaps in place and
    watches it with the online change-point detector ({!Detector}).
    Alarms are debounced, batched
    per tick, scored by the hot-swappable predictor server
    ({!Predictor}), and turned into reactive plans by
    {!Prete.Controller.run} under the {!Prete.Resilience} fallback
    ladder, reusing the warm-start plan cache.

    {b Evaluation.}  Three reaction policies are scored on the identical
    sample path with {!Prete.Simulate.Internal.eval_epochs}'s
    arithmetic:

    - {e instant}: the plan for an epoch's degrading fiber is always in
      place — bitwise equal to {!Prete.Simulate.run}'s availability on
      the same seed, scheme and env;
    - {e stream}: the reactive plan counts only for epochs where this
      runtime's pipeline installed it before the fiber's cut tick (or
      before epoch end when no cut follows);
    - {e periodic}: no intra-epoch reaction at all — the base plan
      serves every epoch (the "periodic re-solve only" baseline);
    - {e stream+detour} (when [config.detour]): stream, plus the
      localized recovery tier — on a Detector alarm the fiber's
      precomputed detour patch ({!Prete_net.Detours} via
      {!Prete.Resilience.detour_patch}) installs after a modeled
      O(affected-flows) switch-over, with no solver anywhere on the
      activation path; the warm reactive plan replaces the patch on
      arrival.  In the evaluation the patch rescues exactly the epochs
      whose predicted cut materialized but whose warm plan missed the
      deadline, so [r_avail_detour >= r_avail_stream] holds by
      construction.

    Plan {e contents} in the evaluation come from the same per-state
    plan table {!Prete.Simulate.run} uses, so the stream−periodic and
    instant−stream gaps isolate reaction {e timing}, not plan noise.

    {b Determinism.}  Identical seed ⇒ bit-identical event log, metrics
    core and availabilities at any domain count: epoch processing runs
    on pre-split RNG substreams, all latencies in the event log are
    modeled (logical) quantities, and measured wall times live in a
    separate section that {!deterministic_core} excludes. *)

type predictor_kind =
  | Hazard_oracle  (** Ground-truth hazard — the perfect predictor. *)
  | Prior_only  (** Hazard-free mean-hazard prior ({!Predictor.prior}). *)
  | Nn of int
      (** MLP trained on the env model's dataset for the given number of
          training epochs (deterministic: seeded corpus + seeded init). *)

val predictor_kind_name : predictor_kind -> string
(** ["hazard"], ["prior"], ["nn:<epochs>"]. *)

val predictor_kind_of_string : string -> predictor_kind
(** Inverse of {!predictor_kind_name}; raises [Failure] otherwise. *)

type shed_policy =
  | Drop_newest
      (** Reject the arriving reaction when the coalescer backlog is
          full. *)
  | Drop_oldest
      (** Evict the oldest staged reaction to admit the arriving one. *)

val shed_policy_name : shed_policy -> string
(** ["drop-newest"] / ["drop-oldest"]. *)

val shed_policy_of_string : string -> shed_policy
(** Inverse of {!shed_policy_name}; raises [Failure] otherwise. *)

type retrain = {
  rt_every : int;  (** Retrain at every epoch boundary divisible by this. *)
  rt_steps : int;  (** SPSA descent steps per retrain. *)
  rt_pairs : int;  (** Perturbation pairs per gradient estimate. *)
  rt_min_events : int;
      (** Minimum measured alarm events collected since the last retrain
          before one fires (a due boundary with fewer events is skipped,
          the window keeps accumulating). *)
}

val default_retrain : retrain
(** Every 10 epochs, 2 steps × 2 pairs, at least 1 measured event. *)

type config = {
  topology : string;  (** {!Prete_net.Topology.by_name} name. *)
  traffic : string;
      (** ["fixed"] (default) keeps the legacy static matrix set;
          otherwise a {!Prete_net.Traffic_model.by_name} spec
          (e.g. ["diurnal"], ["coremelt:7"]) — the runtime then plans
          and evaluates each epoch against the demand class the model's
          schedule selects, with plans/patches anchored on the baseline
          class. *)
  epochs : int;  (** TE periods to stream (900 s each). *)
  seed : int;  (** Ground-truth sample-path seed (as in Simulate). *)
  scale : float;  (** Demand scale. *)
  detector : Detector.config;
  impairments : Stream.impairments;
  debounce_s : int;  (** Min seconds between reactions to one fiber. *)
  deadline_s : float option;  (** Anytime budget per primary solve. *)
  predictor : predictor_kind;
  stale_after : int option;
      (** Mark the serving model stale at this epoch (predictions fall
          back to the prior) and hot-swap a fresh version at twice it —
          exercises the stale/swap path deterministically. *)
  detour : bool;
      (** Arm the localized fast-recovery tier: precomputed per-fiber
          detours install at Detector-alarm time, below the controller
          ([prete_cli stream --no-detour] disarms it). *)
  ring_capacity : int;  (** Event-trace ring size. *)
  shards : int;
      (** Regional shards for the fleet-scale engine ({!Shard.run}):
          the topology is partitioned into this many connected fiber
          regions, each running its own event loop.  {!run} — the
          single-loop sample-path engine — ignores it; the shard
          count never changes the deterministic core either way. *)
  queue_bound : int;
      (** Coalescer backpressure: max reactions staged behind a busy
          controller before the shed policy fires ({!Shard.run} only).
          The bound is enforced on the coalescer's admission backlog —
          the joint occupancy of the per-shard reaction queues — so
          shedding is independent of the shard count. *)
  shed_policy : shed_policy;  (** What to do at the bound. *)
  retrain : retrain option;
      (** Online decision-focused retraining ({!Prete_ml.Dfl}): consume
          the measured alarm-event stream and, at due epoch boundaries,
          tune the serving model's outputs against realized TE loss and
          hot-swap the new version in (names ["dfl-v1"], ["dfl-v2"], …;
          ["retrains"] counter in the deterministic metrics core, swap
          latency in the ["swap_s"] wall histogram).  [None] (default)
          is off; armed only when the run builds its own model — an
          external [?predictor] server is left alone.  Dumps write the
          flat fields [retrain_every]/[retrain_steps]/[retrain_pairs]/
          [retrain_min_events]; [retrain_every] 0 or the fields missing
          (older dumps) parse back as off, so replay stays tolerant. *)
}

val default_config : config
(** B4 topology, 40 epochs, seed 123, scale 2.0, default detector
    and impairments, 30 s debounce, no deadline, [Hazard_oracle]
    predictor, detour tier armed, ring capacity 4096, 1 shard with a
    64-deep [Drop_newest] reaction queue, the session-default LP
    engine. *)

type detection = {
  d_epoch : int;
  d_fiber : int;
  d_onset : int;  (** Global tick the degradation truly started. *)
  d_alarm : int;  (** Global tick the detector alarmed. *)
  d_install : int option;
      (** Global tick the reactive plan was in place; [None] when the
          alarm was debounced away. *)
  d_prob : float;  (** Predicted cut probability at alarm time. *)
  d_fallback : bool;  (** Prediction came from the stale-model prior. *)
  d_cut : int option;  (** Global tick the fiber actually cut. *)
}

type result = {
  r_config : config;
  r_epochs : int;
  r_degr_epochs : int;
  r_cut_epochs : int;
  r_detections : detection list;  (** Chronological. *)
  r_reacted_in_time : int;
      (** State-fiber cut epochs whose reactive plan installed in time. *)
  r_missed : int;  (** State-fiber cut epochs it did not. *)
  r_avail_stream : float;
  r_avail_periodic : float;
  r_avail_instant : float;
  r_avail_detour : float option;
      (** stream+detour availability; [None] when the tier is disarmed.
          Never below [r_avail_stream] (see the module doc). *)
  r_metrics : Metrics.t;
  r_ring : Ring.t;
  r_solver : Prete_lp.Solver_stats.t;
      (** Reaction-stage solver telemetry (walls included). *)
  r_scheme : Prete.Schemes.t;
      (** The exact scheme (predictor closure included) the run used —
          pass it to {!Prete.Simulate.run} for the instant cross-check. *)
}

val run :
  ?pool:Prete_exec.Pool.t ->
  ?env:Prete.Availability.env ->
  ?predictor:Predictor.t ->
  config -> result
(** Stream [config.epochs] TE periods.  [env] defaults to
    [Availability.make_env] on the named topology, built once per domain
    for a given (topology, traffic) pair: a later run on this domain with
    the same pair reuses that env and with it the env's memos of
    rerouted tunnel sets and cold PreTE plans, which are pure functions
    of their keys, so the result is the same as on a fresh env.  Pass
    your own env to share fixtures with other experiments ({b note}:
    {!replay} always uses the default env, so dumps of custom-env runs
    won't match).
    [predictor] overrides the server built from [config.predictor]
    (same caveat).  Raises [Invalid_argument] for a config
    {!check_config} rejects. *)

val check_config : config -> unit
(** The range and name checks of a config, shared by the
    [prete_cli stream] flags, {!config_of_dump}, {!run} and
    {!Shard.run}.
    Raises [Invalid_argument] naming the first bad field by the flag
    that sets it, e.g. ["--ewma-alpha must be in (0, 1] (got 7)"], or
    by its dump key when no flag sets it: the detector thresholds must
    be finite, [degr_threshold <= cut_threshold] and
    [fluct_threshold >= 0]. *)

val config_to_json : config -> Prete_util.Json.t
(** The flat ["config"] section of a dump of either engine. *)

val dump : result -> Prete_util.Json.t
(** The whole run: flat ["config"] section, deterministic ["core"]
    section (summary, availabilities, metrics without walls, event
    log), the solver telemetry and the measured ["wall_s"] section.
    The config's ["lp_engine"] field is always ["lu"], the one LP
    engine. *)

val deterministic_core : result -> string
(** The ["core"] object alone, printed — byte-comparable across domain
    counts and replays of the same seed. *)

val config_of_dump :
  Prete_util.Json.t -> (config * string option, string) Stdlib.result
(** The ["config"] section of a {!dump} (of either engine), through
    {!check_config}.  A dump whose ["lp_engine"] is not ["lu"] — absent
    or ["revised"] (older than the LU engine), or ["dense"] (the
    dense-tableau engine, now a test oracle) — comes with a note that it
    replays under LU; [prete_cli stream --replay] prints it as one
    [prete: note: …] line on stderr.  [Error] names the first missing,
    mistyped or out-of-range field (an ["lp_engine"] other than those
    four included), or says the value has no config section. *)

val replay :
  ?pool:Prete_exec.Pool.t -> Prete_util.Json.t ->
  (result * bool, string) Stdlib.result
(** [replay dump] re-runs the dumped configuration and returns the
    fresh result plus whether its core equals the dumped ["core"] as a
    value — the replayability check behind [@stream-smoke].  [Error] as
    {!config_of_dump}, or for a dump with no core section. *)

(** Pieces shared with the sharded engine ({!Shard}) — not a public
    API. *)
module Internal : sig
  val epoch_len : int
  (** 900 — seconds per TE period at 1 Hz. *)

  val build_model :
    predictor_kind ->
    Prete.Availability.env ->
    Prete_net.Topology.t ->
    Prete_optics.Hazard.features -> float

  val measured_features :
    Prete_optics.Hazard.features ->
    (float * float * int * int) option ->
    Prete_optics.Hazard.features
  (** Overlay the detector's at-alarm segment features on the truth
      record (static fiber attributes kept, measured excursion
      substituted). *)

  val with_session :
    ?pool:Prete_exec.Pool.t -> config -> (Prete_exec.Pool.t -> 'a) -> 'a
  (** The config check ({!check_config}) and pool of both runs. *)

  val traffic :
    ?env:Prete.Availability.env -> config ->
    Prete_net.Traffic_model.t option * Prete.Availability.env * float array
    * (int -> float array)
  (** Traffic model, env, standing demands and an epoch's demands.
      Without [env], the env and traffic model last built on this domain
      for the config's (topology, traffic) pair, built now if there is
      none; one entry per domain. *)

  val stream_states :
    Prete.Simulate.Internal.epoch_sample array -> installs:(int * int, int) Hashtbl.t ->
    cut_at:(int -> int -> int option) -> int option array * int * int
  (** Stream-policy states; state-fiber cuts reacted to in time, missed. *)

  val epoch_counts : Prete.Simulate.Internal.epoch_sample array -> int * int
  (** Epochs with a degradation, and epochs with a cut. *)

  val evaluate :
    ?epoch_plan:(int -> Prete.Availability.plan option) ->
    plans:Prete.Simulate.Internal.plan_table -> pool:Prete_exec.Pool.t ->
    env:Prete.Availability.env -> scheme:Prete.Schemes.t -> demands:float array ->
    scale:float -> tm:Prete_net.Traffic_model.t option ->
    Prete.Simulate.Internal.epoch_sample array -> int option array -> float
  (** One policy's availability for a state vector. *)

  val replay_with :
    run:(config -> 'r) -> core:('r -> Prete_util.Json.t) -> Prete_util.Json.t ->
    ('r * bool, string) Stdlib.result
  (** {!replay} for either engine, given its run and its core. *)

  (** The online decision-focused retraining engine shared by {!run}
      and {!Shard.run}.  Deterministic: the retrain decision, tuned
      deltas, and version names are pure functions of (seed, epoch,
      collected measured events), independent of shard and domain
      counts. *)
  module Retrain : sig
    type state

    val create :
      pool:Prete_exec.Pool.t ->
      seed:int ->
      scale:float ->
      env:Prete.Availability.env ->
      retrain ->
      (Prete_optics.Hazard.features -> float) ->
      state
    (** Arm the loop around the initially served model closure.  The
        TE-loss oracle (and its warm-basis cache) is created lazily on
        the first due retrain. *)

    val record :
      state -> tick:int -> fiber:int -> Prete_optics.Hazard.features -> unit
    (** Feed one measured alarm event (detector at-alarm features).
        The latest tick per fiber wins regardless of arrival order, so
        collection commutes across shard partitions. *)

    val step :
      state ->
      epoch:int ->
      ((Prete_optics.Hazard.features -> float) * string) option
    (** At an epoch boundary: [None] when not due, otherwise tunes the
        current outputs against the oracle, composes the delta onto the
        serving closure, and returns the new model with its version
        name (["dfl-v<n>"]) for the caller to hot-swap. *)
  end
end
