(** The streaming runtime's configuration: what {!Shard.run} streams,
    how it detects and reacts, and how a run's config reads back from a
    dump.

    The engine itself is {!Shard.run}: it replays the {e same}
    generative epoch ground truth that {!Prete.Simulate.run} draws from
    a seed at 1 Hz sample granularity, detects degradations online,
    scores alarms with the hot-swappable {!Predictor} server and turns
    them into reactive plans, and scores four reaction policies on the
    identical sample path (see {!Shard}). *)

type predictor_kind =
  | Hazard_oracle  (** Ground-truth hazard — the perfect predictor. *)
  | Prior_only  (** Hazard-free mean-hazard prior ({!Predictor.prior}). *)
  | Nn of int
      (** MLP trained on the env model's dataset for the given number of
          training epochs (deterministic: seeded corpus + seeded init). *)

val predictor_kind_of_string : string -> predictor_kind
(** ["hazard"], ["prior"] or ["nn:<epochs>"] (the dump's spelling);
    raises [Failure] otherwise. *)

type shed_policy =
  | Drop_newest
      (** Reject the arriving reaction when the coalescer backlog is
          full. *)
  | Drop_oldest
      (** Evict the oldest staged reaction to admit the arriving one. *)

val shed_policy_of_string : string -> shed_policy
(** ["drop-newest"] / ["drop-oldest"]; raises [Failure] otherwise. *)

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
      (** Regional shards ({!Shard.run}, [prete_cli stream --shards]):
          the topology is partitioned into this many connected fiber
          regions, each running its own event loop.  Positive; the
          shard count never changes the deterministic core. *)
  queue_bound : int;
      (** Coalescer backpressure: max reactions staged behind a busy
          controller before the shed policy fires.
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
          is off.  Dumps write the
          flat fields [retrain_every]/[retrain_steps]/[retrain_pairs]/
          [retrain_min_events]; [retrain_every] 0 or the fields missing
          (older dumps) parse back as off, so replay stays tolerant. *)
}

val default_config : config
(** B4 topology, 40 epochs, seed 123, scale 2.0, default detector
    and impairments, 30 s debounce, no deadline, [Hazard_oracle]
    predictor, detour tier armed, ring capacity 4096, 1 shard with a
    64-deep [Drop_newest] reaction queue, retraining off. *)

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

val check_config : config -> unit
(** The range and name checks of a config, shared by the
    [prete_cli stream] flags, {!config_of_dump} and {!Shard.run}.
    Raises [Invalid_argument] naming the first bad field by the flag
    that sets it, e.g. ["--ewma-alpha must be in (0, 1] (got 7)"], or
    by its dump key when no flag sets it: the detector thresholds must
    be finite, [degr_threshold <= cut_threshold] and
    [fluct_threshold >= 0].  An armed retrain loop ([rt_every > 0])
    needs [rt_pairs > 0], [rt_steps >= 0] and [rt_min_events >= 0]. *)

val config_to_json : config -> Prete_util.Json.t
(** The flat ["config"] section of a {!Shard.dump}. *)

val config_of_dump :
  Prete_util.Json.t -> (config * string option, string) Stdlib.result
(** The ["config"] section of a {!Shard.dump}, through
    {!check_config}.  A dump whose ["lp_engine"] is not ["lu"] — absent
    or ["revised"] (older than the LU engine), or ["dense"] (the
    dense-tableau engine, now a test oracle) — comes with a note that it
    replays under LU; [prete_cli stream --replay] prints it as one
    [prete: note: …] line on stderr.  [Error] names the first missing,
    mistyped or out-of-range field (an ["lp_engine"] other than those
    four included), or says the value has no config section. *)

(** Pieces {!Shard} and the benchmarks share — not a public API. *)
module Internal : sig
  val epoch_len : int
  (** 900 — seconds per TE period at 1 Hz. *)

  val build_model :
    predictor_kind ->
    Prete.Availability.env ->
    Prete_net.Topology.t ->
    Prete_optics.Hazard.features -> float

  val traffic :
    ?env:Prete.Availability.env -> config ->
    Prete_net.Traffic_model.t option * Prete.Availability.env * float array
    * (int -> float array)
  (** Traffic model, env, standing demands and an epoch's demands.
      Without [env], the env and traffic model last built on this domain
      for the config's (topology, traffic) pair, built now if there is
      none; one entry per domain. *)
end
