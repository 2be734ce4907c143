(** The streaming telemetry runtime: online detection → prediction →
    reaction at 1 Hz over regional shards on the domain pool, with
    batched cross-shard re-solves, explicit backpressure and a detour
    tier below the controller.  Configured by {!Runtime.config}.

    One run replays the {e same} generative epoch ground truth that
    {!Prete.Simulate.run} draws from a seed, at sample granularity.  The
    topology is partitioned into connected fiber {e regions} (a seeded
    graph partition — {!partition}), and every region becomes a shard
    that owns its slice of the pipeline:

    - the 1 Hz telemetry of {e all} its fibers, each streamed through
      the per-fiber kernel {!Fiber.process} (one arrival pass, an
      in-place gap fill and a {!Detector} instance per fiber) —
      healthy fibers stream baseline telemetry too, which is what makes
      throughput a first-class quantity here;
    - its own {!Predictor} server (same underlying model, per-shard
      serving stats) and its own structural plan cache — the shard's
      last-good reactive plans;
    - its own {!Metrics} registry and measured busy seconds.

    Shards run across the existing {!Prete_exec.Pool} as
    per-(epoch × shard) tasks with tick-barrier semantics: every
    shard's loop for epoch [e] completes before the merge stage
    consumes epoch [e], so the merged alarm stream is a pure function
    of the input, not of scheduling.

    {b Cross-shard coalescer.}  Alarms from all shards merge at the
    barrier in (tick, fiber) order and flow into one controller-side
    coalescer: alarms arriving while the controller is free launch a
    batched re-solve immediately (all same-tick alarms, across shards,
    in one solve reusing the warm-start plan cache); alarms arriving
    while it is busy — the modeled {!Prete.Controller.batch_latency}
    window — are staged in the per-shard reaction queues.  When the
    controller frees, the whole backlog coalesces into the next batch.

    {b Backpressure.}  The staging backlog is bounded by
    [config.queue_bound], enforced on the joint occupancy of the
    per-shard queues (so shedding is independent of the shard count —
    see the determinism note).  At the bound the configured
    {!Runtime.shed_policy} fires: [Drop_newest] rejects the arriving
    reaction, [Drop_oldest] evicts the oldest staged one.  Every shed
    reaction is counted ([shed] counter, ["shed"] ring event) and every
    reaction that waited at least one tick is counted as deferred —
    the accounting identity [alarms = debounced + shed + batched]
    ({!accounted}) is gated in the tests and the [stream_scale] bench.

    {b Detour tier.}  When [config.detour] is set, every alarm that
    survives the debounce installs its fiber's precomputed detour patch
    ({!Prete_net.Detours} via {!Prete.Resilience.detour_patch}) at the
    alarm tick plus a modeled O(affected-flows) switch-over, before the
    coalescer sees the reaction; no solver sits on that path, and the
    warm reactive plan replaces the patch on arrival.

    {b Evaluation.}  Four reaction policies are scored on the identical
    sample path with {!Prete.Simulate.Internal.eval_epochs}'s
    arithmetic, over one plan table (the plan {e contents} are
    {!Prete.Simulate.run}'s, so the gaps isolate reaction {e timing}):

    - {e instant}: the plan for an epoch's degrading fiber is always in
      place — bitwise equal to {!Prete.Simulate.run}'s availability on
      the same seed, scheme and env;
    - {e stream}: the reactive plan counts only for epochs where the
      pipeline installed it before the fiber's cut tick (or before epoch
      end when no cut follows);
    - {e periodic}: no intra-epoch reaction — the base plan serves every
      epoch;
    - {e stream+detour} (armed tier only): stream, plus the patch for
      exactly the epochs whose predicted cut materialized but whose
      reactive plan missed the deadline, when the patch installed before
      the cut — so [s_avail_detour >= s_avail_stream] by construction.
      It beats stream only in runs where a state-fiber cut is missed.

    {b Determinism.}  The deterministic core is bit-identical at any
    (shards × domains) combination: fiber streams are drawn from
    per-(epoch, fiber) RNG substreams split in a fixed global order
    (never from a shard-local stream), the merge consumes shard outputs
    in (epoch, fiber) order behind the tick barrier, the coalescer sees
    the partition-independent merged alarm stream, plan-cache keys are
    target-salted so the per-shard caches partition the key space
    exactly as one global cache would, and the backlog bound is joint
    rather than per-queue.  Partition-{e dependent} quantities
    (per-shard tallies, cross-region batch counts, predictor swap
    totals, busy seconds) live in the per-shard registries and the aux
    registry, which the core excludes. *)

(** {1 Partitioning} *)

type partition = {
  pt_shards : int;  (** Regions actually built ([min shards num_fibers]). *)
  pt_seed : int;
  pt_region_of : int array;  (** Fiber id → region id. *)
  pt_regions : int array array;  (** Region id → sorted member fiber ids. *)
}

val partition : Prete_net.Topology.t -> shards:int -> seed:int -> partition
(** Seeded graph partition of the fiber set into [min shards num_fibers]
    regions — a pure function of (topology, shards, seed); no pool, no
    clock, no global state.  Seed fibers are picked by one RNG draw
    plus farthest-first spreading over the fiber-adjacency graph
    (fibers sharing an endpoint), then regions grow smallest-first,
    claiming the least unclaimed adjacent fiber, so sizes stay balanced
    while every region is connected (guaranteed on connected
    topologies — all built-in ones).  Raises [Invalid_argument] for
    non-positive [shards]. *)

(** {1 The coalescer}

    Exposed for direct unit testing; {!run} drives it with the real
    controller. *)

module Coalescer : sig
  type 'a t

  val create :
    queue_bound:int -> policy:Runtime.shed_policy -> unit -> 'a t
  (** Raises [Invalid_argument] for negative [queue_bound] (0 is legal:
      nothing may wait — every reaction arriving at a busy controller
      sheds). *)

  val offer :
    'a t ->
    now:int ->
    dispatch:(int -> 'a list -> int) ->
    shed:(tick:int -> 'a -> unit) ->
    'a list ->
    unit
  (** Deliver the reactions arriving at tick [now] (one call per tick,
      [now] non-decreasing across calls).  Any backlog whose wait ended
      before [now] is dispatched first.  [dispatch tick batch] performs
      the batched re-solve and returns its completion tick (the
      controller stays busy until then; a return ≤ [tick] still
      occupies it for one tick).  [shed] is told about every reaction
      dropped at the bound. *)

  val flush :
    'a t -> dispatch:(int -> 'a list -> int) -> unit
  (** Drain the remaining backlog (the controller catches up), batch by
      batch at its modeled free ticks. *)

  val busy_until : 'a t -> int
  val backlog : 'a t -> int

  val stats : 'a t -> int * int * int * int * int
  (** [(offered, batches, batched, shed, deferred)]: reactions offered,
      batched solves launched, reactions served by them, reactions
      shed, reactions that waited ≥ 1 tick before being served. *)
end

(** {1 Running} *)

type shard_stat = {
  ss_region : int;
  ss_fibers : int;  (** Member fibers. *)
  ss_samples : int;  (** Telemetry samples this shard ingested. *)
  ss_alarms : int;
  ss_busy_s : float;
      (** Measured wall seconds inside this shard's per-fiber kernels
          (arrival pass, gap fill, detector; synthesis excluded) — the
          denominator of the shard's sustained rate.  Excluded from the
          core. *)
  ss_metrics : Metrics.t;
      (** The shard's own registry.  Its wall section holds ["loop"]
          ([ss_busy_s]) and ["synth"] (the kernels' synthesis seconds), so
          a dump splits the kernel's time by stage; walls never enter the
          core. *)
}

type result = {
  s_config : Runtime.config;
  s_partition : partition;
  s_flows : int;
  s_epochs : int;
  s_degr_epochs : int;
  s_cut_epochs : int;
  s_detections : Runtime.detection list;  (** Chronological. *)
  s_reacted_in_time : int;
  s_missed : int;
  s_avail_stream : float;
  s_avail_periodic : float;
  s_avail_instant : float;
  s_avail_detour : float option;
      (** stream+detour availability; [None] when the tier is
          disarmed. *)
  s_alarms : int;
  s_batches : int;  (** Batched controller re-solves launched. *)
  s_batched : int;  (** Reactions served by them. *)
  s_shed : int;
  s_deferred : int;
  s_debounced : int;
  s_metrics : Metrics.t;  (** Global registry — part of the core. *)
  s_aux : Metrics.t;
      (** Partition-dependent execution stats (cross-region batches,
          predictor swaps summed over servers, ...) — never in the
          core. *)
  s_ring : Ring.t;
  s_shards : shard_stat array;
  s_solver : Prete_lp.Solver_stats.t;
}

val run :
  ?pool:Prete_exec.Pool.t -> ?env:Prete.Availability.env -> Runtime.config -> result
(** Stream [config.epochs] TE periods of the full fiber fleet through
    [config.shards] regional shards.  Ground truth is the exact sample
    path {!Prete.Simulate.run} draws from [config.seed].  [env] defaults
    to the env this domain built last for the config's (topology,
    traffic) pair ({!Runtime.Internal.traffic}): a later run reuses it
    and its memos of rerouted tunnel sets and cold PreTE plans, which
    are pure functions of their keys, so the result is the same as on a
    fresh env.  Pass your own env to share it with other experiments
    ({b note}: {!replay} always uses the default env, so dumps of
    custom-env runs won't match).  Raises [Invalid_argument] for a
    config {!Runtime.check_config} rejects. *)

val accounted : result -> bool
(** [s_alarms = s_debounced + s_shed + s_batched] — no reaction
    unaccounted for. *)

val aggregate_rate : result -> float
(** Sustained ingest bandwidth of the fleet, samples/second: the sum
    over shards of [ss_samples / ss_busy_s].  Each shard's rate is
    measured against its own busy seconds, so the sum is the rate the
    fleet sustains when every shard owns an execution lane — the
    quantity the [stream_scale] bench gates (×flows for the
    fibers×flows form). *)

val tick_rate : result -> float
(** Sustained ticks/second of the slowest shard (the tick barrier's
    critical path): [min] over shards of processed ticks / busy
    seconds. *)

(** {1 Dump / replay} *)

val dump : result -> Prete_util.Json.t
(** The whole run: ["prete_rt_shard"] header, flat ["config"] section,
    deterministic ["core"] section (summary, availabilities, global
    metrics without walls, event log — no shard count anywhere inside),
    the per-shard section, aux metrics, solver and wall sections. *)

val deterministic_core : result -> string
(** The ["core"] object alone, printed — byte-comparable across any
    (shards × domains) combination and replays of the same seed. *)

val replay :
  ?pool:Prete_exec.Pool.t -> Prete_util.Json.t ->
  (result * bool, string) Stdlib.result
(** [replay dump] re-runs the dumped configuration and returns the
    fresh result plus whether its core equals the dumped ["core"] as a
    value — the replayability check behind [@stream-smoke].  [Error] as
    {!Runtime.config_of_dump}, or for a dump with no core section.  A
    dump of the retired single-loop engine (header ["prete_rt"]) reads,
    but its core has another shape, so it replays as a mismatch. *)
