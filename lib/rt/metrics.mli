(** Runtime metrics registry: counters, gauges, log-scale histograms and
    per-stage wall timings.

    Everything except the walls is driven by logical quantities (tick
    counts, modeled latencies, event tallies), so the deterministic
    snapshot — {!to_json} with [walls:false] — is bit-identical across
    runs of the same seed at any domain count.  Wall timings are real
    measured seconds and live in a separate section that determinism
    comparisons exclude.

    Histograms bucket by binary exponent: a value [v > 0] lands in the
    bucket [e] with [2^(e-1) <= v < 2^e] (computed with [Float.frexp],
    no transcendental rounding), non-positive values in a dedicated
    underflow bucket.  All operations are mutex-guarded. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** Reading an unknown counter returns 0. *)

val set_gauge : t -> string -> float -> unit
val gauge : t -> string -> float option

val observe : t -> string -> float -> unit
(** Add a sample to a histogram (created on first use). *)

val hist_count : t -> string -> int
val hist_sum : t -> string -> float
val hist_mean : t -> string -> float
val hist_max : t -> string -> float
(** 0 when the histogram is empty or unknown. *)

val hist_quantile : t -> string -> float -> float
(** [hist_quantile t name q] estimates the [q]-quantile ([q] in [0, 1],
    e.g. 0.5 / 0.99) from the binary-exponent buckets: the nearest-rank
    bucket is found by cumulative count and the value is linearly
    interpolated inside it, clamped to the exact observed [min]/[max].
    Within a factor of 2 of the true sample quantile by construction,
    and — like every non-wall quantity here — deterministic, so the
    bench throughput/latency gates can compare it across runs.  0 when
    the histogram is empty or unknown; the underflow bucket reports
    [min(h_min, 0)].  Raises [Invalid_argument] for [q] outside
    [0, 1]. *)

val observe_wall : t -> string -> float -> unit
(** Add a sample to a wall-clock histogram (created on first use).
    Same bucketing as {!observe}, but the histogram lives with the wall
    timings: it is serialized only when [to_json ~walls:true], so
    measured latencies (e.g. model hot-swap times) never perturb the
    deterministic core. *)

val wall_hist_mean : t -> string -> float
val wall_hist_max : t -> string -> float
(** 0 when the wall histogram is empty or unknown. *)

val add_wall : t -> string -> float -> unit
(** Accumulate measured wall seconds under a stage name. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk, charging its wall time to the stage. *)

val walls_json : t -> Prete_util.Json.t
(** Just the measured wall-seconds map, as a JSON object. *)

val to_json : ?walls:bool -> t -> Prete_util.Json.t
(** Stable snapshot (names sorted).  [walls] (default [true]) includes
    the measured [wall_s] section; pass [false] for the deterministic
    core used by replay and cross-domain comparisons. *)
