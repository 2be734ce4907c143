(** Time-series utilities over regularly sampled signals.

    Used by the optical-telemetry layer: per-second transmission-loss traces
    are interpolated (the paper notes fine-grained collection loses samples),
    degradation features are extracted from the degraded segment, and traces
    are downsampled to emulate coarse-grained legacy telemetry (Fig. 20a). *)

type sample = { t : float; v : float }
(** One sample: time in seconds, value (transmission loss, dB). *)

val interpolate_missing : float option array -> float array
(** Fill [None] gaps by linear interpolation between the nearest present
    neighbours; leading/trailing gaps take the nearest present value.
    Raises [Invalid_argument] when no sample is present at all.  The
    option-array form of {!fill_gaps}. *)

val fill_gaps : present:bool array -> float array -> len:int -> int
(** [fill_gaps ~present xs ~len] overwrites, in place, every [xs.(i)]
    with [i < len] and [present.(i)] false by {!interpolate_missing}'s
    rule and arithmetic (the same floats), leaving present entries as
    they are; returns how many it filled.  Allocates nothing.  Raises
    [Invalid_argument] when [len > 0] and no entry is present. *)

val degree : baseline:float -> float array -> float
(** Loss change when entering the degraded state: maximum excursion of the
    segment above [baseline] (paper §3.2 "degree"). *)

val mean_abs_gradient : float array -> float
(** Mean absolute difference between adjacent samples (paper "gradient");
    0 for segments shorter than two samples. *)

val fluctuation_count : ?threshold:float -> float array -> int
(** Number of adjacent-sample changes larger than [threshold] in absolute
    value (default 0.01 dB, the paper's noise filter). *)

val downsample : period:int -> float array -> sample array
(** Keep one sample every [period] seconds (the value at the sampling
    instant, emulating polling), starting at index 0. *)

val max_over_windows : period:int -> float array -> float array
(** Maximum per consecutive window; an alternative aggregation used to
    check downsampling conclusions are not an artifact of point sampling. *)

val moving_average : window:int -> float array -> float array
(** Centered moving average with edge clamping; [window >= 1]. *)
