(** Online degradation detector: EWMA baseline tracker + CUSUM-style
    change-point against the telemetry thresholds, with incremental
    segment features.

    Fed finalized samples in timestamp order (from {!Online.drain}), the
    detector classifies each against the configured baseline exactly as
    {!Prete_optics.Telemetry.classify} does, runs a one-sided CUSUM on
    the EWMA-debiased excess while healthy, and accumulates an
    {!Online.acc} over the current degraded segment:

    - {b Alarm}: fired once per episode, either when the CUSUM score
      crosses [cusum_h] (early warning on slow ramps below the +3 dB
      step) or at the first sample classified Degraded — whichever comes
      first.
    - {b Segment end}: emitted when the run of Degraded-classified
      samples ends (recovery, or a Cut-classified sample); carries the
      accumulated features, which agree bit-exactly with the offline
      {!Prete_util.Timeseries} extraction over the same samples. *)

type config = {
  ewma_alpha : float;  (** Baseline tracker step (healthy samples only). *)
  cusum_k : float;  (** CUSUM drift allowance, dB. *)
  cusum_h : float;  (** CUSUM decision threshold, dB·samples. *)
  fluct_threshold : float;  (** Offline fluctuation threshold (0.01 dB). *)
  degr_threshold : float;  (** {!Prete_optics.Telemetry.degradation_threshold}. *)
  cut_threshold : float;  (** {!Prete_optics.Telemetry.cut_threshold}. *)
}

val default_config : config

val check_config : config -> unit
(** Raise [Invalid_argument] unless [ewma_alpha] is in (0, 1], [cusum_k]
    is finite, [cusum_h] is finite and non-negative, the three
    thresholds are finite, [degr_threshold <= cut_threshold] and
    [fluct_threshold >= 0]: a config outside these ranges (a NaN or
    infinite CUSUM parameter, say) would silently never alarm.  The
    message names the [prete_cli stream] flag that sets the field, or
    the field itself where no flag does. *)

type segment = {
  seg_start : int;  (** Timestamp of the first degraded sample. *)
  seg_end : int;  (** Timestamp of the sample that ended the segment. *)
  seg_degree : float;
  seg_gradient : float;
  seg_fluctuation : int;
  seg_duration_s : int;  (** Degraded samples consumed (1 Hz seconds). *)
  seg_cut : bool;  (** Ended by a Cut-classified sample. *)
}

type event =
  | Degr_start of int  (** First Degraded-classified timestamp. *)
  | Alarm of { at : int; score : float }
  | Segment_end of segment

type t

val create : ?config:config -> baseline:float -> unit -> t
(** Raises [Invalid_argument] on a config {!check_config} rejects. *)

val step : t -> at:int -> v:float -> event list
(** Consume one finalized sample; events in occurrence order. *)

val run : t -> float array -> len:int -> (event -> unit) -> unit
(** [run t series ~len emit] steps through [series.(0)] ..
    [series.(len - 1)] at timestamps [0 .. len - 1] as {!step} does,
    handing each event to [emit] after the step that raised it. *)

val in_segment : t -> bool
val cusum_score : t -> float
val baseline_estimate : t -> float

val current_features : t -> (float * float * int * int) option
(** [(degree, mean_abs_gradient, fluctuation, duration_s)] of the open
    segment so far — what the predictor sees at alarm time, before the
    segment completes. *)
