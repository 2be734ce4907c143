(** Synthetic 1 Hz optical telemetry traces and granularity analysis.

    Reproduces the trace-level artifacts of the measurement study: the
    transmission-loss time series of Figs. 1a and 4b (healthy → degraded →
    cut), and the data-granularity experiment of Fig. 20a (coarse sampling
    misses the short-lived degradations that make cuts predictable).

    Conventions (after OpTel): a fiber's healthy transmission loss is its
    baseline; a {e degradation} raises loss by 3–10 dB (decodable but
    SNR-impaired); a {e cut} raises loss by ≥10 dB. *)

type state = Healthy | Degraded | Cut

val baseline_loss : Prete_net.Topology.t -> int -> float
(** Healthy transmission loss (dB) of a fiber, length-dependent. *)

val degradation_threshold : float
(** +3 dB over baseline. *)

val cut_threshold : float
(** +10 dB over baseline. *)

val classify : baseline:float -> float -> state

type trace = {
  t0 : float;  (** Start time (s). *)
  samples : float array;  (** 1 Hz loss samples (dB). *)
  baseline : float;
}

val synthesize :
  ?seed:int ->
  baseline:float ->
  healthy_s:int ->
  ?degradation:Hazard.features ->
  ?cut_at_s:int ->
  total_s:int ->
  unit ->
  trace
(** Build a trace: [healthy_s] seconds of noisy baseline; optionally a
    degradation segment whose degree/gradient/fluctuation follow the given
    features; optionally a cut at [cut_at_s] (loss jumps ≥10 dB for the
    remainder).  Total length [total_s]. *)

val synthesize_into :
  ?seed:int ->
  baseline:float ->
  healthy_s:int ->
  ?degradation:Hazard.features ->
  ?cut_at_s:int ->
  float array ->
  unit
(** [synthesize_into ... samples] writes into [samples] exactly the
    samples {!synthesize} returns for [~total_s:(Array.length samples)]:
    the same RNG draws in the same order, the same float expressions.
    It allocates no sample array, so a streaming loop can reuse one
    buffer for every trace of its length. *)

val states : trace -> state array
(** Per-second classification of the trace. *)

val observed_states : granularity_s:int -> trace -> (float * state) array
(** States visible when polling every [granularity_s] seconds — what a
    legacy minute-level telemetry system sees (Fig. 4b's black circles). *)

val degradation_visible : granularity_s:int -> trace -> bool
(** True when at least one polled sample lands in the degraded state
    before any cut sample. *)

type fault =
  | Dropout of { start_s : int; len_s : int }
      (** The monitor reports nothing; downstream sees baseline readings,
          masking whatever the fiber is actually doing. *)
  | Stuck of { start_s : int; len_s : int }
      (** Samples frozen at the last value before [start_s]. *)
  | Burst of { start_s : int; len_s : int; amp : float }
      (** Additive Gaussian noise of standard deviation [amp] dB. *)

val corrupt : ?seed:int -> fault list -> trace -> trace
(** Apply monitoring faults to a trace (fresh copy; the input is not
    mutated).  Windows are clamped to the trace; later faults in the
    list see the effect of earlier ones.  These are the trace-level
    analogues of the epoch-level fault classes in the core library's
    [Faults] module, used to test what {!classify} and
    {!degradation_visible} conclude from a faulty monitor. *)

val coverage_occurrence :
  ?seed:int -> granularity_s:int -> Dataset.t -> float * float
(** Monte-Carlo over the event log with a random polling phase per event:
    [(coverage, occurrence)] where coverage = detected predictable cuts /
    all cuts and occurrence = detected predictable cuts / all degradations
    (Fig. 20a).  A predictable cut is detected when a poll lands inside
    its degradation window before the cut instant. *)
