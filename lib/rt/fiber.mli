(** The per-fiber streaming kernel {!Shard.run} runs (DESIGN §12): one
    fiber's epoch of 1 Hz telemetry, synthesized into a domain-local
    buffer, sent through the impaired transport in one arrival pass
    ({!Stream.iter_arrivals}), gap-filled in place into a dense series
    ({!Prete_util.Timeseries.fill_gaps}) and watched by the detector,
    without allocating per sample.  There is no event queue, no schedule
    and no tick loop.

    The output is bit for bit that of the list path the engines once
    ran ({!Stream.schedule} through an {!Equeue} into the reorder ring
    of {!Online}, feeding {!Detector.step}); the tests keep that path as
    the reference.  Its ring had horizon [max_delay], so no arrival was
    ever late (both copies of sample [t] land by tick [t + max_delay],
    and [t] was finalized only after that tick's arrivals were
    admitted), and its output equals
    {!Prete_util.Timeseries.interpolate_missing} over the timestamps
    that arrived — which is what one presence-marking arrival pass
    (the same draws in the same order) and an in-place gap fill
    compute. *)

val epoch_len : int
(** 900 — seconds per TE period at 1 Hz. *)

(** One fiber's epoch; ticks are epoch-relative. *)
type run = {
  fr_fiber : int;
  fr_truth : Prete_optics.Hazard.features option;  (** [None]: healthy. *)
  fr_onset : int;  (** Degradation onset tick; -1 when healthy. *)
  fr_cut_at : int option;
  fr_events : (int * string * float) list;
      (** [(tick, kind, value)] in order: ["degr_seen"], ["alarm"],
          ["segment_end"]. *)
  fr_alarm : int option;  (** First alarm tick. *)
  fr_alarm_feats : (float * float * int * int) option;
      (** {!Detector.current_features} at the first alarm. *)
  fr_samples : int;  (** Arrivals, duplicates included. *)
  fr_dups : int;
  fr_late : int;  (** Always 0 (see above); kept in the deterministic core. *)
  fr_filled : int;
      (** Gap timestamps filled: [epoch_len] minus those that arrived,
          or 0 when none did (the series is then empty). *)
  fr_segments : int;
  fr_cut_segments : int;
}

(** Wall seconds of one {!process} call, kept out of every core. *)
type walls = {
  synth_s : float;  (** Synthesis into the domain-local buffer. *)
  busy_s : float;  (** The arrival pass, the gap fill and the detector. *)
}

val process :
  detector:Detector.config ->
  impairments:Stream.impairments ->
  topo:Prete_net.Topology.t ->
  rng:Prete_util.Rng.t ->
  fb:int ->
  truth:Prete_optics.Hazard.features option ->
  cut:bool ->
  run * walls
(** Stream fiber [fb]'s epoch, drawing the trace seed, the onset (when
    [truth] is given: a degrading fiber, which cuts as its segment ends
    when [cut]) and the arrivals from [rng], in that order.  Also
    returns the wall time of synthesis and of the rest of the kernel. *)

val record :
  base:int -> ev:(int -> string -> int -> float -> unit) -> run -> Metrics.t list -> unit
(** The fiber's ground-truth and detector events, at global ticks from
    [base], to [ev tick kind fiber value]; its tallies to each registry. *)

val alarm_batches : base:int -> run list -> (int * run list) list
(** The alarms of runs given in fiber order, grouped by global alarm
    tick in (tick, fiber) order. *)

val silent_cuts :
  base:int ->
  ev:(int -> string -> int -> float -> unit) ->
  Metrics.t ->
  Prete.Simulate.Internal.epoch_sample ->
  unit
(** A ["cut_silent"] event and count for every cut fiber of the epoch
    that streamed no degradation. *)
