(** The per-fiber streaming kernel both engines run (DESIGN §12): one
    fiber's epoch of 1 Hz telemetry, synthesized into a domain-local
    buffer, scheduled through the impaired transport, reassembled by
    the reorder ring into a dense domain-local series and watched by
    the detector — bit for bit what the list and callback path
    ({!Stream.deliver} feeding {!Detector.step}) produces, without
    allocating per sample. *)

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
  fr_samples : int;  (** Scheduled arrivals, duplicates included. *)
  fr_dups : int;
  fr_late : int;
  fr_filled : int;
  fr_segments : int;
  fr_cut_segments : int;
}

val process :
  detector:Detector.config ->
  impairments:Stream.impairments ->
  topo:Prete_net.Topology.t ->
  rng:Prete_util.Rng.t ->
  fb:int ->
  truth:Prete_optics.Hazard.features option ->
  cut:bool ->
  run * float
(** Stream fiber [fb]'s epoch, drawing the trace seed, the onset (when
    [truth] is given: a degrading fiber, which cuts as its segment ends
    when [cut]) and the schedule from [rng], in that order.  Also
    returns the seconds spent in the tick loop and the detector. *)

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
