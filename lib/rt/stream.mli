(** Impaired arrival schedules for telemetry traces.

    Turns a synthesized 1 Hz trace into the arrival sequence a collector
    actually sees: each sample may be dropped (a gap), delayed past its
    source tick (reordering), or delivered twice (duplication).  All
    draws come from the caller's RNG substream, so a fiber's schedule is
    a pure function of its seed — the determinism contract's only
    requirement on the transport layer. *)

type impairments = {
  gap_rate : float;  (** P(sample never arrives). *)
  dup_rate : float;  (** P(an extra copy arrives). *)
  reorder_rate : float;  (** P(delivery is delayed ≥ 1 tick). *)
  max_delay : int;  (** Max delivery delay, ticks (the ingest horizon). *)
}

val no_impairments : impairments
val default_impairments : impairments
(** 2% gaps, 1% dups, 5% reordered with delays up to 3 ticks. *)

type arrival = {
  a_tick : int;  (** Delivery tick. *)
  a_t : int;  (** Source timestamp. *)
  a_v : float;  (** Sample value. *)
}

val schedule :
  Prete_util.Rng.t -> impairments -> Prete_optics.Telemetry.trace -> arrival list
(** Arrivals in source-timestamp order (delivery order is what the event
    queue sorts by; ties broken by insertion order, i.e. source order).
    The list form of {!schedule_into}: same draws, same arrivals. *)

(** {1 Flat schedules}

    The same schedule as parallel tick / timestamp / value arrays in a
    reusable buffer, and a cursor that delivers it tick by tick without
    an event queue or any per-arrival allocation. *)

type flat

val flat_create : unit -> flat
(** An empty buffer; it grows to the largest schedule written into it. *)

val domain_buffer : unit -> flat
(** The calling domain's own buffer, for a caller that schedules and
    delivers one trace at a time. *)

val schedule_into :
  flat -> Prete_util.Rng.t -> impairments -> Prete_optics.Telemetry.trace -> unit
(** Overwrite the buffer with the trace's arrivals: exactly the RNG draws
    of {!schedule}, in the same order, giving the same arrivals in the
    same order.  Records [max_delay] for {!offer_due}. *)

val length : flat -> int
(** Arrivals in the buffer. *)

val get : flat -> int -> arrival
(** [get fl i] is the [i]-th arrival, [0 <= i < length fl]. *)

val offer_due : flat -> cursor:int -> now:int -> (int -> float -> unit) -> int
(** [offer_due fl ~cursor ~now f] calls [f t v] on every arrival
    delivered at tick [now], in schedule order, and returns the cursor
    for tick [now + 1].  Start at cursor 0 and call once per tick,
    [now] = 0, 1, 2, ...: the calls then follow the [(tick, insertion)]
    order of an {!Equeue} the arrivals were pushed into in schedule
    order.  This holds because arrivals are in timestamp order and each
    lands at most [max_delay] ticks after its timestamp. *)

val deliver : flat -> Online.ingest -> last:int -> (int -> float -> unit) -> unit
(** [deliver fl ing ~last f] streams the buffer's schedule, for a trace
    whose last timestamp is [last], through [ing]: on each tick from 0
    to [last + max_delay] it offers that tick's arrivals ({!offer_due})
    and then drains into [f]; if anything arrived it finally flushes
    through [last].  [ing]'s horizon should be the schedule's
    [max_delay]. *)
