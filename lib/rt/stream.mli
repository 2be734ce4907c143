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

val check_impairments : impairments -> unit
(** Raises [Invalid_argument] naming the first rate outside [0, 1] (NaN
    included) or a negative [max_delay]. *)

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
    same order.  Records [max_delay] for {!offer_due}.  Raises
    [Invalid_argument] on impairments {!check_impairments} rejects. *)

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

val deliver_into : flat -> Online.ingest -> last:int -> float array -> int
(** [deliver_into fl ing ~last series] streams the schedule of a trace
    ending at [last] through the fresh ingest [ing], whose horizon should
    be [max_delay]: each tick from 0 to [last + max_delay] offers its
    arrivals in {!offer_due}'s order, then drains; if anything arrived it
    finally flushes through [last].  The value finalized for [t] lands in
    [series.(t)]; returns how many were ([last + 1], or 0 when nothing
    arrived).  Allocates nothing per arrival. *)

val deliver : flat -> Online.ingest -> last:int -> (int -> float -> unit) -> unit
(** {!deliver_into} a fresh array, then [f t series.(t)] on every
    finalized timestamp in order. *)
