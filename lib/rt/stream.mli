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

val iter_arrivals :
  Prete_util.Rng.t -> impairments -> len:int -> (int -> int -> unit) -> unit
(** [iter_arrivals rng imp ~len f] draws the transport of a [len]-sample
    trace and calls [f t d] on every arrival in source-timestamp order:
    sample [t] delivered [d] ticks late, [0 <= d <= max_delay].  Per
    sample it draws a gap coin, then (unless gapped) the delivery's
    delay, a duplicate coin and (if heads) the copy's delay, so a sample
    arrives at most twice and both copies land by tick [t + max_delay].
    The only place these draws are made.  They are the outputs
    {!Prete_util.Rng.bernoulli} and {!Prete_util.Rng.int} would draw,
    taken a block at a time ({!Prete_util.Rng.fill_block}) and decoded
    in the loop, and the unused tail of the last block is given back, so
    [rng] ends where the draw-by-draw loop leaves it; [f] must not draw
    from [rng] itself.  Raises [Invalid_argument] on impairments
    {!check_impairments} rejects. *)

val schedule :
  Prete_util.Rng.t -> impairments -> Prete_optics.Telemetry.trace -> arrival list
(** {!iter_arrivals} over the trace as a list, arrival [a_tick = t + d]
    carrying sample [t]'s value.  Delivery order is what an {!Equeue}
    sorts the list by (ties broken by insertion order, i.e. source
    order).  The list path: perfbench's component replay and the tests
    feed it to the reorder ring ({!Online.offer}); the engines' per-fiber
    kernel ({!Fiber.process}) calls {!iter_arrivals} directly. *)
