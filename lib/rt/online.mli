(** Online sample ingest and O(1)-per-sample incremental feature
    extraction.

    Two guarantees, both exercised by the qcheck suite in [test_rt]:

    - {b Gap parity}: feeding the present samples of a trace (in any
      arrival order within the reorder horizon) and draining produces
      exactly the array {!Prete_util.Timeseries.interpolate_missing}
      computes from the same present/missing pattern — the same floats,
      not approximately.  Interior gaps use the identical lerp
      arithmetic between the nearest present neighbours; leading and
      trailing gaps take the nearest present value.
    - {b Feature parity}: an accumulator fed a segment's samples in
      timestamp order reports, at any point, exactly what the offline
      {!Prete_util.Timeseries} functions ([degree], [mean_abs_gradient],
      [fluctuation_count]) return on the prefix consumed so far — the
      accumulators replicate the offline folds' operation order, so
      equality is bit-exact, not within a tolerance. *)

(** {1 Incremental features} *)

type acc

val acc_create : ?fluct_threshold:float -> baseline:float -> unit -> acc
(** [fluct_threshold] defaults to the offline default (0.01 dB). *)

val acc_add : acc -> float -> unit
(** O(1). *)

val acc_count : acc -> int
(** Samples consumed — the segment duration in seconds at 1 Hz. *)

val degree : acc -> float
val mean_abs_gradient : acc -> float
val fluctuation_count : acc -> int

(** {1 Reorder-tolerant ingest with online gap interpolation}

    Per-fiber stream assembly: samples arrive tagged with their source
    timestamp, possibly late (bounded by [horizon] ticks), duplicated,
    or never (a gap).  {!drain} finalizes every timestamp at least
    [horizon] ticks behind the current tick — by then any genuine sample
    for it must have arrived — emitting present samples as-is and
    filling gaps by interpolating against the nearest present
    neighbours ({!Prete_util.Timeseries.interpolate_missing}'s exact
    arithmetic).  An interior gap is held until its right neighbour
    arrives; {!flush} closes the stream, filling a trailing gap with
    the last present value.

    The reorder window is a flat ring of values and presence flags
    indexed by timestamp modulo its capacity, which doubles whenever the
    pending span (latest offered timestamp minus the next one to
    finalize) outgrows it: {!offer} is O(1) amortized and allocation
    free, and memory is linear in that span.

    The ring serves the list path ({!Stream.schedule} through an
    {!Equeue}, as perfbench's component replay times it) and is the
    tests' reference.  The engines' per-fiber kernel ({!Fiber.process})
    does not run it: there the horizon is always [max_delay], so no
    arrival is late, a duplicate carries the value already admitted, and
    the ring's output is {!Prete_util.Timeseries.fill_gaps} over the
    arrived timestamps, which the kernel computes directly. *)

type ingest

val ingest_create : ?horizon:int -> unit -> ingest
(** [horizon] (default 3) is the maximum arrival delay in ticks;
    arrivals later than that are counted [late] and dropped. *)

val offer : ingest -> t:int -> v:float -> unit
(** Deliver a sample for source timestamp [t]. *)

val drain_iter : ingest -> now:int -> (int -> float -> unit) -> unit
(** [drain_iter g ~now f] calls [f timestamp value] on every finalized
    sample in timestamp order, gaps filled.  Never emits a timestamp
    twice.  [f] runs once the batch is finalized; it must not offer to
    [g]. *)

val flush_iter : ingest -> upto:int -> (int -> float -> unit) -> unit
(** End of stream: finalize everything through timestamp [upto]
    (trailing gaps take the last present value), calling [f] as
    {!drain_iter} does.  Raises [Invalid_argument] if no sample was ever
    present. *)

val drain : ingest -> now:int -> (int * float) list
(** {!drain_iter} collected into a list of [(timestamp, value)]. *)

val flush : ingest -> upto:int -> (int * float) list
(** {!flush_iter} collected into a list. *)

val dups : ingest -> int
val late : ingest -> int
val filled : ingest -> int
(** Gap timestamps synthesized by interpolation so far. *)
