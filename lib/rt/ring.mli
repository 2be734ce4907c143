(** Bounded event-trace ring buffer.

    The runtime logs one entry per pipeline event (degradation onset,
    alarm, reaction, install, cut, segment end, ...).  The buffer keeps
    the most recent [capacity] entries; older entries are counted as
    dropped, never silently lost from the tallies.  Sequence numbers are
    assigned at push in arrival order, so the dumped log is a total
    order — the determinism contract compares it byte-for-byte. *)

type entry = {
  seq : int;  (** Global arrival index (monotone). *)
  tick : int;  (** Logical second the event happened at. *)
  kind : string;  (** Machine-friendly tag, e.g. ["alarm"]. *)
  fiber : int;  (** Subject fiber; [-1] when not fiber-scoped. *)
  value : float;  (** Event payload (score, latency, batch size...). *)
}

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] for non-positive capacity. *)

val push : t -> tick:int -> kind:string -> fiber:int -> value:float -> unit

val push_by_tick : t -> (int * string * int * float) list -> unit
(** Push [(tick, kind, fiber, value)] events in tick order; events of
    one tick keep their list order. *)

val entries : t -> entry array
(** Retained entries, oldest first. *)

val total : t -> int
(** Entries ever pushed. *)

val dropped : t -> int
(** [max 0 (total - capacity)] — entries overwritten by later pushes.
    The runtimes surface this as the [ring_dropped] metrics counter, and
    the tier-1 stream tests assert it stays zero at the default
    capacity: a dropped entry means the dumped event log is no longer
    the full total order. *)

val overflowed : t -> bool
(** [dropped t > 0]. *)

val to_json : t -> Prete_util.Json.t
(** JSON array of the retained entries (oldest first) — the replayable
    event log. *)
