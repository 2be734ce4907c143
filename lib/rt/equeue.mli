(** Deterministic discrete-event queue.

    A calendar queue over logical ticks: one FIFO bucket per tick in a
    growable ring, and a low-water cursor at the earliest tick that may
    hold an event.  Events pop in time order, and events scheduled for
    the same time pop in insertion order — the [(time, insertion-seq)]
    contract of a sorted queue, without comparisons: a tick's bucket is
    appended to at its tail and popped at its head.  Time is a logical
    tick — the runtime never reads a wall clock in the hot path — so the
    pop order is a pure function of the push history.

    Push and pop are O(1) amortized and allocate nothing once the
    buffers have grown to the working set.  Memory is linear in the
    span of pending times (latest minus earliest pending tick), which
    suits the runtime's bounded-delay arrival model; it is not meant for
    sparse timestamps millions of ticks apart. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> 'a -> unit
(** Schedule an event.  [time] may be negative, or in the past relative
    to already popped events; the queue itself does not enforce
    monotonicity (the ingest layer decides what a late event means). *)

val pop : 'a t -> (int * 'a) option
(** Earliest [(time, event)], FIFO within a tick; [None] when empty. *)

val iter_until : 'a t -> time:int -> (int -> 'a -> unit) -> unit
(** [iter_until q ~time f] pops every event with time ≤ [time], in pop
    order, calling [f time event] on each as it is popped; allocates
    nothing itself.  Events [f] pushes at times ≤ [time] are delivered by
    the same call, exactly as repeated {!pop}s would. *)

val pop_until : 'a t -> time:int -> (int * 'a) list
(** Pop every event with time ≤ [time], in order ({!iter_until}
    collected into a list). *)

val peek_time : 'a t -> int option
val length : 'a t -> int
val is_empty : 'a t -> bool
