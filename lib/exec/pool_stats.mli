(** Execution-pool telemetry, in the style of {!Prete_lp.Solver_stats}.

    A snapshot of a {!Pool.t}'s counters since creation (or the last
    {!Pool.reset_stats}): how many fork-join jobs ran, how many chunk
    tasks they decomposed into, how many of those tasks were obtained by
    work stealing rather than from the executing lane's own deque, and
    the per-lane busy wall clocks (lane 0 is the caller). *)

type t = {
  domains : int;  (** Lanes in the pool (spawned domains + the caller). *)
  jobs : int;  (** Fork-join jobs submitted (parallel and inline). *)
  tasks : int;  (** Chunk tasks executed across all jobs. *)
  steals : int;  (** Tasks executed by a lane that stole them. *)
  inline_jobs : int;
      (** Jobs that ran sequentially inline: single-lane pools,
          single-chunk inputs, and reentrant calls from inside a running
          job (nested parallelism never deadlocks, it serializes). *)
  busy_s : float array;  (** Per-lane busy wall seconds, index = lane. *)
}

val to_json : t -> Prete_util.Json.t

val pp : Format.formatter -> t -> unit
