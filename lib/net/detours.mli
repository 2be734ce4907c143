(** Precomputed per-fiber detours: the localized fast-recovery tier.

    For every fiber, and every tunnel that traverses it, this module
    precomputes a {e bypass}: the tunnel's path with the span that rides
    the fiber replaced by a fiber-avoiding segment (falling back to a
    whole-path replacement when no loop-free segment exists).  When a
    fiber is predicted to fail, {!splice} moves allocation from the
    doomed tunnels onto their bypasses — touching only the affected
    tunnels, bounded by the capacity headroom left on the bypass links —
    with no LP solve anywhere on the path.  The patched allocation is
    indexed by an {e extended} tunnel set (base tunnels plus one detour
    tunnel per rerouted base tunnel), so downstream validation and
    evaluation treat it like any other plan.

    Everything here is a pure function of topology + tunnel set + failed
    fiber: tables are built in fiber/tunnel-id order from deterministic
    shortest-path queries, so detour choice is identical at any domain
    count (the bit-identical-replay contract of the streaming runtime).

    The expensive part of a rebuild — the per-tunnel bypass search — is
    memoized across {!rebuild} calls keyed by (fiber, endpoints, path),
    so an incremental tunnel-set change only pays for the tunnels that
    actually changed. *)

type entry = {
  e_tunnel : int;  (** Affected base tunnel id. *)
  e_detour : int;  (** Its detour tunnel id in the extended set. *)
  e_links : Routing.path;  (** The full detour path. *)
  e_bottleneck : float;  (** Min link capacity along the detour (Gbps). *)
}

type per_fiber = {
  pf_fiber : int;
  pf_ts : Tunnels.t;
      (** Extended tunnel set: the base tunnels followed by one detour
          tunnel per entry (same flows, extended [of_flow]). *)
  pf_entries : entry list;  (** Ascending [e_tunnel]. *)
  pf_flows : int list;  (** Flows with at least one entry, ascending. *)
}

type t

val build : ?fibers:(int -> bool) -> Tunnels.t -> t
(** Precompute detour tables for every fiber of the tunnel set's
    topology that [fibers] accepts (default: all).  A fiber it rejects,
    with no traversing tunnel, or none of whose tunnels admit a
    fiber-avoiding bypass, gets no table.  Each fiber's table depends
    only on the tunnel set, so a one-fiber build holds that fiber's
    table of the full build (about 0.13 ms against 9 ms on TWAN). *)

val rebuild : t -> Tunnels.t -> t
(** [rebuild t ts] is {!build}[ ts] except that bypass searches already
    answered by [t] (same fiber, same endpoints, same path) are reused
    instead of recomputed — the incremental path for tunnel-set changes
    (e.g. Algorithm 1 updates).  The result is structurally identical to
    a fresh {!build}. *)

val base : t -> Tunnels.t
(** The tunnel set the tables were built for. *)

val for_fiber : t -> int -> per_fiber option
(** The fiber's detour table; [None] when out of range, untraversed, or
    unbypassable. *)

val affected_flows : t -> int -> int list
(** Flows with a detour entry for the fiber (ascending); [[]] when
    {!for_fiber} is [None]. *)

val splice :
  ?headroom:float ->
  t ->
  fiber:int ->
  alloc:float array ->
  (Tunnels.t * float array * int * int) option
(** [splice t ~fiber ~alloc] evacuates every tunnel through [fiber]
    that has a precomputed detour — its allocation is zeroed (during
    the cut it delivers nothing either way) — and moves as much of it
    as fits onto the detour.  The move is bounded by the residual
    capacity of the detour's links under the {e surviving} allocation:
    evacuated old-path load is excluded, which is what lets detours
    activate under a saturated optimal plan (the only spare capacity is
    the capacity the failure itself frees), and a link is never filled
    past [headroom] (default 0.9) of its capacity.  Entries are
    processed in tunnel-id order, so the result is deterministic.

    Returns [(extended_ts, patched_alloc, tunnels_rerouted,
    flows_patched)], or [None] when the fiber has no table, [alloc] is
    not indexed by the base tunnel set, or no allocation could be moved.
    The patched allocation never exceeds any link's capacity if [alloc]
    did not, per-flow totals never increase, and each flow's surviving
    allocation (tunnels avoiding [fiber], detours included) never
    decreases — work is O(affected tunnels × detour length),
    independent of any LP. *)

val install_latency_s : t -> fiber:int -> float
(** Modeled switch-over latency for activating the fiber's detours:
    a constant base plus a per-affected-flow term — O(affected-flows)
    by construction, no solver anywhere. *)

val latency_bound_s : t -> float
(** Upper bound of {!install_latency_s} over all fibers (the base term
    plus the per-flow term at the total flow count). *)
