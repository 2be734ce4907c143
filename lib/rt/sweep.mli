(** Scenario matrix runner.

    Crosses {topology × traffic model × fault profile × policy} into one
    {e portfolio}: each (topology, traffic, profile) combo is one
    one-shard {!Shard.run} on the domain pool, scored under all four
    reaction policies (periodic / stream / stream+detour / instant), with the
    combo's standing-plan Φ, per-cell availability, ladder/detour
    tallies, and solver counters.  Everything in the portfolio — and its
    JSON — is bit-identical at any domain count: the runtime and
    simulator uphold the contract per run, and the JSON carries no wall
    clocks. *)

(** {1 Fault profiles} *)

type profile = {
  pf_name : string;
  pf_impairments : Stream.impairments;  (** Telemetry transport quality. *)
  pf_deadline_s : float option;  (** Solver deadline handed to the runtime. *)
  pf_debounce_s : int;
}

val profiles : profile list
(** Built-in profiles: ["clean"] (default impairments, no deadline) and
    ["lossy"] (12% gaps, 4% dups, 25% reorder with delays up to 6 ticks,
    a 0.25 s solver deadline). *)

val profile_names : string list

val profile_by_name : string -> profile
(** Raises [Invalid_argument] listing the known profiles. *)

val policies : string list
(** Cell policies, in portfolio order:
    ["periodic"; "stream"; "stream+detour"; "instant"]. *)

(** {1 Portfolio} *)

type cell = {
  cl_topology : string;
  cl_traffic : string;
  cl_profile : string;
  cl_policy : string;
  cl_phi : float;
      (** Standing-plan unmet fraction of the combo at baseline demands
          (same value across the combo's four policy cells). *)
  cl_availability : float;
  cl_nines : float;
}

type combo = {
  cb_topology : string;
  cb_traffic : string;
  cb_profile : string;
  cb_flows : int;
  cb_degr_epochs : int;
  cb_cut_epochs : int;
  cb_detections : int;
  cb_reacted : int;
  cb_missed : int;
  cb_alarms : int;
  cb_reactions : int;
  cb_rungs : (string * int) list;
      (** Ladder rung tallies, every rung present (possibly 0). *)
  cb_detour_activations : int;
  cb_detour_rescued : int;
  cb_detour_flows_patched : int;
  cb_solver_solves : int;
  cb_solver_warm_solves : int;
  cb_solver_pivots : int;
  cb_solver_cache_hits : int;
  cb_solver_cache_misses : int;
  cb_solver_ft_updates : int;  (** LU engine: Forrest–Tomlin updates. *)
  cb_solver_bound_flips : int;  (** LU engine: ratio-test bound flips. *)
  cb_solver_lu_fill_nnz : int;  (** LU engine: factor fill-in nonzeros. *)
  cb_solver_presolve_rows : int;  (** LU engine: presolve-removed rows. *)
  cb_solver_presolve_cols : int;  (** LU engine: presolve-removed cols. *)
}

type portfolio = {
  pt_seed : int;
  pt_epochs : int;
  pt_scale : float;
  pt_topologies : string list;
  pt_traffic : string list;
  pt_profiles : string list;
  pt_policies : string list;
  pt_cells : cell list;
      (** One per (topology × traffic × profile × policy), in nested
          matrix order with [policies] innermost. *)
  pt_combos : combo list;
      (** One per (topology × traffic × profile), same nesting. *)
}

val run :
  ?pool:Prete_exec.Pool.t ->
  ?seed:int ->
  ?epochs:int ->
  ?scale:float ->
  topologies:string list ->
  traffic:string list ->
  profiles:string list ->
  unit ->
  portfolio
(** Runs the full matrix (topologies resolved via
    [Topology.by_name], traffic via [Traffic_model.by_name], profiles
    via {!profile_by_name}).  Defaults: seed 123, epochs 12, scale 1.0,
    a private pool.  Raises [Invalid_argument] on an empty axis or an
    unknown name. *)

val to_json : portfolio -> Prete_util.Json.t
(** The portfolio: header, matrix axes, cells, combos.  %.17g floats, no
    wall clocks — prints byte-identically at any domain count. *)
