(** Traffic-model library: pure seeded demand-sequence generators.

    Where {!Traffic} bakes one gravity/diurnal matrix set, this module
    generates {e workload classes} for the scenario sweeps: gravity
    baselines, diurnal cycles, flash crowds, and coremelt-style
    every-link flood surges.  A model is a small set of demand vectors
    ({i classes}) plus a periodic schedule mapping epochs to classes —
    everything derived from one seeded {!Prete_util.Rng} stream drawn in
    a fixed order, so the same [(kind, seed, topology)] always yields a
    bit-identical demand sequence.

    The simulator consumes models through
    [Simulate.Internal.eval_epochs_classes], the runtime through its
    [traffic] config field; both build their environment over the model
    via {!to_traffic}. *)

type kind = Gravity | Diurnal | Flash_crowd | Coremelt

val kind_name : kind -> string
(** ["gravity"], ["diurnal"], ["flash"], ["coremelt"]. *)

val all_kinds : kind list

val all_names : string list
(** [List.map kind_name all_kinds]. *)

type t = {
  tm_name : string;  (** ["<kind>"] or ["<kind>:<seed>"]. *)
  tm_kind : kind;
  tm_seed : int;
  tm_pairs : (Topology.node * Topology.node) list;
      (** Flow endpoints; baseline flows first, then (coremelt only) one
          attack flow per fiber span. *)
  tm_baseline_flows : int;
      (** Number of leading flows carrying the baseline matrix. *)
  tm_classes : float array array;
      (** Demand classes (Gbps per flow at scale 1); class 0 is the
          baseline. *)
  tm_schedule : int array;
      (** Periodic epoch → class map (period = length). *)
  tm_phase : int;  (** Diurnal peak hour; 0 for the other kinds. *)
  tm_surge : (int * int) option;
      (** Surge window [\[start, stop)) in schedule phase, when the
          model has one. *)
}

val name : t -> string
val num_flows : t -> int
val period : t -> int

val class_of : t -> int -> int
(** Class index active at an epoch (pure; negative epochs wrap). *)

val demands : t -> scale:float -> epoch:int -> float array
(** Fresh per-flow demand vector for the epoch's class, scaled.  Raises
    [Invalid_argument] on a negative scale. *)

val baseline : t -> float array
(** Copy of class 0 (unscaled). *)

val gravity_parts : seed:int -> Topology.t -> float array * float array array
(** Seeded site masses [m] and the full gravity matrix: entry (i,j) is
    [m_i·m_j/S] off the diagonal (S total mass), zero on it, so row i
    and column i both sum to [m_i·(S − m_i)/S]. *)

val gravity : ?seed:int -> Topology.t -> t
(** Static gravity baseline: one class, calibrated like
    [Traffic.generate] to 0.75 busiest-link utilization at scale 1. *)

val diurnal : ?seed:int -> Topology.t -> t
(** 24-hour cosine cycle over the gravity baseline with a seeded peak
    hour ([tm_phase]) and amplitude: multiplier is exactly 1.0 at the
    peak, 1 − 2·amp at the trough. *)

val flash_crowd : ?seed:int -> Topology.t -> t
(** Gravity baseline plus a seeded surge window ([tm_surge]) during
    which ~1/8 of the flows burst to 4–8× their baseline demand.
    Outside the window the demand vector is exactly the baseline. *)

val coremelt : ?seed:int -> Topology.t -> t
(** Coremelt-style every-link flood: one attack flow per fiber span
    between the span's endpoints, flooding at γ ∈ [0.3, 0.7] of the
    span's total IP capacity during the surge window and exactly zero
    outside it.  Baseline flows are untouched. *)

val generate : ?seed:int -> kind -> Topology.t -> t

val by_name : string -> Topology.t -> t
(** ["gravity"], ["diurnal"], ["flash"], ["coremelt"], each optionally
    suffixed [":<seed>"] (e.g. ["flash:7"]).  Raises [Invalid_argument]
    listing the known model names otherwise. *)

val to_traffic : t -> Traffic.t
(** Bridge for [Availability.make_env ~traffic]: 24 hourly matrices
    replaying the model's schedule (all built-in periods divide 24),
    with the model's pairs and baseline. *)
