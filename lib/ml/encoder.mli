(** Feature encoding (Appendix A.2).

    Continuous variables (degree, gradient, fluctuation, length, duration)
    are min-max scaled to [0, 1] with statistics fitted on the training
    set; time of day is one-hot over 24 hourly buckets; vendor is one-hot;
    fiber id and region are passed through as indices for the network's
    trainable embeddings (their one-hot × embedding-matrix product). *)

type t
(** Fitted encoder. *)

type encoded = {
  dense : float array;  (** Scaled numerics ++ time one-hot ++ vendor one-hot. *)
  time_col : int;
      (** Index in [dense] of the time one-hot's 1.0; every other entry
          past the numerics is 0.0 except [vendor_col]. *)
  vendor_col : int;  (** Index of the vendor one-hot's 1.0; [> time_col]. *)
  fiber : int;
  region : int;
}

val num_numeric : int
(** 5: degree, gradient, fluctuation, length_km, duration_s. *)

val fit : Corpus.example array -> t
(** Learn the min-max ranges.  Raises [Invalid_argument] on empty data. *)

val encode : t -> Prete_optics.Hazard.features -> encoded
(** The hour bucket is [floor time_of_day] wrapped into [\[0, 24)], as
    the vendor index is wrapped: [-2.0] is hour 22, [30.0] hour 6.
    Raises [Invalid_argument] on a non-finite [time_of_day]. *)

val dense_width : t -> int
(** Length of the [dense] vector: numerics + 24 + #vendors. *)

val num_fibers : t -> int
val num_regions : t -> int
