(** CART decision tree baseline (Table 5's "DT").

    Binary tree with axis-aligned threshold splits chosen by Gini impurity
    over the numeric encoding of all degradation features (including fiber
    id as an ordinal, which is how off-the-shelf tree packages treat it).
    Leaves store the training positive fraction, so the tree also yields a
    probability for Fig. 14-style error comparisons. *)

type t

type config = {
  max_depth : int;  (** Default 8. *)
  min_samples_leaf : int;  (** Default 5. *)
  max_thresholds : int;  (** Candidate split thresholds per feature (32). *)
}

val default_config : config

val train : ?config:config -> Corpus.example array -> t
(** Raises [Invalid_argument] on an empty training set. *)

val predict_proba : t -> Prete_optics.Hazard.features -> float
val predict_label : t -> Prete_optics.Hazard.features -> bool

val depth : t -> int
val num_leaves : t -> int
