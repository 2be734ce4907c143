(** Failure-probability calibration (§4.1, Eqn. 1).

    At each TE period every fiber gets a failure probability for the next
    period.  PreTE's calibration is conditional on the degradation signal:

    {v
      p = p_NN             when the fiber is degrading
      p = (1 − α) · p_i    otherwise        (Theorem 4.1)
    v}

    Baselines plug in other estimators: the static p_i (TeaVar and the
    other prior schemes), the oracle (1 if the fiber will actually cut,
    0 otherwise), or a non-NN predictor (Table 5 / Fig. 15 comparisons). *)

type estimator =
  | Static
      (** Always p_i — degradation-oblivious (TeaVar/FFC/ARROW/Flexile). *)
  | Calibrated of (Prete_optics.Hazard.features -> float)
      (** Eqn. 1 with the given predictor for degrading fibers. *)
  | Oracle
      (** Future knowledge: 1 for fibers that will cut, 0 otherwise. *)

type observation = {
  degraded : (int * Prete_optics.Hazard.features) list;
      (** Fibers currently degrading, with the observed event features. *)
  will_cut : int list;
      (** Ground truth for the next period — visible to [Oracle] only. *)
}

val probabilities :
  estimator -> Prete_optics.Fiber_model.t -> observation -> float array
(** Per-fiber failure probability for the next TE period. *)
