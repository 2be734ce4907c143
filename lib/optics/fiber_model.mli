(** Per-fiber failure/degradation probability model (§6.1).

    For each fiber the paper draws a degradation probability from a
    Weibull(shape 0.8, scale 0.002) and derives the cut probability from
    the empirically linear degradation↔cut relationship (Fig. 12); 25% of
    cuts are preceded by a degradation (α).

    Parametrization used here (per 15-minute epoch, per fiber):

    - [w]: Weibull draw — the degradation probability at the empirical
      α = 25%;
    - cut probability [p_i = slope · w] with [slope = h̄ / α] where
      [h̄ ≈ 0.4] is the mean hazard ("40% of degradations cut");
    - for a configurable α (Fig. 20b sweeps), the degradation probability
      becomes [p_d = α · p_i / h̄] and the unpredictable-cut probability
      [p_u = (1 − α) · p_i], keeping the total cut probability invariant
      so availability comparisons across α are fair. *)

type t = {
  alpha : float;  (** Fraction of cuts preceded by a degradation. *)
  mean_hazard : float;  (** h̄, mean P(cut | degradation). *)
  p_degrade : float array;  (** Per-fiber degradation probability / epoch. *)
  p_cut : float array;  (** Per-fiber total cut probability / epoch. *)
  p_unpredictable : float array;  (** Cut probability with no preceding signal. *)
}

val generate :
  ?seed:int ->
  ?weibull:Prete_util.Dist.Weibull.t ->
  ?alpha:float ->
  ?mean_hazard:float ->
  Prete_net.Topology.t ->
  t
(** Deterministic given [seed] (default 7).  [alpha] defaults to 0.25.
    Raises [Invalid_argument] for [alpha] outside [0, 1]. *)

val slope : t -> float
(** The linear coefficient relating cut to degradation counts at
    α = 25% ([h̄ / 0.25] = 1.6 with defaults, Fig. 12a). *)
