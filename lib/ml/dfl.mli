(** Decision-focused training (PR 10).

    Log-loss training optimizes a proxy: how well the predictor ranks
    cut events.  What PreTE actually cares about is the realized TE
    objective — delivered flow and stream availability after the
    controller has turned predictions into reservations.  This module
    group closes that loop:

    - {!Oracle} maps a predicted cut-probability vector (one entry per
      fiber, evaluated on the env's representative degradation events)
      to delivered availability via the existing scenario construction
      and warm-started LP solves.  Consecutive evaluations differ only
      in objective-side data, so the per-state simplex bases captured
      by the first evaluation make every later re-solve a cheap warm
      pivot sequence.  The warm start is {e anchored}: each call starts
      from the first evaluation's bases, never the previous call's, so
      the oracle is a pure function of the probability vector (an
      evolving warm start could drift across degenerate alternate
      optima and make losses depend on call history).
    - {!Estimator} estimates the gradient of any loss over the
      predictor's output vector by perturbation: coordinate-wise
      central differences ([Fd], 2·dim calls, exact on quadratics) or
      simultaneous perturbation ([Spsa], 2 calls per pair regardless of
      dimension).  Directions come from pre-split seeded substreams and
      loss evaluations run sequentially (the oracle parallelizes
      internally over degradation states), so estimates are
      bit-identical at any domain count.
    - {!Trainer} fine-tunes an existing MLP against the oracle:
      greedy SPSA descent in output space starting from the log-loss
      model's own predictions, then distillation of the tuned vector
      back into the model ({!Mlp.finetune}), with a
      final guard that keeps the warm start whenever distillation lost
      the improvement. *)

(** Maps predictor output vectors to realized TE loss. *)
module Oracle : sig
  type t

  val create : ?pool:Prete_exec.Pool.t -> ?scale:float -> Prete.Availability.env -> t
  (** [scale] is the demand multiplier passed to every availability
      evaluation (default 2.0 — the regime where reservations matter).
      The oracle owns an anchored warm-basis cache with one slot per
      degradation state (filled by the first call, reused read-only by
      all later ones); it is safe to share across calls but not across
      threads. *)

  val dim : t -> int
  (** Number of fibers = length of the expected probability vector. *)

  val events : t -> Prete_optics.Hazard.features array
  (** Representative degradation event per fiber — [events t].(i) has
      [fiber = i].  These are the inputs a model is evaluated on to
      produce the probability vector. *)

  val calls : t -> int
  (** Availability evaluations performed so far (cost accounting). *)

  val availability : t -> float array -> float
  (** Delivered availability under a PreTE scheme whose predictor
      returns [probs.(fiber)] (clamped into (0,1)).  A pure function of
      [probs]: every call — including the first, which pays an extra
      cold solve to capture the anchor before re-solving warm —
      returns the warm-from-anchor value, so re-evaluating the same
      vector reproduces the same value bit-for-bit.  Raises
      [Invalid_argument] if the vector length is not [dim t]. *)

  val loss : t -> float array -> float
  (** [1 - availability]. *)
end

(** Perturbation gradients over predictor output vectors. *)
module Estimator : sig
  type method_ =
    | Spsa of { pairs : int }
        (** Rademacher simultaneous perturbation, averaged over
            [pairs] two-sided probes: 2·pairs loss calls. *)
    | Fd  (** Central differences per coordinate: 2·dim loss calls. *)

  val estimate :
    ?c:float ->
    seed:int ->
    method_:method_ ->
    loss:(float array -> float) ->
    float array ->
    float array
  (** Gradient estimate of [loss] at the given point; [c] is the probe
      radius (default 0.05).  [Fd] clamps probes into [0,1] and divides
      by the realized width; [Spsa] probes symmetrically.  Pure
      function of (seed, method_, c, point, loss).  Raises
      [Invalid_argument] on an empty vector, non-positive [c], or
      non-positive pair count. *)
end

(** End-to-end fine-tuning of predictors against the TE-loss oracle. *)
module Trainer : sig
  type config = {
    steps : int;  (** SPSA descent steps (8). *)
    pairs : int;  (** Perturbation pairs per gradient estimate (4). *)
    c : float;  (** Probe radius (0.05). *)
    lr : float;  (** Initial step length, ∞-norm units (0.15). *)
    distill_epochs : int;  (** Distillation epochs (300). *)
    seed : int;  (** Master seed (7). *)
  }

  val default_config : config

  type report = {
    initial_loss : float;  (** Oracle loss of the warm-start outputs. *)
    tuned_loss : float;  (** Best loss reached in output space. *)
    distilled_loss : float;  (** Loss of the distilled model's outputs. *)
    kept : bool;  (** Whether the distilled model replaced the input. *)
    loss_calls : int;  (** Oracle/loss evaluations consumed. *)
    trace : (int * float) list;
        (** (step, loss) at init and each accepted step. *)
  }

  val tune :
    config ->
    loss:(float array -> float) ->
    float array ->
    float array * float * int * (int * float) list
  (** [tune cfg ~loss q0] runs greedy SPSA descent from [q0] and
      returns [(q*, best_loss, loss_calls, trace)].  Every step is
      validated against [loss], so [best_loss <= loss q0]; rejected
      steps halve the step length.  Deterministic given [cfg]. *)

  val finetune_mlp :
    ?config:config -> oracle:Oracle.t -> Mlp.t -> Mlp.t * report
  (** Tune the MLP's outputs on the oracle events, distill the tuned
      vector back via {!Mlp.finetune}, and return the distilled model
      only if its realized loss still beats the warm start ([kept]);
      otherwise the input model is returned unchanged. *)
end
