(** Predictor server: a hot-swappable cut-probability model with a
    stale-model fallback.

    Wraps any [Hazard.features -> float] model (the prete_ml MLP/CART,
    the ground-truth hazard, ...) behind a mutex so a training loop on
    another domain can {!swap} in a fresh model while the reaction stage
    keeps serving.  When the current model is marked stale (e.g. its
    training horizon aged out and no replacement arrived), predictions
    fall back to the hazard-free prior — the fiber model's mean hazard,
    which is exactly the static [(1-α)p] prior PreTE uses for fibers it
    has no degradation signal for. *)

type t

val create :
  ?name:string ->
  fallback:(Prete_optics.Hazard.features -> float) ->
  (Prete_optics.Hazard.features -> float) ->
  t
(** [create ~fallback model] starts serving [model] (version name
    defaults to ["v0"]). *)

val prior : Prete_optics.Fiber_model.t -> Prete_optics.Hazard.features -> float
(** The hazard-free prior: the model's mean hazard, independent of the
    event features — the standard [fallback]. *)

val predict : t -> Prete_optics.Hazard.features -> float * bool
(** [(probability, used_fallback)]. *)

val swap : t -> ?name:string -> (Prete_optics.Hazard.features -> float) -> unit
(** Install a new model version atomically; clears staleness. *)

val mark_stale : t -> unit
val version : t -> string

val stats : t -> int * int * int
(** [(served, fallbacks, swaps)]. *)
