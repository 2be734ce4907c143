(** The PreTE failure-prediction neural network (§4.1.1, Appendix A.2).

    Architecture: scaled numerics + one-hot time/vendor concatenated with
    trainable fiber-id and region embeddings → 64-unit ReLU hidden layer →
    2-unit linear decoder → softmax over {normal, failure}.  Training:
    Adam (lr 1e-3), L2 regularization 2e-4, negative log-likelihood loss,
    minority oversampling; one model is trained across all fibers
    (one-model-one-fiber is impractical at these data volumes, §4.1.1).

    [ablate] supports the Table 8 feature-ablation study: the named
    feature is replaced by a constant, removing its information content
    while keeping the architecture fixed.

    One kernel serves {!train}, {!finetune} and every prediction.  Each
    call encodes its examples once and then runs in preallocated
    buffers.  The hidden layer reads only the entries of the input row
    that can be non-zero: the five numerics, the two one-hot ones (hour,
    vendor) and the embedding entries, in ascending column order.  The
    result is bit-identical to the dense product over the whole row: a
    skipped term is [w *. 0.0] with [w] finite, which can change only the
    sign of a zero partial sum (invisible to ReLU and to its gradient
    gate) and never a gradient accumulator (which starts at [+0.0]); the
    numerics stay dense, so a NaN feature poisons the same weights. *)

type feature =
  | Time
  | Degree
  | Gradient
  | Fluctuation
  | Region
  | Fiber_id
  | Vendor

val feature_name : feature -> string
val all_features : feature list

type config = {
  hidden : int;  (** 64 *)
  embed_fiber : int;  (** 8 *)
  embed_region : int;  (** 2 *)
  learning_rate : float;  (** 1e-3 *)
  l2 : float;  (** 2e-4 *)
  epochs : int;
  batch : int;
  seed : int;
}

val default_config : config
(** Paper hyper-parameters; 30 epochs, batch 32, seed 42. *)

type t

val train : ?config:config -> ?ablate:feature -> Corpus.example array -> t
(** Oversamples internally.  Raises [Invalid_argument "Mlp.train: …"] on
    a bad config (checked first: [hidden] and [batch] below 1, a negative
    embedding width or [epochs], a learning rate that is not finite and
    positive, an [l2] that is not finite and non-negative) and on an
    empty or single-class training set. *)

val finetune :
  ?epochs:int ->
  ?lr:float ->
  t ->
  targets:(Prete_optics.Hazard.features * float) array ->
  t
(** Distill a set of soft targets into a copy of the model: full-batch
    Adam on cross-entropy against target distributions [(1-q, q)], fresh
    optimizer state, [epochs] passes (default 300), [lr] defaulting to
    the model's configured rate.  The input model is never mutated — the
    decision-focused trainer ({!Dfl.Trainer}) uses this to push
    TE-loss-tuned output vectors back into the network while keeping the
    log-loss warm start around as a fallback.  No RNG is consumed, so
    the result is a pure function of (model, targets, epochs, lr).
    Raises [Invalid_argument "Mlp.finetune: …"] on negative [epochs], a
    learning rate that is not finite and positive, an empty target set
    or targets outside [0, 1]. *)

val predict_proba : t -> Prete_optics.Hazard.features -> float
(** Failure probability p₁ (softmax output). *)

val predict_label : t -> Prete_optics.Hazard.features -> bool
(** argmax prediction: [true] = failure. *)

val predict_batch : t -> Prete_optics.Hazard.features array -> float array
(** Batched inference — the controller batches concurrent degradations
    (§4.1.1). *)

val average_nll : t -> Corpus.example array -> float
(** Mean negative log-likelihood on a labelled set (training diagnostic). *)
