(** Dense row-major float matrices and vectors.

    This is the numeric substrate shared by the neural-network library
    (forward/backward passes) and parts of the LP solver.  Dimensions are
    checked on every operation; all raising operations raise
    [Invalid_argument] with the operation name. *)

type t
(** A dense matrix of floats. *)

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val identity : int -> t

val matmul : t -> t -> t
(** [matmul a b] with compatible inner dimensions. *)

val gemv : t -> float array -> float array
(** Matrix–vector product. *)

val transpose : t -> t
val map : (float -> float) -> t -> t
val mapi : (int -> int -> float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val row : t -> int -> float array

val random : Rng.t -> int -> int -> float -> t
(** [random rng rows cols scale] has entries uniform in [\[-scale, scale\]]. *)

val sum : t -> float
val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Vector helpers used alongside matrices. *)
module Vec : sig
  val dot : float array -> float array -> float
  val add : float array -> float array -> float array
  val sub : float array -> float array -> float array
  val scale : float -> float array -> float array
  val argmax : float array -> int
  val softmax : float array -> float array
  (** Numerically stable: shifts by the max before exponentiating. *)
end
