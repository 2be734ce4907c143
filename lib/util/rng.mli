(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64 (Steele et al., OOPSLA 2014): a 64-bit state advanced by a
    Weyl sequence and finalized with a variant of the MurmurHash3 mixer.  It
    is fast, has no measurable bias on the statistics we need, and — unlike
    [Stdlib.Random] — supports cheap independent substreams via {!split}. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Use one
    split per logical component so that adding draws in one component does
    not perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal draw (Box–Muller). *)

val fill_gaussian :
  t -> float array -> pos:int -> len:int -> mean:float -> sd:float -> unit
(** [fill_gaussian t a ~pos ~len ~mean ~sd] sets [a.(i) <- mean +. (sd *.
    gaussian t)] for [i] from [pos] up, [len] draws in index order — the
    same draws and values as that loop, without returning each draw
    boxed through a call. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on
    an empty array. *)
