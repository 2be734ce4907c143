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

(** {2 Block draws}

    For a loop that makes many draws, one call per draw is the cost
    (an indirect call when this module is compiled [-opaque]).  The
    block form hands out the same raw outputs {!int64} would, [n] per
    call, into a caller-owned buffer; the decoders below turn a raw
    output into exactly what {!bernoulli} and {!int} return from it,
    and {!give_back} returns the draws a loop did not use, so the
    generator ends where the draw-by-draw loop would have left it. *)

type block
(** A buffer of raw 64-bit outputs. *)

val block_create : int -> block
(** [block_create n] holds [n] outputs. *)

val fill_block : t -> block -> n:int -> unit
(** [fill_block t b ~n] writes the next [n] outputs of [t] to [b], in
    draw order: the values [n] calls of {!int64} would return, and the
    same state after.  Requires [0 <= n <=] the size [b] was created
    with. *)

external unsafe_block_get : block -> int -> int64 = "%caml_bytes_get64u"
(** [unsafe_block_get b (8 * i)] is output [i] of the last
    {!fill_block}: the index is a byte offset, and it is not checked, so
    it must be a multiple of 8 below 8 × the block's size.  A primitive,
    so it costs no call even across an [-opaque] module boundary. *)

val give_back : t -> int -> unit
(** [give_back t k] steps [t] back [k] draws (the state is a Weyl
    sequence: state [-=] [k]·γ), so the next [k] outputs repeat the last
    [k].  A block loop gives back the outputs it filled but did not
    use. *)

val bernoulli_threshold : float -> int
(** [bernoulli_threshold p] is [ceil(p·2⁵³)] clamped to [\[0, 2⁵³\]].
    For a raw output [x], [bernoulli] decides [true] iff
    [Int64.to_int (Int64.shift_right_logical x 11) < bernoulli_threshold p]:
    [float] is [(x lsr 11)·2⁻⁵³], exact, so [float < p] iff
    [x lsr 11 < p·2⁵³], iff it is below the ceiling.  NaN and [p <= 0]
    give 0 (never), [p >= 1] gives 2⁵³ (always). *)

val int_mask : int -> int
(** [int_mask n], for [n > 0], is the mask {!int} draws with: the
    smallest [2^k - 1 >= max 1 (n - 1)].  [int t n] is the first raw
    output [x] with [Int64.to_int x land int_mask n < n], decoded to
    that value; each rejected output is one more draw.  Raises
    [Invalid_argument] when [n <= 0]. *)

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
