(** Descriptive statistics, empirical CDFs, histograms and binning.

    These back every measurement-style figure in the reproduction
    (Figs. 1b, 4a, 5a, 6, 12b, 14, 19). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val std : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation between
    order statistics.  Does not mutate its argument. *)

val median : float array -> float

val min_max : float array -> float * float

val ecdf : float array -> (float * float) array
(** Empirical CDF as sorted [(value, P(X <= value))] points. *)

val cdf_at : float array -> float -> float
(** [cdf_at xs v] is the empirical probability that a sample is [<= v]. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** Equal-width histogram over the data range;
    each cell is [(lo, hi, count)]. *)

val equal_width_bins : bins:int -> lo:float -> hi:float -> float -> int
(** Bin index of a value in an equal-width binning of [\[lo, hi\]];
    values outside the range are clamped to the first/last bin. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient of two equal-length arrays. *)

val linear_fit : float array -> float array -> float * float
(** Least-squares fit [y ≈ a·x + b]; returns [(a, b)]. *)

val normalize : float array -> float array
(** Min-max scale into [\[0, 1\]]; constant arrays map to all zeros. *)

val sum : float array -> float
