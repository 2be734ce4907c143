(** Compressed-sparse-column matrices.

    The constraint matrices of every PreTE LP are overwhelmingly sparse
    (a tunnel touches a handful of links; scenario blocks are near-
    disjoint), so the LU simplex engine ({!Simplex}) stores them in
    CSC form and the {!Te} model builders derive capacity rows from a
    sparse link×tunnel incidence instead of scanning every (link,
    tunnel) pair.

    Entries within a column are stored in strictly increasing row order;
    duplicate [(row, col)] triplets are summed and exact zeros dropped at
    construction, so structurally equal inputs produce identical
    storage — a prerequisite for the solver's deterministic pivoting. *)

type t = private {
  rows : int;
  cols : int;
  colptr : int array;  (** Length [cols + 1]; column [j] spans
                           [colptr.(j) .. colptr.(j+1) - 1]. *)
  rowidx : int array;  (** Row index per stored entry, ascending within
                           each column. *)
  values : float array;
}

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** [of_triplets ~rows ~cols ts] builds a matrix from [(row, col, value)]
    triplets.  Duplicates are summed; entries summing to exactly [0.] are
    dropped.  Raises [Invalid_argument] on out-of-range indices. *)

val of_csc :
  rows:int -> cols:int -> colptr:int array -> rowidx:int array -> values:float array -> t
(** [of_csc ~rows ~cols ~colptr ~rowidx ~values] adopts ready-made
    column storage (no copy) — what {!of_triplets} would build from the
    same entries.  The arrays may be longer than the matrix needs
    ([colptr] past [cols], [rowidx]/[values] past [colptr.(cols)]): the
    spare capacity of a reused buffer is never read.  Raises
    [Invalid_argument] unless rows ascend strictly within each column,
    lie in range, and every value is nonzero. *)

val nnz : t -> int
(** Stored entries (all nonzero). *)

val col_nnz : t -> int -> int
(** Stored entries in one column. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col a j f] applies [f row value] to each stored entry of
    column [j], in increasing row order. *)

val col_dot : t -> int -> float array -> float
(** [col_dot a j y] is [Σ_i a(i,j) · y.(i)] — the sparse column dotted
    against a dense vector of length [rows]. *)

val scatter_col : t -> int -> float array -> unit
(** [scatter_col a j x] adds column [j] into the dense vector [x]
    (length [rows]); the caller clears [x] first. *)

val to_dense : t -> float array array
(** [rows × cols] dense copy; for tests and debugging. *)

type mat = t
(** Alias so modules below can name the matrix type unambiguously. *)

(** Sparse LU factorization of a basis column set with Forrest–Tomlin
    updates — the basis representation of the {!Simplex} LU engine.

    [B = L⁻¹·H⁻¹·U] up to the pivot permutation: L holds the Gaussian
    column ops recorded by {!Lu.factorize} (Markowitz-flavored threshold
    pivoting: sparsest active column next, minimum-row-count pivot within
    [tau] of the column magnitude), H the row-eta transformations
    appended by {!Lu.update}, and U is stored explicitly both column- and
    row-wise against stable position ids, so an update cyclic-shifts two
    O(m) ordinal arrays instead of renumbering entries.  All tie-breaks are
    lowest-index and no randomness is consulted: the factor — and
    therefore every solve that uses it — is a pure function of the
    input. *)
module Lu : sig
  type t

  val factorize :
    ?tau:float ->
    ?into:t ->
    mat ->
    targets:int array ->
    crash:int array ->
    basis_out:int array ->
    t * int list
  (** Factorize the distinct column set of [targets] (row pairing
      ignored).  Rows claimed by no surviving target take their [crash]
      identity column, which must be a singleton [±1]-style column on its
      own row.  [basis_out.(r)] receives the column pivoted on row [r];
      the returned list holds targets dropped as numerically singular
      (empty on success).  [tau] is the relative pivot threshold
      (default 0.1).  [into] rebuilds the factorization in an existing
      factor's storage when that storage holds at least the matrix's row
      count (its previous contents are discarded and the same factor is
      returned; otherwise a fresh one is); the result is bit-identical
      to a fresh factorization.  A refactorization into a factor whose
      storage has grown to the problem allocates nothing but the
      returned pair. *)

  val ftran : t -> float array -> unit
  (** [x := B⁻¹x] in place.  Also caches the post-L/H spike used by
      {!update}: a pivot must FTRAN its entering column immediately
      before updating. *)

  val ftran_col : t -> mat -> int -> float array -> int array -> int
  (** [ftran_col f a j x nz] is [ftran f x] on column [j] of [a] added
      into an [x] that is zero (either sign) in every row, bit for bit
      on every nonzero, and also writes the rows whose result is
      nonzero into [nz.(0 .. k-1)] and returns [k].  [nz] needs room for
      [m] rows; the rows come in the order the U back-substitution
      solves them, not ascending.  A result row that is zero may hold
      the other sign of zero than [ftran] on a [+0.0]-filled vector
      would leave there.  Caches the same spike for {!update}, with its
      bookkeeping limited to the rows the column and the L and H ops
      touch. *)

  val btran : t -> float array -> unit
  (** [y := B⁻ᵀy] in place. *)

  val update : t -> leaving_row:int -> bool
  (** Forrest–Tomlin update replacing the column basic in [leaving_row]
      with the column whose spike the last {!ftran} cached.  [false]
      means the update was refused on stability grounds (tiny new
      diagonal or exploding multiplier) and the caller must refactorize
      — the factor may be left half-mutated, which a refactorization
      discards anyway. *)

  val nnz : t -> int
  (** Resident factor nonzeros: U entries (incl. diagonals) plus L and H
      op entries — the fill-in telemetry and refactorization trigger. *)

  val updates : t -> int
  (** Forrest–Tomlin updates absorbed since factorization. *)

  (** The factor field by field, for tests that compare two
      factorizations bit for bit. *)
  module Internal : sig
    type view = {
      v_m : int;
      v_ord : int array;  (** id -> triangular position *)
      v_row_of : int array;  (** id -> pivot row *)
      v_l : (int * int array * float array) array;
          (** L ops in order: pivot row, rows, multipliers *)
      v_h : (int * int array * float array) array;  (** H ops in order *)
      v_ucols : (int array * float array) array;
          (** by id: U column entries (row, value) in cell order *)
      v_urows : (int array * float array) array;
          (** by row: U row entries (id, value) in cell order *)
      v_udiag : float array;  (** by id *)
      v_nnz : int;
    }

    val view : t -> view
  end
end
