(** The sparse LU factorization as it was before the single-pass
    elimination, kept verbatim as a test-only reference for
    {!Prete_lp.Sparse.Lu.factorize}. *)

module Lu : sig
  type t

  val factorize :
    ?tau:float ->
    ?into:t ->
    Prete_lp.Sparse.t ->
    targets:int array ->
    crash:int array ->
    basis_out:int array ->
    t * int list

  val ftran : t -> float array -> unit

  val ftran_nz : t -> float array -> int array -> int

  val btran : t -> float array -> unit

  val update : t -> leaving_row:int -> bool

  val nnz : t -> int

  val updates : t -> int
end

val view : Lu.t -> Prete_lp.Sparse.Lu.Internal.view
(** The reference factor in the library's comparison form. *)
