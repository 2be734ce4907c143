(** Dense-tableau two-phase primal simplex: the differential oracle for
    {!Prete_lp.Simplex}.

    Variables are shifted to zero lower bound, finite upper bounds become
    explicit [Le] rows, and every row carries an artificial.  Phase 1
    minimizes the sum of the artificials, Phase 2 the objective; both
    price by Dantzig's rule and switch to Bland's after 20·(m + n)
    pivots.  Every pivot rewrites the whole m × n tableau, so the oracle
    is only for small models.  It shares no code with the LU engine
    beyond the {!Prete_lp.Lp} model, which is what makes agreement
    between the two evidence.  Solves are always cold. *)

type solution = {
  objective : float;  (** Objective in the original direction. *)
  values : float array;  (** Primal values indexed by variable. *)
  duals : float array;
      (** Shadow prices indexed by constraint, with the sign convention of
          {!Prete_lp.Simplex.dual}. *)
  iterations : int;  (** Simplex pivots over both phases. *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

val solve : Prete_lp.Lp.model -> outcome
(** Solve the continuous relaxation of the model.  Raises
    [Invalid_argument] on a free variable (lower bound [-inf]) and
    [Failure] if 200_000 pivots pass without an answer. *)
