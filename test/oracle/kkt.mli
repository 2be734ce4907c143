(** A KKT certificate for {!Prete_lp.Simplex} solutions, checked against
    the original model in one pass over its nonzeros.

    [certify m sol] checks, to a relative tolerance of 1e-6:

    - every row and every variable bound holds at [sol.values];
    - [sol.objective] is c·x;
    - each dual has the sign its row's sense and the objective direction
      require (a shadow price of a [<=] row of a minimization is <= 0,
      of a [>=] row >= 0, the reverse when maximizing);
    - each reduced cost has the sign that the primal value allows: >= 0
      (in minimization form) at the lower bound, <= 0 at the upper, 0
      strictly between;
    - the duality gap between c·x and the dual objective b·y plus the
      bound terms of the reduced costs is 0.

    A [degraded] solution (an interrupted solve whose duals are not
    shadow prices) is checked for the first two only.  [Error] names the
    first violation found. *)
val certify : Prete_lp.Lp.model -> Prete_lp.Simplex.solution -> (unit, string) result
