(** LP presolve / postsolve for the LU simplex engine.

    [reduce] shrinks an {!Lp.model} by empty/singleton-row elimination,
    duplicate-row collapsing, empty/dominated-column fixing and
    geometric-mean equilibration; [postsolve] maps a reduced solution
    back, reconstructing the duals of eliminated rows.

    Structural invariant: which rows/columns survive depends only on the
    constraint patterns, senses, coefficients and cost signs — never on
    rhs or bound values — so a simplex basis stored against one
    reduction reinstalls exactly after rhs-only model changes (MIP bound
    fixings, Benders rhs updates, capacity perturbations).  Nor does
    the result depend on the order in which a model row stores its
    terms: rows are read through a column view or sorted by column. *)

type t = {
  p_nv : int;  (** original structural variable count *)
  p_nc : int;  (** original row count *)
  sign : float;  (** Minimize -> [1.0], Maximize -> [-1.0] *)
  cost_min : float array;  (** min-form costs over original columns *)
  c_start : int array;
      (** Original column [j]'s (row, coef) occurrences are entries
          [c_start.(j) .. c_start.(j+1) - 1] of [c_row]/[c_val], rows
          ascending. *)
  c_row : int array;
  c_val : float array;
  rhs_eff : float array;
      (** per original row: rhs minus fixed-column contributions *)
  r_nv : int;  (** reduced column count *)
  r_nc : int;  (** reduced row count *)
  r_start : int array;
      (** Scaled reduced rows: row [ri] is entries
          [r_start.(ri) .. r_start.(ri+1) - 1] of [r_col]/[r_val],
          columns ascending. *)
  r_col : int array;
  r_val : float array;
  r_sense : Lp.sense array;
  r_rhs : float array;
  r_lb : float array;  (** scaled reduced bounds *)
  r_ub : float array;
  r_cost : float array;  (** scaled min-form reduced costs *)
  col_of : int array;  (** reduced col -> original col *)
  col_map : int array;  (** original col -> reduced col or [-1] *)
  row_of : int array;  (** reduced row -> original row *)
  row_map : int array;  (** original row -> reduced row or [-1] *)
  rowscale : float array;  (** per original kept row *)
  colscale : float array;  (** per original kept col *)
  fixed : float array;  (** per original col; valid when [col_map] = -1 *)
  actions : action list;  (** head = last reduction applied *)
  rows_removed : int;
  cols_removed : int;
}

(** One reduction, for postsolve; [actions] lists them last-applied
    first. *)
and action =
  | Row_empty of int
  | Row_singleton_ineq of {
      row : int;
      col : int;
      coef : float;
      le : bool;  (** original sense Le *)
      bound : float;  (** the tightened bound value this row imposed *)
    }
  | Row_singleton_eq of { row : int; col : int; coef : float }
  | Dup_group of {
      kept : int;
      members : (int * float) list;
          (** (row, coef at the anchor column), kept included, by row *)
      ge_like : bool;  (** normalized sense: larger scaled rhs is tighter *)
      eq : bool;
    }
  | Col_fixed of { col : int; value : float }

type outcome = Reduced of t | Infeasible | Unbounded

val reduce : Lp.model -> outcome
(** Apply the reduction fixpoint.  Always returns [Reduced] on feasible
    structures — a fully solved model shows up as [r_nv = 0].  Raises
    [Invalid_argument] on free variables (lb = -inf), matching the
    simplex engines. *)

val postsolve : t -> x:float array -> y:float array -> float array * float array
(** [postsolve t ~x ~y] maps a reduced (scaled) primal point [x] (by
    reduced column) and min-form dual point [y] (by reduced row) to
    [(x_orig, y_min_orig)] over original columns/rows.  Duals of
    eliminated singleton rows are reconstructed from residual reduced
    costs; duplicate-group duals transfer to the tight member.  The
    returned duals are min-form shadow prices — the caller applies the
    direction sign. *)
