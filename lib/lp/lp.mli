(** Linear-programming modeling layer.

    A small modeling DSL in the spirit of the JuMP models the paper's Julia
    implementation builds for Gurobi: create variables with bounds, add
    linear constraints, set a linear objective, then hand the model to
    {!Simplex} (pure LPs) or {!Mip} (models with binary variables).

    Variables carry lower/upper bounds; the solvers normalize bounds
    internally (shift to zero lower bound, upper bounds become rows), so the
    modeling layer stays close to the paper's formulation (Eqns. 2–8). *)

type var = private int
(** Variable handle, valid only for the model that created it. *)

type model

type sense = Le | Ge | Eq

type direction = Minimize | Maximize

type term = float * var
(** A linear term [coefficient * variable]. *)

val create : unit -> model

val add_var :
  model -> ?lb:float -> ?ub:float -> ?binary:bool -> string -> var
(** [add_var m name] adds a variable with default bounds [0, +∞).  [~binary]
    marks the variable integral in {0,1} (and forces bounds [0,1]); the pure
    LP solver treats it as its continuous relaxation.  An empty [name]
    renders as [x<index>] ({!var_name}, {!pp}).  Raises
    [Invalid_argument] if [lb > ub]. *)

val add_constraint : model -> ?name:string -> term list -> sense -> float -> int
(** [add_constraint m terms sense rhs] adds [Σ terms (sense) rhs] and
    returns the constraint index (used to query duals).  Terms may repeat a
    variable; coefficients are summed in input order, starting from [0.],
    and variables whose sum is exactly zero are dropped.  An empty [name]
    renders as [c<index>] in {!pp}. *)

val set_objective : model -> direction -> term list -> unit
(** Sets the linear objective (constant offset not supported — add it to
    reported values externally if needed). *)

val num_vars : model -> int
val num_constraints : model -> int
val var_name : model -> var -> string
(** O(1); unnamed variables render as [x<index>]. *)

val var_of_index : model -> int -> var
(** Inverse of the variable index; raises [Invalid_argument] out of range. *)

val binaries : model -> var list
(** Variables declared binary, in creation order. *)

(** Internal accessors used by the solvers (stable, but not part of the
    user-facing API). *)
module Internal : sig
  type rows = {
    nrows : int;
    start : int array;
        (** Row [i]'s terms are entries [start.(i) .. start.(i+1) - 1] of
            [var] and [coef]. *)
    var : int array;  (** Variable index per term. *)
    coef : float array;  (** Merged nonzero coefficient per term. *)
    sense : sense array;  (** Per row. *)
    rhs : float array;  (** Per row. *)
  }
  (** The constraint rows in compressed-row form.  A row holds each
      variable at most once.  The arrays are the model's own storage,
      longer than the live prefix; read-only.  A view stays valid for
      its [nrows] rows when more rows are added later. *)

  val rows : model -> rows

  val lower : model -> float array
  (** Fresh copy of the variable lower bounds. *)

  val upper : model -> float array
  (** Fresh copy of the variable upper bounds. *)

  val objective : model -> direction * float array
  (** Objective as a dense coefficient vector over variable indices. *)

  val without_objective : model -> model
  (** The same variables and constraints with the objective cleared (to
      minimize 0): the model's feasibility problem.  Shares the model's
      storage, so it is a read-only view for the solvers. *)
end

val pp : Format.formatter -> model -> unit
(** Human-readable dump of the model (for debugging small instances). *)
