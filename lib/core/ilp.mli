(** The binary ILP formulation of concurrent pin access optimization
    (paper Formula (1)) and its exact solution.

    Objective (1a): maximize [Σ_j Σ_{i∈S_j} f(I_i) x_i] — an interval
    serving several pins is counted once per pin.  Constraint (1b): one
    interval per pin.  Constraint (1c): at most one interval per
    conflict clique.  Theorem 1 (feasibility through minimum intervals)
    makes every well-formed instance feasible under the paper's
    conflict relation (clearance 0).  A non-zero design-rule clearance
    can make an instance infeasible (adjacent same-track pins), and
    the finished search then raises [Solver.Milp.Infeasible]. *)

type result = {
  solution : Solution.t;
  objective : float;
  nodes : int;  (** branch-and-bound nodes explored *)
  proven_optimal : bool;
  root_lp_bound : float option;
}

val to_milp : Problem.t -> Solver.Milp.problem
(** The raw 0-1 program: one [Choose_one] row per pin, one
    [At_most_one] row per conflict clique. *)

val solve :
  ?warm_start:Solution.t ->
  ?root_lp:bool ->
  ?budget:Budget.t ->
  Problem.t ->
  result
(** Exact branch-and-bound; [warm_start] (typically the LR solution)
    provides the initial incumbent; [root_lp] additionally solves the
    LP relaxation at the root and reports its value as
    [root_lp_bound].  [budget] (default unlimited) bounds the search by
    whatever deadline and work allowance it has left (branch-and-bound
    nodes are the work unit, spent back into the budget); a caller that
    wants a time cap alone passes [Budget.start ~seconds ()].  Under a
    limit the result may carry [proven_optimal = false] — the anytime
    contract still returns the best feasible incumbent.  A limit that
    stops the search before it has any incumbent raises
    [Solver.Milp.Stopped], which says nothing about feasibility; a
    [warm_start] rules it out. *)
