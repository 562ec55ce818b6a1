(** Exact 0-1 integer programming by branch-and-bound, specialised for
    the structure of the paper's Formula (1):

    - maximize a linear profit over binary variables,
    - [Choose_one] rows: exactly one variable of the set is 1
      (constraint (1b), one interval per pin),
    - [At_most_one] rows: at most one variable of the set is 1
      (constraint (1c), one interval per conflict clique),
    - [At_most (cap, vars)] rows: at most [cap] variables of the set
      are 1 — the capacitated generalization used for multi-patterning
      color cliques, where up to [k] mutually conflicting features can
      still be legally colored.  [At_most (1, vars)] is equivalent to
      [At_most_one vars].

    Every variable must appear in at least one [Choose_one] row (true
    for pin access intervals, each of which serves at least one pin).

    The search is exact: depth-first branch-and-bound over the choose
    rows with unit propagation (selecting a variable knocks out its
    whole conflict cliques; a pin reduced to a single candidate is
    forced), pruned by a decomposable profit bound and optionally
    tightened by the LP relaxation at the root.  A node limit or a
    stop probe turns the solver into an anytime method that reports
    whether optimality was proven. *)

type row =
  | Choose_one of int list
  | At_most_one of int list
  | At_most of int * int list

type problem = { num_vars : int; profit : float array; rows : row list }

type stats = {
  nodes : int;
  proven_optimal : bool;
  root_lp_bound : float option;
}

type solution = { objective : float; values : bool array; stats : stats }

exception Infeasible of { nodes : int }
(** The finished search proved that no assignment satisfies every row;
    [nodes] is the work it took, as {!stats} would count it. *)

exception Stopped of { nodes : int }
(** A limit stopped the search before it reached a feasible assignment,
    and the greedy dive from the root dead-ended as well: the instance
    may still be feasible.  [nodes] is the work spent before it
    stopped. *)

val solve :
  ?should_stop:(unit -> bool) ->
  ?node_limit:int ->
  ?warm_start:bool array ->
  ?root_lp:bool ->
  problem ->
  solution
(** The search ends early, with [proven_optimal = false], after
    [node_limit] nodes (default unlimited) or when [should_stop]
    (default never), polled every 256 nodes, answers [true].
    @raise Infeasible when some [Choose_one] row cannot be satisfied.
    @raise Stopped when the search ended early with no incumbent.
    @raise Invalid_argument on malformed input (variable out of range,
    variable in no [Choose_one] row, duplicate variable in a row,
    [At_most] capacity below 1). *)

val objective_of : problem -> bool array -> float
val check : problem -> bool array -> bool
(** [check p v] verifies all rows are satisfied by assignment [v]. *)
