type result = {
  solution : Solution.t;
  objective : float;
  nodes : int;
  proven_optimal : bool;
  root_lp_bound : float option;
}

(* branch-and-bound nodes are the ILP work unit (see [Budget.spend]
   below); metered here as [ilp.nodes] *)
let m_nodes = Obs.Metrics.counter "ilp.nodes"

let to_milp (problem : Problem.t) =
  let rows =
    Array.to_list
      (Array.map
         (fun candidates -> Solver.Milp.Choose_one (Array.to_list candidates))
         problem.Problem.pin_candidates)
    @ Array.to_list
        (Array.map
           (fun (clique : Conflict.clique) ->
             let members = Array.to_list clique.Conflict.members in
             if clique.Conflict.cap = 1 then Solver.Milp.At_most_one members
             else Solver.Milp.At_most (clique.Conflict.cap, members))
           problem.Problem.cliques)
  in
  {
    Solver.Milp.num_vars = Problem.num_intervals problem;
    profit = Array.copy problem.Problem.profits;
    rows;
  }

let solve ?warm_start ?(root_lp = false) ?(budget = Budget.unlimited ())
    (problem : Problem.t) =
  Obs.Trace.with_span "ilp.solve" @@ fun () ->
  let milp = to_milp problem in
  let warm_start = Option.map Solution.chosen warm_start in
  (* the search runs on whatever the budget has left: it polls the
     budget's deadline, and branch-and-bound nodes are the work unit *)
  let charge nodes =
    Budget.spend budget nodes;
    Obs.Metrics.add m_nodes nodes
  in
  let sol =
    match
      Solver.Milp.solve
        ~should_stop:(fun () -> Budget.exhausted budget)
        ?node_limit:(Budget.remaining_work budget)
        ?warm_start ~root_lp milp
    with
    | sol -> sol
    | exception
        ((Solver.Milp.Infeasible { nodes } | Solver.Milp.Stopped { nodes }) as e)
      ->
      (* a search that ends without an answer is charged all the same *)
      charge nodes;
      raise e
  in
  charge sol.Solver.Milp.stats.Solver.Milp.nodes;
  let solution = Solution.of_chosen problem ~chosen:sol.Solver.Milp.values in
  assert (Solution.is_conflict_free solution);
  {
    solution;
    objective = sol.Solver.Milp.objective;
    nodes = sol.Solver.Milp.stats.Solver.Milp.nodes;
    proven_optimal = sol.Solver.Milp.stats.Solver.Milp.proven_optimal;
    root_lp_bound = sol.Solver.Milp.stats.Solver.Milp.root_lp_bound;
  }
