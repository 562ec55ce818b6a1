module I = Geometry.Interval
module B = Netlist.Builder
module P = Pinaccess.Problem
module Ilp = Pinaccess.Ilp
module Sol = Pinaccess.Solution
module PA = Pinaccess.Pin_access

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cfg = Pinaccess.Interval_gen.default_config

let fig3_design () =
  B.design ~width:20 ~height:10
    ~nets:
      [
        ("a", [ B.pin_span 6 ~lo:2 ~hi:4; B.pin_at 2 7; B.pin_at 17 6 ]);
        ("b", [ B.pin_at 9 3; B.pin_at 9 8 ]);
        ("c", [ B.pin_at 3 2; B.pin_at 13 2 ]);
        ("d", [ B.pin_at 14 3; B.pin_at 15 8 ]);
      ]
    ()

let test_formulation_shape () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let milp = Ilp.to_milp problem in
  check_int "one variable per interval" (P.num_intervals problem)
    milp.Solver.Milp.num_vars;
  let chooses, conflicts =
    List.partition
      (fun row ->
        match row with
        | Solver.Milp.Choose_one _ -> true
        | Solver.Milp.At_most_one _ | Solver.Milp.At_most _ -> false)
      milp.Solver.Milp.rows
  in
  check_int "(1b): one row per pin" (P.num_pins problem) (List.length chooses);
  check_int "(1c): one row per clique" (P.num_cliques problem)
    (List.length conflicts)

let test_ilp_optimal_and_feasible () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let r = Ilp.solve problem in
  check "proven optimal" true r.Ilp.proven_optimal;
  check "conflict free" true (Sol.is_conflict_free r.Ilp.solution);
  Alcotest.(check (float 1e-6))
    "objective consistent" r.Ilp.objective
    (Sol.objective r.Ilp.solution)

let test_ilp_dominates_lr () =
  let d = Workloads.Suite.design ~scale:0.08 (Workloads.Suite.find "efc") in
  for panel = 0 to Netlist.Design.num_panels d - 1 do
    let problem = P.build_panel cfg d ~panel in
    if P.num_pins problem > 0 then begin
      let lr = Pinaccess.Lagrangian.solve problem in
      let sol = lr.Pinaccess.Lagrangian.solution in
      (* a residual-conflict LR solution is not feasible, hence not
         comparable to the exact solver's objective *)
      if Sol.is_conflict_free sol then begin
        let ilp =
          Ilp.solve
            ~budget:(Pinaccess.Budget.start ~seconds:20.0 ())
            ~warm_start:sol problem
        in
        check "ILP >= LR objective" true
          (ilp.Ilp.objective >= Sol.objective sol -. 1e-6)
      end
    end
  done

let test_lp_bound_dominates () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let r = Ilp.solve ~root_lp:true problem in
  match r.Ilp.root_lp_bound with
  | Some b -> check "LP bound >= ILP optimum" true (b >= r.Ilp.objective -. 1e-6)
  | None -> Alcotest.fail "simplex failed on a feasible relaxation"

let test_theorem1_feasibility () =
  (* Theorem 1: selecting minimum intervals is feasible, so the ILP is
     solvable at clearance 0 for any valid design *)
  let d = Workloads.Suite.design ~scale:0.06 (Workloads.Suite.find "ctl") in
  let cfg0 = { cfg with Pinaccess.Interval_gen.clearance = 0 } in
  for panel = 0 to Netlist.Design.num_panels d - 1 do
    let problem = P.build_panel cfg0 d ~panel in
    if P.num_pins problem > 0 then begin
      let r =
        Ilp.solve ~budget:(Pinaccess.Budget.start ~seconds:30.0 ()) problem
      in
      check "feasible at clearance 0" true (Sol.is_conflict_free r.Ilp.solution)
    end
  done

(* The search polls its budget's deadline on the shared clock.  Each
   reading of the fake clock is one second after the last, so a 2.5 s
   budget started at the first reading has expired by the fourth:
   inside the search, which reads the clock every 256 nodes.  The
   panel needs about 1,200 nodes to prove its optimum. *)
let test_ilp_stops_at_deadline () =
  let d = Workloads.Suite.design ~scale:0.01 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:1 in
  let full = Ilp.solve problem in
  check "unbudgeted: proven optimal" true full.Ilp.proven_optimal;
  check "unbudgeted: more than 768 nodes" true (full.Ilp.nodes > 768);
  let clock = ref 0.0 in
  let cut =
    Obs.Clock.with_source
      (fun () ->
        clock := !clock +. 1.0;
        !clock)
      (fun () ->
        Ilp.solve ~budget:(Pinaccess.Budget.start ~seconds:2.5 ()) problem)
  in
  check "the deadline ends the search" false cut.Ilp.proven_optimal;
  check_int "at the third poll" 768 cut.Ilp.nodes

(* A limit that stops the search before its first feasible leaf proves
   nothing.  ecc@0.04 panel 2 is feasible (LR finds a conflict-free
   assignment), but 20,000 nodes reach no leaf there and the greedy
   dive dead-ends: the search must report itself stopped, an outcome
   the degradation ladder absorbs, never [Infeasible]. *)
let test_ilp_stopped_is_not_infeasible () =
  let d = Workloads.Suite.design ~scale:0.04 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:2 in
  let lr = Pinaccess.Lagrangian.solve problem in
  check "feasible: LR is conflict-free" true
    (Sol.is_conflict_free lr.Pinaccess.Lagrangian.solution);
  match
    Ilp.solve ~budget:(Pinaccess.Budget.start ~work_units:20_000 ()) problem
  with
  | r -> check "an incumbent is conflict-free" true (Sol.is_conflict_free r.Ilp.solution)
  | exception Solver.Milp.Infeasible _ ->
    Alcotest.fail "a stopped search raised Infeasible"
  | exception (Solver.Milp.Stopped _ as e) ->
    check "the ladder absorbs it" true (Pinaccess.Cpr_error.recoverable e);
    check "a solver failure" true
      (match Pinaccess.Cpr_error.of_exn e with
      | Some (Pinaccess.Cpr_error.Solver_failure _) -> true
      | _ -> false)

(* The same instance: the stopped search's nodes are work done, so the
   budget and both node counters see them. *)
let test_ilp_stopped_search_is_charged () =
  let d = Workloads.Suite.design ~scale:0.04 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:2 in
  let budget = Pinaccess.Budget.start ~work_units:20_000 () in
  let ilp_nodes = Obs.Metrics.counter "ilp.nodes"
  and milp_nodes = Obs.Metrics.counter "milp.nodes" in
  let ilp0 = Obs.Metrics.value ilp_nodes
  and milp0 = Obs.Metrics.value milp_nodes in
  match Ilp.solve ~budget problem with
  | _ -> Alcotest.fail "20,000 nodes reach no leaf here"
  | exception Solver.Milp.Stopped { nodes } ->
    check_int "stopped at the allowance" 20_000 nodes;
    check_int "the budget is charged" nodes
      (Pinaccess.Budget.work_spent budget);
    check_int "ilp.nodes moves" nodes (Obs.Metrics.value ilp_nodes - ilp0);
    check_int "milp.nodes moves" nodes (Obs.Metrics.value milp_nodes - milp0)

(* Fuzz seed 12648430, case 107: panel 1's LR assignment is not
   conflict-free, so it cannot seed the ILP incumbent, and a 20,000
   work-unit budget stops that ILP search before it finds one.  The
   ladder then serves the LR rung from the ILP tier's seeding solve
   instead of running the same solve again. *)
let test_ladder_reuses_the_seeding_lr () =
  let d =
    Workloads.Generator.generate
      (Workloads.Generator.random_params ~max_nets:24
         ~seed:4190574569963192643L ())
  in
  let lr_of panel = Pinaccess.Lagrangian.solve (P.build_panel cfg d ~panel) in
  let lr0 = lr_of 0 and lr1 = lr_of 1 in
  check "panel 1's LR is not conflict-free" false
    (Sol.is_conflict_free lr1.Pinaccess.Lagrangian.solution);
  let iterations = Obs.Metrics.counter "lr.iterations" in
  let before = Obs.Metrics.value iterations in
  let r =
    PA.optimize ~budget:(Pinaccess.Budget.start ~work_units:20_000 ())
      ~kind:PA.Ilp d
  in
  let report = List.find (fun (r : PA.panel_report) -> r.PA.panel = 1) r.PA.reports in
  check "panel 1 is served by LR" true (report.PA.served_by = PA.Tier_lr);
  check_int "from the seeding solve" lr1.Pinaccess.Lagrangian.iterations
    report.PA.lr_iterations;
  check "with its objective" true
    (report.PA.objective = Sol.objective lr1.Pinaccess.Lagrangian.solution);
  check_int "one LR solve per panel"
    (lr0.Pinaccess.Lagrangian.iterations + lr1.Pinaccess.Lagrangian.iterations)
    (Obs.Metrics.value iterations - before)

let test_pin_access_top_level () =
  let d = fig3_design () in
  let lr = PA.optimize ~kind:PA.Lr d in
  let ilp = PA.optimize ~kind:PA.Ilp d in
  PA.validate lr;
  PA.validate ilp;
  check "ILP objective >= LR" true (ilp.PA.objective >= lr.PA.objective -. 1e-6);
  check_int "one report per non-empty panel" 1 (List.length lr.PA.reports);
  check "every pin assigned" true
    (List.length lr.PA.assignments = Array.length (Netlist.Design.pins d))

let test_pin_access_combined () =
  let d = Workloads.Suite.design ~scale:0.08 (Workloads.Suite.find "ecc") in
  let combined = PA.optimize_combined ~kind:PA.Lr d ~panels:[ 0; 1 ] in
  PA.validate ~complete:false combined;
  check "combined covers only two panels' pins" true
    (List.length combined.PA.assignments
    < Array.length (Netlist.Design.pins d))

let test_interval_of_pin () =
  let d = fig3_design () in
  let lr = PA.optimize ~kind:PA.Lr d in
  (match PA.interval_of_pin lr 0 with
  | Some iv ->
    check "serves pin 0" true (Pinaccess.Access_interval.serves iv 0)
  | None -> Alcotest.fail "pin 0 should be assigned");
  check "unknown pin id" true (PA.interval_of_pin lr 9999 = None)

let () =
  Alcotest.run "ilp"
    [
      ( "formulation",
        [
          Alcotest.test_case "shape" `Quick test_formulation_shape;
          Alcotest.test_case "optimal + feasible" `Quick test_ilp_optimal_and_feasible;
          Alcotest.test_case "dominates LR" `Slow test_ilp_dominates_lr;
          Alcotest.test_case "LP bound" `Quick test_lp_bound_dominates;
          Alcotest.test_case "Theorem 1 feasibility" `Slow test_theorem1_feasibility;
          Alcotest.test_case "stops at the budget's deadline" `Quick
            test_ilp_stops_at_deadline;
          Alcotest.test_case "stopped is not infeasible" `Quick
            test_ilp_stopped_is_not_infeasible;
          Alcotest.test_case "a stopped search is charged" `Quick
            test_ilp_stopped_search_is_charged;
        ] );
      ( "pin_access",
        [
          Alcotest.test_case "top level LR vs ILP" `Quick test_pin_access_top_level;
          Alcotest.test_case "combined panels" `Quick test_pin_access_combined;
          Alcotest.test_case "interval_of_pin" `Quick test_interval_of_pin;
          Alcotest.test_case "ladder reuses the seeding LR" `Quick
            test_ladder_reuses_the_seeding_lr;
        ] );
    ]
