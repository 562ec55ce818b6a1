(* Fault-injection tests for the degradation ladder (ILP → LR → minimum
   intervals) and the budget plumbing: each tier is killed
   deterministically and the pipeline must still return a
   [Pin_access.validate]-clean result within its budget, reporting the
   affected panels as degraded with the tier that actually served
   them. *)

module PA = Pinaccess.Pin_access
module Budget = Pinaccess.Budget
module Fault = Pinaccess.Fault
module Cpr_error = Pinaccess.Cpr_error

let check = Alcotest.(check bool)

let design ~nets ~width ~height ~seed =
  Workloads.Generator.generate
    (Workloads.Generator.with_size ~name:"faults" ~nets ~width ~height
       ~seed:(Int64.of_int seed) ())

let small () = design ~nets:60 ~width:60 ~height:30 ~seed:3

let all_served tier (pao : PA.t) =
  List.for_all (fun (r : PA.panel_report) -> r.PA.served_by = tier) pao.PA.reports

let test_ilp_falls_back_to_lr () =
  let d = small () in
  let pao =
    Fault.with_failures [ Fault.Ilp ] (fun () -> PA.optimize ~kind:PA.Ilp d)
  in
  PA.validate pao;
  check "all panels served by LR" true (all_served PA.Tier_lr pao);
  check "result flagged degraded" true pao.PA.degraded;
  check "every report degraded" true
    (List.for_all (fun (r : PA.panel_report) -> r.PA.degraded) pao.PA.reports)

let test_both_tiers_fall_back_to_minimum () =
  let d = small () in
  let pao =
    Fault.with_failures [ Fault.Ilp; Fault.Lr ] (fun () ->
        PA.optimize ~kind:PA.Ilp d)
  in
  PA.validate pao;
  check "all panels served by minimum" true (all_served PA.Tier_minimum pao);
  check "degraded" true pao.PA.degraded

let test_lr_fault_on_lr_kind () =
  let d = small () in
  let pao =
    Fault.with_failures [ Fault.Lr ] (fun () -> PA.optimize ~kind:PA.Lr d)
  in
  PA.validate pao;
  check "minimum serves" true (all_served PA.Tier_minimum pao);
  check "degraded" true pao.PA.degraded

let test_no_fault_not_degraded () =
  let d = small () in
  let pao = PA.optimize ~kind:PA.Lr d in
  PA.validate pao;
  check "not degraded" false pao.PA.degraded;
  check "served by LR" true (all_served PA.Tier_lr pao)

(* The acceptance scenario: ILP forcibly failed AND the LR rescue
   running out of work units mid-run.  The pipeline must still return a
   complete, conflict-free assignment and mark the panels degraded with
   the tier that served them. *)
let test_ilp_fault_and_tiny_budget () =
  let d = design ~nets:120 ~width:80 ~height:40 ~seed:7 in
  let budget = Budget.start ~work_units:3 () in
  let pao =
    Fault.with_failures [ Fault.Ilp ] (fun () ->
        PA.optimize ~budget ~kind:PA.Ilp d)
  in
  PA.validate pao;
  check "degraded" true pao.PA.degraded;
  List.iter
    (fun (r : PA.panel_report) ->
      check "not served by the dead ILP tier" true (r.PA.served_by <> PA.Tier_ilp);
      check "degraded panels say who served them" true r.PA.degraded)
    pao.PA.reports

let test_exhausted_budget_yields_minimum () =
  let d = small () in
  let budget = Budget.start ~work_units:1 () in
  Budget.spend budget 1;
  check "pre-exhausted" true (Budget.exhausted budget);
  let pao = PA.optimize ~budget ~kind:PA.Lr d in
  PA.validate pao;
  check "minimum serves everything" true (all_served PA.Tier_minimum pao);
  check "degraded" true pao.PA.degraded

(* Slices split a work remainder exactly, so a run never spends more
   units than its budget holds — even with fewer units than live
   panels, where some panels get a 0-unit slice and go straight to the
   minimum tier. *)
let test_slices_never_overspend () =
  let d = small () in
  let live = List.length (PA.optimize ~kind:PA.Lr d).PA.reports in
  check "several live panels" true (live > 1);
  for w = 1 to live + 1 do
    List.iter
      (fun j ->
        let budget = Budget.start ~work_units:w () in
        let pao = PA.optimize ~budget ~j ~kind:PA.Lr d in
        PA.validate pao;
        check
          (Printf.sprintf "w=%d j=%d spent %d" w j (Budget.work_spent budget))
          true
          (Budget.work_spent budget <= w))
      [ 1; 4 ]
  done

let test_deadline_respected () =
  let d = design ~nets:200 ~width:120 ~height:60 ~seed:11 in
  let seconds = 0.5 in
  let budget = Budget.start ~seconds () in
  let started = Obs.Clock.now () in
  let pao = PA.optimize ~budget ~kind:PA.Ilp d in
  let took = Obs.Clock.now () -. started in
  PA.validate pao;
  (* generous slack: the point is "returns promptly", not a tight RT
     guarantee — each panel returns its best-so-far shortly after the
     shared deadline passes *)
  check "returned near the deadline" true (took < (seconds *. 10.0) +. 5.0)

let test_flow_with_exhausted_budget () =
  let d = small () in
  let budget = Budget.start ~work_units:1 () in
  Budget.spend budget 1;
  let flow = Router.Cpr.run ~budget d in
  check "flow degraded" true (Router.Flow.degraded flow);
  check "degraded panels counted" true (Metrics.Eval.degraded_panels flow > 0);
  (* routes that do exist are still short-free and well-formed *)
  check "clean flags sized" true
    (Array.length flow.Router.Flow.clean
    = Array.length (Netlist.Design.nets d))

let test_flow_fault_end_to_end () =
  let d = small () in
  let flow =
    Fault.with_failures [ Fault.Ilp ] (fun () ->
        let config =
          { Router.Cpr.default_config with Router.Cpr.pao_kind = PA.Ilp }
        in
        Router.Cpr.run ~config d)
  in
  check "flow degraded" true (Router.Flow.degraded flow);
  (match flow.Router.Flow.pao with
  | Some pao -> PA.validate pao
  | None -> Alcotest.fail "cpr flow must carry a PAO result");
  let s = Metrics.Eval.of_flow flow in
  check "summary counts degraded panels" true (s.Metrics.Eval.degraded_panels > 0);
  check "still routes nets" true (Router.Flow.routed_count flow > 0)

let test_fault_hook_restored () =
  (try
     Fault.with_failures [ Fault.Ilp ] (fun () ->
         Fault.trip Fault.Ilp)
   with Cpr_error.Error _ -> ());
  (* outside with_failures the hook must be inert again *)
  Fault.trip Fault.Ilp;
  Fault.trip Fault.Lr;
  check "hook restored" true true

let test_negotiation_budget_returns () =
  let d = design ~nets:100 ~width:80 ~height:40 ~seed:5 in
  let budget = Budget.start ~work_units:50 () in
  let flow = Router.Baseline_ncr.run ~budget d in
  check "returns a flow" true
    (Array.length flow.Router.Flow.routes
    = Array.length (Netlist.Design.nets d));
  check "ncr flow never PAO-degraded" false (Router.Flow.degraded flow)

let () =
  Alcotest.run "faults"
    [
      ( "ladder",
        [
          Alcotest.test_case "ILP fault -> LR serves" `Quick
            test_ilp_falls_back_to_lr;
          Alcotest.test_case "ILP+LR fault -> minimum serves" `Quick
            test_both_tiers_fall_back_to_minimum;
          Alcotest.test_case "LR fault -> minimum serves" `Quick
            test_lr_fault_on_lr_kind;
          Alcotest.test_case "no fault -> not degraded" `Quick
            test_no_fault_not_degraded;
          Alcotest.test_case "hook restored after with_failures" `Quick
            test_fault_hook_restored;
        ] );
      ( "budget",
        [
          Alcotest.test_case "ILP fault + tiny budget" `Quick
            test_ilp_fault_and_tiny_budget;
          Alcotest.test_case "exhausted budget -> minimum tier" `Quick
            test_exhausted_budget_yields_minimum;
          Alcotest.test_case "slices never overspend" `Quick
            test_slices_never_overspend;
          Alcotest.test_case "deadline respected" `Quick test_deadline_respected;
          Alcotest.test_case "flow with exhausted budget" `Quick
            test_flow_with_exhausted_budget;
          Alcotest.test_case "negotiation under work budget" `Quick
            test_negotiation_budget_returns;
          Alcotest.test_case "flow fault end to end" `Quick
            test_flow_fault_end_to_end;
        ] );
    ]
