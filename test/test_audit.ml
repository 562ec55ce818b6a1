(* The audit layer must accept everything the solvers legitimately
   produce and reject each seeded corruption with the right typed
   reason — tested by hand-tampering good certificates one invariant at
   a time. *)

module I = Geometry.Interval
module B = Netlist.Builder
module AI = Pinaccess.Access_interval
module P = Pinaccess.Problem
module LR = Pinaccess.Lagrangian
module Sol = Pinaccess.Solution
module PA = Pinaccess.Pin_access

let check = Alcotest.(check bool)
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

(* a known-good certificate: the LR solution on fig3 panel 0, carrying
   the solver-independent upper bound *)
let good_certificate () =
  let problem = P.build_panel cfg (fig3_design ()) ~panel:0 in
  let r = LR.solve problem in
  check "fixture is conflict-free" true (Sol.is_conflict_free r.LR.solution);
  Audit.of_solution ~dual_bound:(Audit.upper_bound problem) r.LR.solution

let reject name cert expected =
  match Audit.certify cert with
  | Ok () -> Alcotest.failf "%s: corrupt certificate accepted" name
  | Error r ->
    check name true (expected r);
    (* the reason must render, and distinctly from a clean accept *)
    check (name ^ " printable") true (String.length (Audit.reason_to_string r) > 0)

let test_good_accepted () =
  match Audit.certify (good_certificate ()) with
  | Ok () -> ()
  | Error r -> Alcotest.failf "good certificate rejected: %s" (Audit.reason_to_string r)

let test_duplicate_pin () =
  let cert = good_certificate () in
  let entry = List.hd cert.Audit.assignment in
  reject "duplicate pin"
    { cert with Audit.assignment = entry :: cert.Audit.assignment }
    (function Audit.Duplicate_pin p -> p = fst entry | _ -> false)

let test_uncovered_pin () =
  let cert = good_certificate () in
  let victim, iv = List.hd cert.Audit.assignment in
  (* same net, wrong track: geometry no longer covers the pin *)
  let tampered = { iv with AI.track = iv.AI.track + 1 } in
  let assignment =
    List.map
      (fun ((p, _) as e) -> if p = victim then (p, tampered) else e)
      cert.Audit.assignment
  in
  reject "uncovered pin"
    { cert with Audit.assignment }
    (function Audit.Uncovered_pin { pin; _ } -> pin = victim | _ -> false)

let test_overlap_conflict () =
  (* two 2-pin nets sharing track 3; stretch each left pin's interval
     across the other net's span so the pair overlaps on [6, 12] *)
  let d =
    B.design ~width:20 ~height:10
      ~nets:
        [
          ("a", [ B.pin_at 2 3; B.pin_at 12 3 ]);
          ("b", [ B.pin_at 6 3; B.pin_at 16 3 ]);
        ]
      ()
  in
  let problem = P.build_panel cfg d ~panel:0 in
  let stretch pin_id net lo hi =
    AI.make ~id:0 ~net ~pins:[ pin_id ] ~track:3 ~span:(I.make ~lo ~hi)
      ~kind:AI.Regular
  in
  let assignment =
    Array.to_list problem.P.pin_ids
    |> List.map (fun pin ->
           let slot = P.slot_of_pin problem pin in
           let iv = problem.P.intervals.(P.minimum_interval problem ~slot) in
           match (iv.AI.net, (Netlist.Design.pin d pin).Netlist.Pin.x) with
           | 0, 2 -> (pin, stretch pin 0 2 12)
           | 1, 6 -> (pin, stretch pin 1 6 16)
           | _ -> (pin, iv))
  in
  reject "overlapping pair"
    {
      Audit.problem;
      assignment;
      reported_objective =
        List.fold_left
          (fun acc (_, iv) -> acc +. Pinaccess.Objective.f Pinaccess.Objective.Sqrt_length (AI.length iv))
          0.0
          (List.sort_uniq
             (fun (_, a) (_, b) -> AI.compare_geometry a b)
             assignment);
      dual_bound = None;
    }
    (function
      | Audit.Overlap_conflict { track = 3; net_a; net_b } -> net_a <> net_b
      | _ -> false)

let test_inflated_objective () =
  let cert = good_certificate () in
  reject "inflated objective"
    { cert with Audit.reported_objective = cert.Audit.reported_objective +. 10.0 }
    (function Audit.Objective_mismatch _ -> true | _ -> false)

let test_violated_dual_bound () =
  let cert = good_certificate () in
  reject "violated dual bound"
    { cert with Audit.dual_bound = Some (cert.Audit.reported_objective -. 1.0) }
    (function Audit.Dual_bound_violated _ -> true | _ -> false)

let test_violations_collects_all () =
  (* one certificate carrying two independent defects; [violations]
     reports both where [certify] stops at the first *)
  let cert = good_certificate () in
  let entry = List.hd cert.Audit.assignment in
  let cert =
    {
      cert with
      Audit.assignment = entry :: cert.Audit.assignment;
      reported_objective = cert.Audit.reported_objective +. 5.0;
    }
  in
  let vs = Audit.violations cert in
  check "at least two violations" true (List.length vs >= 2);
  check "duplicate reported" true
    (List.exists (function Audit.Duplicate_pin _ -> true | _ -> false) vs);
  check "mismatch reported" true
    (List.exists (function Audit.Objective_mismatch _ -> true | _ -> false) vs)

let test_upper_bound_dominates () =
  let problem = P.build_panel cfg (fig3_design ()) ~panel:0 in
  let ub = Audit.upper_bound problem in
  let r = LR.solve problem in
  check "LR feasible below certified bound" true
    (Sol.objective r.LR.solution <= ub +. 1e-9);
  check "LR claimed bound is a bound too" true
    (match LR.dual_bound r with
    | None -> true
    | Some b -> Sol.objective r.LR.solution <= b +. 1e-6)

let test_whole_design_certifies () =
  let d = fig3_design () in
  List.iter
    (fun kind ->
      let result = PA.optimize ~kind d in
      match Audit.certify_pin_access result with
      | Ok () -> ()
      | Error r ->
        Alcotest.failf "optimize output rejected: %s" (Audit.reason_to_string r))
    [ PA.Lr; PA.Ilp ]

(* [div] at scale 0.1 with its generator seed offset by 16: a line-end
   fill there crosses its own net's M3 and adds a via, which a DRC
   count taken before the fills misses (41 reported, 42 replayed). *)
let div_with_fill_via () =
  let c = Workloads.Suite.find "div" in
  Workloads.Suite.design ~scale:0.1
    { c with Workloads.Suite.seed = Int64.add c.Workloads.Suite.seed 16L }

let test_flow_audit_clean () =
  let d = fig3_design () in
  List.iter
    (fun (name, flow) ->
      match Audit.Flow_audit.run (flow ()) with
      | [] -> ()
      | i :: _ ->
        Alcotest.failf "%s flow failed audit: %s" name
          (Audit.Flow_audit.issue_to_string i))
    [
      ("cpr", fun () -> Router.Cpr.run d);
      ("sequential", fun () -> Router.Sequential.run d);
      ("cpr div@0.1+16", fun () -> Router.Cpr.run (div_with_fill_via ()));
    ]

(* The ddmin both shrinkers share, on a predicate that fails iff the
   list holds 3 and 7: halves, then pairs, then singles (twice, since
   the first single sweep drops something).  The result, the accepted
   drops and the predicate calls are pinned, so a change to the chunk
   order shows. *)
let test_ddmin () =
  let calls = ref 0 in
  let fails l =
    incr calls;
    List.mem 3 l && List.mem 7 l
  in
  let reduced, steps = Audit.Ddmin.reduce fails (List.init 10 Fun.id) in
  Alcotest.(check (list int)) "reduced to the culprits" [ 3; 7 ] reduced;
  Alcotest.(check int) "accepted drops" 5 steps;
  Alcotest.(check int) "predicate calls" 13 !calls

(* property: whatever the generator throws at it, every optimize
   result the solver calls valid also certifies clean externally *)
let prop_optimize_certifies =
  QCheck.Test.make ~count:60 ~name:"optimize output always certifies"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params =
        Workloads.Generator.random_params ~max_nets:10 ~seed:(Int64.of_int seed) ()
      in
      match Workloads.Generator.generate params with
      | exception Invalid_argument _ -> true
      | design -> (
        let result = PA.optimize ~kind:PA.Lr design in
        match Audit.certify_pin_access result with
        | Ok () -> true
        | Error r ->
          QCheck.Test.fail_reportf "rejected: %s" (Audit.reason_to_string r)))

let () =
  Alcotest.run "audit"
    [
      ( "certificate",
        [
          Alcotest.test_case "good accepted" `Quick test_good_accepted;
          Alcotest.test_case "duplicate pin rejected" `Quick test_duplicate_pin;
          Alcotest.test_case "uncovered pin rejected" `Quick test_uncovered_pin;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_conflict;
          Alcotest.test_case "inflated objective rejected" `Quick
            test_inflated_objective;
          Alcotest.test_case "violated dual bound rejected" `Quick
            test_violated_dual_bound;
          Alcotest.test_case "violations collects all" `Quick
            test_violations_collects_all;
          Alcotest.test_case "upper bound dominates" `Quick
            test_upper_bound_dominates;
        ] );
      ( "whole design",
        [
          Alcotest.test_case "optimize certifies" `Quick test_whole_design_certifies;
          Alcotest.test_case "flows audit clean" `Quick test_flow_audit_clean;
        ] );
      ("shrink", [ Alcotest.test_case "ddmin" `Quick test_ddmin ]);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_optimize_certifies ] );
    ]
