(* A walk through the paper's core machinery on the Figure 3 scenario:
   track-based interval generation, linear conflict set detection, the
   ILP formulation and the Lagrangian relaxation, side by side.

     dune exec examples/pin_access_demo.exe *)

module I = Geometry.Interval
module AI = Pinaccess.Access_interval

let pf = Format.printf

let () =
  (* Figure 3: pin a1 spans three tracks inside its net bounding box;
     diff-net pins b1 and d1 interfere on one of them; c1/c2 invite an
     intra-panel connection. *)
  let design =
    Netlist.Builder.design ~name:"fig3" ~width:20 ~height:10
      ~nets:
        [
          ("a", [ Netlist.Builder.pin_span 6 ~lo:2 ~hi:4;  (* a1 *)
                  Netlist.Builder.pin_at 2 7;              (* a2 *)
                  Netlist.Builder.pin_at 17 6 ]);          (* a3 *)
          ("b", [ Netlist.Builder.pin_at 9 3; Netlist.Builder.pin_at 9 8 ]);
          ("c", [ Netlist.Builder.pin_at 3 2; Netlist.Builder.pin_at 13 2 ]);
          ("d", [ Netlist.Builder.pin_at 14 3; Netlist.Builder.pin_at 15 8 ]);
        ]
      ()
  in
  let cfg = Pinaccess.Interval_gen.default_config in

  (* --- Sec. 3.1: pin access interval generation --------------------- *)
  pf "== interval generation for pin a1 (x=6, tracks 2-4) ==@.";
  let a1 = Netlist.Design.pin design 0 in
  let candidates = Pinaccess.Interval_gen.generate_pin cfg design a1 in
  List.iter
    (fun (pins, track, span, kind) ->
      pf "  track %d %-9s %s serving pins [%s]@." track
        (I.to_string span)
        (match kind with AI.Minimum -> "(minimum)" | AI.Regular -> "         ")
        (String.concat ";" (List.map string_of_int pins)))
    candidates;
  pf "  -> %d candidates; edges stop at the cutting lines of the diff-net@."
    (List.length candidates);
  pf "     pins b1 (x=9) and d1 (x=14), as in Fig. 3(a)@.@.";

  (* --- Sec. 3.2: linear conflict set detection ---------------------- *)
  let problem = Pinaccess.Problem.build_panel cfg design ~panel:0 in
  pf "== panel instance: %s ==@." (Pinaccess.Problem.summary problem);
  pf "  (pairwise conflicts would need %d constraints; the maximal-clique@."
    (Pinaccess.Conflict.count_pairwise_conflicts
       problem.Pinaccess.Problem.intervals);
  pf "   sweep needs only %d)@.@." (Pinaccess.Problem.num_cliques problem);

  (* --- Sec. 3.3: the exact ILP -------------------------------------- *)
  let ilp = Pinaccess.Ilp.solve ~root_lp:true problem in
  pf "== ILP (Formula (1), exact branch-and-bound) ==@.";
  pf "  optimal objective %.3f in %d nodes (proven: %b)@."
    ilp.Pinaccess.Ilp.objective ilp.Pinaccess.Ilp.nodes
    ilp.Pinaccess.Ilp.proven_optimal;
  (match ilp.Pinaccess.Ilp.root_lp_bound with
  | Some b -> pf "  LP relaxation bound (in-repo simplex): %.3f@." b
  | None -> ());
  pf "@.";

  (* --- Sec. 3.4: Lagrangian relaxation ------------------------------ *)
  let lr = Pinaccess.Lagrangian.solve problem in
  pf "== Lagrangian relaxation (Algorithm 2) ==@.";
  pf "  iterations: %d, best violation count: %d, refinement shrinks: %d@."
    lr.Pinaccess.Lagrangian.iterations lr.Pinaccess.Lagrangian.best_violations
    lr.Pinaccess.Lagrangian.shrinks;
  List.iteri
    (fun i (it : Pinaccess.Lagrangian.iterate) ->
      if i < 5 then
        pf "  iter %d: %d violations, relaxed objective %.2f@."
          it.Pinaccess.Lagrangian.iteration it.Pinaccess.Lagrangian.violations
          it.Pinaccess.Lagrangian.relaxed_objective)
    lr.Pinaccess.Lagrangian.history;
  let lr_obj = Pinaccess.Solution.objective lr.Pinaccess.Lagrangian.solution in
  pf "  LR objective %.3f = %.1f%% of the ILP optimum@." lr_obj
    (100.0 *. lr_obj /. ilp.Pinaccess.Ilp.objective);
  pf "@.";

  (* --- the selections, side by side --------------------------------- *)
  pf "== selected intervals (pin: ILP | LR) ==@.";
  Array.iteri
    (fun slot pid ->
      let ilp_iv =
        Pinaccess.Solution.interval_of_pin ilp.Pinaccess.Ilp.solution pid
      in
      let lr_iv =
        Pinaccess.Solution.interval_of_pin lr.Pinaccess.Lagrangian.solution pid
      in
      ignore slot;
      pf "  pin %d: track %d %-8s | track %d %-8s@." pid ilp_iv.AI.track
        (I.to_string ilp_iv.AI.span)
        lr_iv.AI.track (I.to_string lr_iv.AI.span))
    problem.Pinaccess.Problem.pin_ids;
  let shared =
    List.filter
      (fun (_pid, iv) -> List.length iv.AI.pins > 1)
      (let pao = Pinaccess.Pin_access.optimize ~kind:Pinaccess.Pin_access.Lr design in
       pao.Pinaccess.Pin_access.assignments)
  in
  if shared <> [] then
    pf "@.(c1 and c2 share one interval — the intra-panel connection of Fig. 3(b))@."
