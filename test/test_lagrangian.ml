module I = Geometry.Interval
module B = Netlist.Builder
module P = Pinaccess.Problem
module LR = Pinaccess.Lagrangian
module Sol = Pinaccess.Solution
module Obj = Pinaccess.Objective

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

let test_objective_function () =
  Alcotest.(check (float 1e-9)) "sqrt" 3.0 (Obj.f Obj.Sqrt_length 9);
  Alcotest.(check (float 1e-9)) "linear" 9.0 (Obj.f Obj.Linear_length 9);
  let iv =
    Pinaccess.Access_interval.make ~id:0 ~net:0 ~pins:[ 0; 1 ] ~track:0
      ~span:(I.make ~lo:0 ~hi:8) ~kind:Pinaccess.Access_interval.Regular
  in
  Alcotest.(check (float 1e-9)) "shared counted per pin" 6.0
    (Obj.profit Obj.Sqrt_length iv)

let test_max_gains_assigns_all () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let assignment = LR.max_gains problem ~gains:problem.P.profits in
  check_int "every pin assigned" (P.num_pins problem) (Array.length assignment);
  Array.iteri
    (fun slot id ->
      check "assigned interval serves pin" true
        (Pinaccess.Access_interval.serves problem.P.intervals.(id)
           problem.P.pin_ids.(slot)))
    assignment

let test_max_gains_prefers_gain () =
  (* with all-equal penalties, the top-gain interval of an isolated pin
     is selected *)
  let d =
    B.design ~width:20 ~height:10 ~nets:[ ("a", [ B.pin_at 5 3; B.pin_at 15 3 ]) ] ()
  in
  let problem = P.build_panel cfg d ~panel:0 in
  let assignment = LR.max_gains problem ~gains:problem.P.profits in
  (* the shared maximal interval serves both pins and has the largest
     profit, so both slots point at it *)
  check "both pins share the max interval" true
    (assignment.(0) = assignment.(1))

let test_solve_conflict_free () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let r = LR.solve problem in
  check "conflict-free" true (Sol.is_conflict_free r.LR.solution);
  check "iterations positive" true (r.LR.iterations >= 1);
  check "history recorded" true (List.length r.LR.history = r.LR.iterations)

let test_violations_decrease () =
  let d = Workloads.Suite.design ~scale:0.08 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:0 in
  let r = LR.solve problem in
  match r.LR.history with
  | [] -> () (* converged instantly *)
  | first :: _ ->
    let last_best = r.LR.best_violations in
    check "best violations <= first iterate's" true
      (last_best <= first.LR.violations)

let test_iteration_bound_respected () =
  let d = Workloads.Suite.design ~scale:0.08 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:0 in
  let config = { LR.default_config with LR.max_iterations = 5 } in
  let r = LR.solve ~config problem in
  check "at most 5 iterations" true (r.LR.iterations <= 5);
  check "still conflict-free after refinement" true
    (Sol.num_violations r.LR.solution <= r.LR.best_violations)

let test_constant_step_ablation () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let config = { LR.default_config with LR.constant_step = Some 0.5 } in
  let r = LR.solve ~config problem in
  check "constant step also conflict-free here" true
    (Sol.is_conflict_free r.LR.solution)

let test_literal_algorithm1 () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let config = { LR.default_config with LR.full_subgradient = false } in
  let r = LR.solve ~config problem in
  check "algorithm-1-literal converges here" true
    (Sol.is_conflict_free r.LR.solution)

let test_solution_accessors () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let r = LR.solve problem in
  let sol = r.LR.solution in
  check "objective positive" true (Sol.objective sol > 0.0);
  check "total length >= pins" true (Sol.total_length sol >= P.num_pins problem);
  check "balance in (0,1]" true (Sol.balance sol > 0.0 && Sol.balance sol <= 1.0);
  Array.iter
    (fun pid ->
      let iv = Sol.interval_of_pin sol pid in
      check "interval serves its pin" true (Pinaccess.Access_interval.serves iv pid))
    problem.P.pin_ids

let test_refine_repairs_conflicts () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  (* deliberately conflicting start: every pin takes its highest-profit
     candidate *)
  let assignment =
    Array.mapi
      (fun _slot candidates ->
        Array.fold_left
          (fun best id ->
            if problem.P.profits.(id) > problem.P.profits.(best) then id
            else best)
          candidates.(0) candidates)
      problem.P.pin_candidates
  in
  let raw = Sol.make problem ~assignment in
  let repaired, shrinks = Pinaccess.Refine.remove_conflicts raw in
  check "greedy start had conflicts" true (Sol.num_violations raw > 0);
  check "repaired" true (Sol.is_conflict_free repaired);
  check "shrinks counted" true (shrinks > 0)

let test_warm_start_fewer_iterations () =
  (* a warm restart from the converged multipliers of the *same*
     problem must re-converge strictly faster than the cold solve did *)
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let cold = LR.solve problem in
  check "cold solve converges" true (cold.LR.best_violations = 0);
  check "cold solve needs several iterations" true (cold.LR.iterations >= 2);
  check "multiplier vector matches clique count" true
    (Array.length (LR.multipliers cold) = Array.length problem.P.cliques);
  let warm = LR.solve ~warm_start:(LR.multipliers cold) problem in
  check "warm restart converges" true (warm.LR.best_violations = 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d iterations" warm.LR.iterations
       cold.LR.iterations)
    true
    (warm.LR.iterations < cold.LR.iterations)

let test_warm_start_length_mismatch () =
  let d = fig3_design () in
  let problem = P.build_panel cfg d ~panel:0 in
  let bad = Array.make (Array.length problem.P.cliques + 1) 0.0 in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument
       (Printf.sprintf
          "Lagrangian.solve: warm_start has %d multipliers, problem has %d \
           cliques"
          (Array.length bad)
          (Array.length problem.P.cliques)))
    (fun () -> ignore (LR.solve ~warm_start:bad problem))

let test_objective_close_to_ilp () =
  let d = Workloads.Suite.design ~scale:0.08 (Workloads.Suite.find "ecc") in
  let problem = P.build_panel cfg d ~panel:0 in
  let lr = LR.solve problem in
  if Sol.is_conflict_free lr.LR.solution then begin
    let ilp =
      Pinaccess.Ilp.solve
        ~budget:(Pinaccess.Budget.start ~seconds:20.0 ())
        ~warm_start:lr.LR.solution problem
    in
    let lr_obj = Sol.objective lr.LR.solution in
    check "LR <= ILP" true (lr_obj <= ilp.Pinaccess.Ilp.objective +. 1e-6);
    (* Fig 6(b): LR is close to optimal — allow a generous 25% here *)
    check "LR within 25% of ILP" true
      (lr_obj >= 0.75 *. ilp.Pinaccess.Ilp.objective)
  end

(* ------------------------------------------------------------------ *)
(* Bit-identity guards                                                 *)
(* ------------------------------------------------------------------ *)

(* The greedy maxGains exactly as first written: a full sort of every
   interval per call.  The solver's own [max_gains] must agree with it
   on every input. *)
let reference_max_gains (problem : P.t) ~gains =
  let intervals = problem.P.intervals in
  let n = Array.length intervals in
  let num_pins = P.num_pins problem in
  let npins id = List.length intervals.(id).Pinaccess.Access_interval.pins in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare gains.(b) gains.(a) in
      if c <> 0 then c
      else
        let c = Int.compare (npins b) (npins a) in
        if c <> 0 then c else Int.compare a b)
    order;
  let assignment = Array.make num_pins (-1) in
  let remaining = ref num_pins in
  let select id =
    let slots =
      List.map
        (fun pid -> P.slot_of_pin problem pid)
        intervals.(id).Pinaccess.Access_interval.pins
    in
    if List.for_all (fun slot -> assignment.(slot) < 0) slots then begin
      List.iter (fun slot -> assignment.(slot) <- id) slots;
      remaining := !remaining - List.length slots
    end
  in
  (try
     Array.iter
       (fun id ->
         if !remaining = 0 then raise Exit;
         select id)
       order
   with Exit -> ());
  assert (!remaining = 0);
  assignment

let multi_pin problem =
  Array.exists
    (fun iv -> List.length iv.Pinaccess.Access_interval.pins > 1)
    problem.P.intervals

(* An earlier multi-pin interval (0) takes a slot of a later one (1):
   the later one is rejected, and its other slot falls back to that
   slot's best single (4).  Slot 3 has no single candidate at all and
   is served by a multi-pin interval (5). *)
let test_max_gains_rejected_multi () =
  let d =
    B.design ~width:20 ~height:10
      ~nets:[ ("a", List.map (fun x -> B.pin_at x 3) [ 2; 4; 6; 8; 10 ]) ]
      ()
  in
  let iv id pins lo hi kind =
    Pinaccess.Access_interval.make ~id ~net:0 ~pins ~track:3
      ~span:(I.make ~lo ~hi) ~kind
  in
  let single = Pinaccess.Access_interval.Minimum
  and multi = Pinaccess.Access_interval.Regular in
  let problem =
    P.of_intervals cfg d
      [|
        iv 0 [ 0; 1 ] 2 4 multi;
        iv 1 [ 1; 2 ] 4 6 multi;
        iv 2 [ 0 ] 2 2 single;
        iv 3 [ 1 ] 4 4 single;
        iv 4 [ 2 ] 6 6 single;
        iv 5 [ 3; 4 ] 8 10 multi;
        iv 6 [ 4 ] 10 10 single;
      |]
  in
  let gains = [| 10.0; 9.0; 1.0; 1.0; 2.0; 5.0; 1.0 |] in
  let expected = [| 0; 0; 4; 5; 5 |] in
  Alcotest.(check (array int)) "greedy" expected (LR.max_gains problem ~gains);
  Alcotest.(check (array int)) "full-sort reference" expected
    (reference_max_gains problem ~gains)

(* panels with multi-pin intervals, small to mid-size, plus one mega
   panel with hundreds of multi-pin survivors per call *)
let property_pool =
  lazy
    (let suite id scale = Workloads.Suite.design ~scale (Workloads.Suite.find id) in
     let ecc = suite "ecc" 0.05 and div = suite "div" 0.05 in
     let mega = Workloads.Suite.design ~scale:0.02 Workloads.Suite.mega in
     let pool =
       P.build_panel cfg (fig3_design ()) ~panel:0
       :: List.map (fun panel -> P.build_panel cfg ecc ~panel) [ 0; 1; 2 ]
       @ List.map (fun panel -> P.build_panel cfg div ~panel) [ 0; 3 ]
       @ [ P.build_panel cfg mega ~panel:20 ]
     in
     Array.of_list (List.filter multi_pin pool))

(* gains with forced ties, zeros (both signs) and negatives *)
let random_gains (problem : P.t) ~mode st =
  let n = P.num_intervals problem in
  let pick a = a.(Random.State.int st (Array.length a)) in
  match mode with
  | 0 -> Array.copy problem.P.profits
  | 1 -> Array.init n (fun _ -> Random.State.float st 20.0 -. 10.0)
  | 2 -> Array.init n (fun _ -> pick [| -2.0; -1.0; -0.0; 0.0; 1.0; 2.0 |])
  | 3 -> Array.make n 0.0
  | 4 ->
    Array.map
      (fun p -> p -. (0.5 *. float_of_int (Random.State.int st 8)))
      problem.P.profits
  | _ ->
    Array.map
      (fun p -> if Random.State.bool st then p else pick [| 0.0; -1.0; p |])
      problem.P.profits

let prop_max_gains_matches_reference =
  QCheck.Test.make ~name:"max_gains equals the full-sort reference" ~count:300
    QCheck.(triple small_nat (int_range 0 5) int)
    (fun (which, mode, seed) ->
      let pool = Lazy.force property_pool in
      let problem = pool.(which mod Array.length pool) in
      let gains = random_gains problem ~mode (Random.State.make [| seed |]) in
      LR.max_gains problem ~gains = reference_max_gains problem ~gains)

(* Digests of what a solve reports, floats by their exact bits, plus
   the lr.* and refine.* metrics it emitted into the (reset) registry. *)
let digest_with_metrics b =
  let snap = Obs.Metrics.snapshot () in
  let ours name =
    String.starts_with ~prefix:"lr." name
    || String.starts_with ~prefix:"refine." name
  in
  List.iter
    (fun (name, v) -> if ours name then Printf.bprintf b "%s=%d;" name v)
    snap.Obs.Metrics.counters;
  List.iter
    (fun (name, (s : Obs.Metrics.histogram_stats)) ->
      if ours name then
        Printf.bprintf b "%s=%d/%h/%h/%h;" name s.Obs.Metrics.count s.sum s.min
          s.max)
    snap.Obs.Metrics.histograms;
  Digest.to_hex (Digest.string (Buffer.contents b))

let result_digest (r : LR.result) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  Array.iter (add "%d,") r.LR.solution.Sol.assignment;
  add "|%d|%d|%d|%b|" r.LR.iterations r.LR.best_violations r.LR.shrinks
    r.LR.budget_expired;
  List.iter
    (fun (it : LR.iterate) ->
      add "%d:%d:%h," it.LR.iteration it.LR.violations it.LR.relaxed_objective)
    r.LR.history;
  Array.iter (add "%h,") r.LR.multipliers;
  digest_with_metrics b

(* refinement alone, from the conflict-heavy start where every pin takes
   its highest-profit candidate *)
let refine_digest (problem : P.t) =
  let assignment =
    Array.map
      (fun candidates ->
        Array.fold_left
          (fun best id ->
            if problem.P.profits.(id) > problem.P.profits.(best) then id
            else best)
          candidates.(0) candidates)
      problem.P.pin_candidates
  in
  let sol, shrinks =
    Pinaccess.Refine.remove_conflicts (Sol.make problem ~assignment)
  in
  let b = Buffer.create 1024 in
  Array.iter (Printf.bprintf b "%d,") sol.Sol.assignment;
  Printf.bprintf b "|%d|" shrinks;
  digest_with_metrics b

let suite_design id scale = Workloads.Suite.design ~scale (Workloads.Suite.find id)

let largest_panel d =
  let pins p = List.length (Netlist.Design.pins_of_panel d p) in
  let best = ref 0 in
  for p = 1 to Netlist.Design.num_panels d - 1 do
    if pins p > pins !best then best := p
  done;
  !best

(* (name, digest) pairs: Suite circuits, mega panels, a TPL deck, a warm
   start, a truncated solve and every step-schedule option.  Each runs
   on a freshly reset registry. *)
let golden_cases () =
  let lr ?(config = LR.default_config) ?warm_start problem () =
    result_digest (LR.solve ~config ?warm_start problem)
  in
  let panel ?(cfg = cfg) d p = P.build_panel cfg d ~panel:p in
  let suite =
    List.concat_map
      (fun (c : Workloads.Suite.circuit) ->
        let d = Workloads.Suite.design ~scale:0.05 c in
        List.map
          (fun p ->
            let name = Printf.sprintf "%s@0.05/p%d" c.Workloads.Suite.id p in
            [
              (name, lr (panel d p));
              ("refine:" ^ name, fun () -> refine_digest (panel d p));
            ])
          [ 0; Netlist.Design.num_panels d / 2 ]
        |> List.concat)
      Workloads.Suite.circuits
  in
  let mega = Workloads.Suite.design ~scale:0.02 Workloads.Suite.mega in
  let ecc = suite_design "ecc" 0.1 in
  let warm () =
    let problem = panel ecc 0 in
    let cold = LR.solve problem in
    Obs.Metrics.reset ();
    lr ~warm_start:cold.LR.multipliers problem ()
  in
  let tpl =
    { cfg with Pinaccess.Interval_gen.tpl = Some (Solver.Color_graph.default ~colors:3) }
  in
  let d = LR.default_config in
  suite
  @ List.map
      (fun p -> (Printf.sprintf "mega@0.02/p%d" p, lr (panel mega p)))
      [ 0; 12; largest_panel mega ]
  @ [
      ("ecc@0.1/tpl3/p0", lr (panel ~cfg:tpl ecc 0));
      ("ecc@0.1/tpl3/p1", lr (panel ~cfg:tpl ecc 1));
      ("refine:ecc@0.1/tpl3/p1", fun () -> refine_digest (panel ~cfg:tpl ecc 1));
      ("ecc@0.1/warm", warm);
      ( "ctl@0.05/max5",
        lr ~config:{ d with LR.max_iterations = 5 } (panel (suite_design "ctl" 0.05) 1) );
      ( "alu@0.05/literal",
        lr ~config:{ d with LR.full_subgradient = false }
          (panel (suite_design "alu" 0.05) 0) );
      ( "efc@0.05/constant-step",
        lr ~config:{ d with LR.constant_step = Some 0.5 }
          (panel (suite_design "efc" 0.05) 0) );
      ( "ecc@0.1/clearance0",
        lr (panel ~cfg:{ cfg with Pinaccess.Interval_gen.clearance = 0 } ecc 1) );
      ("ecc@0.1/panels01", lr (P.build_panels cfg ecc ~panels:[ 0; 1 ]));
    ]

(* recorded before the candidate reduction; CPR_LR_GOLDEN=print prints
   the table afresh *)
let golden =
  [
    ("ecc@0.05/p0", "3ae866bb0cc68b7a6d3da2b9e3e4455a");
    ("refine:ecc@0.05/p0", "c5de3767ac452d17d6106809b5dc5044");
    ("ecc@0.05/p2", "d91942e9368de378e1f2553a07e198c7");
    ("refine:ecc@0.05/p2", "f49c401a12e9c534755b58da42428e70");
    ("efc@0.05/p0", "8cc5a6613b956a0b981b5e2695331391");
    ("refine:efc@0.05/p0", "5786d84dbb3fdd37b9340b47fb2a32d8");
    ("efc@0.05/p2", "c2e0ad9769e8bd91944a7f4a7f20861c");
    ("refine:efc@0.05/p2", "21809812560ad62ee34f0214f35a6c96");
    ("ctl@0.05/p0", "0ab942ca2ec50df658035bab21678f56");
    ("refine:ctl@0.05/p0", "6ba2b47256f28ba17eba862f7dbad6f4");
    ("ctl@0.05/p2", "0dadd81fa97cc8ee01b065138b902ff8");
    ("refine:ctl@0.05/p2", "2a2265811f2c1a63c8a16a2cb98d9559");
    ("alu@0.05/p0", "22c3da7d830f83c6c6c724fdda6474c9");
    ("refine:alu@0.05/p0", "684be563f80ad693f89aa0d67531a90b");
    ("alu@0.05/p2", "2820e5f34873aee89c10c5118a9dc413");
    ("refine:alu@0.05/p2", "540ddf0525994d29803a78553cf0168b");
    ("div@0.05/p0", "95753500e8d087f04228f2597a230c2f");
    ("refine:div@0.05/p0", "2121732d01f1f55c8df4e96fabb69f6b");
    ("div@0.05/p3", "f443c12c5aaf53586940c8d0605552af");
    ("refine:div@0.05/p3", "5c318d0fcfb2b47a14d04b29a4315169");
    ("top@0.05/p0", "df2c25d8b898b78efefd2e8fa1c6597e");
    ("refine:top@0.05/p0", "d7fa3fa23ca7b2fbbef85ff633435633");
    ("top@0.05/p6", "c1b55ad962ccc385b11a2ccca43c3204");
    ("refine:top@0.05/p6", "23b0174e506125dc9f5ce3e9fb10f584");
    ("mega@0.02/p0", "b00816dc23dff2c62579971c432c5b53");
    ("mega@0.02/p12", "fc36d6e621d1a27b148c515fcbb0db0a");
    ("mega@0.02/p4", "9a87a44d6cfacd73b859c9e89a27353f");
    ("ecc@0.1/tpl3/p0", "fc44e3e2bdb867a28ab11aed0bbb4f51");
    ("ecc@0.1/tpl3/p1", "91b62196eed93d99b692d7d7f868a1cd");
    ("refine:ecc@0.1/tpl3/p1", "2610595774e0cffa7a1881dbfa8e94eb");
    ("ecc@0.1/warm", "d65f593baf817b65c7f74d71fdc6a056");
    ("ctl@0.05/max5", "da0eb9a213a1ffcb1bab0dd71295aa87");
    ("alu@0.05/literal", "76ffbbfbd9410647bf3ebffefeb35f72");
    ("efc@0.05/constant-step", "92b49886368550b982557d5fdbc04cd9");
    ("ecc@0.1/clearance0", "fc34aafc92b5f3ddb0001ece3d87b1eb");
    ("ecc@0.1/panels01", "c65e4cb4f326731b97b5b4d4d595c014");
  ]

let test_golden_digests () =
  let record = Sys.getenv_opt "CPR_LR_GOLDEN" = Some "print" in
  List.iter
    (fun (name, run) ->
      Obs.Metrics.reset ();
      let digest = run () in
      if record then Printf.printf "    (%S, %S);\n%!" name digest
      else
        Alcotest.(check string) name
          (Option.value ~default:"<missing>" (List.assoc_opt name golden))
          digest)
    (golden_cases ())

let () =
  Alcotest.run "lagrangian"
    [
      ( "lr",
        [
          Alcotest.test_case "objective f" `Quick test_objective_function;
          Alcotest.test_case "maxGains assigns all" `Quick test_max_gains_assigns_all;
          Alcotest.test_case "maxGains prefers gain" `Quick test_max_gains_prefers_gain;
          Alcotest.test_case "solve conflict-free" `Quick test_solve_conflict_free;
          Alcotest.test_case "violations decrease" `Quick test_violations_decrease;
          Alcotest.test_case "iteration bound" `Quick test_iteration_bound_respected;
          Alcotest.test_case "constant step ablation" `Quick test_constant_step_ablation;
          Alcotest.test_case "algorithm 1 literal" `Quick test_literal_algorithm1;
          Alcotest.test_case "solution accessors" `Quick test_solution_accessors;
          Alcotest.test_case "refine repairs" `Quick test_refine_repairs_conflicts;
          Alcotest.test_case "warm start fewer iterations" `Quick
            test_warm_start_fewer_iterations;
          Alcotest.test_case "warm start length mismatch" `Quick
            test_warm_start_length_mismatch;
          Alcotest.test_case "LR close to ILP" `Slow test_objective_close_to_ilp;
        ] );
      ( "identity",
        [
          Alcotest.test_case "golden result digests" `Quick test_golden_digests;
          QCheck_alcotest.to_alcotest prop_max_gains_matches_reference;
          Alcotest.test_case "maxGains rejected multi" `Quick
            test_max_gains_rejected_multi;
        ] );
    ]
