module Lp = Solver.Lp
module Milp = Solver.Milp

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ----- LP ----- *)

let solve_lp p =
  match Lp.solve p with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Iteration_limit -> Alcotest.fail "unexpected iteration limit"

let test_lp_textbook () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6) *)
  let p =
    {
      Lp.num_vars = 2;
      maximize = true;
      objective = [ (0, 3.0); (1, 5.0) ];
      constraints =
        [
          Lp.constr [ (0, 1.0) ] Lp.Le 4.0;
          Lp.constr [ (1, 2.0) ] Lp.Le 12.0;
          Lp.constr [ (0, 3.0); (1, 2.0) ] Lp.Le 18.0;
        ];
    }
  in
  let s = solve_lp p in
  check_float "objective" 36.0 s.Lp.objective_value;
  check_float "x" 2.0 s.Lp.values.(0);
  check_float "y" 6.0 s.Lp.values.(1);
  check "feasible" true (Lp.feasible p s.Lp.values)

let test_lp_equality () =
  (* max x + y st x + y = 1, x <= 0.3 -> 1 *)
  let p =
    {
      Lp.num_vars = 2;
      maximize = true;
      objective = [ (0, 1.0); (1, 1.0) ];
      constraints =
        [
          Lp.constr [ (0, 1.0); (1, 1.0) ] Lp.Eq 1.0;
          Lp.constr [ (0, 1.0) ] Lp.Le 0.3;
        ];
    }
  in
  let s = solve_lp p in
  check_float "objective" 1.0 s.Lp.objective_value;
  check "x within bound" true (s.Lp.values.(0) <= 0.3 +. 1e-9)

let test_lp_minimize_with_ge () =
  (* min 2x + 3y st x + y >= 4, x >= 1 -> x=4? min at y=0, x=4 -> 8 *)
  let p =
    {
      Lp.num_vars = 2;
      maximize = false;
      objective = [ (0, 2.0); (1, 3.0) ];
      constraints =
        [
          Lp.constr [ (0, 1.0); (1, 1.0) ] Lp.Ge 4.0;
          Lp.constr [ (0, 1.0) ] Lp.Ge 1.0;
        ];
    }
  in
  let s = solve_lp p in
  check_float "objective" 8.0 s.Lp.objective_value

let test_lp_infeasible () =
  let p =
    {
      Lp.num_vars = 1;
      maximize = true;
      objective = [ (0, 1.0) ];
      constraints =
        [ Lp.constr [ (0, 1.0) ] Lp.Le 1.0; Lp.constr [ (0, 1.0) ] Lp.Ge 2.0 ];
    }
  in
  check "infeasible detected" true (Lp.solve p = Lp.Infeasible)

let test_lp_unbounded () =
  let p =
    {
      Lp.num_vars = 1;
      maximize = true;
      objective = [ (0, 1.0) ];
      constraints = [ Lp.constr [ (0, -1.0) ] Lp.Le 0.0 ];
    }
  in
  check "unbounded detected" true (Lp.solve p = Lp.Unbounded)

let test_lp_negative_rhs () =
  (* -x <= -2 means x >= 2; max -x -> -2 *)
  let p =
    {
      Lp.num_vars = 1;
      maximize = true;
      objective = [ (0, -1.0) ];
      constraints = [ Lp.constr [ (0, -1.0) ] Lp.Le (-2.0) ];
    }
  in
  let s = solve_lp p in
  check_float "objective" (-2.0) s.Lp.objective_value

let test_lp_degenerate () =
  (* redundant constraints must not cycle *)
  let p =
    {
      Lp.num_vars = 2;
      maximize = true;
      objective = [ (0, 1.0); (1, 1.0) ];
      constraints =
        [
          Lp.constr [ (0, 1.0); (1, 1.0) ] Lp.Le 2.0;
          Lp.constr [ (0, 1.0); (1, 1.0) ] Lp.Le 2.0;
          Lp.constr [ (0, 2.0); (1, 2.0) ] Lp.Le 4.0;
          Lp.constr [ (0, 1.0) ] Lp.Le 2.0;
        ];
    }
  in
  check_float "objective" 2.0 (solve_lp p).Lp.objective_value

(* ----- MILP ----- *)

let brute_force (p : Milp.problem) =
  let n = p.Milp.num_vars in
  assert (n <= 16);
  let best = ref neg_infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let values = Array.init n (fun v -> mask land (1 lsl v) <> 0) in
    if Milp.check p values then begin
      let obj = Milp.objective_of p values in
      if obj > !best then best := obj
    end
  done;
  !best

let test_milp_simple () =
  let p =
    {
      Milp.num_vars = 4;
      profit = [| 3.0; 5.0; 2.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0; 1 ];
          Milp.Choose_one [ 2; 3 ];
          Milp.At_most_one [ 1; 2 ];
        ];
    }
  in
  (* (1,3) = 6 is the best conflict-free pick: 5+2 crosses the
     At_most_one row *)
  let s = Milp.solve p in
  check_float "optimal" 6.0 s.Milp.objective;
  check "values satisfy" true (Milp.check p s.Milp.values);
  check "proven" true s.Milp.stats.Milp.proven_optimal

let test_milp_forced_chain () =
  (* conflicts force a unique assignment *)
  let p =
    {
      Milp.num_vars = 4;
      profit = [| 10.0; 1.0; 10.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0; 1 ];
          Milp.Choose_one [ 2; 3 ];
          Milp.At_most_one [ 0; 2 ];
        ];
    }
  in
  let s = Milp.solve p in
  check_float "optimal avoids double-10" 11.0 s.Milp.objective

let test_milp_infeasible () =
  let p =
    {
      Milp.num_vars = 2;
      profit = [| 1.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0 ];
          Milp.Choose_one [ 1 ];
          Milp.At_most_one [ 0; 1 ];
        ];
    }
  in
  check "infeasible raises" true
    (match Milp.solve p with
    | exception Milp.Infeasible _ -> true
    | _ -> false)

let test_milp_warm_start_and_lp () =
  let p =
    {
      Milp.num_vars = 4;
      profit = [| 3.0; 5.0; 2.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0; 1 ];
          Milp.Choose_one [ 2; 3 ];
          Milp.At_most_one [ 1; 2 ];
        ];
    }
  in
  let warm = [| true; false; true; false |] in
  let s = Milp.solve ~warm_start:warm ~root_lp:true p in
  check_float "optimal with warm start" 6.0 s.Milp.objective;
  (match s.Milp.stats.Milp.root_lp_bound with
  | Some b -> check "lp bound >= optimum" true (b >= 6.0 -. 1e-6)
  | None -> Alcotest.fail "expected an LP bound")

let test_milp_validation () =
  let expect_invalid name p =
    match Milp.solve p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "var out of range"
    { Milp.num_vars = 1; profit = [| 1.0 |]; rows = [ Milp.Choose_one [ 3 ] ] };
  expect_invalid "var in no choose row"
    {
      Milp.num_vars = 2;
      profit = [| 1.0; 1.0 |];
      rows = [ Milp.Choose_one [ 0 ]; Milp.At_most_one [ 0; 1 ] ];
    };
  expect_invalid "duplicate in row"
    {
      Milp.num_vars = 2;
      profit = [| 1.0; 1.0 |];
      rows = [ Milp.Choose_one [ 0; 0; 1 ] ];
    }

(* random pin-access-shaped instances: pins with disjoint candidate sets
   plus random conflict rows; compare against brute force *)
let random_instance =
  let gen =
    QCheck.Gen.(
      let* num_pins = int_range 1 4 in
      let* sizes = list_repeat num_pins (int_range 1 3) in
      let n = List.fold_left ( + ) 0 sizes in
      let* profits = list_repeat n (int_range 1 20) in
      let* num_conf = int_range 0 4 in
      let* confs =
        list_repeat num_conf
          (let* a = int_range 0 (n - 1) in
           let* b = int_range 0 (n - 1) in
           return (min a b, max a b))
      in
      return (sizes, profits, confs))
  in
  QCheck.make gen

let prop_milp_matches_brute_force =
  QCheck.Test.make ~name:"milp equals brute force" ~count:300 random_instance
    (fun (sizes, profits, confs) ->
      let n = List.length profits in
      let profit = Array.of_list (List.map float_of_int profits) in
      let choose_rows, _ =
        List.fold_left
          (fun (rows, start) size ->
            (Milp.Choose_one (List.init size (fun i -> start + i)) :: rows,
             start + size))
          ([], 0) sizes
      in
      let conf_rows =
        List.filter_map
          (fun (a, b) -> if a <> b then Some (Milp.At_most_one [ a; b ]) else None)
          confs
      in
      let p = { Milp.num_vars = n; profit; rows = choose_rows @ conf_rows } in
      let expected = brute_force p in
      match Milp.solve p with
      | s ->
        expected > neg_infinity
        && Float.abs (s.Milp.objective -. expected) < 1e-6
        && Milp.check p s.Milp.values
      | exception Milp.Infeasible _ -> expected = neg_infinity)

let prop_lp_bounds_milp =
  QCheck.Test.make ~name:"lp relaxation bounds milp" ~count:200 random_instance
    (fun (sizes, profits, confs) ->
      let n = List.length profits in
      let profit = Array.of_list (List.map float_of_int profits) in
      let choose_rows, _ =
        List.fold_left
          (fun (rows, start) size ->
            (Milp.Choose_one (List.init size (fun i -> start + i)) :: rows,
             start + size))
          ([], 0) sizes
      in
      let conf_rows =
        List.filter_map
          (fun (a, b) -> if a <> b then Some (Milp.At_most_one [ a; b ]) else None)
          confs
      in
      let p = { Milp.num_vars = n; profit; rows = choose_rows @ conf_rows } in
      match Milp.solve ~root_lp:true p with
      | s ->
        (match s.Milp.stats.Milp.root_lp_bound with
        | Some b -> b >= s.Milp.objective -. 1e-6
        | None -> true)
      | exception Milp.Infeasible _ -> true)

let test_milp_anytime () =
  (* node_limit 1 still returns a feasible solution via greedy dive *)
  let p =
    {
      Milp.num_vars = 6;
      profit = [| 5.0; 4.0; 3.0; 2.0; 6.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0; 1; 2 ];
          Milp.Choose_one [ 3; 4; 5 ];
          Milp.At_most_one [ 0; 4 ];
          Milp.At_most_one [ 1; 3 ];
        ];
    }
  in
  let s = Milp.solve ~node_limit:1 p in
  check "feasible" true (Milp.check p s.Milp.values);
  check "flagged not proven" false s.Milp.stats.Milp.proven_optimal

(* ----- capacity conflict rows (At_most) ----- *)

(* every variable must sit in a Choose_one row, so "take it or not"
   pairs each profitable candidate with a zero-profit alternative —
   the same shape a degraded access point takes in Formula (1) *)
let at_most_problem row =
  {
    Milp.num_vars = 8;
    profit = [| 4.0; 0.0; 3.0; 0.0; 2.0; 0.0; 1.0; 0.0 |];
    rows =
      [
        Milp.Choose_one [ 0; 1 ];
        Milp.Choose_one [ 2; 3 ];
        Milp.Choose_one [ 4; 5 ];
        Milp.Choose_one [ 6; 7 ];
        row;
      ];
  }

let test_milp_at_most () =
  let p = at_most_problem (Milp.At_most (2, [ 0; 2; 4; 6 ])) in
  let s = Milp.solve p in
  check_float "best two fit under cap 2" 7.0 s.Milp.objective;
  check_float "brute force agrees" (brute_force p) s.Milp.objective;
  check "values satisfy" true (Milp.check p s.Milp.values)

let test_milp_at_most_cap1_is_at_most_one () =
  let capped = Milp.solve (at_most_problem (Milp.At_most (1, [ 0; 2; 4; 6 ]))) in
  let classic =
    Milp.solve (at_most_problem (Milp.At_most_one [ 0; 2; 4; 6 ]))
  in
  check_float "cap 1 equals At_most_one" classic.Milp.objective
    capped.Milp.objective;
  check "same selection" true (capped.Milp.values = classic.Milp.values)

let test_milp_at_most_with_choose_one () =
  (* three pins must each pick a candidate; a cap-2 clique over the
     profitable candidates forces one pin onto its cheap alternative —
     exactly the shape a color clique adds to Formula (1) *)
  let p =
    {
      Milp.num_vars = 6;
      profit = [| 5.0; 1.0; 4.0; 1.0; 3.0; 1.0 |];
      rows =
        [
          Milp.Choose_one [ 0; 1 ];
          Milp.Choose_one [ 2; 3 ];
          Milp.Choose_one [ 4; 5 ];
          Milp.At_most (2, [ 0; 2; 4 ]);
        ];
    }
  in
  let s = Milp.solve p in
  check_float "brute force agrees" (brute_force p) s.Milp.objective;
  check_float "one pin degrades" 10.0 s.Milp.objective;
  check "proven" true s.Milp.stats.Milp.proven_optimal

(* ----- color-conflict graphs ----- *)

module CG = Solver.Color_graph

let feat (track, lo, hi) = CG.feature ~track ~lo ~hi

let test_cg_conflicts () =
  let p = CG.default ~colors:3 in
  (* window 1, gap 2: conflict iff fewer than 2 empty columns between *)
  check "overlapping spans, adjacent tracks" true
    (CG.conflicts p (feat (0, 0, 5)) (feat (1, 4, 9)));
  check "one empty column is too close" true
    (CG.conflicts p (feat (0, 0, 5)) (feat (1, 7, 9)));
  check "two empty columns clear the gap" false
    (CG.conflicts p (feat (0, 0, 5)) (feat (1, 8, 9)));
  check "outside the track window" false
    (CG.conflicts p (feat (0, 0, 5)) (feat (2, 4, 9)))

let test_cg_color_three_in_window () =
  let p = CG.default ~colors:3 in
  (* three mutually conflicting features: three solid colors suffice *)
  let feats = Array.map feat [| (0, 0, 5); (1, 0, 5); (1, 3, 8) |] in
  let c = CG.color p feats in
  check "no stitches needed" true (c.CG.stitches = 0);
  check "no residual" true (c.CG.residual = 0);
  check "verifies" true
    (CG.verify p feats c.CG.assignment = Ok ());
  let distinct =
    Array.to_list c.CG.assignment
    |> List.filter_map (function CG.Solid c -> Some c | _ -> None)
    |> List.sort_uniq Int.compare
  in
  check "pairwise conflicting trio uses three colors" true
    (List.length distinct = 3)

let test_cg_stitch_fallback () =
  (* two colors: the long track-1 feature sees a color-0 blocker on its
     left (track 0) and a color-1 blocker on its right (track 2), so no
     solid color fits but one stitch does.  The track-3 feature only
     exists to push the track-2 one onto color 1. *)
  let p = CG.default ~colors:2 in
  let feats =
    Array.map feat [| (0, 0, 3); (3, 10, 13); (2, 10, 13); (1, 0, 13) |]
  in
  let c = CG.color p feats in
  check "stitched once" true (c.CG.stitches = 1);
  check "no residual" true (c.CG.residual = 0);
  check "verifies" true (CG.verify p feats c.CG.assignment = Ok ());
  (match c.CG.assignment.(3) with
  | CG.Stitched { left; right; _ } ->
    check "piece colors differ" true (left <> right)
  | _ -> Alcotest.fail "long feature did not stitch")

let test_cg_verify_rejects () =
  let p = CG.default ~colors:3 in
  let feats = Array.map feat [| (0, 0, 5); (1, 4, 9) |] in
  check "same color on neighbors rejected" true
    (match CG.verify p feats [| CG.Solid 0; CG.Solid 0 |] with
    | Error (CG.Same_color_clash _) -> true
    | _ -> false);
  check "out-of-range color rejected" true
    (match CG.verify p feats [| CG.Solid 3; CG.Solid 0 |] with
    | Error (CG.Color_out_of_range _) -> true
    | _ -> false);
  check "uncolored constrains nothing" true
    (CG.verify p feats [| CG.Uncolored; CG.Solid 0 |] = Ok ())

let test_cg_cliques () =
  let p = CG.default ~colors:3 in
  (* four mutually conflicting features: one clique past capacity *)
  let feats =
    Array.map feat [| (0, 0, 5); (0, 1, 6); (1, 0, 5); (1, 2, 7) |]
  in
  (match CG.cliques p feats with
  | [ (members, _, _) ] ->
    check "all four members" true (Array.to_list members = [ 0; 1; 2; 3 ])
  | other ->
    Alcotest.failf "expected one clique, got %d" (List.length other));
  (* three mutual conflicts fit in three colors: no clique emitted *)
  let feats3 = Array.map feat [| (0, 0, 5); (1, 0, 5); (1, 3, 8) |] in
  check "within capacity emits nothing" true (CG.cliques p feats3 = [])

(* qcheck: every greedy coloring verifies, on arbitrary feature sets *)
let cg_features_gen =
  QCheck.Gen.(
    let* n = int_range 1 14 in
    let* raw =
      list_repeat n
        (let* track = int_range 0 4 in
         let* lo = int_range 0 24 in
         let* len = int_range 1 8 in
         return (track, lo, lo + len))
    in
    return (Array.of_list (List.map feat raw)))

let prop_cg_color_always_verifies =
  QCheck.Test.make ~name:"greedy coloring always verifies" ~count:300
    (QCheck.make ~print:(fun _ -> "<features>") cg_features_gen)
    (fun feats ->
      List.for_all
        (fun colors ->
          let p = CG.default ~colors in
          let c = CG.color p feats in
          CG.verify p feats c.CG.assignment = Ok ())
        [ 2; 3; 4 ])

let () =
  Alcotest.run "solver"
    [
      ( "lp",
        [
          Alcotest.test_case "textbook" `Quick test_lp_textbook;
          Alcotest.test_case "equality" `Quick test_lp_equality;
          Alcotest.test_case "minimize with >=" `Quick test_lp_minimize_with_ge;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_lp_degenerate;
        ] );
      ( "milp",
        [
          Alcotest.test_case "simple" `Quick test_milp_simple;
          Alcotest.test_case "forced chain" `Quick test_milp_forced_chain;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "warm start + lp" `Quick test_milp_warm_start_and_lp;
          Alcotest.test_case "validation" `Quick test_milp_validation;
          Alcotest.test_case "anytime" `Quick test_milp_anytime;
          QCheck_alcotest.to_alcotest prop_milp_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_lp_bounds_milp;
          Alcotest.test_case "at-most capacity" `Quick test_milp_at_most;
          Alcotest.test_case "at-most cap 1 = at-most-one" `Quick
            test_milp_at_most_cap1_is_at_most_one;
          Alcotest.test_case "at-most vs choose-one" `Quick
            test_milp_at_most_with_choose_one;
        ] );
      ( "color-graph",
        [
          Alcotest.test_case "conflict predicate" `Quick test_cg_conflicts;
          Alcotest.test_case "three colors in window" `Quick
            test_cg_color_three_in_window;
          Alcotest.test_case "stitch fallback" `Quick test_cg_stitch_fallback;
          Alcotest.test_case "verify rejects" `Quick test_cg_verify_rejects;
          Alcotest.test_case "clique sweep" `Quick test_cg_cliques;
          QCheck_alcotest.to_alcotest prop_cg_color_always_verifies;
        ] );
    ]
