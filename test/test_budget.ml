(* Budget semantics on a fake clock.  Budgets read [Obs.Clock], so
   swapping the clock source fakes both budget deadlines and tracing
   timestamps from the same timeline. *)

module Budget = Pinaccess.Budget

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let with_clock f =
  let now, advance = fake_clock () in
  Obs.Clock.with_source now (fun () -> f advance)

let test_deadline () =
  with_clock (fun advance ->
      let b = Budget.start ~seconds:10.0 () in
      check "fresh" false (Budget.exhausted b);
      advance 9.0;
      check "before deadline" false (Budget.exhausted b);
      check "remaining" true (Budget.remaining_seconds b = Some 1.0);
      advance 2.0;
      check "past deadline" true (Budget.exhausted b);
      check "remaining clamped" true (Budget.remaining_seconds b = Some 0.0))

let test_work_allowance () =
  with_clock (fun _ ->
      let b = Budget.start ~work_units:5 () in
      Budget.spend b 4;
      check "under allowance" false (Budget.exhausted b);
      check_int "spent" 4 (Budget.work_spent b);
      Budget.spend b 1;
      check "allowance spent" true (Budget.exhausted b);
      check "remaining work" true (Budget.remaining_work b = Some 0))

(* A child asking for more time than the parent has left is clamped to
   the parent's deadline. *)
let test_sub_clamps_deadline () =
  with_clock (fun advance ->
      let parent = Budget.start ~seconds:10.0 () in
      let child = Budget.sub parent ~seconds:100.0 () in
      advance 9.0;
      check "child alive inside parent window" false (Budget.exhausted child);
      advance 2.0;
      check "child dies with parent" true (Budget.exhausted child);
      (* a tighter child expires on its own, parent keeps going *)
      let parent = Budget.start ~seconds:10.0 () in
      let tight = Budget.sub parent ~seconds:2.0 () in
      advance 3.0;
      check "tight child expired" true (Budget.exhausted tight);
      check "parent still alive" false (Budget.exhausted parent))

(* The child's allowance is the smaller of its request and the
   parent's remainder, and spend on the child is visible to the
   parent: the counter is shared. *)
let test_sub_clamps_work () =
  with_clock (fun _ ->
      let parent = Budget.start ~work_units:10 () in
      Budget.spend parent 4;
      let child = Budget.sub parent ~work_units:100 () in
      check "child clamped to parent remainder" true
        (Budget.remaining_work child = Some 6);
      Budget.spend child 3;
      check_int "child spend visible to parent" 7 (Budget.work_spent parent);
      check "parent remainder shrunk" true
        (Budget.remaining_work parent = Some 3);
      Budget.spend child 3;
      check "child exhausted" true (Budget.exhausted child);
      check "parent exhausted too" true (Budget.exhausted parent))

let test_sub_tighter_work () =
  with_clock (fun _ ->
      let parent = Budget.start ~work_units:100 () in
      let child = Budget.sub parent ~work_units:5 () in
      check "tight child allowance" true (Budget.remaining_work child = Some 5);
      Budget.spend child 5;
      check "tight child exhausted" true (Budget.exhausted child);
      check "parent barely dented" false (Budget.exhausted parent);
      check "parent remainder" true (Budget.remaining_work parent = Some 95))

let test_sub_inherits () =
  with_clock (fun advance ->
      let u = Budget.sub (Budget.unlimited ()) () in
      check "sub of unlimited is unlimited" true
        (Budget.remaining_work u = None && Budget.remaining_seconds u = None);
      let parent = Budget.start ~seconds:5.0 ~work_units:7 () in
      let child = Budget.sub parent () in
      check "inherits work limit" true (Budget.remaining_work child = Some 7);
      advance 6.0;
      check "inherits deadline" true (Budget.exhausted child))

(* Fanout: the slice -> run -> charge discipline of the panel walk. *)

module Fanout = Pinaccess.Fanout

(* Slices are cut up front (10 = 4 + 3 + 3); each task spends [i + 1]
   units, and inline each slice is charged to the parent before the
   next task starts. *)
let test_fanout_slices () =
  let parent = Budget.start ~work_units:10 () in
  let seen =
    Fanout.run ~pool:Exec.sequential ~budget:parent
      (fun ~budget i ->
        let slice = Budget.remaining_work budget in
        let charged = Budget.work_spent parent in
        Budget.spend budget (i + 1);
        (slice, charged))
      [| 0; 1; 2 |]
  in
  check "slices 4, 3, 3 charged in task order" true
    (seen = [| (Some 4, 0); (Some 3, 1); (Some 3, 3) |]);
  check_int "parent charged every slice" 6 (Budget.work_spent parent)

let test_fanout_starved () =
  let parent = Budget.start ~work_units:2 () in
  let seen =
    Fanout.run ~pool:Exec.sequential ~budget:parent
      (fun ~budget () -> (Budget.remaining_work budget, Budget.exhausted budget))
      [| (); (); () |]
  in
  check "third slice exhausted from the start" true
    (seen = [| (Some 1, false); (Some 1, false); (Some 0, true) |])

let test_fanout_pool_identical () =
  let run pool =
    let parent = Budget.start ~work_units:23 () in
    let results =
      Fanout.run ~pool ~budget:parent
        (fun ~budget i ->
          let slice = Option.get (Budget.remaining_work budget) in
          Budget.spend budget (min slice (i mod 4));
          (i, slice, Budget.exhausted budget))
        (Array.init 7 Fun.id)
    in
    (results, Budget.work_spent parent)
  in
  let inline = run Exec.sequential in
  check "pooled = inline" true (run (Exec.shared ~domains:2) = inline);
  check_int "parent charged" 9 (snd inline)

let test_fanout_empty () =
  List.iter
    (fun pool ->
      let parent = Budget.start ~work_units:5 () in
      let results =
        Fanout.run ~pool ~budget:parent (fun ~budget:_ () -> ()) [||]
      in
      check "no results" true (results = [||]);
      check_int "nothing charged" 0 (Budget.work_spent parent))
    [ Exec.sequential; Exec.shared ~domains:2 ]

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "work allowance" `Quick test_work_allowance;
          Alcotest.test_case "sub clamps deadline" `Quick
            test_sub_clamps_deadline;
          Alcotest.test_case "sub clamps work, shares counter" `Quick
            test_sub_clamps_work;
          Alcotest.test_case "sub can be tighter" `Quick test_sub_tighter_work;
          Alcotest.test_case "sub with no args inherits" `Quick
            test_sub_inherits;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "10 units over 3 tasks: 4, 3, 3 in order" `Quick
            test_fanout_slices;
          Alcotest.test_case "2 units over 3 tasks: third starved" `Quick
            test_fanout_starved;
          Alcotest.test_case "pooled = inline" `Quick
            test_fanout_pool_identical;
          Alcotest.test_case "no tasks, no charge" `Quick test_fanout_empty;
        ] );
    ]
