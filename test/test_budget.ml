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
      check "sub of unlimited is unlimited" true (Budget.is_unlimited u);
      let parent = Budget.start ~seconds:5.0 ~work_units:7 () in
      let child = Budget.sub parent () in
      check "inherits work limit" true (Budget.remaining_work child = Some 7);
      advance 6.0;
      check "inherits deadline" true (Budget.exhausted child))

let test_check_raises () =
  with_clock (fun advance ->
      let b = Budget.start ~seconds:1.0 () in
      Budget.check b ~stage:"ok";
      advance 2.0;
      match Budget.check b ~stage:"pao" with
      | () -> Alcotest.fail "expected Budget_exhausted"
      | exception Pinaccess.Cpr_error.Error _ -> ())

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
          Alcotest.test_case "check raises when exhausted" `Quick
            test_check_raises;
        ] );
    ]
