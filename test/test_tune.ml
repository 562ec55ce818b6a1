(* Adaptive scheduling layer (lib/tune): policy reification, the
   feature extractor, the seeded bandit's arithmetic, and the tuner's
   end-to-end contracts — off leaves no trace, a seeded bandit is
   deterministic at any [-j], and a recorded trace replays to the same
   bytes. *)

module PA = Pinaccess.Pin_access
module Policy = Tune.Policy
module Features = Tune.Features
module Bandit = Tune.Bandit
module Tuner = Tune.Tuner
module Suite = Workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let design () = Suite.design ~scale:0.05 (Suite.find "ecc")

(* ------------------------------------------------------------------ *)
(* Policy                                                             *)
(* ------------------------------------------------------------------ *)

let test_policy_ids () =
  List.iter
    (fun p ->
      match Policy.of_id (Policy.id p) with
      | Some p' -> check ("roundtrip " ^ Policy.id p) true (p = p')
      | None -> Alcotest.failf "id %s does not parse back" (Policy.id p))
    Policy.all;
  check "ids unique" true
    (let ids = List.map Policy.id Policy.all in
     List.length ids = List.length (List.sort_uniq String.compare ids));
  check "unknown id rejected" true (Policy.of_id "lr-k42" = None);
  check "k95 is baseline" true (Policy.is_baseline (Policy.Lr_step Policy.Lr_k95));
  check "patience is not" false
    (Policy.is_baseline (Policy.Lr_step Policy.Lr_patience))

let test_policy_apply () =
  let base = PA.default_config in
  (* the baseline arm must be the identity on any config *)
  check "k95 identity" true (Policy.apply_lr Policy.Lr_k95 base = base);
  let k70 = Policy.apply_lr Policy.Lr_k70 base in
  Alcotest.(check (float 1e-9))
    "k70 alpha" 0.70 k70.PA.lr.Pinaccess.Lagrangian.alpha;
  let halve = Policy.apply_lr Policy.Lr_halve base in
  check "halve flag" true halve.PA.lr.Pinaccess.Lagrangian.stall_halving;
  let pat = Policy.apply_lr Policy.Lr_patience base in
  check "patience plateau" true
    (pat.PA.lr.Pinaccess.Lagrangian.plateau_exit = Some 40);
  check "arm 0 is the baseline" true (Policy.lr_arms.(0) = Policy.Lr_k95);
  (* Lr_warm is a cold-solve identity: keeping it out of the arm set
     stops it diluting exploration as a baseline clone *)
  check "warm not an arm" false (Array.mem Policy.Lr_warm Policy.lr_arms)

(* ------------------------------------------------------------------ *)
(* Features                                                           *)
(* ------------------------------------------------------------------ *)

let test_features () =
  let d = design () in
  let problem = PA.build_panel PA.default_config d ~panel:0 in
  let f = Features.of_problem ~panel:0 problem in
  let f' = Features.of_problem ~panel:0 problem in
  check "deterministic" true (f = f');
  check_int "pins" (Pinaccess.Problem.num_pins problem) f.Features.pins;
  check "ub positive" true (f.Features.profit_ub > 0.0);
  (* the conflict-free relaxation bounds any feasible solve *)
  let objective =
    Pinaccess.Solution.objective
      (Pinaccess.Lagrangian.solve problem).Pinaccess.Lagrangian.solution
  in
  check "ub sandwiches the solve" true (objective <= f.Features.profit_ub);
  check "signature stable" true
    (Features.signature f = Features.signature f')

(* ------------------------------------------------------------------ *)
(* Bandit                                                             *)
(* ------------------------------------------------------------------ *)

let arms3 = [| "a"; "b"; "c" |]

let test_bandit_explores_then_exploits () =
  let b = Bandit.create ~explore:0.02 ~arms:arms3 ~seed:7L () in
  (* forced exploration: the first pulls of a bucket cover every arm *)
  let first =
    List.init 3 (fun _ ->
        let i = Bandit.select b ~bucket:"x" in
        Bandit.observe b ~bucket:"x" ~arm:i
          ~reward:(if arms3.(i) = "b" then 0.9 else 0.1);
        i)
  in
  check "all arms tried first" true
    (List.sort_uniq compare first = [ 0; 1; 2 ]);
  (* then UCB locks onto the rewarded arm *)
  let picks = Array.make 3 0 in
  for _ = 1 to 20 do
    let i = Bandit.select b ~bucket:"x" in
    picks.(i) <- picks.(i) + 1;
    Bandit.observe b ~bucket:"x" ~arm:i
      ~reward:(if arms3.(i) = "b" then 0.9 else 0.1)
  done;
  check "exploits the best arm" true (picks.(1) > picks.(0) + picks.(2));
  check_int "pulls counted" 23 (Bandit.pulls b);
  check "regret nonnegative" true (Bandit.regret_proxy b >= 0.0);
  check_int "histogram sums to pulls" 23
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Bandit.histogram b))

let test_bandit_pending_not_zero_reward () =
  (* wave discipline: a whole wave selects before any reward lands.
     A pending pull must shrink the arm's confidence bonus WITHOUT
     cratering its mean — treating it as reward 0 would round-robin
     inside every wave instead of exploiting. *)
  let b = Bandit.create ~explore:0.02 ~arms:arms3 ~seed:1L () in
  for i = 0 to 2 do
    let a = Bandit.select b ~bucket:"x" in
    Bandit.observe b ~bucket:"x" ~arm:a
      ~reward:(if a = i then if arms3.(a) = "b" then 0.9 else 0.1
               else if arms3.(a) = "b" then 0.9
               else 0.1)
  done;
  (* a wave of 4 unresolved selections: every one should go to the
     best arm, not rotate through the losers *)
  let wave = List.init 4 (fun _ -> Bandit.select b ~bucket:"x") in
  check "whole wave exploits" true (List.for_all (fun i -> i = 1) wave)

let test_bandit_seeded_determinism () =
  let run seed =
    let b = Bandit.create ~explore:0.02 ~arms:arms3 ~seed () in
    List.init 12 (fun k ->
        let i = Bandit.select b ~bucket:(if k mod 2 = 0 then "x" else "y") in
        Bandit.observe b
          ~bucket:(if k mod 2 = 0 then "x" else "y")
          ~arm:i ~reward:(0.1 *. float_of_int i);
        i)
  in
  check "same seed, same trace" true (run 42L = run 42L);
  check "buckets tracked" true
    (let b = Bandit.create ~arms:arms3 ~seed:0L () in
     ignore (Bandit.select b ~bucket:"p");
     ignore (Bandit.select b ~bucket:"q");
     Bandit.buckets b = [ "p"; "q" ])

(* ------------------------------------------------------------------ *)
(* Tuner                                                              *)
(* ------------------------------------------------------------------ *)

let test_tuner_modes () =
  check "off parses" true (Tuner.mode_of_string "off" = Some Tuner.Off);
  check "bandit parses" true
    (Tuner.mode_of_string "bandit" = Some (Tuner.Bandit 0L));
  check "fixed parses" true
    (Tuner.mode_of_string "fixed:lr-patience"
    = Some (Tuner.Fixed (Policy.Lr_step Policy.Lr_patience)));
  check "garbage rejected" true (Tuner.mode_of_string "fixed:nope" = None);
  let off = Tuner.create Tuner.Off in
  check "off has no hook" true (Tuner.pa_hook off = None);
  check_str "off stats" "tune: off" (Tuner.stats_line off);
  let bandit = Tuner.create ~seed:9L (Tuner.Bandit 0L) in
  check "seed overrides" true (Tuner.mode bandit = Tuner.Bandit 9L)

let test_tuner_off_bit_identical () =
  let d = design () in
  let plain = PA.optimize ~kind:PA.Lr d in
  let off = Tuner.create Tuner.Off in
  let r = PA.optimize ?tune:(Tuner.pa_hook off) ~kind:PA.Lr d in
  check "assignments identical" true (plain.PA.assignments = r.PA.assignments);
  check "reports identical" true (plain.PA.reports = r.PA.reports);
  check "objective identical" true (plain.PA.objective = r.PA.objective);
  check "no trace" true (Tuner.trace off = [])

let test_tuner_bandit_deterministic () =
  let d = design () in
  let solve j =
    let t = Tuner.create ~seed:5L (Tuner.Bandit 0L) in
    let r = PA.optimize ?tune:(Tuner.pa_hook t) ~kind:PA.Lr d ~j in
    (r, Tuner.trace t)
  in
  let r1, tr1 = solve 1 in
  let r1', tr1' = solve 1 in
  let r2, tr2 = solve 2 in
  check "same bytes across runs" true (r1.PA.assignments = r1'.PA.assignments);
  check "same trace across runs" true (tr1 = tr1');
  check "same bytes at -j2" true (r1.PA.assignments = r2.PA.assignments);
  check "same trace at -j2" true (tr1 = tr2);
  check "one trace entry per panel" true
    (List.length tr1 = List.length r1.PA.reports);
  check "trace ids are policies" true
    (List.for_all (fun (_, id) -> Policy.of_id id <> None) tr1)

let test_tuner_trace_replay () =
  let d = design () in
  let t = Tuner.create ~seed:3L (Tuner.Bandit 0L) in
  let tuned = PA.optimize ?tune:(Tuner.pa_hook t) ~kind:PA.Lr d in
  let replay =
    PA.optimize ~tune:(Tuner.replay_hook (Tuner.trace t)) ~kind:PA.Lr d
  in
  check "replay reproduces assignments" true
    (tuned.PA.assignments = replay.PA.assignments);
  check "replay reproduces objective" true
    (tuned.PA.objective = replay.PA.objective)

let test_tuner_fixed_applies () =
  let d = design () in
  let t = Tuner.create (Tuner.Fixed (Policy.Lr_step Policy.Lr_patience)) in
  let r = PA.optimize ?tune:(Tuner.pa_hook t) ~kind:PA.Lr d in
  PA.validate r;
  check "every panel traced under the fixed policy" true
    (List.length (Tuner.trace t) = List.length r.PA.reports
    && List.for_all (fun (_, id) -> id = "lr-patience") (Tuner.trace t));
  (* ordering/warm axes do not touch the PAO walk *)
  let ord = Tuner.create (Tuner.Fixed (Policy.Order Policy.Ord_area)) in
  check "order policy has no PA hook" true (Tuner.pa_hook ord = None);
  check "order maps" true
    (Tuner.negotiation_order ord = Router.Negotiation.Area);
  let warm = Tuner.create (Tuner.Fixed (Policy.Warm Policy.Warm_never)) in
  check "warm maps" true (Tuner.warm_policy warm = Eco.Engine.Warm_never)

let () =
  Alcotest.run "tune"
    [
      ( "policy",
        [
          Alcotest.test_case "id roundtrip" `Quick test_policy_ids;
          Alcotest.test_case "apply_lr" `Quick test_policy_apply;
        ] );
      ("features", [ Alcotest.test_case "extractor" `Quick test_features ]);
      ( "bandit",
        [
          Alcotest.test_case "explore then exploit" `Quick
            test_bandit_explores_then_exploits;
          Alcotest.test_case "pending pulls keep their mean" `Quick
            test_bandit_pending_not_zero_reward;
          Alcotest.test_case "seeded determinism" `Quick
            test_bandit_seeded_determinism;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "modes" `Quick test_tuner_modes;
          Alcotest.test_case "off is bit-identical" `Quick
            test_tuner_off_bit_identical;
          Alcotest.test_case "bandit deterministic at any -j" `Quick
            test_tuner_bandit_deterministic;
          Alcotest.test_case "trace replay" `Quick test_tuner_trace_replay;
          Alcotest.test_case "fixed policies" `Quick test_tuner_fixed_applies;
        ] );
    ]
