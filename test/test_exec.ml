(* The parallel executor: joins, chunked scheduling, deterministic
   error propagation, and the headline PR-3 guarantee — PAO and the
   full CPR flow produce bit-identical results at any [-j]. *)

module PA = Pinaccess.Pin_access
module Eval = Metrics.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_joins_all () =
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * 7) + 1) xs in
  let pool = Exec.shared ~domains:4 in
  let got = Exec.map pool (fun i -> (i * 7) + 1) xs in
  check "map equals Array.map" true (got = expected);
  (* the pool is reusable across calls *)
  let again = Exec.map pool (fun i -> i - 3) xs in
  check "second map on same pool" true (again = Array.map (fun i -> i - 3) xs)

let test_mapi_indices () =
  let xs = Array.make 50 "x" in
  let got =
    Exec.mapi (Exec.shared ~domains:3) (fun i s -> Printf.sprintf "%s%d" s i) xs
  in
  check "mapi passes the element index" true
    (got = Array.init 50 (fun i -> Printf.sprintf "x%d" i))

let test_sequential_executor () =
  let xs = Array.init 17 (fun i -> i) in
  let got = Exec.map Exec.sequential (fun i -> i * i) xs in
  check "sequential map" true (got = Array.map (fun i -> i * i) xs);
  check_int "sequential reports one domain" 1 (Exec.domains Exec.sequential);
  check_int "a one-domain pool is sequential" 1
    (Exec.domains (Exec.shared ~domains:1))

(* Uneven sizes: every index must be computed exactly once, whatever
   the chunking does at the ragged end. *)
let test_uneven_chunks () =
  List.iter
    (fun n ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let got =
        Exec.mapi (Exec.shared ~domains:4)
          (fun i () ->
            Atomic.incr hits.(i);
            i)
          (Array.make n ())
      in
      check "results in order" true (got = Array.init n (fun i -> i));
      Array.iteri
        (fun i h ->
          check_int (Printf.sprintf "n=%d index %d computed once" n i) 1
            (Atomic.get h))
        hits)
    [ 1; 2; 3; 7; 23; 64; 101 ]

(* A worker exception re-raises at the join, and when several tasks
   fail the lowest index wins — deterministic whatever the domain
   interleaving was. *)
let test_exception_propagation () =
  let boom i =
    Pinaccess.Cpr_error.Error
      (Pinaccess.Cpr_error.Solver_failure
         { solver = string_of_int i; reason = "boom" })
  in
  Alcotest.check_raises "lowest failing index wins" (boom 37) (fun () ->
      ignore
        (Exec.mapi (Exec.shared ~domains:4)
           (fun i () -> if i = 37 || i = 73 then raise (boom i) else i)
           (Array.make 100 ())))

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

exception Boom of int

(* The park, wake and join protocol across consecutive jobs: on every
   pool size, each job of a back-to-back sequence runs each of its
   indices exactly once and returns them in order; a failing job
   raises its lowest failing index only once every other index has
   run; and each job with n > 1 adds its ceil (n / chunk) chunks to
   [exec.chunks]. *)
let prop_back_to_back_jobs =
  let open QCheck in
  let job =
    Gen.(
      int_range 0 2000 >>= fun n ->
      (if n = 0 then return []
       else
         frequency
           [
             (1, return []);
             (1, list_size (int_range 1 4) (int_bound (n - 1)));
           ])
      >|= fun fails -> (n, fails))
  in
  let print (d, jobs) =
    Printf.sprintf "domains=%d jobs=[%s]" d
      (String.concat "; "
         (List.map
            (fun (n, fails) ->
              String.concat " !" (string_of_int n :: List.map string_of_int fails))
            jobs))
  in
  Test.make ~name:"back-to-back jobs stay exact" ~count:40
    (make ~print Gen.(pair (int_range 2 4) (list_size (int_range 1 20) job)))
    (fun (d, jobs) ->
      let pool = Exec.shared ~domains:d in
      List.for_all
        (fun (n, fails) ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          let chunks0 = counter "exec.chunks" in
          let outcome =
            match
              Exec.mapi pool
                (fun i () ->
                  Atomic.incr hits.(i);
                  if List.mem i fails then raise (Boom i);
                  i * 3)
                (Array.make n ())
            with
            | got -> Ok got
            | exception Boom i -> Error i
          in
          (* read at once: a task still running would show 0 here *)
          let once = Array.for_all (fun h -> Atomic.get h = 1) hits in
          let chunk = max 1 (n / (d * 8)) in
          let chunks = if n > 1 then (n + chunk - 1) / chunk else 0 in
          once
          && counter "exec.chunks" - chunks0 = chunks
          &&
          match (outcome, fails) with
          | Ok got, [] -> got = Array.init n (fun i -> i * 3)
          | Error i, _ :: _ -> i = List.fold_left min max_int fails
          | Ok _, _ :: _ | Error _, [] -> false)
        jobs)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry                                                *)
(* ------------------------------------------------------------------ *)

let counters () =
  (counter "exec.jobs", counter "exec.tasks", counter "exec.chunks")

let delta (j0, t0, c0) =
  let j, t, c = counters () in
  (j - j0, t - t0, c - c0)

(* Pooled jobs add to the [exec.*] counters from the caller. *)
let test_stats_accounting () =
  let pool = Exec.shared ~domains:3 in
  let n = 100 in
  let before = counters () in
  ignore (Exec.map pool (fun i -> i * 2) (Array.init n (fun i -> i)));
  (* chunk = max 1 (100 / (3 * 8)) = 4, so 25 chunks *)
  check "one job, every task, 25 chunks" true (delta before = (1, n, 25));
  ignore (Exec.map pool (fun i -> i) (Array.init n (fun i -> i)));
  check "a second job accumulates" true (delta before = (2, 2 * n, 50))

(* Inline runs (sequential, or a single task on a pool) add nothing. *)
let test_sequential_stats_zero () =
  let pool = Exec.shared ~domains:3 in
  let before = counters () in
  ignore (Exec.map Exec.sequential (fun i -> i) (Array.init 10 (fun i -> i)));
  ignore (Exec.map pool (fun i -> i) [| 1 |]);
  check "inline runs add nothing" true (delta before = (0, 0, 0))

(* ------------------------------------------------------------------ *)
(* Domain-local observability buffers                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_buffered_merge () =
  let c = Obs.Metrics.counter "test_exec.buffered" in
  let before = Obs.Metrics.value c in
  let (), buf =
    Obs.Metrics.buffered (fun () ->
        Obs.Metrics.add c 5;
        (* redirection is active: the global counter is untouched *)
        check_int "buffered add invisible" before (Obs.Metrics.value c))
  in
  check_int "still invisible before flush" before (Obs.Metrics.value c);
  Obs.Metrics.flush buf;
  check_int "flush lands the increments" (before + 5) (Obs.Metrics.value c)

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential, bit for bit                   *)
(* ------------------------------------------------------------------ *)

let small_design () =
  Workloads.Suite.design ~scale:0.12 (Workloads.Suite.find "ecc")

let test_pao_determinism () =
  let design = small_design () in
  let seq = PA.optimize ~kind:PA.Lr design in
  let par = PA.optimize ~kind:PA.Lr ~j:4 design in
  check "objective identical" true (seq.PA.objective = par.PA.objective);
  check "panel reports identical" true (seq.PA.reports = par.PA.reports);
  check "assignments identical" true (seq.PA.assignments = par.PA.assignments)

(* Streamed PAO builds each panel problem at solve time instead of
   holding the whole problem list resident; with an unlimited budget it
   must reproduce the resident path byte for byte, at any [-j]. *)
let test_streamed_pao_identity () =
  let design = small_design () in
  let resident = PA.optimize ~kind:PA.Lr design in
  let streamed = PA.optimize ~kind:PA.Lr ~stream:true design in
  let streamed_par = PA.optimize ~kind:PA.Lr ~stream:true ~j:4 design in
  check "streamed objective identical" true
    (resident.PA.objective = streamed.PA.objective);
  check "streamed reports identical" true
    (resident.PA.reports = streamed.PA.reports);
  check "streamed assignments identical" true
    (resident.PA.assignments = streamed.PA.assignments);
  check "streamed -j4 reports identical" true
    (resident.PA.reports = streamed_par.PA.reports);
  check "streamed -j4 assignments identical" true
    (resident.PA.assignments = streamed_par.PA.assignments)

(* On a design congested enough to need rip-up rounds, a flow whose
   PAO stage ran on 4 domains must still reproduce the sequential
   routing bit for bit — same routes, same iteration count, same
   verdicts. *)
let test_ripup_coloring_determinism () =
  let design = Workloads.Suite.design ~scale:0.18 (Workloads.Suite.find "ctl") in
  let seq = Router.Cpr.run design in
  let par =
    Router.Cpr.run ~config:{ Router.Cpr.default_config with jobs = 4 } design
  in
  check "rip-up rounds actually ran" true
    (seq.Router.Flow.ripup_iterations >= 1);
  check_int "same rip-up iterations" seq.Router.Flow.ripup_iterations
    par.Router.Flow.ripup_iterations;
  check_int "same reroutes" seq.Router.Flow.total_reroutes
    par.Router.Flow.total_reroutes;
  check "routes bit-identical" true
    (seq.Router.Flow.routes = par.Router.Flow.routes);
  check "clean verdicts identical" true
    (seq.Router.Flow.clean = par.Router.Flow.clean)

let test_flow_determinism () =
  let design = small_design () in
  let seq = Eval.of_flow (Router.Cpr.run design) in
  let par =
    Eval.of_flow
      (Router.Cpr.run ~config:{ Router.Cpr.default_config with jobs = 4 } design)
  in
  check "routability identical" true
    (seq.Eval.routability = par.Eval.routability);
  check_int "via count identical" seq.Eval.via_count par.Eval.via_count;
  check_int "wirelength identical" seq.Eval.wirelength par.Eval.wirelength

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map joins all tasks" `Quick test_map_joins_all;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "sequential executor" `Quick
            test_sequential_executor;
          Alcotest.test_case "uneven chunk coverage" `Quick test_uneven_chunks;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          QCheck_alcotest.to_alcotest prop_back_to_back_jobs;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "sequential stats are zero" `Quick
            test_sequential_stats_zero;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics buffered merge" `Quick
            test_metrics_buffered_merge;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pao j=4 equals j=1" `Quick test_pao_determinism;
          Alcotest.test_case "streamed pao equals resident" `Quick
            test_streamed_pao_identity;
          Alcotest.test_case "rip-up coloring equals sequential" `Quick
            test_ripup_coloring_determinism;
          Alcotest.test_case "flow parallel-init equals sequential" `Quick
            test_flow_determinism;
        ] );
    ]
