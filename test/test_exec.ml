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
  Exec.with_pool ~domains:4 (fun pool ->
      let got = Exec.map pool (fun i -> (i * 7) + 1) xs in
      check "map equals Array.map" true (got = expected);
      (* the pool is reusable across calls *)
      let again = Exec.map pool (fun i -> i - 3) xs in
      check "second map on same pool" true
        (again = Array.map (fun i -> i - 3) xs))

let test_mapi_indices () =
  let xs = Array.make 50 "x" in
  Exec.with_pool ~domains:3 (fun pool ->
      let got = Exec.mapi pool (fun i s -> Printf.sprintf "%s%d" s i) xs in
      check "mapi passes the element index" true
        (got = Array.init 50 (fun i -> Printf.sprintf "x%d" i)))

let test_sequential_executor () =
  let xs = Array.init 17 (fun i -> i) in
  let got = Exec.map Exec.sequential (fun i -> i * i) xs in
  check "sequential map" true (got = Array.map (fun i -> i * i) xs);
  check_int "sequential reports one domain" 1 (Exec.domains Exec.sequential)

(* Uneven sizes: every index must be computed exactly once, whatever
   the chunking does at the ragged end. *)
let test_uneven_chunks () =
  List.iter
    (fun n ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Exec.with_pool ~domains:4 (fun pool ->
          let got =
            Exec.mapi pool
              (fun i () ->
                Atomic.incr hits.(i);
                i)
              (Array.make n ())
          in
          check "results in order" true (got = Array.init n (fun i -> i)));
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
  Exec.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest failing index wins" (boom 37) (fun () ->
          ignore
            (Exec.mapi pool
               (fun i () -> if i = 37 || i = 73 then raise (boom i) else i)
               (Array.make 100 ()))))

(* with_pool must shut the domains down even when the body raises. *)
let test_with_pool_cleanup () =
  (try
     Exec.with_pool ~domains:2 (fun _ -> failwith "body blew up")
   with Failure _ -> ());
  (* a fresh pool still works afterwards *)
  Exec.with_pool ~domains:2 (fun pool ->
      check "pool after failed body" true
        (Exec.map pool (fun i -> i + 1) [| 1; 2; 3 |] = [| 2; 3; 4 |]))

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                *)
(* ------------------------------------------------------------------ *)

(* With a single thread the Chase–Lev deque must behave exactly like a
   model double-ended list: push/pop LIFO at the bottom, steal FIFO at
   the top, and no [Retry] (nobody to lose a race against). *)
let prop_deque_matches_model =
  let open QCheck in
  let op_gen = Gen.oneofl [ `Push; `Pop; `Steal ] in
  let ops = make ~print:(fun l -> string_of_int (List.length l))
      (Gen.list_size (Gen.int_range 1 200) op_gen) in
  Test.make ~name:"deque matches sequential model" ~count:200 ops (fun ops ->
      let d = Exec.Deque.create ~capacity:256 in
      let model = ref [] (* top is the head, bottom the tail *) in
      let next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Push ->
            Exec.Deque.push d !next;
            model := !model @ [ !next ];
            incr next
          | `Pop -> (
            let got = Exec.Deque.pop d in
            match (got, List.rev !model) with
            | Some v, last :: rest ->
              assert (v = last);
              model := List.rev rest
            | None, [] -> ()
            | _ -> assert false)
          | `Steal -> (
            match (Exec.Deque.steal d, !model) with
            | Exec.Deque.Stolen v, first :: rest ->
              assert (v = first);
              model := rest
            | Exec.Deque.Empty, [] -> ()
            | Exec.Deque.Retry, _ -> assert false
            | _ -> assert false))
        ops;
      (* drain: everything still queued comes out FIFO from the top *)
      List.iter
        (fun expected ->
          match Exec.Deque.steal d with
          | Exec.Deque.Stolen v -> assert (v = expected)
          | _ -> assert false)
        !model;
      Exec.Deque.steal d = Exec.Deque.Empty)

(* The concurrent contract: whatever the interleaving of the owner's
   pushes/pops with thief domains stealing, every pushed value is
   consumed exactly once — none lost, none duplicated. *)
let prop_deque_no_lost_tasks =
  let open QCheck in
  let cfg = make
      ~print:(fun (n, thieves) -> Printf.sprintf "n=%d thieves=%d" n thieves)
      Gen.(pair (int_range 64 2000) (int_range 1 3)) in
  Test.make ~name:"no task lost or duplicated under steals" ~count:12 cfg
    (fun (n, thieves) ->
      let d = Exec.Deque.create ~capacity:n in
      let done_ = Atomic.make false in
      let thief () =
        let mine = ref [] in
        let rec loop () =
          match Exec.Deque.steal d with
          | Exec.Deque.Stolen v ->
            mine := v :: !mine;
            loop ()
          | Exec.Deque.Retry ->
            Domain.cpu_relax ();
            loop ()
          | Exec.Deque.Empty ->
            if Atomic.get done_ then !mine
            else begin
              Domain.cpu_relax ();
              loop ()
            end
        in
        loop ()
      in
      let thieves = List.init thieves (fun _ -> Domain.spawn thief) in
      let owner = ref [] in
      (* interleave pushes with occasional pops so the owner races the
         thieves at both ends, then drain LIFO *)
      for i = 0 to n - 1 do
        Exec.Deque.push d i;
        if i land 7 = 0 then
          match Exec.Deque.pop d with
          | Some v -> owner := v :: !owner
          | None -> ()
      done;
      let rec drain () =
        match Exec.Deque.pop d with
        | Some v ->
          owner := v :: !owner;
          drain ()
        | None -> ()
      in
      drain ();
      Atomic.set done_ true;
      let stolen = List.concat_map Domain.join thieves in
      let all = List.sort compare (!owner @ stolen) in
      all = List.init n (fun i -> i))

let test_deque_capacity () =
  let d = Exec.Deque.create ~capacity:4 in
  for i = 0 to 3 do
    Exec.Deque.push d i
  done;
  check "push past capacity raises" true
    (match Exec.Deque.push d 4 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_accounting () =
  Exec.with_pool ~domains:3 (fun pool ->
      let n = 100 in
      ignore (Exec.map pool (fun i -> i * 2) (Array.init n (fun i -> i)));
      let s = Exec.stats pool in
      check_int "one job fanned out" 1 s.Exec.jobs;
      check_int "every task counted" n s.Exec.tasks;
      (* chunk = max 1 (100 / (3 * 8)) = 4, so 25 chunks; each is
         either popped by its owner or stolen, exactly once *)
      check_int "chunks + steals covers the job" 25
        (s.Exec.chunks + s.Exec.chunks_stolen);
      check_int "depth histogram counts one entry per steal"
        s.Exec.chunks_stolen
        (Array.fold_left ( + ) 0 s.Exec.queue_depth);
      (* a second job accumulates *)
      ignore (Exec.map pool (fun i -> i) (Array.init n (fun i -> i)));
      let s2 = Exec.stats pool in
      check_int "jobs accumulate" 2 s2.Exec.jobs;
      check_int "tasks accumulate" (2 * n) s2.Exec.tasks)

let test_stats_sequential_zero () =
  ignore (Exec.map Exec.sequential (fun i -> i) (Array.init 10 (fun i -> i)));
  let s = Exec.stats Exec.sequential in
  check "sequential stats all zero" true
    (s.Exec.jobs = 0 && s.Exec.tasks = 0 && s.Exec.chunks = 0
   && s.Exec.chunks_stolen = 0)

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
          Alcotest.test_case "with_pool cleanup" `Quick test_with_pool_cleanup;
        ] );
      ( "deque",
        [
          QCheck_alcotest.to_alcotest prop_deque_matches_model;
          QCheck_alcotest.to_alcotest prop_deque_no_lost_tasks;
          Alcotest.test_case "capacity is hard" `Quick test_deque_capacity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "sequential stats are zero" `Quick
            test_stats_sequential_zero;
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
