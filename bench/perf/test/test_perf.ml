open Perfbench

let close = Alcotest.float 1e-9

(* -- percentiles ---------------------------------------------------- *)

let one_to n = List.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let a = Array.of_list (one_to 10) in
  Alcotest.check close "p90 of 10 is the 9th" 9.0 (Stats.nearest_rank a 90.0);
  Alcotest.check close "p50 of 10 is the 5th" 5.0 (Stats.nearest_rank a 50.0);
  Alcotest.check close "p0 is the minimum" 1.0 (Stats.nearest_rank a 0.0);
  Alcotest.check close "p100 is the maximum" 10.0 (Stats.nearest_rank a 100.0);
  Alcotest.check close "single sample" 7.0 (Stats.nearest_rank [| 7.0 |] 90.0);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Stats.nearest_rank: no samples") (fun () ->
      ignore (Stats.nearest_rank [||] 50.0))

let test_tail () =
  let p = Alcotest.(pair (float 1e-9) (float 0.0)) in
  Alcotest.check p "200 samples: p95" (95.0, 190.0) (Stats.tail (one_to 200));
  Alcotest.check p "400 samples: p97.5" (97.5, 390.0)
    (Stats.tail (List.rev (one_to 400)));
  Alcotest.check p "11 samples: the minimum" (100.0 /. 11.0, 1.0)
    (Stats.tail (one_to 11));
  Alcotest.check_raises "ten samples leave no tail"
    (Invalid_argument "Stats.tail: ten samples or fewer") (fun () ->
      ignore (Stats.tail (one_to 10)))

let test_quartiles () =
  let s = Stats.summary [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.check close "q1" 1.0 s.Stats.q1;
  Alcotest.check close "median is a sample, not a midpoint" 2.0 s.Stats.median;
  Alcotest.check close "q3" 3.0 s.Stats.q3;
  let s = Stats.summary (one_to 11) in
  Alcotest.(check (list (float 0.0)))
    "q1, median, q3 of 11" [ 3.0; 6.0; 9.0 ]
    [ s.Stats.q1; s.Stats.median; s.Stats.q3 ]

(* -- trace fold ----------------------------------------------------- *)

let ev name ts dur depth = { Obs.Trace.name; ts; dur; depth }

let fold events =
  let t = Fold.create () in
  List.iter (Fold.add t) events;
  t

let test_self_time () =
  (* root [0,10] with children a [1,3] and b [5,9], a with child c *)
  let t =
    fold
      [
        ev "c" 1.5 1.0 2; ev "a" 1.0 2.0 1; ev "b" 5.0 4.0 1; ev "root" 0.0 10.0 0;
      ]
  in
  let root = Fold.span t "root" and a = Fold.span t "a" in
  Alcotest.check close "root self" 4.0 root.Fold.self;
  Alcotest.check close "a self" 1.0 a.Fold.self;
  Alcotest.(check int) "absent span" 0 (Fold.span t "none").Fold.count

let test_concurrent_children () =
  (* two domains: children overlap in [2,6]; busy sums, self subtracts
     their union *)
  let t = fold [ ev "task" 1.0 5.0 1; ev "task" 2.0 5.0 1; ev "fan" 0.0 10.0 0 ] in
  let fan = Fold.span t "fan" and task = Fold.span t "task" in
  Alcotest.check close "busy over domains" 10.0 task.Fold.busy;
  Alcotest.(check int) "count" 2 task.Fold.count;
  Alcotest.check close "self is duration minus the union" 4.0 fan.Fold.self

(* A worker's buffered spans, replayed at join, land one level under
   the caller's open span and are claimed by it like direct children. *)
let test_replayed_depths () =
  let clock = ref 0.0 in
  let tick () = clock := !clock +. 1.0 in
  let t = Fold.create () in
  Obs.Clock.with_source
    (fun () -> !clock)
    (fun () ->
      Obs.Trace.with_sink (Fold.sink t) (fun () ->
          Obs.Trace.with_span "outer" (fun () ->
              tick ();
              Obs.Trace.with_span "join" (fun () ->
                  let worker () =
                    Obs.Trace.buffered (fun () ->
                        Obs.Trace.with_span "task" (fun () ->
                            tick ();
                            Obs.Trace.with_span "leaf" tick))
                  in
                  let (), events = Domain.join (Domain.spawn worker) in
                  tick ();
                  Obs.Trace.replay events))));
  (* outer [0,4]: join [1,4] holds task [1,3] holding leaf [2,3] *)
  Alcotest.check close "leaf busy" 1.0 (Fold.span t "leaf").Fold.busy;
  Alcotest.check close "task self" 1.0 (Fold.span t "task").Fold.self;
  Alcotest.check close "join self" 1.0 (Fold.span t "join").Fold.self;
  Alcotest.check close "outer self" 1.0 (Fold.span t "outer").Fold.self

(* -- compare verdicts ----------------------------------------------- *)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v))
    ( = )

let judge ?(better = Verdict.Lower) ?(bound = 0.1) ?pairs parent change =
  let pairs = Option.value ~default:(List.combine parent change) pairs in
  Verdict.judge ~better ~bound ~parent ~change ~pairs

let around c =
  List.map (fun d -> c +. d)
    [ -0.2; -0.1; 0.0; 0.1; 0.2; -0.15; 0.15; 0.05; -0.05; 0.0 ]

let test_verdicts () =
  Alcotest.check verdict "faster on every pair" Verdict.Better
    (judge (around 10.0) (around 9.0));
  Alcotest.check verdict "higher-is-better flips the sign" Verdict.Worse
    (judge ~better:Verdict.Higher (around 10.0) (around 8.5));
  Alcotest.check verdict "slower beyond the bound" Verdict.Worse
    (judge (around 10.0) (around 11.5));
  Alcotest.check verdict "slower within the bound" Verdict.Unchanged
    (judge (around 10.0) (around 10.5));
  let parent = around 10.0 in
  Alcotest.check verdict "paired changes spread wider than the bound"
    Verdict.Unresolved
    (judge parent
       (List.mapi (fun i a -> if i mod 2 = 0 then a *. 1.2 else a *. 0.85) parent));
  Alcotest.check verdict "every change run beats every parent run"
    Verdict.Unchanged
    (judge ~bound:0.0 [ 10.0; 10.2 ] [ 9.9; 9.95 ]);
  (* 8 wins, 2 ties: ties count for neither side, so 8/10 < 9/10 *)
  let change = List.mapi (fun i x -> if i < 2 then x else x -. 1.0) parent in
  Alcotest.check verdict "ties do not count as wins" Verdict.Unchanged
    (judge parent change);
  Alcotest.(check (pair int int)) "wins and losses" (8, 0)
    (Verdict.wins Verdict.Lower (List.combine parent change))

(* A deterministic metric over seeds that are different inputs: the
   seeds spread far wider than the bound, but each seed's own change is
   exact. *)
let test_paired_by_seed () =
  let seeds = [ 5.0; 15.0; 6.0; 14.0; 10.0; 7.0; 13.0; 8.0; 12.0; 10.0 ] in
  let lower share = List.map (fun x -> x *. (1.0 -. share)) seeds in
  Alcotest.check verdict "2% lower on every seed, bound 1%" Verdict.Worse
    (judge ~better:Verdict.Higher ~bound:0.01 seeds (lower 0.02));
  Alcotest.check verdict "0.5% lower on every seed, bound 1%" Verdict.Unchanged
    (judge ~better:Verdict.Higher ~bound:0.01 seeds (lower 0.005));
  Alcotest.check verdict "unpaired, the seeds' spread hides it"
    Verdict.Unresolved
    (judge ~better:Verdict.Higher ~bound:0.01 ~pairs:[] seeds (lower 0.02))

(* -- BENCHMARK.json declares what cpr_perf reports ------------------ *)

let test_declaration () =
  let text =
    In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all
  in
  let j = Result.get_ok (Obs.Json.parse text) in
  let field k o =
    match Obs.Json.member k o with Some v -> v | None -> Alcotest.failf "no %s" k
  in
  let str = function Obs.Json.Str s -> s | _ -> Alcotest.fail "not a string" in
  let check_list key specs =
    match field key j with
    | Obs.Json.List entries ->
      Alcotest.(check (list string))
        (key ^ " names")
        (List.map (fun s -> s.Specs.name) specs)
        (List.map (fun e -> str (field "name" e)) entries);
      List.iter2
        (fun (s : Specs.spec) e ->
          Alcotest.(check string) (s.Specs.name ^ " unit") s.Specs.unit_
            (str (field "unit" e));
          Alcotest.(check bool)
            (s.Specs.name ^ " direction") true
            (Verdict.better_of_string (str (field "better" e))
            = Some s.Specs.better);
          match (s.Specs.bound, Obs.Json.member "bound" e) with
          | Some b, Some (Obs.Json.Num x) ->
            Alcotest.check close (s.Specs.name ^ " bound") b x
          | None, None -> ()
          | _ -> Alcotest.failf "%s: bound declared on one side only" s.Specs.name)
        specs entries
    | _ -> Alcotest.failf "%s is not a list" key
  in
  check_list "end_to_end" Specs.end_to_end;
  check_list "per_layer" Specs.per_layer

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "quartiles with n" `Quick test_quartiles;
        ] );
      ( "fold",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "concurrent children" `Quick test_concurrent_children;
          Alcotest.test_case "replayed worker depths" `Quick test_replayed_depths;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "paired by seed" `Quick test_paired_by_seed;
        ] );
      ( "declaration",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_declaration ] );
    ]
