(* Observability subsystem: spans, metrics, sinks, and the JSON codec
   they share.  Spans are driven on a fake clock so timings are exact;
   the file-sink tests parse their own output back with [Obs.Json]. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

(* A settable clock: [advance] moves the shared timeline forward. *)
let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun dt -> t := !t +. dt)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let now, advance = fake_clock () in
  Obs.Clock.with_source now (fun () ->
      let sink, events = Obs.Trace.collect () in
      Obs.Trace.with_sink sink (fun () ->
          Obs.Trace.with_span "run" (fun () ->
              advance 1.0;
              Obs.Trace.with_span "panel" (fun () ->
                  advance 2.0;
                  Obs.Trace.with_span "iter" (fun () -> advance 0.5));
              advance 0.25));
      match events () with
      | [ iter; panel; run ] ->
        (* completion order: innermost first *)
        check_str "names" "iter,panel,run"
          (String.concat "," [ iter.Obs.Trace.name; panel.name; run.name ]);
        check_int "iter depth" 2 iter.depth;
        check_int "panel depth" 1 panel.depth;
        check_int "run depth" 0 run.depth;
        check_float "iter ts" 3.0 iter.ts;
        check_float "iter dur" 0.5 iter.dur;
        check_float "panel ts" 1.0 panel.ts;
        check_float "panel dur" 2.5 panel.dur;
        check_float "run ts" 0.0 run.ts;
        check_float "run dur" 3.75 run.dur
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_span_exception () =
  let now, advance = fake_clock () in
  Obs.Clock.with_source now (fun () ->
      let sink, events = Obs.Trace.collect () in
      Obs.Trace.with_sink sink (fun () ->
          (try
             Obs.Trace.with_span "boom" (fun () ->
                 advance 1.5;
                 failwith "inner")
           with Failure _ -> ());
          (* depth restored: the next span is a root again *)
          Obs.Trace.with_span "after" (fun () -> advance 1.0));
      match events () with
      | [ boom; after ] ->
        check_str "boom name" "boom" boom.Obs.Trace.name;
        check_float "boom dur" 1.5 boom.dur;
        check_int "boom depth" 0 boom.depth;
        check_int "after depth" 0 after.depth
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_sink_restored () =
  check "disabled before" false (Obs.Trace.enabled ());
  let sink, _ = Obs.Trace.collect () in
  Obs.Trace.with_sink sink (fun () ->
      check "enabled inside" true (Obs.Trace.enabled ()));
  check "disabled after" false (Obs.Trace.enabled ());
  (try Obs.Trace.with_sink sink (fun () -> failwith "x")
   with Failure _ -> ());
  check "disabled after raise" false (Obs.Trace.enabled ())

(* a pool task that runs on the calling domain, inside one of its spans,
   replays one level under that span, not two *)
let test_buffered_on_caller () =
  let sink, events = Obs.Trace.collect () in
  Obs.Trace.with_sink sink (fun () ->
      Obs.Trace.with_span "fanout" (fun () ->
          let (), task =
            Obs.Trace.buffered (fun () ->
                Obs.Trace.with_span "task" (fun () ->
                    Obs.Trace.with_span "step" ignore))
          in
          Obs.Trace.replay task;
          (* the caller's own depth survives the buffered scope *)
          Obs.Trace.with_span "after" ignore));
  let depth name =
    match List.find_opt (fun e -> e.Obs.Trace.name = name) (events ()) with
    | Some e -> e.Obs.Trace.depth
    | None -> Alcotest.failf "no %s event" name
  in
  check_int "task at caller depth + 1" (depth "fanout" + 1) (depth "task");
  check_int "step under task" (depth "task" + 1) (depth "step");
  check_int "after" (depth "fanout" + 1) (depth "after")

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  check_int "fresh" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  check_int "bumped" 42 (Obs.Metrics.value c);
  (* find-or-create: same name, same underlying cell *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.counter");
  check_int "shared" 43 (Obs.Metrics.value c);
  Obs.Metrics.reset ();
  (* the cached handle survives a reset *)
  check_int "reset" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  check_int "usable after reset" 1 (Obs.Metrics.value c)

let test_histogram () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.hist" in
  let empty = Obs.Metrics.stats h in
  check_int "empty count" 0 empty.Obs.Metrics.count;
  List.iter (Obs.Metrics.observe h) [ 3.0; 1.0; 2.0 ];
  let s = Obs.Metrics.stats h in
  check_int "count" 3 s.Obs.Metrics.count;
  check_float "sum" 6.0 s.sum;
  check_float "min" 1.0 s.min;
  check_float "max" 3.0 s.max;
  check_float "mean" 2.0 s.mean

(* a recorder records exactly what [observe] would, into the registry
   or into the enclosing buffer *)
let test_recorder_matches_observe () =
  let samples = [ 0.5; -0.0; 3.25; 1e-3; 7.0; 0.1; 0.2 ] in
  let stats_of name = List.assoc name (Obs.Metrics.snapshot ()).histograms in
  let run ~buffered use =
    Obs.Metrics.reset ();
    let h = Obs.Metrics.histogram "test.rec" in
    let go () = use h in
    (if buffered then Obs.Metrics.flush (snd (Obs.Metrics.buffered go))
     else go ());
    stats_of "test.rec"
  in
  let plain h = List.iter (Obs.Metrics.observe h) samples in
  let recorded h =
    let r = Obs.Metrics.recorder h in
    List.iter (Obs.Metrics.record r) samples
  in
  let same label a b =
    let bits (s : Obs.Metrics.histogram_stats) =
      ( s.count,
        Int64.bits_of_float s.sum,
        Int64.bits_of_float s.min,
        Int64.bits_of_float s.max )
    in
    check label true (bits a = bits b)
  in
  same "unbuffered" (run ~buffered:false plain) (run ~buffered:false recorded);
  same "buffered" (run ~buffered:true plain) (run ~buffered:true recorded);
  (* a recorder that records nothing leaves no trace *)
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.rec.unused" in
  Obs.Metrics.flush
    (snd (Obs.Metrics.buffered (fun () -> ignore (Obs.Metrics.recorder h))));
  check "unused recorder" false
    (List.mem_assoc "test.rec.unused" (Obs.Metrics.snapshot ()).histograms)

let test_snapshot () =
  Obs.Metrics.reset ();
  let b = Obs.Metrics.counter "test.b" in
  let a = Obs.Metrics.counter "test.a" in
  let _zero = Obs.Metrics.counter "test.zero" in
  Obs.Metrics.incr a;
  Obs.Metrics.add b 2;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.h") 5.0;
  let snap = Obs.Metrics.snapshot () in
  (* sorted, zero-valued omitted *)
  check "counters sorted, zeros dropped" true
    (snap.Obs.Metrics.counters = [ ("test.a", 1); ("test.b", 2) ]);
  check_int "one histogram" 1 (List.length snap.histograms);
  let lines = Obs.Metrics.jsonl snap in
  check_int "jsonl lines" 3 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok j ->
        check "jsonl has type" true (Obs.Json.member "type" j <> None);
        check "jsonl has name" true (Obs.Json.member "name" j <> None)
      | Error e -> Alcotest.failf "jsonl line %S: %s" line e)
    lines

let test_diff_window () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.win" in
  let idle = Obs.Metrics.counter "test.idle" in
  let h = Obs.Metrics.histogram "test.winh" in
  Obs.Metrics.add c 5;
  Obs.Metrics.incr idle;
  Obs.Metrics.observe h 10.0;
  let before = Obs.Metrics.snapshot () in
  Obs.Metrics.add c 3;
  Obs.Metrics.observe h 2.0;
  Obs.Metrics.observe h 4.0;
  let after = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff ~before ~after in
  (* only what moved inside the window, as window-local deltas *)
  check "moved counter present" true
    (List.mem_assoc "test.win" d.Obs.Metrics.counters);
  check "counter delta" true
    (List.assoc_opt "test.win" d.Obs.Metrics.counters = Some 3);
  check "idle counter omitted" false
    (List.mem_assoc "test.idle" d.Obs.Metrics.counters);
  (match List.assoc_opt "test.winh" d.Obs.Metrics.histograms with
  | None -> Alcotest.fail "moved histogram omitted from diff"
  | Some s ->
    check_int "window count" 2 s.Obs.Metrics.count;
    check_float "window sum" 6.0 s.sum;
    check_float "window mean" 3.0 s.mean);
  (* an empty window diffs to an empty snapshot *)
  let d0 = Obs.Metrics.diff ~before:after ~after in
  check "empty window, no counters" true (d0.Obs.Metrics.counters = []);
  check "empty window, no histograms" true (d0.Obs.Metrics.histograms = [])

(* ------------------------------------------------------------------ *)
(* Atomic artifact writes                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  body

let test_fsio_atomic () =
  let dir = Filename.temp_file "fsio_test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "artifact.json" in
      Obs.Fsio.atomic_write path "v1";
      check_str "first write lands" "v1" (read_file path);
      Obs.Fsio.atomic_write path "v2";
      check_str "overwrite replaces" "v2" (read_file path);
      (* an aborted streaming write leaves the target untouched *)
      let p = Obs.Fsio.open_atomic path in
      output_string (Obs.Fsio.channel p) "partial garbage";
      Obs.Fsio.abort p;
      check_str "abort leaves old content" "v2" (read_file path);
      check_int "no temp litter after abort" 1 (Array.length (Sys.readdir dir));
      let p = Obs.Fsio.open_atomic path in
      output_string (Obs.Fsio.channel p) "v3";
      Obs.Fsio.commit p;
      Obs.Fsio.commit p;
      (* idempotent *)
      check_str "commit promotes" "v3" (read_file path);
      check_int "no temp litter after commit" 1
        (Array.length (Sys.readdir dir)))

(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let emit_sample_spans sink =
  let now, advance = fake_clock () in
  Obs.Clock.with_source now (fun () ->
      Obs.Trace.with_sink sink (fun () ->
          Obs.Trace.with_span "outer" (fun () ->
              advance 1.0;
              Obs.Trace.with_span "inner" (fun () -> advance 0.5))))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_jsonl_sink () =
  with_temp_file (fun path ->
      let oc = open_out path in
      emit_sample_spans (Obs.Trace.jsonl oc);
      close_out oc;
      let lines = List.filter (fun l -> String.trim l <> "") (read_lines path) in
      check_int "two span lines" 2 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Json.parse line with
          | Error e -> Alcotest.failf "jsonl %S: %s" line e
          | Ok j ->
            check "type span" true
              (Obs.Json.member "type" j = Some (Obs.Json.Str "span"));
            List.iter
              (fun k -> check ("has " ^ k) true (Obs.Json.member k j <> None))
              [ "name"; "ts"; "dur"; "depth" ])
        lines)

let test_chrome_sink () =
  with_temp_file (fun path ->
      let oc = open_out path in
      emit_sample_spans (Obs.Trace.chrome oc);
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      match Obs.Json.parse body with
      | Error e -> Alcotest.failf "chrome trace: %s" e
      | Ok (Obs.Json.List events) ->
        check_int "two events" 2 (List.length events);
        List.iter
          (fun ev ->
            check "complete event" true
              (Obs.Json.member "ph" ev = Some (Obs.Json.Str "X"));
            List.iter
              (fun k ->
                check ("has " ^ k) true (Obs.Json.member k ev <> None))
              [ "name"; "ts"; "dur"; "pid"; "tid" ])
          events;
        (* microsecond timeline: inner starts at 1s = 1e6 µs *)
        let inner = List.hd events in
        check "inner ts in µs" true
          (Obs.Json.member "ts" inner = Some (Obs.Json.Num 1_000_000.0))
      | Ok _ -> Alcotest.fail "chrome trace is not a JSON array")

(* ------------------------------------------------------------------ *)
(* JSON codec round trips                                             *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("s", Str "a\"b\\c\nd");
        ("n", Num 1.5);
        ("i", num_int 123456789);
        ("b", Bool true);
        ("z", Null);
        ("l", List [ Num 1.0; Str "x"; Obj [] ]);
      ]
  in
  (match parse (to_string v) with
  | Ok v' -> check "compact roundtrip" true (v = v')
  | Error e -> Alcotest.failf "compact: %s" e);
  (match parse (to_string_pretty v) with
  | Ok v' -> check "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.failf "pretty: %s" e);
  (match parse {| {"u": "\u00e9A"} |} with
  | Ok j -> check "unicode escape" true (member "u" j = Some (Str "\xc3\xa9A"))
  | Error e -> Alcotest.failf "unicode: %s" e);
  check "trailing garbage rejected" true (Result.is_error (parse "1 2"));
  check "bare word rejected" true (Result.is_error (parse "nope"))

(* ------------------------------------------------------------------ *)
(* Disabled-path overhead                                             *)
(* ------------------------------------------------------------------ *)

(* Top-level thunk so the loop below doesn't allocate a closure per
   iteration; what we are measuring is [with_span] itself. *)
let nop () = ()

let test_noop_no_alloc () =
  Obs.Trace.clear_sink ();
  check "sink disabled" false (Obs.Trace.enabled ());
  let c = Obs.Metrics.counter "test.noalloc" in
  (* warm up: first calls may allocate lazily *)
  Obs.Trace.with_span "warm" nop;
  Obs.Metrics.incr c;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Trace.with_span "hot" nop;
    Obs.Metrics.incr c
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "disabled instrumentation allocated %.0f minor words" delta

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and ordering" `Quick
            test_span_nesting;
          Alcotest.test_case "span finishes on exception" `Quick
            test_span_exception;
          Alcotest.test_case "with_sink restores" `Quick test_sink_restored;
          Alcotest.test_case "buffered on the calling domain" `Quick
            test_buffered_on_caller;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "recorder matches observe" `Quick
            test_recorder_matches_observe;
          Alcotest.test_case "snapshot and jsonl" `Quick test_snapshot;
          Alcotest.test_case "diff windows" `Quick test_diff_window;
        ] );
      ( "fsio",
        [ Alcotest.test_case "atomic writes" `Quick test_fsio_atomic ] );
      ( "sinks",
        [
          Alcotest.test_case "jsonl parses back" `Quick test_jsonl_sink;
          Alcotest.test_case "chrome trace parses back" `Quick
            test_chrome_sink;
        ] );
      ( "json",
        [ Alcotest.test_case "roundtrip and escapes" `Quick test_json_roundtrip ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_noop_no_alloc;
        ] );
    ]
