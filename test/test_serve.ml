(* The crash-safe ECO service end to end: the WAL round-trips and
   survives torn tails, the wire protocol stays framed under garbage,
   and the broker honours its durability contract — a crash at the
   worst moment (between journal append and apply, or before the
   commit marker) loses exactly the unacknowledged batches and
   nothing else, with the recovered state audit-certified and
   bit-identical to an uninterrupted run over the acked prefix. *)

module I = Geometry.Interval
module B = Netlist.Builder
module Design = Netlist.Design
module Design_io = Netlist.Design_io
module Delta = Eco.Delta
module Engine = Eco.Engine
module P = Serve.Protocol
module Server = Serve.Server
module Wal = Serve.Wal
module Fault = Pinaccess.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* -- fixtures ------------------------------------------------------- *)

let base_design () =
  B.design ~width:20 ~height:10
    ~nets:
      [
        ("a", [ B.pin_at 2 2; B.pin_at 17 6 ]);
        ("b", [ B.pin_at 9 3; B.pin_at 9 8 ]);
        ("c", [ B.pin_at 3 2; B.pin_at 13 2 ]);
      ]
    ()

let batch1 =
  [
    Delta.Move_pin
      {
        from_ = { Delta.at_x = 2; at_track = 2 };
        shape = { Delta.x = 4; tracks = I.point 2 };
      };
  ]

let batch2 =
  [
    Delta.Add_pin
      { net = "b"; shape = { Delta.x = 6; tracks = I.make ~lo:4 ~hi:5 } };
  ]

let batch3 = [ Delta.Remove_pin { Delta.at_x = 13; at_track = 2 } ]

(* [base_design] with a copy of its nets in a second row, and [batch1]
   made in both rows: the batch dirties two panels, so a broker with
   [jobs > 1] re-solves them on its pool. *)
let two_row_design () =
  B.design ~width:20 ~height:20
    ~nets:
      [
        ("a", [ B.pin_at 2 2; B.pin_at 17 6 ]);
        ("b", [ B.pin_at 9 3; B.pin_at 9 8 ]);
        ("c", [ B.pin_at 3 2; B.pin_at 13 2 ]);
        ("d", [ B.pin_at 2 12; B.pin_at 17 16 ]);
        ("e", [ B.pin_at 9 13; B.pin_at 9 18 ]);
        ("f", [ B.pin_at 3 12; B.pin_at 13 12 ]);
      ]
    ()

let two_row_batch =
  batch1
  @ [
      Delta.Move_pin
        {
          from_ = { Delta.at_x = 2; at_track = 12 };
          shape = { Delta.x = 4; tracks = I.point 12 };
        };
    ]

let design_text batches =
  Design_io.to_string
    (List.fold_left Delta.apply_all (base_design ()) batches)

let with_temp_root f =
  let root = Filename.temp_file "serve_test" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm root with Sys_error _ -> ()) (fun () -> f root)

(* A config with no real sleeping and deterministic clocks. *)
let test_config ?(checkpoint_every = 1000) ?(queue_capacity = 64)
    ?(global_capacity = 256) ?(max_retries = 2) ?(on_backoff = fun _ -> ())
    ?(jobs = 1) root =
  {
    (Server.default_config ~root) with
    Server.checkpoint_every;
    queue_capacity;
    global_capacity;
    max_retries;
    on_backoff;
    jobs;
  }

let exec_jobs () = Obs.Metrics.value (Obs.Metrics.counter "exec.jobs")

let ok_field resp key =
  match resp with
  | P.Resp_ok fields -> P.field fields key
  | _ -> None

let expect_ok name = function
  | P.Resp_ok fields -> fields
  | P.Resp_err (code, msg) ->
    Alcotest.failf "%s: err %s %s" name (P.err_code_to_string code) msg
  | P.Resp_data _ -> Alcotest.failf "%s: unexpected data response" name

let expect_err name code = function
  | P.Resp_err (c, _) ->
    check_str name (P.err_code_to_string code) (P.err_code_to_string c)
  | P.Resp_ok _ -> Alcotest.failf "%s: expected err, got ok" name
  | P.Resp_data _ -> Alcotest.failf "%s: expected err, got data" name

let dump t session =
  match Server.handle t (P.Get_design session) with
  | P.Resp_data (_, payload) -> payload
  | _ -> Alcotest.fail "design dump failed"

let open_session ?(design = base_design ()) t name =
  ignore
    (expect_ok "open"
       (Server.handle t (P.Open (name, Design_io.to_string design))))

let edit ?(opts = P.no_opts) t name deltas =
  Server.handle t (P.Edit (name, opts, Delta.to_string deltas))

(* -- WAL ------------------------------------------------------------ *)

let test_wal_roundtrip () =
  with_temp_root @@ fun root ->
  let d = base_design () in
  let w = Wal.init ~root "s" ~clearance:2 d in
  Wal.append w ~seq:1 batch1;
  Wal.commit w ~seq:1;
  Wal.append w ~seq:2 batch2;
  Wal.abort w ~seq:2;
  Wal.append w ~seq:3 batch3;
  Wal.commit w ~seq:3;
  check_int "last_seq_on_disk" 3 (Wal.last_seq_on_disk w);
  Wal.close w;
  let r, w = Wal.recover ~root "s" in
  check_int "checkpoint seq" 0 r.Wal.checkpoint_seq;
  check_int "clearance" 2 r.Wal.clearance;
  check_int "last seq" 3 r.Wal.last_seq;
  check_int "no torn records" 0 r.Wal.torn;
  check "aborted batch skipped" true
    (List.map fst r.Wal.replay = [ 1; 3 ]
    && List.map snd r.Wal.replay = [ batch1; batch3 ]);
  check_str "checkpoint design round-trips" (Design_io.to_string d)
    (Design_io.to_string r.Wal.design);
  Wal.close w

let append_raw ~root name text =
  let path = Filename.concat (Wal.session_dir ~root name) "wal.log" in
  let oc =
    open_out_gen [ Open_append; Open_wronly; Open_creat ] 0o644 path
  in
  output_string oc text;
  close_out oc

let test_wal_torn_tail () =
  with_temp_root @@ fun root ->
  let w = Wal.init ~root "s" ~clearance:2 (base_design ()) in
  Wal.append w ~seq:1 batch1;
  Wal.commit w ~seq:1;
  Wal.close w;
  (* a header and half a payload, no commit: the write was torn *)
  append_raw ~root "s" "batch 2 0123456789abcdef0123456789abcdef\nmove";
  let r, w = Wal.recover ~root "s" in
  check_int "one torn record" 1 r.Wal.torn;
  check_int "committed prefix survives" 1 (List.length r.Wal.replay);
  check_int "last seq is the committed one" 1 r.Wal.last_seq;
  (* recovery compacted the journal: a second recover is clean *)
  Wal.close w;
  let r2, w2 = Wal.recover ~root "s" in
  check_int "compaction removed the tear" 0 r2.Wal.torn;
  check_int "replay unchanged" 1 (List.length r2.Wal.replay);
  Wal.close w2

let test_wal_digest_mismatch () =
  with_temp_root @@ fun root ->
  let w = Wal.init ~root "s" ~clearance:2 (base_design ()) in
  Wal.append w ~seq:1 batch1;
  Wal.commit w ~seq:1;
  Wal.close w;
  (* a fully framed record whose digest does not match its payload —
     and a valid record after it, which must also be discarded (the
     journal is only trusted up to the first defect) *)
  append_raw ~root "s"
    ("batch 2 00000000000000000000000000000000\n" ^ Delta.to_string batch2
   ^ "commit 2\n");
  let digest = Digest.to_hex (Digest.string (Delta.to_string batch3)) in
  append_raw ~root "s"
    (Printf.sprintf "batch 3 %s\n%scommit 3\n" digest (Delta.to_string batch3));
  let r, w = Wal.recover ~root "s" in
  check "everything after the defect is dropped" true (r.Wal.torn >= 1);
  check_int "only the clean prefix replays" 1 (List.length r.Wal.replay);
  Wal.close w

let test_wal_checkpoint_truncates () =
  with_temp_root @@ fun root ->
  let w = Wal.init ~root "s" ~clearance:2 (base_design ()) in
  Wal.append w ~seq:1 batch1;
  Wal.commit w ~seq:1;
  let folded = Delta.apply_all (base_design ()) batch1 in
  Wal.checkpoint w ~seq:1 ~clearance:3 folded;
  Wal.append w ~seq:2 batch2;
  Wal.commit w ~seq:2;
  Wal.close w;
  let r, w = Wal.recover ~root "s" in
  check_int "checkpoint seq advanced" 1 r.Wal.checkpoint_seq;
  check_int "clearance carried" 3 r.Wal.clearance;
  check_str "checkpoint holds the folded design" (Design_io.to_string folded)
    (Design_io.to_string r.Wal.design);
  check "only post-checkpoint batches replay" true
    (List.map fst r.Wal.replay = [ 2 ]);
  Wal.close w

let test_wal_torn_append_repair () =
  with_temp_root @@ fun root ->
  let w = Wal.init ~root "s" ~clearance:2 (base_design ()) in
  Wal.append w ~seq:1 batch1;
  Wal.commit w ~seq:1;
  (* tear the next append mid-payload via the fault hook *)
  (try
     Fault.with_hook
       (fun p -> if p = Fault.Wal_append then failwith "torn write")
       (fun () -> Wal.append w ~seq:2 batch2);
     Alcotest.fail "append should have torn"
   with Failure _ -> ());
  Wal.repair w;
  (* seq 2 was never consumed; the journal accepts it again *)
  Wal.append w ~seq:2 batch2;
  Wal.commit w ~seq:2;
  Wal.close w;
  let r, w = Wal.recover ~root "s" in
  check_int "no torn records after repair" 0 r.Wal.torn;
  check "both batches replay" true (List.map fst r.Wal.replay = [ 1; 2 ]);
  Wal.close w

let test_wal_names () =
  check "plain names ok" true (Wal.valid_name "load-0_a.b");
  check "empty rejected" false (Wal.valid_name "");
  check "slash rejected" false (Wal.valid_name "a/b");
  check "dot rejected" false (Wal.valid_name ".");
  check "dotdot rejected" false (Wal.valid_name "..")

(* -- protocol ------------------------------------------------------- *)

let getline_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  fun () ->
    match !lines with
    | [] | [ "" ] -> None
    | l :: rest ->
      lines := rest;
      Some l

let test_protocol_request_roundtrip () =
  let requests =
    [
      P.Open ("s0", Design_io.to_string (base_design ()));
      P.Attach "s1";
      P.Edit
        ( "s2",
          { P.deadline_ms = Some 250; work = Some 10_000 },
          Delta.to_string batch1 );
      P.Edit ("s2", P.no_opts, Delta.to_string batch2);
      P.Submit ("s3", Delta.to_string batch3);
      P.Flush ("s3", { P.deadline_ms = Some 5; work = None });
      P.Get_design "s4";
      P.Stat "s5";
      P.Checkpoint "s6";
      P.Close "s7";
      P.Sessions;
      P.Ping;
      P.Quit;
    ]
  in
  let wire = String.concat "" (List.map P.request_to_string requests) in
  let getline = getline_of_string wire in
  List.iteri
    (fun i expected ->
      match P.read_request ~getline with
      | Some (Ok got) -> check (Printf.sprintf "request %d" i) true (got = expected)
      | Some (Error e) -> Alcotest.failf "request %d failed to parse: %s" i e
      | None -> Alcotest.failf "stream ended before request %d" i)
    requests;
  check "stream drained" true (P.read_request ~getline = None)

let test_protocol_response_roundtrip () =
  let responses =
    [
      P.Resp_ok [];
      P.Resp_ok [ ("seq", "12"); ("degraded", "0") ];
      P.Resp_err (P.Timeout, "deadline exhausted in lr");
      P.Resp_err (P.Overloaded, "queue full");
      P.Resp_data ([ ("seq", "3") ], Design_io.to_string (base_design ()));
    ]
  in
  let wire = String.concat "" (List.map P.response_to_string responses) in
  let getline = getline_of_string wire in
  List.iteri
    (fun i expected ->
      match P.read_response ~getline with
      | Some got -> check (Printf.sprintf "response %d" i) true (got = expected)
      | None -> Alcotest.failf "stream ended before response %d" i)
    responses;
  check "stream drained" true (P.read_response ~getline = None)

let test_protocol_framing_survives_garbage () =
  (* a bogus command, then a malformed body-carrying command: both must
     be rejected while leaving the stream framed so [ping] still parses *)
  let wire =
    "frobnicate now\n" ^ "edit\n" ^ Delta.to_string batch1 ^ ".\n"
    ^ "# comment\n\n" ^ "ping\n"
  in
  let getline = getline_of_string wire in
  (match P.read_request ~getline with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "bogus command should be a parse error");
  (match P.read_request ~getline with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "edit without a session should be a parse error");
  match P.read_request ~getline with
  | Some (Ok P.Ping) -> ()
  | _ -> Alcotest.fail "stream lost framing after the bad requests"

(* -- server --------------------------------------------------------- *)

let test_server_edit_pipeline () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "s";
  let fields = expect_ok "edit 1" (edit t "s" batch1) in
  check "seq 1" true (P.field fields "seq" = Some "1");
  let fields = expect_ok "edit 2" (edit t "s" batch2) in
  check "seq 2" true (P.field fields "seq" = Some "2");
  check_str "design is the fold of acked batches"
    (design_text [ batch1; batch2 ])
    (dump t "s");
  let stat = expect_ok "stat" (Server.handle t (P.Stat "s")) in
  check "stat seq" true (P.field stat "seq" = Some "2");
  expect_err "unknown session" P.Unknown_session
    (edit t "nope" batch1);
  expect_err "duplicate open" P.Session_exists
    (Server.handle t (P.Open ("s", Design_io.to_string (base_design ()))));
  Server.shutdown t

let test_server_deadline_timeout () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "s";
  let before = dump t "s" in
  expect_err "zero deadline" P.Timeout
    (edit t "s" ~opts:{ P.deadline_ms = Some 0; work = None } batch1);
  check_str "engine state unchanged" before (dump t "s");
  (* the sequence number was not consumed by the rejected batch *)
  let fields = expect_ok "edit after timeout" (edit t "s" batch1) in
  check "seq 1" true (P.field fields "seq" = Some "1");
  Server.shutdown t

let test_server_shedding () =
  with_temp_root @@ fun root ->
  let t =
    Server.create (test_config ~queue_capacity:1 ~global_capacity:2 root)
  in
  open_session t "a";
  open_session t "b";
  let submit name deltas =
    Server.handle t (P.Submit (name, Delta.to_string deltas))
  in
  ignore (expect_ok "a queues one" (submit "a" batch1));
  expect_err "session queue full" P.Overloaded (submit "a" batch2);
  ignore (expect_ok "b queues one" (submit "b" batch1));
  (* global backlog (2) saturated: submits and synchronous edits shed *)
  expect_err "global backlog full" P.Overloaded (submit "b" batch2);
  expect_err "edit shed under global pressure" P.Overloaded (edit t "a" batch2);
  (* flushing drains the backlog and re-opens admission *)
  let fields = expect_ok "flush a" (Server.handle t (P.Flush ("a", P.no_opts))) in
  check "flush applied" true (P.field fields "applied" = Some "1");
  ignore (expect_ok "edit admitted again" (edit t "a" batch2));
  Server.shutdown t

let test_server_worker_retry () =
  with_temp_root @@ fun root ->
  let backoffs = ref [] in
  let t =
    Server.create
      (test_config ~max_retries:2 ~on_backoff:(fun s -> backoffs := s :: !backoffs)
         root)
  in
  open_session t "s";
  (* first two solve attempts die; the third lands the batch *)
  let trips = ref 0 in
  let resp =
    Fault.with_hook
      (fun p ->
        if p = Fault.Worker then begin
          incr trips;
          if !trips <= 2 then failwith "worker died"
        end)
      (fun () -> edit t "s" batch1)
  in
  ignore (expect_ok "lands after retries" resp);
  check_int "two backoffs" 2 (List.length !backoffs);
  check "backoff is exponential" true
    (match List.rev !backoffs with
    | [ b0; b1 ] -> b1 > b0 && b0 > 0.0
    | _ -> false);
  check_str "design advanced" (design_text [ batch1 ]) (dump t "s");
  Server.shutdown t

(* At [jobs = 2] on the two-row design the failing tasks run on the
   pool: [exec.jobs] must move, and only then. *)
let test_server_worker_exhausted ~jobs () =
  let design, batch =
    if jobs > 1 then (two_row_design (), two_row_batch)
    else (base_design (), batch1)
  in
  with_temp_root @@ fun root ->
  let t = Server.create (test_config ~max_retries:1 ~jobs root) in
  open_session ~design t "s";
  let before = dump t "s" in
  let jobs0 = exec_jobs () in
  let resp =
    Fault.with_hook
      (fun p -> if p = Fault.Worker then failwith "worker keeps dying")
      (fun () -> edit t "s" batch)
  in
  expect_err "refused after bounded retries" P.Worker_failed resp;
  check "the failing solves ran on the pool iff jobs > 1" (jobs > 1)
    (exec_jobs () > jobs0);
  check_str "engine state unchanged" before (dump t "s");
  (* the journal stayed parseable: the failed batch was aborted, and
     the session keeps working once the fault clears *)
  ignore (expect_ok "next edit lands" (edit t "s" batch));
  check_str "design is the fold of acked batches only"
    (Design_io.to_string (Delta.apply_all design batch))
    (dump t "s");
  Server.shutdown t

(* Process death between journal append and engine apply: the
   exception is not in [Cpr_error.recoverable], so it escapes [handle]
   exactly like a crash — the broker is discarded, a new one attaches,
   and recovery must reconstruct precisely the acked prefix. *)
exception Crash

let test_server_crash_recovery () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "s";
  ignore (expect_ok "batch 1 acked" (edit t "s" batch1));
  (try
     ignore
       (Fault.with_hook
          (fun p -> if p = Fault.Serve_apply then raise Crash)
          (fun () -> edit t "s" batch2));
     Alcotest.fail "the crash should have escaped handle"
   with Crash -> ());
  (* t is dead; a fresh broker recovers from disk *)
  let t2 = Server.create (test_config root) in
  let fields = expect_ok "attach" (Server.handle t2 (P.Attach "s")) in
  check "replayed the acked batch" true (P.field fields "replayed" = Some "1");
  check "the in-flight batch was torn" true (P.field fields "torn" = Some "1");
  check_str "recovered design = fold of acked prefix (bit-identical)"
    (design_text [ batch1 ]) (dump t2 "s");
  (* attach audits the recovered assignment (audit_on_recover default);
     the session then keeps serving *)
  let fields = expect_ok "edit after recovery" (edit t2 "s" batch2) in
  check "seq continues past the torn record" true
    (P.field fields "seq" = Some "2");
  check_str "final design folds both batches" (design_text [ batch1; batch2 ])
    (dump t2 "s");
  Server.shutdown t2

let test_server_commit_failure_resync () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "s";
  let before = dump t "s" in
  let tripped = ref false in
  let resp =
    Fault.with_hook
      (fun p ->
        if p = Fault.Wal_commit && not !tripped then begin
          tripped := true;
          failwith "commit marker lost"
        end)
      (fun () -> edit t "s" batch1)
  in
  expect_err "commit failure is an internal error" P.Internal resp;
  (* the engine had applied the batch, but the journal never durably
     committed it: resync must roll the session back to disk truth *)
  check_str "session rolled back" before (dump t "s");
  let stat = expect_ok "stat" (Server.handle t (P.Stat "s")) in
  check "seq rolled back" true (P.field stat "seq" = Some "0");
  (* the client retries; this time it lands *)
  let fields = expect_ok "retry lands" (edit t "s" batch1) in
  check "seq 1" true (P.field fields "seq" = Some "1");
  check_str "design advanced once" (design_text [ batch1 ]) (dump t "s");
  Server.shutdown t

let test_server_interrupted_apply_aborts () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "s";
  let resp =
    Fault.with_hook
      (fun p -> if p = Fault.Serve_apply then failwith "recoverable blip")
      (fun () -> edit t "s" batch1)
  in
  expect_err "recoverable interruption fails the batch" P.Internal resp;
  (* the aborted record consumed seq 1; the journal stays parseable *)
  ignore (expect_ok "next batch lands" (edit t "s" batch2));
  check_str "only the acked batch applied" (design_text [ batch2 ])
    (dump t "s");
  Server.shutdown t;
  let t2 = Server.create (test_config root) in
  ignore (expect_ok "attach over the abort record" (Server.handle t2 (P.Attach "s")));
  check_str "recovery skips the aborted batch" (design_text [ batch2 ])
    (dump t2 "s");
  Server.shutdown t2

let test_server_checkpoint_cadence () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config ~checkpoint_every:2 root) in
  open_session t "s";
  ignore (expect_ok "edit 1" (edit t "s" batch1));
  let stat = expect_ok "stat" (Server.handle t (P.Stat "s")) in
  check "one commit since checkpoint" true
    (P.field stat "since_checkpoint" = Some "1");
  ignore (expect_ok "edit 2" (edit t "s" batch2));
  let stat = expect_ok "stat" (Server.handle t (P.Stat "s")) in
  check "checkpoint fired at the cadence" true
    (P.field stat "since_checkpoint" = Some "0");
  Server.shutdown t;
  (* the checkpoint baked both batches in: recovery replays nothing *)
  let t2 = Server.create (test_config root) in
  let fields = expect_ok "attach" (Server.handle t2 (P.Attach "s")) in
  check "nothing to replay" true (P.field fields "replayed" = Some "0");
  check_str "checkpointed design" (design_text [ batch1; batch2 ])
    (dump t2 "s");
  Server.shutdown t2

let test_server_sessions_listing () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config root) in
  open_session t "a";
  open_session t "b";
  ignore (expect_ok "close b" (Server.handle t (P.Close "b")));
  let fields = expect_ok "sessions" (Server.handle t P.Sessions) in
  check "a attached" true (P.field fields "attached" = Some "a");
  check "b detached but on disk" true (P.field fields "detached" = Some "b");
  check "ping answers" true (ok_field (Server.handle t P.Ping) "seq" = None);
  Server.shutdown t

(* -- load generator ------------------------------------------------- *)

let test_loadgen_in_process ~jobs () =
  with_temp_root @@ fun root ->
  let t = Server.create (test_config ~jobs root) in
  let jobs0 = exec_jobs () in
  let outcome =
    Serve.Loadgen.run
      ~design:(if jobs > 1 then two_row_design () else base_design ())
      { Serve.Loadgen.default with clients = 2; steps = 4; edits_per_step = 2 }
      (Server.handle t)
  in
  check_int "all batches acked" outcome.Serve.Loadgen.sent
    outcome.Serve.Loadgen.acked;
  check "no mismatches" true (outcome.Serve.Loadgen.mismatches = []);
  check "latency percentiles populated" true
    (outcome.Serve.Loadgen.p50_ms >= 0.0
    && outcome.Serve.Loadgen.p99_ms >= outcome.Serve.Loadgen.p50_ms);
  check "solves ran on the pool iff jobs > 1" (jobs > 1)
    (exec_jobs () > jobs0);
  Server.shutdown t

let () =
  Alcotest.run "serve"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip with abort" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail discarded" `Quick test_wal_torn_tail;
          Alcotest.test_case "digest mismatch ends trust" `Quick
            test_wal_digest_mismatch;
          Alcotest.test_case "checkpoint truncates" `Quick
            test_wal_checkpoint_truncates;
          Alcotest.test_case "torn append repaired" `Quick
            test_wal_torn_append_repair;
          Alcotest.test_case "session names" `Quick test_wal_names;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_protocol_response_roundtrip;
          Alcotest.test_case "framing survives garbage" `Quick
            test_protocol_framing_survives_garbage;
        ] );
      ( "server",
        [
          Alcotest.test_case "edit pipeline" `Quick test_server_edit_pipeline;
          Alcotest.test_case "deadline timeout" `Quick
            test_server_deadline_timeout;
          Alcotest.test_case "overload shedding" `Quick test_server_shedding;
          Alcotest.test_case "worker retry with backoff" `Quick
            test_server_worker_retry;
          Alcotest.test_case "worker failure bounded" `Quick
            (test_server_worker_exhausted ~jobs:1);
          Alcotest.test_case "worker failure bounded (jobs 2)" `Quick
            (test_server_worker_exhausted ~jobs:2);
          Alcotest.test_case "crash recovery (kill mid-batch)" `Quick
            test_server_crash_recovery;
          Alcotest.test_case "commit failure resyncs" `Quick
            test_server_commit_failure_resync;
          Alcotest.test_case "interrupted apply aborts" `Quick
            test_server_interrupted_apply_aborts;
          Alcotest.test_case "checkpoint cadence" `Quick
            test_server_checkpoint_cadence;
          Alcotest.test_case "sessions listing" `Quick
            test_server_sessions_listing;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "in-process consistency" `Quick
            (test_loadgen_in_process ~jobs:1);
          Alcotest.test_case "in-process consistency (jobs 2)" `Quick
            (test_loadgen_in_process ~jobs:2);
        ] );
    ]
