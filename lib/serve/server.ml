module P = Protocol
module Engine = Eco.Engine
module Delta = Eco.Delta
module Budget = Pinaccess.Budget
module Fault = Pinaccess.Fault
module Cpr_error = Pinaccess.Cpr_error

let m_requests = Obs.Metrics.counter "serve.requests"
let m_edits_ok = Obs.Metrics.counter "serve.edits_ok"
let m_timeouts = Obs.Metrics.counter "serve.timeouts"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_worker_failures = Obs.Metrics.counter "serve.worker_failures"
let m_retries = Obs.Metrics.counter "serve.retries"
let m_recovered = Obs.Metrics.counter "serve.recovered_sessions"
let m_torn = Obs.Metrics.counter "serve.wal_torn_records"
let m_checkpoints = Obs.Metrics.counter "serve.checkpoints"
let m_latency = Obs.Metrics.histogram "serve.edit_latency_ms"

type config = {
  root : string;
  checkpoint_every : int;
  queue_capacity : int;
  global_capacity : int;
  max_sessions : int;
  default_deadline_ms : int option;
  max_retries : int;
  on_backoff : float -> unit;
  audit_on_recover : bool;
  engine : Engine.config;
  jobs : int;
  now : unit -> float;
}

let default_config ~root =
  {
    root;
    checkpoint_every = 32;
    queue_capacity = 64;
    global_capacity = 256;
    max_sessions = 8;
    default_deadline_ms = None;
    max_retries = 2;
    on_backoff = (fun _ -> ());
    audit_on_recover = true;
    engine = Engine.default_config;
    jobs = 1;
    now = Obs.Clock.now;
  }

type session = {
  name : string;
  mutable engine : Engine.t;
  mutable wal : Wal.t;
  mutable seq : int;  (* last consumed sequence number *)
  mutable since_checkpoint : int;  (* commits since the last checkpoint *)
  queue : Delta.t list Queue.t;
  mutable queued : int;
}

type t = {
  config : config;
  sessions : (string, session) Hashtbl.t;
  pool : Exec.t;
  mutable global_queued : int;
}

let create config =
  (* the process-wide persistent pool: broker restarts (and the soak
     harness's create/shutdown cycles) reuse the same worker domains *)
  let pool = Exec.shared ~domains:config.jobs in
  { config; sessions = Hashtbl.create 8; pool; global_queued = 0 }

let session_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.sessions [] |> List.sort compare

(* -- helpers ----------------------------------------------------------- *)

let clearance_of engine =
  (Engine.gen_config engine).Pinaccess.Interval_gen.clearance

(* The engine config a session recovered at rule-deck [clearance] must
   start from, so replayed [Set_clearance] deltas fold on the same
   base as the original run. *)
let engine_config_with_clearance (cfg : Engine.config) clearance =
  {
    cfg with
    Engine.pao =
      {
        cfg.Engine.pao with
        Pinaccess.Pin_access.gen =
          { cfg.Engine.pao.Pinaccess.Pin_access.gen with clearance };
      };
  }

let do_checkpoint s =
  Wal.checkpoint s.wal ~seq:s.seq ~clearance:(clearance_of s.engine)
    (Engine.design s.engine);
  s.since_checkpoint <- 0;
  Obs.Metrics.incr m_checkpoints

let err code fmt = Printf.ksprintf (fun msg -> P.Resp_err (code, msg)) fmt

let report_fields ~seq ~degraded (r : Engine.step_report) =
  [
    ("seq", string_of_int seq);
    ("panels", string_of_int r.Engine.panels);
    ("hits", string_of_int r.Engine.cache_hits);
    ("solved", string_of_int r.Engine.solved);
    ("warm", string_of_int r.Engine.warm_started);
    ("degraded", if degraded then "1" else "0");
    ("objective", Printf.sprintf "%.17g" r.Engine.objective);
  ]

(* -- the edit pipeline ------------------------------------------------- *)

(* Failures the retry loop must not absorb: they are deterministic
   verdicts about the batch, not transient worker trouble. *)
let non_retryable = function
  | Delta.Invalid _ | Cpr_error.Error (Cpr_error.Infeasible_panel _) -> true
  | _ -> false

(* Run a solve with bounded retries and exponential backoff (from
   [backoff_ms] milliseconds) on recoverable (worker-class) exceptions;
   everything else propagates to the caller's specific handlers. *)
let backoff_ms = 10.0

let with_retries t f =
  let rec attempt n =
    match f () with
    | v -> Ok v
    | exception e when (not (non_retryable e)) && Cpr_error.recoverable e ->
      if n < t.config.max_retries then begin
        Obs.Metrics.incr m_retries;
        t.config.on_backoff (backoff_ms *. (2.0 ** float_of_int n) /. 1000.0);
        attempt (n + 1)
      end
      else begin
        Obs.Metrics.incr m_worker_failures;
        Error e
      end
  in
  attempt 0

(* Apply one batch under supervision; the engine state is unchanged
   when the result is an error (Engine.apply's atomicity contract). *)
let apply_supervised t s ~budget deltas =
  match
    with_retries t (fun () -> Engine.apply ~budget ~pool:t.pool s.engine deltas)
  with
  | Ok report -> Ok report
  | Error e ->
    Error
      (err P.Worker_failed "solve failed after %d retries: %s"
         t.config.max_retries (Printexc.to_string e))
  | exception Delta.Invalid { index; reason } ->
    Error
      (err P.Invalid_delta "batch rejected%s: %s"
         (match index with
         | Some i -> Printf.sprintf " at delta %d" i
         | None -> "")
         reason)
  | exception Cpr_error.Error (Cpr_error.Infeasible_panel { panel; reason }) ->
    Error
      (err P.Infeasible "infeasible%s: %s"
         (match panel with
         | Some p -> Printf.sprintf " panel %d" p
         | None -> "")
         reason)

(* Rebuild an engine from a recovery image, supervising each step
   separately (retrying the whole replay against an every-Nth fault
   injector would re-hit the injector forever). *)
let build_recovered t cfg (recovery : Wal.recovery) =
  match
    with_retries t (fun () ->
        Engine.create ~config:cfg ~pool:t.pool recovery.Wal.design)
  with
  | Error e -> Error e
  | Ok engine ->
    let rec go = function
      | [] -> Ok engine
      | (_, deltas) :: rest -> (
        match
          with_retries t (fun () ->
              ignore (Engine.apply ~pool:t.pool engine deltas))
        with
        | Ok () -> go rest
        | Error e -> Error e)
    in
    go recovery.Wal.replay

(* Re-attach a session from disk after a commit-marker failure: the
   engine holds a batch the journal does not, so disk is the only
   truth left. *)
let resync t s =
  Wal.close s.wal;
  let recovery, wal = Wal.recover ~root:t.config.root s.name in
  let cfg = engine_config_with_clearance t.config.engine recovery.Wal.clearance in
  let engine =
    match build_recovered t cfg recovery with
    | Ok engine -> engine
    | Error e -> raise e
  in
  s.engine <- engine;
  s.wal <- wal;
  s.seq <- recovery.Wal.last_seq;
  s.since_checkpoint <- 0

(* One batch through the full WAL-append / apply / commit pipeline.
   Returns the engine report on success; the session's [seq] is
   consumed (commit or abort) except when the append itself failed. *)
let land_batch t s ~budget deltas =
  if Budget.exhausted budget then begin
    Obs.Metrics.incr m_timeouts;
    Error (err P.Timeout "deadline exhausted before batch %d" (s.seq + 1))
  end
  else begin
    let seq = s.seq + 1 in
    match Wal.append s.wal ~seq deltas with
    | exception e ->
      (* torn journal write: drop the partial record so the journal
         stays parseable, and the sequence number stays unconsumed *)
      Obs.Metrics.incr m_torn;
      Wal.repair s.wal;
      Error (err P.Internal "journal append failed: %s" (Printexc.to_string e))
    | () -> (
      s.seq <- seq;
      (* The crash window: a non-recoverable exception here models
         dying between journal append and apply — it escapes with the
         record uncommitted, and recovery discards the torn tail.  A
         recoverable injection instead fails just this batch, keeping
         the live journal parseable. *)
      let interrupted =
        match Fault.trip Fault.Serve_apply with
        | () -> None
        | exception e when Cpr_error.recoverable e ->
          Wal.abort s.wal ~seq;
          Some (err P.Internal "apply interrupted: %s" (Printexc.to_string e))
      in
      match
        match interrupted with
        | Some resp -> Error resp
        | None -> apply_supervised t s ~budget deltas
      with
      | Error resp ->
        (match interrupted with None -> Wal.abort s.wal ~seq | Some _ -> ());
        Error resp
      | Ok report -> (
        match Wal.commit s.wal ~seq with
        | () ->
          s.since_checkpoint <- s.since_checkpoint + 1;
          if s.since_checkpoint >= t.config.checkpoint_every then
            do_checkpoint s;
          Obs.Metrics.incr m_edits_ok;
          Ok (seq, report)
        | exception e ->
          (* the engine advanced but the marker never landed: roll the
             session back to what the journal proves *)
          Wal.repair s.wal;
          resync t s;
          Error
            (err P.Internal "journal commit failed (session resynced): %s"
               (Printexc.to_string e))))
  end

let budget_of_opts t (opts : P.opts) =
  let deadline_ms =
    match opts.P.deadline_ms with
    | Some _ as d -> d
    | None -> t.config.default_deadline_ms
  in
  match (deadline_ms, opts.P.work) with
  | None, None -> Budget.unlimited ()
  | seconds_ms, work_units ->
    Budget.start
      ?seconds:(Option.map (fun ms -> float_of_int ms /. 1000.0) seconds_ms)
      ?work_units ()

(* Drain a session's queue under one budget; stops (leaving the rest
   queued) when the budget expires between batches.  Returns
   [(applied, Some error)] when a batch failed. *)
let drain t s ~budget =
  let applied = ref 0 in
  let failure = ref None in
  let continue_ = ref true in
  while !continue_ && s.queued > 0 do
    if Budget.exhausted budget then continue_ := false
    else begin
      let deltas = Queue.peek s.queue in
      match land_batch t s ~budget deltas with
      | Ok _ ->
        ignore (Queue.pop s.queue);
        s.queued <- s.queued - 1;
        t.global_queued <- t.global_queued - 1;
        incr applied
      | Error resp ->
        (* drop the poisoned batch so the queue can make progress *)
        ignore (Queue.pop s.queue);
        s.queued <- s.queued - 1;
        t.global_queued <- t.global_queued - 1;
        failure := Some resp;
        continue_ := false
    end
  done;
  (!applied, !failure)

(* -- request handlers -------------------------------------------------- *)

let with_session t name f =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> f s
  | None ->
    if Wal.exists ~root:t.config.root name then
      err P.Unknown_session "session %s is not attached (use attach)" name
    else err P.Unknown_session "no such session: %s" name

let handle_open t name body =
  if not (Wal.valid_name name) then err P.Parse "invalid session name: %s" name
  else if Hashtbl.mem t.sessions name || Wal.exists ~root:t.config.root name
  then err P.Session_exists "session %s already exists" name
  else if Hashtbl.length t.sessions >= t.config.max_sessions then
    err P.Overloaded "session limit (%d) reached" t.config.max_sessions
  else
    match Netlist.Design_io.of_string body with
    | exception Netlist.Design_io.Malformed { reason; _ } ->
      err P.Malformed_design "%s" reason
    | design -> (
      match
        with_retries t (fun () ->
            Engine.create ~config:t.config.engine ~pool:t.pool design)
      with
      | exception Cpr_error.Error (Cpr_error.Infeasible_panel { reason; _ }) ->
        err P.Infeasible "%s" reason
      | Error e ->
        err P.Worker_failed "cold solve failed after %d retries: %s"
          t.config.max_retries (Printexc.to_string e)
      | Ok engine ->
        let wal =
          Wal.init ~root:t.config.root name ~clearance:(clearance_of engine)
            design
        in
        Hashtbl.replace t.sessions name
          {
            name;
            engine;
            wal;
            seq = 0;
            since_checkpoint = 0;
            queue = Queue.create ();
            queued = 0;
          };
        P.Resp_ok
          [
            ("seq", "0");
            ("pins", string_of_int (Array.length (Netlist.Design.pins design)));
            ( "objective",
              Printf.sprintf "%.17g" (Engine.pao engine).Pinaccess.Pin_access.objective );
          ])

let handle_attach t name =
  match Hashtbl.find_opt t.sessions name with
  | Some s -> P.Resp_ok [ ("seq", string_of_int s.seq); ("replayed", "0") ]
  | None -> (
    if not (Wal.exists ~root:t.config.root name) then
      err P.Unknown_session "no such session: %s" name
    else if Hashtbl.length t.sessions >= t.config.max_sessions then
      err P.Overloaded "session limit (%d) reached" t.config.max_sessions
    else
      match Wal.recover ~root:t.config.root name with
      | exception Wal.Corrupt reason -> err P.Wal_corrupt "%s" reason
      | recovery, wal -> (
        Obs.Metrics.add m_torn recovery.Wal.torn;
        let cfg =
          engine_config_with_clearance t.config.engine recovery.Wal.clearance
        in
        match build_recovered t cfg recovery with
        | Error e | exception e ->
          Wal.close wal;
          err P.Internal "replay failed: %s" (Printexc.to_string e)
        | Ok engine -> (
          let audit_failure =
            if not t.config.audit_on_recover then None
            else
              match Audit.certify_pin_access (Engine.pao engine) with
              | Ok () -> None
              | Error reason -> Some (Audit.reason_to_string reason)
          in
          match audit_failure with
          | Some reason ->
            Wal.close wal;
            err P.Internal "recovered state failed audit: %s" reason
          | None ->
            let s =
              {
                name;
                engine;
                wal;
                seq = recovery.Wal.last_seq;
                since_checkpoint = 0;
                queue = Queue.create ();
                queued = 0;
              }
            in
            (* bake the replay into a fresh checkpoint so the next
               crash replays only its own tail *)
            if recovery.Wal.replay <> [] || recovery.Wal.torn > 0 then
              do_checkpoint s;
            Hashtbl.replace t.sessions name s;
            Obs.Metrics.incr m_recovered;
            P.Resp_ok
              [
                ("seq", string_of_int s.seq);
                ("replayed", string_of_int (List.length recovery.Wal.replay));
                ("torn", string_of_int recovery.Wal.torn);
              ])))

let handle_edit t name opts body =
  with_session t name @@ fun s ->
  match Delta.of_string body with
  | exception Delta.Parse_error { line; reason } ->
    err P.Invalid_delta "parse error at line %d: %s" line reason
  | deltas -> (
    if t.global_queued >= t.config.global_capacity then begin
      Obs.Metrics.incr m_shed;
      err P.Overloaded "global backlog full (%d queued)" t.global_queued
    end
    else begin
      let t0 = t.config.now () in
      let budget = budget_of_opts t opts in
      (* queued work lands first, in order, under the same deadline *)
      match drain t s ~budget with
      | _, Some resp -> resp
      | drained, None -> (
        match land_batch t s ~budget deltas with
        | Error resp -> resp
        | Ok (seq, report) ->
          Obs.Metrics.observe m_latency ((t.config.now () -. t0) *. 1000.0);
          let degraded = (Engine.pao s.engine).Pinaccess.Pin_access.degraded in
          P.Resp_ok
            (report_fields ~seq ~degraded report
            @ (if drained > 0 then [ ("drained", string_of_int drained) ] else []))
        )
    end)

let handle_submit t name body =
  with_session t name @@ fun s ->
  match Delta.of_string body with
  | exception Delta.Parse_error { line; reason } ->
    err P.Invalid_delta "parse error at line %d: %s" line reason
  | deltas ->
    if s.queued >= t.config.queue_capacity then begin
      Obs.Metrics.incr m_shed;
      err P.Overloaded "session queue full (%d)" s.queued
    end
    else if t.global_queued >= t.config.global_capacity then begin
      Obs.Metrics.incr m_shed;
      err P.Overloaded "global backlog full (%d queued)" t.global_queued
    end
    else begin
      Queue.push deltas s.queue;
      s.queued <- s.queued + 1;
      t.global_queued <- t.global_queued + 1;
      P.Resp_ok [ ("queued", string_of_int s.queued) ]
    end

let handle_flush t name opts =
  with_session t name @@ fun s ->
  let budget = budget_of_opts t opts in
  let applied, failure = drain t s ~budget in
  match failure with
  | Some resp -> resp
  | None ->
    P.Resp_ok
      [
        ("applied", string_of_int applied);
        ("remaining", string_of_int s.queued);
        ("seq", string_of_int s.seq);
      ]

let handle_stat t name =
  with_session t name @@ fun s ->
  P.Resp_ok
    [
      ("seq", string_of_int s.seq);
      ("queued", string_of_int s.queued);
      ("since_checkpoint", string_of_int s.since_checkpoint);
      ("cache_entries", string_of_int (Engine.cache_size s.engine));
      ("hit_rate", Printf.sprintf "%.3f" (Engine.cache_hit_rate s.engine));
      ( "objective",
        Printf.sprintf "%.17g" (Engine.pao s.engine).Pinaccess.Pin_access.objective );
    ]

let handle_close t name =
  with_session t name @@ fun s ->
  let _, failure = drain t s ~budget:(Budget.unlimited ()) in
  match failure with
  | Some resp -> resp
  | None ->
    do_checkpoint s;
    Wal.close s.wal;
    Hashtbl.remove t.sessions name;
    P.Resp_ok [ ("seq", string_of_int s.seq) ]

let rec handle t request =
  Obs.Metrics.incr m_requests;
  try dispatch t request
  with e when Cpr_error.recoverable e ->
    err P.Internal "unhandled: %s" (Printexc.to_string e)

and dispatch t request =
  match request with
  | P.Open (name, body) -> handle_open t name body
  | P.Attach name -> handle_attach t name
  | P.Edit (name, opts, body) -> handle_edit t name opts body
  | P.Submit (name, body) -> handle_submit t name body
  | P.Flush (name, opts) -> handle_flush t name opts
  | P.Get_design name ->
    with_session t name (fun s ->
        P.Resp_data
          ( [ ("seq", string_of_int s.seq) ],
            Netlist.Design_io.to_string (Engine.design s.engine) ))
  | P.Stat name -> handle_stat t name
  | P.Checkpoint name ->
    with_session t name (fun s ->
        do_checkpoint s;
        P.Resp_ok [ ("seq", string_of_int s.seq) ])
  | P.Close name -> handle_close t name
  | P.Sessions ->
    let attached = session_names t in
    let on_disk =
      Wal.sessions ~root:t.config.root
      |> List.filter (fun n -> not (List.mem n attached))
    in
    P.Resp_ok
      [
        ("attached", String.concat "," attached);
        ("detached", String.concat "," on_disk);
      ]
  | P.Ping -> P.Resp_ok []
  | P.Quit -> P.Resp_ok [ ("bye", "1") ]

let shutdown t =
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.sessions name with
      | None -> ()
      | Some s ->
        ignore (drain t s ~budget:(Budget.unlimited ()));
        do_checkpoint s;
        Wal.close s.wal;
        Hashtbl.remove t.sessions name)
    (session_names t)
(* the shared pool stays up — it belongs to the process, not the broker *)
