(** The [cpr_serve] request broker: named sessions, each an
    {!Eco.Engine} journaled by a {!Wal}, behind the {!Protocol}
    request/response surface.

    {2 Durability contract}

    An [edit] (or flushed [submit]) batch is acknowledged — [ok] with
    its sequence number — only after its WAL commit marker is flushed
    to the journal.  A [kill -9] at any point therefore loses no
    acknowledged batch: {!Wal.recover} + replay reconstructs exactly
    the acknowledged prefix, and an in-flight batch (journaled but not
    committed) is discarded as a torn tail.  {!handle} trips
    {!Pinaccess.Fault.Serve_apply} between append and engine apply; an
    exception escaping from there models the process dying mid-window
    — the [t] value must then be discarded and the sessions
    re-attached, exactly like a real crash.

    {2 Deadlines and degradation}

    [edit]/[flush] deadlines become a {!Pinaccess.Budget}: a batch
    whose budget is exhausted before work starts is rejected with
    [err timeout]; once solving has begun the engine's degradation
    ladder (ILP → LR → minimum) absorbs the pressure and the batch
    lands with [degraded=1] in the reply — the service never holds a
    request open past its deadline to chase solution quality.

    {2 Overload shedding}

    [submit] is admission-controlled: a full per-session queue or a
    full global backlog rejects immediately with [err overloaded].
    Synchronous [edit]s are refused with the same code while the
    global backlog is saturated, so a flood of queued work cannot
    starve every other session.

    {2 Supervision}

    Panel solves run on the shared {!Exec} pool; a failed solve
    (worker-domain exception, injected {!Pinaccess.Fault.Worker})
    fails only the requesting batch — the engine state is unchanged —
    and is retried with exponential backoff up to [max_retries] before
    the batch is refused with [err worker_failed] and its journal
    record aborted.  Unrecoverable exceptions ([Out_of_memory], …)
    propagate. *)

type config = {
  root : string;  (** session state directory *)
  checkpoint_every : int;  (** checkpoint after this many commits *)
  queue_capacity : int;  (** per-session [submit] backlog *)
  global_capacity : int;  (** total queued batches across sessions *)
  max_sessions : int;
  default_deadline_ms : int option;  (** for [edit]s that carry none *)
  max_retries : int;  (** per-batch solve retries *)
  on_backoff : float -> unit;
      (** called with the backoff in seconds before each retry (10 ms,
          doubling per retry); the binary passes a real sleep, tests a
          recorder *)
  audit_on_recover : bool;
      (** certify the recovered assignment ({!Audit.Certificate})
          before acknowledging an [attach] *)
  engine : Eco.Engine.config;
  jobs : int;  (** solver pool domains; [<= 1] runs inline *)
  now : unit -> float;  (** latency clock (seconds) *)
}

val default_config : root:string -> config
(** Conservative defaults: checkpoint every 32 commits, queues of 64
    per session / 256 global, 8 sessions, no default deadline, 2
    retries at 10 ms base backoff, audit on recover, routing off,
    inline solves, {!Obs.Clock.now}. *)

type t

val create : config -> t
(** Start a broker on the process-wide {!Exec.shared} pool of [jobs]
    domains, which broker restarts reuse.  No sessions are attached —
    recovery is per-session via [attach]. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serve one request.  Never raises for protocol-level failures
    (those become [err] responses); raises only for injected
    crash-window faults (see the durability contract) and
    unrecoverable exceptions. *)

val session_names : t -> string list
(** Sessions currently attached in memory, sorted. *)

val shutdown : t -> unit
(** Checkpoint and close every attached session.  The shared pool
    stays up: it belongs to the process, not the broker.  The broker
    must not be used afterwards. *)
