(** Hierarchical tracing spans with pluggable sinks.

    A span is a named region of execution ([run] > [panel] >
    [LR-iteration]); names are static strings so the disabled path
    stays allocation-free.  With no sink installed, {!with_span} is a
    single flag test around the thunk — instrumentation can live on
    the hottest loops.  With a sink, each completed span is delivered
    as an {!event} carrying its start time, duration (from
    {!Clock.now}) and nesting depth.  Events arrive in completion
    order, i.e. children before their parent.

    The installed sink and the nesting depth are {e domain-local}: a
    freshly spawned worker domain is silent even while the main domain
    traces, so spans on parallel code never race on a shared channel.
    A worker that should be heard runs its task under {!buffered}; the
    caller delivers the collected events with {!replay} at join, which
    keeps multi-domain runs deterministic and sinks single-writer. *)

type event = {
  name : string;
  ts : float;  (** start, seconds on the {!Clock} timeline *)
  dur : float;  (** seconds *)
  depth : int;  (** 0 = root span *)
}

type sink
(** A consumer of completed spans. *)

val null : sink
(** Drops everything; the default. *)

val make_sink : on_event:(event -> unit) -> flush:(unit -> unit) -> sink
(** Build a sink from callbacks; [flush] is called when the sink is
    uninstalled (see {!with_sink}). *)

val tee : sink -> sink -> sink
(** Deliver to both (events and flushes). *)

val collect : unit -> sink * (unit -> event list)
(** In-memory sink for tests; the thunk returns events delivered so
    far, oldest first. *)

val jsonl : out_channel -> sink
(** One [{"type":"span","name":...,"ts":...,"dur":...,"depth":...}]
    JSON object per line; [flush] flushes the channel (the caller
    closes it). *)

val chrome : out_channel -> sink
(** Chrome [trace_event] JSON array of complete ("ph":"X") events,
    loadable in about:tracing / Perfetto; [flush] writes the closing
    bracket, so flush exactly once before closing the channel. *)

val set_sink : sink -> unit
(** Install a sink on the calling domain (replacing the current one). *)

val clear_sink : unit -> unit
(** Back to {!null}. *)

val enabled : unit -> bool
(** Whether a non-null sink is installed on the calling domain. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install for the duration of the thunk, then flush the sink and
    restore the previous one (also on exceptions). *)

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  Exceptions still finish (and emit)
    the span, then propagate. *)

val buffered : (unit -> 'a) -> 'a * event list
(** [buffered f] runs [f] with this domain's spans collected in memory
    (the previous sink is restored afterwards) and returns the events,
    oldest first, with depths relative to [f]'s own root — also when
    the calling domain runs [f] inside spans of its own.  This is the
    worker-domain half of tracing under a pool; on an exception the
    events are dropped and the exception propagates. *)

val replay : event list -> unit
(** Deliver previously {!buffered} events to the currently installed
    sink, shifting their depths under the caller's open spans; a no-op
    when tracing is disabled.  Call at task join, in merge order. *)
