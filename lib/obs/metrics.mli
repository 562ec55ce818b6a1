(** Global registry of named solver metrics.

    Counters and histograms are registered once (usually at module
    initialization, next to the code they meter) and bumped on the hot
    path; a bump is a couple of loads and stores, never an allocation,
    so metering stays on even in production builds.

    Canonical metric names are dotted paths owned by the emitting
    subsystem: [lr.iterations], [lr.step_size], [ilp.nodes],
    [maze.expansions], [negotiation.ripup_rounds], [pao.tier.lr], … —
    see DESIGN.md §7 for the full taxonomy.

    {2 Parallel execution}

    The registry itself is owned by the main domain and is not safe to
    bump from several domains at once.  Code that runs under an [Exec]
    pool wraps each task in {!buffered}, which redirects that task's
    bumps — through the same cached {!counter}/{!histogram} handles —
    into a private, domain-local buffer; the caller merges the buffers
    back with {!flush} at join, in whatever order makes the run
    deterministic. *)

type counter
(** A monotonically increasing integer metric. *)

type histogram
(** A sample distribution (count/sum/min/max, no binning). *)

val counter : string -> counter
(** Find-or-create; the same name always yields the same counter. *)

val histogram : string -> histogram
(** Find-or-create, like {!counter}. *)

val add : counter -> int -> unit
(** Bump by [n]; allocation-free. *)

val incr : counter -> unit
(** [add c 1]. *)

val value : counter -> int
(** Current value in the global registry (buffered bumps not yet
    {!flush}ed are invisible here). *)

val observe : histogram -> float -> unit
(** Record one sample (count/sum/min/max, no binning). *)

type recorder
(** A histogram resolved to the cells the current scope observes into. *)

val recorder : histogram -> recorder
(** [recorder h] looks up, once, where {!observe} on [h] would land
    right now: the registry outside {!buffered}, the enclosing buffer
    inside it.  Use it for many samples within one scope (say, one
    solve); it must not outlive that scope. *)

val record : recorder -> float -> unit
(** [record (recorder h) v] has exactly the effect of [observe h v]
    made in the recorder's scope, without the per-sample lookup. *)

type buffer
(** A detached batch of metric bumps, private to the task that
    produced it. *)

val buffered : (unit -> 'a) -> 'a * buffer
(** [buffered f] runs [f] with every {!add}/{!incr}/{!observe} made
    {e on the calling domain} redirected into a fresh buffer, and
    returns [f]'s result with that buffer.  The previous redirection
    (none, usually) is restored afterwards, also on exceptions — the
    exception propagates and the buffer is dropped.  {!value},
    {!snapshot} and {!reset} always address the global registry. *)

val flush : buffer -> unit
(** Fold a buffer into the registry (or, when called inside an
    enclosing {!buffered} scope, into that scope's buffer — buffers
    nest like the tasks that filled them).  Call it from the domain
    that owns the registry, once per buffer. *)

type histogram_stats = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  mean : float;  (** [nan] when empty *)
}

val stats : histogram -> histogram_stats

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram_stats) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Zero-valued counters and empty histograms are omitted. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** The window delta between two snapshots of the same registry, taken
    without any reset or mutation in between: counter deltas subtract
    per name, histogram [count]/[sum] subtract and [mean] is recomputed
    over the window.  Registry [min]/[max] are epoch extremes (they
    only ever widen), so a window's own extremes are unrecoverable —
    the diff carries the [after] values, which bound the window's.
    Entries whose count did not move are omitted, like {!snapshot}
    omits zeros.  Meters one window of a run, e.g. one benchmark
    operation. *)

val reset : unit -> unit
(** Zero every registered metric in place (registrations survive, so
    cached handles stay valid) — used between bench experiments and
    tests. *)

val summary : snapshot -> string
(** Human-readable table: the [--stats] end-of-run report. *)

val to_json : snapshot -> Json.t
(** [{"counters": {...}, "histograms": {name: {count,sum,min,max,mean}}}]. *)

val jsonl : snapshot -> string list
(** One self-describing JSON object per line:
    [{"type":"counter","name":...,"value":...}] and
    [{"type":"histogram","name":...,"count":...,...}]. *)
