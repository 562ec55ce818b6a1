(** Deterministic work-stealing parallelism over OCaml 5 domains.

    The panel pipeline and the library sweep are embarrassingly
    parallel: each work item reads shared immutable state and produces
    a private result.  This module gives them one executor abstraction
    with two implementations:

    - {!sequential} runs every task inline on the caller — the
      OCaml-4-style fallback, and the mode to use when debugging,
      since it preserves a single-threaded execution trace;
    - {!pool} keeps [domains - 1] worker domains parked on a condition
      variable; every {!map} call wakes them, the caller participates
      as one more worker, the index range is cut into contiguous
      chunks dealt block-wise into one {!Deque} per domain, and each
      domain drains its own deque LIFO before stealing chunks FIFO
      from the others.  Work stealing (rather than a shared cursor)
      keeps domains on their own cache-warm block under even load and
      still rebalances automatically when task costs are skewed —
      which is exactly the shape of panel solves and maze routes.

    Results are written into per-index slots, so {!map} always returns
    them in input order regardless of which domain ran which chunk:
    callers get a deterministic merge order for free.  The scheduler
    additionally meters itself (jobs, tasks, chunks, steals, misses,
    victim queue depths) into [exec.*] metrics and per-pool {!stats} —
    `docs/PERF.md` explains how to read them.

    {2 What the executor does {e not} do}

    Tasks must not submit work to the pool that is running them
    ({!map} is not re-entrant), and they are responsible for their own
    isolation: anything they mutate must be private to the task (see
    [Obs.Metrics.buffered] and [Budget.isolated] for the
    observability and budget halves of that contract). *)

type t
(** An executor: either inline-sequential or a domain pool. *)

val sequential : t
(** Runs every task on the calling domain, in index order.  [map
    sequential f xs] is observably [Array.map f xs]. *)

val pool : domains:int -> t
(** A pool of [max 1 domains] domains: [domains - 1] spawned workers
    plus the calling domain.  [pool ~domains:1] spawns nothing and
    behaves like {!sequential}.  The workers park between {!map} calls
    and live until {!shutdown}; always pair [pool] with {!shutdown}
    (or use {!with_pool}) or the process will not exit cleanly. *)

val shared : domains:int -> t
(** The process-wide persistent pool of the given size, created on
    first use and reused by every later [shared ~domains:n] with the
    same [n].  This is the executor call sites should reach for: it
    amortizes domain spawns across the whole process instead of paying
    a fork-join per call.  Never {!shutdown} a shared pool — it is
    joined automatically at process exit.  [shared ~domains:1] is
    {!sequential}. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] over a fresh pool and shuts it
    down afterwards, also on exceptions.  Prefer {!shared} on hot
    paths — [with_pool] pays a domain spawn + join per call. *)

val shutdown : t -> unit
(** Join the pool's worker domains.  Idempotent; a no-op on
    {!sequential}.  Calling {!map} after [shutdown] falls back to
    inline-sequential execution. *)

val domains : t -> int
(** Total domains the executor uses, caller included (1 for
    {!sequential}). *)

val default_domains : unit -> int
(** The runtime's recommended domain count for this machine
    ([Domain.recommended_domain_count]). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element and returns the results
    in input order.  On a pool, tasks run concurrently in contiguous
    chunks (chunk size [max 1 (n / (domains * 8))]) scheduled by work
    stealing; the call returns only after every task has finished.

    If tasks raise, the exception of the {e lowest} input index is
    re-raised on the caller with its original backtrace — the same
    exception a sequential left-to-right run would have surfaced
    first — after all other tasks have completed.  [f] must not call
    {!map} on the same executor it is running under. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, passing each element's index. *)

(** {2 Scheduler telemetry} *)

type stats = {
  jobs : int;  (** {!map} calls that actually fanned out *)
  tasks : int;  (** total array elements processed by those jobs *)
  chunks : int;  (** chunks a domain popped from its {e own} deque *)
  chunks_stolen : int;  (** chunks obtained by stealing from a victim *)
  steal_misses : int;
      (** scan passes over all victims that found every deque empty —
          each participant (caller included) records exactly one
          terminal miss per job, so a value well above [jobs * domains]
          means domains were spinning while work was scarce *)
  queue_depth : int array;
      (** histogram of the victim's queue depth (including the stolen
          chunk) at each successful steal, in log2 buckets: index [k]
          counts steals that found depth in [[2{^k}, 2{^k+1})] *)
}
(** Cumulative over the pool's lifetime.  The same numbers are emitted
    to the metrics registry as [exec.jobs], [exec.tasks],
    [exec.chunks], [exec.steals], [exec.steal_misses] and the
    [exec.queue_depth] histogram, always from the calling domain at
    join — never from workers, so the registry's single-domain
    ownership holds. *)

val stats : t -> stats
(** Scheduler counters so far; all-zero for {!sequential}. *)

(** {2 The work-stealing deque}

    Exposed for property tests; library code only needs {!map}. *)

module Deque : sig
  (** A fixed-capacity Chase–Lev deque of ints: the owner pushes and
      pops LIFO at the bottom, any other domain steals FIFO at the
      top.  No task is ever lost or duplicated: slots are atomic and a
      thief that read a stale slot always loses the CAS on [top]. *)

  type t

  val create : capacity:int -> t
  (** Capacity is rounded up to a power of two and never grows — the
      pool sizes each deque for a whole job up front. *)

  val size : t -> int
  (** Racy estimate of the number of queued elements. *)

  val push : t -> int -> unit
  (** Owner only.  @raise Invalid_argument when full. *)

  val pop : t -> int option
  (** Owner only: take the most recently pushed element, racing
      thieves for the last one. *)

  type steal = Stolen of int | Empty | Retry

  val steal : t -> steal
  (** Any domain: take the oldest element.  [Retry] means another
      domain won the race — the deque may still hold work. *)
end
