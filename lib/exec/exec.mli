(** Deterministic parallelism over OCaml 5 domains.

    The panel pipeline, the library sweep and the router's reroute
    phases map over independent items: each reads shared state and
    produces a private result.  This module gives them one executor
    abstraction with two implementations:

    - {!sequential} runs every task inline on the caller — the
      OCaml-4-style fallback, and the mode to use when debugging,
      since it preserves a single-threaded execution trace;
    - {!shared} keeps [domains - 1] worker domains parked on a
      condition variable; every {!map} call wakes them, the caller
      participates as one more worker, and every participant claims
      the next contiguous chunk of indices with one fetch-and-add on
      the job's cursor until the range is drained.  A domain that
      finishes early just claims the next chunk, so skewed task costs
      — panel solves, maze routes — rebalance by construction.

    Results are written into per-index slots, so {!map} always returns
    them in input order regardless of which domain ran which chunk:
    callers get a deterministic merge order for free.  Each pooled
    {!map} call adds to three registry counters from the caller:
    [exec.jobs] (one per call), [exec.tasks] (its elements) and
    [exec.chunks] (the chunks its range was cut into) —
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

val shared : domains:int -> t
(** The process-wide persistent pool of [max 1 domains] domains
    ([domains - 1] parked workers plus the calling domain), created on
    first use and reused by every later [shared ~domains:n] with the
    same [n].  It amortizes domain spawns across the whole process
    instead of paying a fork-join per call, and its workers are joined
    automatically at process exit.  [shared ~domains:1] is
    {!sequential}. *)

val domains : t -> int
(** Total domains the executor uses, caller included (1 for
    {!sequential}). *)

val default_domains : unit -> int
(** The runtime's recommended domain count for this machine
    ([Domain.recommended_domain_count]). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element and returns the results
    in input order.  On a pool, tasks run concurrently in contiguous
    chunks of [max 1 (n / (domains * 8))] indices claimed from one
    shared cursor; the call returns only after every task has
    finished.

    If tasks raise, the exception of the {e lowest} input index is
    re-raised on the caller with its original backtrace — the same
    exception a sequential left-to-right run would have surfaced
    first — after all other tasks have completed.  [f] must not call
    {!map} on the same executor it is running under. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map}, passing each element's index. *)
