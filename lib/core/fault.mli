(** Deterministic fault injection over the solver tiers and the
    service layer.

    {!Pin_access} trips the hook at each tier's entry point; a test
    installs a hook that raises for chosen tiers, proving the
    degradation ladder (ILP -> LR -> shrink-to-minimum) still delivers
    a validated result when upper tiers die.  The serving layer
    ([lib/serve]) trips the [Wal_*]/[Serve_apply]/[Worker] points so
    crash-recovery tests and the soak harness can tear WAL writes,
    kill a request between journal append and engine apply, or fail a
    worker-domain panel solve on demand.  The default hook does
    nothing, so production code pays one indirect call per point. *)

type point =
  | Ilp  (** exact-ILP tier entry *)
  | Lr  (** Lagrangian tier entry *)
  | Wal_append  (** mid-payload during a WAL record append (torn write) *)
  | Wal_commit  (** before a WAL commit marker is written *)
  | Serve_apply  (** between WAL append and engine apply (crash window) *)
  | Worker  (** entry of one panel-solve task (worker-domain failure) *)
  | Report_write
      (** mid-stream during a report's atomic write, between open and
          commit (crash leaves the previous report intact) *)
  | Route_searched
      (** a speculative route search of a parallel reroute phase has
          returned and waits to be recorded for its commit (a hook can
          move the clock past a deadline in between) *)

val point_to_string : point -> string

val trip : point -> unit
(** Called by solver entry points; raises whatever the installed hook
    raises (nothing by default). *)

val set_hook : (point -> unit) -> unit
(** Install a hook for the rest of the process lifetime — the daemon's
    [--inject-*] flags; tests should prefer {!with_hook}. *)

val with_hook : (point -> unit) -> (unit -> 'a) -> 'a
(** Run a thunk with the hook installed, restoring the previous hook on
    exit (exception-safe). *)

val with_failures : point list -> (unit -> 'a) -> 'a
(** Run a thunk with the listed tiers raising a typed
    [Cpr_error.Solver_failure] on entry. *)
