(** Solve budgets: a wall-clock deadline plus a work-unit allowance,
    threaded through every solver and the router so each entry point
    returns its best-so-far state on expiry instead of running
    open-loop.

    Work units are solver-specific steps (LR iterations, ILP
    branch-and-bound nodes, maze expansions); they make budget expiry
    deterministic in tests, while the deadline bounds real time.  A
    budget is mutable: [spend]/[exhausted] observe shared state, so one
    budget value handed to several pipeline stages meters them
    jointly.  Sub-budgets ({!sub}) share the parent's work counter but
    may carry a tighter deadline/allowance — used to give each panel
    its slice of the whole run's budget. *)

type t

val unlimited : unit -> t
(** Never exhausted (but still meters work spent). *)

val start : ?seconds:float -> ?work_units:int -> unit -> t
(** A budget expiring [seconds] from now and/or after [work_units]
    units of work; omitted dimensions are unlimited. *)

val sub : t -> ?seconds:float -> ?work_units:int -> unit -> t
(** A child budget at most as permissive as [t]: deadline is the
    earlier of the parent's and [now + seconds], the work allowance the
    smaller of the parent's remainder and [work_units].  Work spent on
    the child counts against the parent. *)

val isolated : t -> ?seconds:float -> ?work_units:int -> unit -> t
(** Like {!sub}, but with a {e private} work counter starting at zero:
    the child inherits the parent's deadline (possibly tightened) and
    at most the parent's remaining work allowance, and can safely be
    handed to another domain — parent and child never share mutable
    state.  The parent does not see the child's spending until the
    caller reconciles at join with [spend parent (work_spent child)]. *)

val spend : t -> int -> unit
(** Record completed work units. *)

val work_spent : t -> int

val exhausted : t -> bool
(** Deadline passed or allowance spent — callers should wrap up with
    their best-so-far result. *)

val remaining_seconds : t -> float option
(** [None] when there is no deadline; clamped at 0. *)

val remaining_work : t -> int option
(** [None] when there is no work limit; clamped at 0. *)
