(** Fold {!Obs.Trace} events into per-name span totals.

    Events arrive in completion order (children before their parent),
    and events a worker domain buffered are replayed at join with their
    depths shifted under the caller's open spans, so one pass suffices:
    each completed span claims the spans pending one level below it as
    its children.  Busy time is summed over domains; self time is a
    span's duration minus the part of its interval that its children
    cover (their union, so concurrent children count once).

    A task the {e calling} domain runs under {!Obs.Trace.buffered}
    records its spans at the caller's depth, and {!Obs.Trace.replay}
    then shifts them once more, so such spans land deeper than their
    parent's children.  Self times of spans that enclose a pool fan-out
    are therefore unreliable; per-name busy totals are not affected. *)

type span = {
  count : int;  (** completed spans of this name *)
  busy : float;  (** Σ duration, domain-seconds *)
  self : float;  (** Σ (duration − time covered by children) *)
}

type t

val create : unit -> t

val add : t -> Obs.Trace.event -> unit

val sink : t -> Obs.Trace.sink
(** A sink feeding {!add}; install it on the driving domain. *)

val span : t -> string -> span
(** Totals for a name; all zero when no such span completed. *)

val clear_roots : t -> unit
(** Forget completed spans still waiting for a parent — call between
    independent traced regions so root spans do not pile up. *)
