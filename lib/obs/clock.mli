(** The one clock every subsystem reads.

    [now] is process time ([Sys.time]) by default — the paper reports
    "cpu(s)", so budgets, spans and the benches all print processor
    seconds.  Tests swap the source with {!with_source} to make both
    budget expiry and span timestamps deterministic; because
    [Pinaccess.Budget] reads it too, faking the clock once fakes it
    for the whole pipeline. *)

val now : unit -> float
(** Seconds from the current source. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed
    seconds. *)

val set_source : (unit -> float) -> unit
(** Replace the clock globally (tests, replay). *)

val reset_source : unit -> unit
(** Back to [Sys.time]. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** Run a thunk under a fake clock; the previous source is restored
    even on exceptions. *)
