(** Independent audit of the incremental ECO engine.

    {!Eco.Engine} promises that applying a delta stream incrementally
    — cache hits, warm starts, frozen routes — lands on the same
    answer a from-scratch run over the edited design would.  This
    module replays that promise batch by batch:

    - after every batch the engine's pin access state must pass
      {!Pinaccess.Pin_access.validate} and
      {!Certificate.certify_pin_access};
    - a from-scratch {!Pinaccess.Pin_access.optimize} of the edited
      design (under the same folded rule deck) must also certify;
    - with warm starting off the two results must agree exactly:
      bit-equal objective, bit-equal panel reports, and identical
      physical assignments (per pin shape, since interval ids are not
      stable across cache materialization);
    - when the engine maintains a routed flow, {!Flow_audit.run} must
      certify it clean after every batch. *)

val stream_seed : Netlist.Design.t -> int64
(** Deterministic fuzz-stream seed derived from the design text, so a
    failing case replays from the design alone. *)

val check :
  ?tolerance:float ->
  ?config:Eco.Engine.config ->
  Netlist.Design.t ->
  Eco.Delta.t list list ->
  (unit, string) result
(** Run the differential over one stream; [Error] names the first
    violated invariant and the batch it died on.  [config] defaults to
    {!Eco.Engine.default_config} with [warm_policy = Warm_never] (the
    bit-identity mode).  A stream that does not apply to the design
    ({!Eco.Delta.Invalid}) is vacuously [Ok] — the shrinker relies on
    this to discard invalid sub-streams as non-failing. *)

val shrink_stream :
  ?tolerance:float ->
  ?config:Eco.Engine.config ->
  ?rounds:int ->
  Netlist.Design.t ->
  Eco.Delta.t list list ->
  Eco.Delta.t list list * int
(** Delta-debug a failing stream to a smaller one that still fails
    {!check} against the same design: ddmin over whole batches first,
    then over individual deltas inside the surviving batches.  Returns
    the shrunk stream and the number of successful reduction steps;
    the input is returned unchanged when it does not fail.  [rounds]
    (default 60) caps candidate evaluations. *)
