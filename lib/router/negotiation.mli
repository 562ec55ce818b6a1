(** Negotiation-congestion routing: the one engine shared by CPR, the
    [21]-style baseline and the incremental ECO flows.

    Stage 1 ("independent routing") routes every net with no present-
    sharing penalty, by ascending bbox half-perimeter (short nets have
    the least freedom); the number of overused grids after this stage is
    the paper's initial-congestion metric (Fig. 7(b)).  Stage 2 rips up
    and reroutes the nets crossing overused grids, in ascending net-id
    order, with growing present-sharing factor and accumulating history
    costs (a fixed PathFinder schedule: present-sharing factor
    [0.5 * 1.6^(i-1)] in round [i], history [+1] per round on every
    overused node), until the overuse disappears or 16 rounds end.
    Every round also probes the current metal for DRC violations (and
    TPL coloring failures), bumps history on the offending grids and
    adds the blamed nets to the victims — the paper's combined
    congestion + manufacturing-constraint rip-up.  A run extracts the
    metal for every probe into one {!Drc.Extract} buffer, refilled in
    place, and traces each probe as a [negotiation.probe] span.  Nets still sharing
    grids at the end are dropped deterministically so the surviving
    routing is short-free, two DRC rip-up rounds follow (run's own,
    through the same reroute phases; {!drc_ripup} is the sequential
    baseline's), and {!Flow.finish} turns the routes into the reported
    flow.

    Every reroute phase — stage 1, the victims of one round, the
    blamed nets of one DRC rip-up round — may run on several domains
    ([?pool] of {!run}) and still produce the bytes of the in-order
    loop: see {!run}. *)

val run :
  ?pool:Exec.t ->
  ?cost:Rgrid.Cost.t ->
  ?tpl:Drc.Tpl.t ->
  ?budget:Pinaccess.Budget.t ->
  ?frozen:bool array ->
  ?initial:Rgrid.Route.t option array ->
  pao:Pinaccess.Pin_access.t option ->
  started:float ->
  Rgrid.Grid.t ->
  Net_router.spec array ->
  Flow.t
(** Route [specs] (one per net id, built on [grid]) to a finished flow.
    {!Drc.Rules.default} drives the rip-up probe, the DRC rip-up and
    the final verdict; [cost] (default {!Rgrid.Cost.default}) prices
    every maze search.

    [tpl] extends all three with the triple-patterning deck: the
    current M2 metal is colored each round, history is bumped under
    uncolorable features (scaled by the deck's stitch cost) and their
    nets join the victims, so color-locked wires get negotiated apart
    like any congestion; {!Flow.finish} then reports the coloring.

    [initial] pre-commits routes before stage 1 (an incremental
    caller's reused metal): their usage and vias are applied up front
    and stage 1 skips those nets.  [frozen] marks nets (by id) whose
    routes must survive untouched: they are never ripped up, never
    blamed into the victims and never dropped, but their metal
    contributes congestion and history like any other committed route —
    fixed obstacles the negotiation routes around.  A frozen net should
    arrive with an [initial] route; the caller must guarantee frozen
    routes are mutually overlap-free (e.g. they come from one previous
    consistent flow).  The flow's [reused_routes] counts the frozen
    nets.  Both default to "none" — without them [run] is exactly the
    from-scratch negotiation.

    [budget] (default unlimited) bounds the work: it is checked before
    each rip-up round and inside every maze search, so on exhaustion
    the engine stops rerouting and returns the best routing found so
    far (nets still conflicting are dropped as usual — the result stays
    short-free, just with more unrouted nets).

    [pao] is recorded in the flow; [started] is the clock reading the
    flow's [elapsed] counts from.

    [pool] (default {!Exec.sequential}), when it has more than one
    domain, routes the nets of each phase on all its domains, one maze
    per domain, and commits them in phase order, so the flow, the
    budget spend, the metrics and the spans are those of the in-order
    run.  A net's search first reads only its first-margin window
    grown by the kernel's reach; it starts once every earlier net of
    its phase whose old or new route could meet that region has
    committed.  A search runs on its own work counter under the run's
    deadline, and its commit spends that work into [budget].  A phase
    stops speculating at the earliest of its nets whose search outgrows
    the window, or at a commit that finds the deadline passed: once
    the running searches are done, the old routes of the nets it had
    started go back and that net and every later one of the phase
    route in order.  A deadline stays best-effort.
    [exec.route_outgrown] counts the outgrown searches and
    [exec.route_invalidated] the finished searches such a fallback
    throws away; nothing else counts discarded searches.

    When [budget] has a work-unit allowance, every phase runs in order
    whatever [pool] is: where such a budget stops a net depends on
    what every earlier net spent, so the run fans out nothing and
    gives the [-j 1] bytes. *)

val apply_route : Rgrid.Grid.t -> Rgrid.Route.t -> unit
(** Record a route's node usage and via pressure. *)

val drc_ripup :
  ?cost:Rgrid.Cost.t ->
  ?budget:Pinaccess.Budget.t ->
  ?tpl:Drc.Tpl.t ->
  layout:Drc.Extract.layout ->
  Rgrid.Grid.t ->
  spec_of:(int -> Net_router.spec option) ->
  routes:Rgrid.Route.t option array ->
  rounds:int ->
  int
(** The paper's manufacturing-constraint rip-up in the sequential
    baseline's hard-blocking mode: check the current routes, bump
    history on every violation grid, and reroute the blamed nets (at a
    high present-sharing factor) up to [rounds] times, in order, each
    reroute releasing its old metal's ownership and claiming the new
    one's ({!run} does the same rounds without ownership, dropping
    routes that still cross overused grids).
    Returns the number of reroute attempts.  [routes] is updated in
    place; a net whose reroute fails becomes unrouted, and at the end
    every pin node left free goes back to its net
    ({!Spec_builder.claim_pins}).  Every check extracts the metal into
    [layout].  [budget] (default unlimited) is checked
    before each round and inside every maze search; exhaustion stops
    the rip-up with the routes as they stand. *)
