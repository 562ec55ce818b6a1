(** The incremental re-optimization engine.

    An engine owns a design and its current optimization state (pin
    access assignment, optionally a routed flow) and re-optimizes after
    each batch of {!Delta} edits, reusing everything the edit did not
    disturb:

    - clean panels are served from the content-addressed {!Panel_cache}
      (a hit requires a byte-identical assignment problem);
    - dirty panels re-solve, warm-starting
      {!Pinaccess.Lagrangian.solve} from the panel's previous
      multipliers instead of zeros (clique signatures that survived the
      edit keep their λ);
    - routing rips up only nets whose pins or selected intervals
      changed, or whose search window meets a {!Dirty} rect; every
      other clean route is frozen and re-committed, contributing
      congestion as a fixed obstacle
      ({!Router.Negotiation.run}'s [frozen]/[initial]).  The cold
      route and every incremental one are the same call, under the
      TPL deck of [pao.gen.tpl] when one is set.

    With [warm_policy = Warm_never] the engine's pin access output is
    bit-identical to a from-scratch {!Pinaccess.Pin_access.optimize}
    of the edited design (the fuzz differential exploits this); with
    warm starting it is certified equivalent, not bit-equal — LR may
    stop at a different conflict-free optimum. *)

type warm_policy =
  | Warm_always  (** reuse cached multipliers whenever a previous entry has any *)
  | Warm_never  (** always cold-start (bit-identical to from-scratch) *)
(** ECO multiplier-reuse policies. *)

val warm_policy_to_string : warm_policy -> string
(** Canonical policy id, e.g. ["warm-always"]. *)

type config = {
  pao : Pinaccess.Pin_access.config;
  kind : Pinaccess.Pin_access.solver_kind;
  warm_policy : warm_policy;
      (** how dirty panels reuse cached multipliers (default
          [Warm_always]) *)
  routing : bool;
      (** maintain a routed {!Router.Flow.t} incrementally (default
          [false]: pin access only); a TPL deck in [pao.gen.tpl] also
          drives the router's probe and the flow's coloring verdict;
          the router prices with {!Rgrid.Cost.default} and checks
          {!Drc.Rules.default} *)
}

val default_config : config

type step_report = {
  deltas : int;
  dirty_panels : int list;  (** from {!Dirty.compute} *)
  panels : int;  (** non-empty panels visited *)
  cache_hits : int;
  solved : int;  (** panels re-solved ([panels - cache_hits]) *)
  warm_started : int;  (** re-solves seeded from cached multipliers *)
  frozen_nets : int;  (** routes carried over untouched ([routing]) *)
  rerouted_nets : int;  (** reroute attempts the negotiation made *)
  pao_wall : float;
  route_wall : float;  (** [0.] when [routing] is off *)
  objective : float;
}

type t

val create :
  ?config:config -> ?budget:Pinaccess.Budget.t -> ?pool:Exec.t ->
  Netlist.Design.t -> t
(** Cold start: solve every panel from scratch (populating the cache),
    route if configured.  The solves go through the panel walk of
    {!Pinaccess.Pin_access.optimize}: [budget] meters them through
    the same degradation ladder and slices, and [pool] (default
    {!Exec.sequential}) fans them (and, with [routing], each reroute
    phase of {!Router.Negotiation.run}) over its domains without
    changing the output.
    @raise Pinaccess.Cpr_error.Error as [optimize] would. *)

val apply :
  ?budget:Pinaccess.Budget.t -> ?pool:Exec.t -> t -> Delta.t list ->
  step_report
(** Apply one batch atomically and re-optimize incrementally.  [budget]
    and [pool] govern the dirty-panel re-solves as in {!create};
    cache hits are free, so a tight deadline degrades only the panels
    the edit actually touched.  On budget exhaustion the batch still
    lands (served by lower tiers, [degraded] set in the reports) —
    callers wanting a hard timeout should check
    {!Pinaccess.Budget.exhausted} before calling and reject instead.
    @raise Delta.Invalid when the batch does not fit the current
    design (the engine state is unchanged in that case). *)

val design : t -> Netlist.Design.t
val pao : t -> Pinaccess.Pin_access.t
val flow : t -> Router.Flow.t option
val gen_config : t -> Pinaccess.Interval_gen.config
(** The current rule deck (tracks [Set_clearance] deltas). *)

val cache_hit_rate : t -> float
(** Cumulative, over the engine's lifetime (cold solve included). *)

val cache_size : t -> int
val cold_pao_wall : t -> float
(** Wall-clock seconds of the cold pin access solve in {!create}. *)

val cold_route_wall : t -> float
(** Wall-clock seconds of the cold routing in {!create}; [0.] when
    routing is off. *)
