(** CPR — the concurrent pin access router (paper Sec. 4).

    Flow: concurrent pin access optimization on M2 (LR by default, ILP
    optionally) → selected intervals become partial routes and
    exclusive blockages → {!Negotiation.run}: negotiation-congestion
    routing, DRC rip-up, line-end extension and DRC accounting, all
    under {!Drc.Rules.default}. *)

type config = {
  pao_kind : Pinaccess.Pin_access.solver_kind;
  pao : Pinaccess.Pin_access.config;
  cost : Rgrid.Cost.t;
  tpl : Drc.Tpl.t option;
      (** the triple-patterning deck, the one source of the flow's
          deck: the PAO stage's [gen.tpl] is derived from it (color
          pricing with [Some], none with [None], whatever [pao] says),
          and it drives the TPL probe of the negotiation rip-up and
          the final coloring verdict of {!Flow.finish} *)
  jobs : int;
      (** domains for the PAO stage and the router ([-j] on the CLI);
          1 = fully sequential.  Panels fan out over [jobs] domains
          with deterministic merge order, and each reroute phase runs
          on [jobs] domains with commits in net order
          ({!Negotiation.run}'s [pool]), so the flow is identical at
          every [jobs]. *)
}

val default_config : config

val run :
  ?config:config ->
  ?budget:Pinaccess.Budget.t ->
  ?pao_budget:Pinaccess.Budget.t ->
  Netlist.Design.t ->
  Flow.t
(** [budget] bounds the whole flow: pin access optimization degrades
    panel by panel (ILP → LR → minimum intervals) and negotiation stops
    rerouting when the budget runs out, so the flow always returns a
    short-free result near the deadline.  [pao_budget], when given,
    bounds the PAO stage separately (e.g. a tight ILP cap while routing
    stays unbounded); it defaults to [budget]. *)

val run_with_pao :
  ?config:config ->
  ?budget:Pinaccess.Budget.t ->
  Netlist.Design.t ->
  Pinaccess.Pin_access.t ->
  Flow.t
(** Route with an externally computed pin access result (used by the
    Fig. 7(a) bench to compare LR-based and ILP-based PAO under one
    routing engine). *)
