type config = {
  cost : Rgrid.Cost.t;
  rules : Drc.Rules.t;
  tpl : Drc.Tpl.t option;
}

let default_config =
  { cost = Rgrid.Cost.default; rules = Drc.Rules.default; tpl = None }

let run ?(config = default_config) ?budget design =
  let started = Obs.Clock.now () in
  let grid = Rgrid.Grid.create design in
  let specs = Spec_builder.build grid ~pao:None in
  let result =
    Negotiation.run ~cost:config.cost ~rules:config.rules ?tpl:config.tpl
      ?budget grid specs
  in
  let drc_reroutes =
    Negotiation.drc_ripup ~cost:config.cost ?budget ?tpl:config.tpl
      ~rules:config.rules grid
      ~spec_of:(fun net -> Some specs.(net))
      ~routes:result.Negotiation.routes ~rounds:2
  in
  Flow.finish ~rules:config.rules ?tpl:config.tpl ~grid ~pao:None
    ~initial_congestion:result.Negotiation.initial_congestion
    ~ripup_iterations:result.Negotiation.ripup_iterations
    ~total_reroutes:(result.Negotiation.total_reroutes + drc_reroutes)
    ~started result.Negotiation.routes
