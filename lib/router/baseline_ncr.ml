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
  Negotiation.run ~cost:config.cost ~rules:config.rules ?tpl:config.tpl
    ?budget ~pao:None ~started grid
    (Spec_builder.build grid ~pao:None)
