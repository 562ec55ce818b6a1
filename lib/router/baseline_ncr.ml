let run ?tpl ?budget design =
  let started = Obs.Clock.now () in
  let grid = Rgrid.Grid.create design in
  Negotiation.run ?tpl ?budget ~pao:None ~started grid
    (Spec_builder.build grid ~pao:None)
