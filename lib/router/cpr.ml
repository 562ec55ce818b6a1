type config = {
  pao_kind : Pinaccess.Pin_access.solver_kind;
  pao : Pinaccess.Pin_access.config;
  cost : Rgrid.Cost.t;
  tpl : Drc.Tpl.t option;
  jobs : int;
}

let default_config =
  {
    pao_kind = Pinaccess.Pin_access.Lr;
    pao = Pinaccess.Pin_access.default_config;
    cost = Rgrid.Cost.default;
    tpl = None;
    jobs = 1;
  }

(* One source of truth for the deck: the PAO stage prices colors
   exactly when [config.tpl] is set, under the same deck. *)
let pao_config config =
  let gen = config.pao.Pinaccess.Pin_access.gen in
  {
    config.pao with
    Pinaccess.Pin_access.gen =
      {
        gen with
        Pinaccess.Interval_gen.tpl = Option.map Drc.Tpl.params config.tpl;
      };
  }

let run_with_pao ?(config = default_config) ?budget design pao =
  Obs.Trace.with_span "cpr.route" @@ fun () ->
  let started = Obs.Clock.now () -. pao.Pinaccess.Pin_access.elapsed in
  let grid = Rgrid.Grid.create design in
  Negotiation.run
    ~pool:(Exec.shared ~domains:config.jobs)
    ~cost:config.cost ?tpl:config.tpl ?budget
    ~pao:(Some pao) ~started grid
    (Spec_builder.build grid ~pao:(Some pao))

let run ?(config = default_config) ?budget ?pao_budget design =
  Obs.Trace.with_span "cpr.run" @@ fun () ->
  let pao_budget = match pao_budget with Some _ as b -> b | None -> budget in
  let pao =
    Pinaccess.Pin_access.optimize ~config:(pao_config config)
      ?budget:pao_budget ~j:config.jobs ~kind:config.pao_kind design
  in
  run_with_pao ~config ?budget design pao
