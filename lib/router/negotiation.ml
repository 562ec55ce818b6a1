module Grid = Rgrid.Grid
module Maze = Rgrid.Maze
module Cost = Rgrid.Cost
module Node = Rgrid.Node

let m_ripup_rounds = Obs.Metrics.counter "negotiation.ripup_rounds"
let m_reroutes = Obs.Metrics.counter "negotiation.reroutes"
let m_drc_rounds = Obs.Metrics.counter "negotiation.drc_rounds"

let apply_route grid (route : Rgrid.Route.t) =
  let space = Grid.space grid in
  List.iter (fun node -> Grid.add_usage grid ~net:route.Rgrid.Route.net node) route.Rgrid.Route.nodes;
  List.iter (fun (x, y) -> Grid.add_via grid ~x ~y) (Rgrid.Route.via_positions ~space route)

let retract_route grid (route : Rgrid.Route.t) =
  let space = Grid.space grid in
  List.iter
    (fun node -> Grid.remove_usage grid ~net:route.Rgrid.Route.net node)
    route.Rgrid.Route.nodes;
  List.iter (fun (x, y) -> Grid.remove_via grid ~x ~y) (Rgrid.Route.via_positions ~space route)

let is_frozen frozen =
  match frozen with Some f -> fun net -> f.(net) | None -> fun _ -> false

let exhausted budget =
  match budget with None -> false | Some b -> Pinaccess.Budget.exhausted b

let crosses_overuse grid (r : Rgrid.Route.t) =
  List.exists (fun node -> Grid.overused grid node) r.Rgrid.Route.nodes

(* Drop still-conflicting nets so the metal is short-free: in id order,
   every unfrozen route still on an overused grid is retracted, which
   may clear the overuse for its later-id sharer.  Frozen routes are
   never dropped — overuse on a frozen node always has an unfrozen
   sharer (frozen routes are mutually consistent), and dropping that
   sharer clears it. *)
let drop_overused ~is_frozen grid routes =
  if Grid.congested_nodes grid > 0 then
    Array.iteri
      (fun net route ->
        match route with
        | Some r when (not (is_frozen net)) && crosses_overuse grid r ->
          retract_route grid r;
          routes.(net) <- None
        | Some _ | None -> ())
      routes

(* The rip-up probe (paper Sec. 4: rip-up and reroute also serves the
   manufacturing constraints).  Check the current metal, bump history
   by [scale] under every violation site and, with a TPL deck, under
   every uncolorable feature (also scaled by the deck's stitch cost, so
   an expensive-to-stitch deck pushes the router away harder), and
   return the blamed nets that are not frozen.  Shorts are tolerated:
   mid-negotiation the metal may still share grids. *)
let probe ~rules ?tpl ~scale ~is_frozen grid routes =
  let space = Grid.space grid in
  let layout =
    Drc.Extract.of_routes ~tolerate_shorts:true (Grid.design grid) routes
  in
  let bump ~layer ~x ~y by =
    if Node.in_bounds space ~x ~y then
      Grid.add_history_at grid (Node.pack space ~layer ~x ~y) by
  in
  let violations = Drc.Check.run rules layout in
  List.iter
    (fun (v : Drc.Check.violation) ->
      List.iter
        (fun (x, y) ->
          bump ~layer:Rgrid.Layer.M2 ~x ~y scale;
          bump ~layer:Rgrid.Layer.M3 ~x ~y scale)
        v.Drc.Check.sites)
    violations;
  let tpl_blamed =
    match tpl with
    | None -> []
    | Some deck ->
      let stats = Drc.Tpl.check deck layout in
      let by = scale *. Drc.Tpl.stitch_cost deck in
      List.iter
        (fun (v : Drc.Tpl.violation) ->
          for x = Geometry.Interval.lo v.Drc.Tpl.span
              to Geometry.Interval.hi v.Drc.Tpl.span do
            bump ~layer:Rgrid.Layer.M2 ~x ~y:v.Drc.Tpl.track by
          done)
        stats.Drc.Tpl.violations;
      Drc.Tpl.blamed_nets stats
  in
  List.filter
    (fun net -> not (is_frozen net))
    (List.sort_uniq Int.compare
       (Drc.Check.blamed_nets violations @ tpl_blamed))

let drc_ripup ?(cost = Cost.default) ?(own = false) ?budget ?frozen ?tpl
    ~rules grid ~spec_of ~routes ~rounds =
  let design = Grid.design grid in
  let space = Grid.space grid in
  let maze = Maze.create grid in
  let reroutes = ref 0 in
  let is_frozen = is_frozen frozen in
  (* a soft (pfac-based) reroute may introduce sharing; resolve it by
     dropping before the probe *)
  let drop () = if not own then drop_overused ~is_frozen grid routes in
  let round = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round < rounds && not (exhausted budget) do
    Obs.Trace.with_span "negotiation.drc_round" @@ fun () ->
    incr round;
    Obs.Metrics.incr m_drc_rounds;
    drop ();
    match probe ~rules ?tpl ~scale:4.0 ~is_frozen grid routes with
    | [] -> continue_ := false
    | blamed ->
      List.iter
        (fun net ->
          let old = routes.(net) in
          (match old with
          | Some r ->
            retract_route grid r;
            if own then
              List.iter
                (fun node -> Grid.clear_owner grid node ~net)
                r.Rgrid.Route.nodes;
            routes.(net) <- None
          | None -> ());
          incr reroutes;
          Obs.Metrics.incr m_reroutes;
          let reown (r : Rgrid.Route.t) =
            if own then
              List.iter
                (fun node ->
                  if Grid.owner grid node = -1 then
                    Grid.set_owner grid node ~net)
                r.Rgrid.Route.nodes
          in
          match
            Option.bind (spec_of net)
              (Net_router.route ?budget maze ~cost ~pfac:4.0)
          with
          | Some r ->
            apply_route grid r;
            reown r;
            routes.(net) <- Some r
          | None -> ignore old)
        blamed
  done;
  if own then
    (* failed reroutes must not leave their pins grabbable *)
    Array.iter
      (fun (p : Netlist.Pin.t) ->
        for tr = Geometry.Interval.lo p.Netlist.Pin.tracks
            to Geometry.Interval.hi p.Netlist.Pin.tracks do
          let node =
            Node.pack space ~layer:Rgrid.Layer.M2 ~x:p.Netlist.Pin.x ~y:tr
          in
          if Grid.owner grid node = -1 && not (Grid.blocked grid node) then
            Grid.set_owner grid node ~net:p.Netlist.Pin.net
        done)
      (Netlist.Design.pins design)
  else drop ();
  !reroutes

(* Short nets first: they have the least routing freedom. *)
let routing_order specs =
  let hp i = Geometry.Rect.half_perimeter specs.(i).Net_router.bbox in
  let idx = Array.init (Array.length specs) Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare (hp a) (hp b) in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

let run ?(cost = Cost.default) ?(rules = Drc.Rules.default) ?tpl ?budget
    ?frozen ?initial ~pao ~started grid specs =
  let maze = Maze.create grid in
  let n = Array.length specs in
  let routes : Rgrid.Route.t option array = Array.make n None in
  let is_frozen = is_frozen frozen in
  (* pre-committed routes (an incremental caller's reused metal): their
     usage and vias go on the grid up front, so stage 1 searches see
     them as congestion exactly like earlier-committed routes *)
  Option.iter
    (Array.iteri (fun net route ->
         match route with
         | Some r ->
           apply_route grid r;
           routes.(net) <- Some r
         | None -> ()))
    initial;
  let total_reroutes = ref 0 in
  let route_net ~pfac net =
    (match routes.(net) with
    | Some r ->
      retract_route grid r;
      routes.(net) <- None
    | None -> ());
    incr total_reroutes;
    Obs.Metrics.incr m_reroutes;
    match Net_router.route ?budget maze ~cost ~pfac specs.(net) with
    | Some r ->
      apply_route grid r;
      routes.(net) <- Some r
    | None -> ()
  in
  let probe () = probe ~rules ?tpl ~scale:2.0 ~is_frozen grid routes in
  (* Stage 1: independent routing (no present-sharing term); nets that
     arrived pre-routed via [initial] keep their metal *)
  Array.iter
    (fun net -> if routes.(net) = None then route_net ~pfac:0.0 net)
    (routing_order specs);
  let initial_congestion = Grid.congested_nodes grid in
  (* Stage 2: rip-up and reroute with negotiation *)
  let iterations = ref 0 in
  let unfrozen_unrouted net = routes.(net) = None && not (is_frozen net) in
  let blamed = ref (if initial_congestion = 0 then probe () else []) in
  let continue_ =
    ref
      (initial_congestion > 0
      || Seq.exists unfrozen_unrouted (Seq.init n Fun.id)
      || !blamed <> [])
  in
  while
    !continue_
    && !iterations < cost.Cost.max_ripup_iterations
    && not (exhausted budget)
  do
    Obs.Trace.with_span "negotiation.round" @@ fun () ->
    incr iterations;
    Obs.Metrics.incr m_ripup_rounds;
    let pfac =
      cost.Cost.pfac_initial
      *. Float.pow cost.Cost.pfac_growth (float_of_int (!iterations - 1))
    in
    Grid.add_history grid ~increment:cost.Cost.history_increment;
    (* victims: unfrozen nets unrouted or crossing overuse, plus the
       last probe's blamed nets *)
    let overused net =
      (not (is_frozen net))
      &&
      match routes.(net) with
      | Some r -> crosses_overuse grid r
      | None -> true
    in
    List.iter (route_net ~pfac)
      (List.sort_uniq Int.compare
         (List.filter overused (List.init n Fun.id) @ !blamed));
    blamed := probe ();
    continue_ :=
      Grid.congested_nodes grid > 0
      || Seq.exists unfrozen_unrouted (Seq.init n Fun.id)
      || !blamed <> []
  done;
  (* the DRC rip-up first drops the nets still sharing grids *)
  let drc_reroutes =
    drc_ripup ~cost ?budget ?frozen ?tpl ~rules grid
      ~spec_of:(fun net -> Some specs.(net))
      ~routes ~rounds:2
  in
  let reused =
    Option.fold ~none:0
      ~some:(Array.fold_left (fun k f -> if f then k + 1 else k) 0)
      frozen
  in
  Flow.finish ~rules ?tpl ~reused ~grid ~pao ~initial_congestion
    ~ripup_iterations:!iterations
    ~total_reroutes:(!total_reroutes + drc_reroutes)
    ~started routes
