module Grid = Rgrid.Grid
module Maze = Rgrid.Maze
module Cost = Rgrid.Cost
module Node = Rgrid.Node

type result = {
  routes : Rgrid.Route.t option array;
  initial_congestion : int;
  ripup_iterations : int;
  total_reroutes : int;
}

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

(* TPL probe: color the current metal and, for every uncolorable
   feature, bump history under its grids — scaled by the deck's stitch
   cost, so an expensive-to-stitch deck pushes the router away harder —
   and return the blamed nets, which join the rip-up victims exactly
   like DRC-blamed ones. *)
let tpl_victims ?tpl ~scale grid layout =
  match tpl with
  | None -> []
  | Some deck ->
    let space = Grid.space grid in
    let stats = Drc.Tpl.check deck layout in
    let bump = scale *. Drc.Tpl.stitch_cost deck in
    List.iter
      (fun (v : Drc.Tpl.violation) ->
        for x = Geometry.Interval.lo v.Drc.Tpl.span
            to Geometry.Interval.hi v.Drc.Tpl.span do
          if Node.in_bounds space ~x ~y:v.Drc.Tpl.track then
            Grid.add_history_at grid
              (Node.pack space ~layer:Rgrid.Layer.M2 ~x ~y:v.Drc.Tpl.track)
              bump
        done)
      stats.Drc.Tpl.violations;
    Drc.Tpl.blamed_nets stats

let drc_ripup ?(cost = Cost.default) ?(own = false) ?budget ?frozen ?tpl
    ~rules grid ~spec_of ~routes ~rounds =
  let design = Grid.design grid in
  let space = Grid.space grid in
  let maze = Maze.create grid in
  let reroutes = ref 0 in
  let is_frozen net =
    match frozen with Some f -> f.(net) | None -> false
  in
  let exhausted () =
    match budget with
    | None -> false
    | Some b -> Pinaccess.Budget.exhausted b
  in
  (* a soft (pfac-based) reroute may introduce sharing; resolve it by
     dropping the later net before metal extraction *)
  let drop_overused () =
    if (not own) && Grid.congested_nodes grid > 0 then
      Array.iteri
        (fun net route ->
          match route with
          | Some (r : Rgrid.Route.t) ->
            if
              (not (is_frozen net))
              && List.exists
                   (fun node -> Grid.overused grid node)
                   r.Rgrid.Route.nodes
            then begin
              retract_route grid r;
              routes.(net) <- None
            end
          | None -> ())
        routes
  in
  let round = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round < rounds && not (exhausted ()) do
    Obs.Trace.with_span "negotiation.drc_round" @@ fun () ->
    incr round;
    Obs.Metrics.incr m_drc_rounds;
    drop_overused ();
    let layout = Drc.Extract.of_routes design routes in
    let violations = Drc.Check.run rules layout in
    let tpl_blamed = tpl_victims ?tpl ~scale:4.0 grid layout in
    match
      List.filter
        (fun net -> not (is_frozen net))
        (List.sort_uniq Int.compare
           (Drc.Check.blamed_nets violations @ tpl_blamed))
    with
    | [] -> continue_ := false
    | blamed ->
      List.iter
        (fun (v : Drc.Check.violation) ->
          List.iter
            (fun (x, y) ->
              if Node.in_bounds space ~x ~y then begin
                let bump layer =
                  Grid.add_history_at grid (Node.pack space ~layer ~x ~y) 4.0
                in
                bump Rgrid.Layer.M2;
                bump Rgrid.Layer.M3
              end)
            v.Drc.Check.sites)
        violations;
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
  else drop_overused ();
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

(* A lock-free stack of idle mazes.  List cells are immutable, so a
   compare-and-set that finds the head it read also finds the list it
   read. *)
let rec take_maze mazes grid =
  match Atomic.get mazes with
  | [] -> Maze.create grid
  | maze :: rest as top ->
    if Atomic.compare_and_set mazes top rest then maze
    else take_maze mazes grid

let rec give_maze mazes maze =
  let top = Atomic.get mazes in
  if not (Atomic.compare_and_set mazes top (maze :: top)) then
    give_maze mazes maze

(* Parallel batched routing, shared by stage 1 and the rip-up rounds.

   A maze search writes only its own private state; what it *reads*
   beyond static state (pins, intervals, blockages, ownership) is
   what committed routes wrote near their own bbox: route nodes and
   vias stay inside the net's search window, and the cost model reads
   at most 2 grids beyond it (spacing probes ±2, [via_forbidden] ±1;
   at [pfac > 0] also occupancy, users and history — all written only
   under committed route nodes).  Two nets whose windows inflated by
   that radius are disjoint therefore cannot influence each other,
   whatever order they route, retract or commit in.  We walk the
   given net order, greedily growing a run of consecutive, pairwise-
   disjoint nets, run [prepare] (stage 2's retraction) for the whole
   run in order, route the run concurrently (each task on an idle maze
   of the run, metrics and spans buffered, budget isolated), then
   commit the results in order — which reproduces the sequential
   processing of that order exactly.  This is the dependency coloring
   the rip-up rounds fan out on: each batch is one color class of the
   round's victim list. *)
let route_batches_parallel ?budget ~cost ~pfac pool grid mazes specs order
    ~prepare ~apply =
  let die = Netlist.Design.die (Grid.design grid) in
  let margin_max =
    List.fold_left max cost.Cost.bbox_margin cost.Cost.retry_margins
  in
  let influence net =
    Geometry.Rect.inflate specs.(net).Net_router.bbox ~by:(margin_max + 2)
      ~within:die
  in
  let trace_on = Obs.Trace.enabled () in
  let compute net =
    let sub = Option.map (fun b -> Pinaccess.Budget.isolated b ()) budget in
    let task () =
      let maze = take_maze mazes grid in
      let r = Net_router.route ?budget:sub maze ~cost ~pfac specs.(net) in
      give_maze mazes maze;
      r
    in
    let (r, events), mbuf =
      Obs.Metrics.buffered (fun () ->
          if trace_on then Obs.Trace.buffered task else (task (), []))
    in
    (r, events, mbuf, sub)
  in
  let n = Array.length order in
  let i = ref 0 in
  while !i < n do
    let batch = ref [ order.(!i) ] in
    let regions = ref [ influence order.(!i) ] in
    incr i;
    let grow = ref true in
    while !grow && !i < n do
      let net = order.(!i) in
      let r = influence net in
      if List.exists (Geometry.Rect.overlaps r) !regions then grow := false
      else begin
        batch := net :: !batch;
        regions := r :: !regions;
        incr i
      end
    done;
    let batch = Array.of_list (List.rev !batch) in
    Array.iter prepare batch;
    let results =
      if Array.length batch = 1 then Array.map compute batch
      else Exec.map pool compute batch
    in
    Array.iteri
      (fun k (r, events, mbuf, sub) ->
        Obs.Metrics.flush mbuf;
        Obs.Trace.replay events;
        (match (budget, sub) with
        | Some b, Some s ->
          Pinaccess.Budget.spend b (Pinaccess.Budget.work_spent s)
        | _, _ -> ());
        apply batch.(k) r)
      results
  done

let overused_nets ?(is_frozen = fun _ -> false) grid routes =
  let result = ref [] in
  Array.iteri
    (fun net route ->
      if not (is_frozen net) then
        match route with
        | Some (r : Rgrid.Route.t) ->
          if List.exists (fun node -> Grid.overused grid node) r.Rgrid.Route.nodes then
            result := net :: !result
        | None -> result := net :: !result)
    routes;
  List.rev !result

let run ?(cost = Cost.default) ?rules ?tpl ?budget ?pool ?frozen ?initial
    grid specs =
  let maze = Maze.create grid in
  (* the run's idle mazes for parallel batches, seeded with the
     caller's own: a task takes one (or creates one) and gives it back,
     so no more mazes exist than tasks ever ran at once, and none
     outlives the run *)
  let mazes = Atomic.make [ maze ] in
  let parallel =
    match pool with
    | Some pool when Exec.domains pool > 1 -> Some pool
    | Some _ | None -> None
  in
  let design = Grid.design grid in
  let space = Grid.space grid in
  let n = Array.length specs in
  let routes : Rgrid.Route.t option array = Array.make n None in
  let is_frozen net =
    match frozen with Some f -> f.(net) | None -> false
  in
  (* pre-committed routes (an incremental caller's reused metal): their
     usage and vias go on the grid up front, so stage 1 searches see
     them as congestion exactly like earlier-committed routes *)
  (match initial with
  | Some init ->
    Array.iteri
      (fun net route ->
        match route with
        | Some r ->
          apply_route grid r;
          routes.(net) <- Some r
        | None -> ())
      init
  | None -> ());
  let total_reroutes = ref 0 in
  let exhausted () =
    match budget with
    | None -> false
    | Some b -> Pinaccess.Budget.exhausted b
  in
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
  (* Probe the current metal for DRC violations mid-negotiation: bump
     history on the offending grids and return the blamed nets so they
     join the rip-up victims (paper Sec. 4: rip-up and reroute also
     serves the manufacturing constraints). *)
  let drc_victims () =
    if rules = None && tpl = None then []
    else begin
      let layout = Drc.Extract.of_routes ~tolerate_shorts:true design routes in
      let drc_blamed =
        match rules with
        | None -> []
        | Some rules ->
          let violations = Drc.Check.run rules layout in
          List.iter
            (fun (v : Drc.Check.violation) ->
              List.iter
                (fun (x, y) ->
                  if Node.in_bounds space ~x ~y then begin
                    let bump layer =
                      Grid.add_history_at grid (Node.pack space ~layer ~x ~y)
                        2.0
                    in
                    bump Rgrid.Layer.M2;
                    bump Rgrid.Layer.M3
                  end)
                v.Drc.Check.sites)
            violations;
          Drc.Check.blamed_nets violations
      in
      let tpl_blamed = tpl_victims ?tpl ~scale:2.0 grid layout in
      List.sort_uniq Int.compare (drc_blamed @ tpl_blamed)
    end
  in
  (* Stage 1: independent routing (no present-sharing term); nets that
     arrived pre-routed via [initial] keep their metal *)
  let order = routing_order specs in
  let order =
    if Array.exists Option.is_some routes then
      Array.of_seq
        (Seq.filter (fun net -> routes.(net) = None) (Array.to_seq order))
    else order
  in
  (match parallel with
  | Some pool when Array.length order > 1 ->
    route_batches_parallel ?budget ~cost ~pfac:0.0 pool grid mazes specs
      order
      ~prepare:(fun _ -> ())
      ~apply:(fun net r ->
        incr total_reroutes;
        Obs.Metrics.incr m_reroutes;
        match r with
        | Some r ->
          apply_route grid r;
          routes.(net) <- Some r
        | None -> ())
  | Some _ | None -> Array.iter (fun net -> route_net ~pfac:0.0 net) order);
  let initial_congestion = Grid.congested_nodes grid in
  (* Stage 2: rip-up and reroute with negotiation *)
  let iterations = ref 0 in
  let unfrozen_unrouted () =
    let missing = ref false in
    Array.iteri
      (fun net route ->
        if route = None && not (is_frozen net) then missing := true)
      routes;
    !missing
  in
  let continue_ = ref (initial_congestion > 0 || unfrozen_unrouted ()) in
  let blamed =
    ref
      (if initial_congestion = 0 then
         List.filter (fun net -> not (is_frozen net)) (drc_victims ())
       else [])
  in
  if !blamed <> [] then continue_ := true;
  while
    !continue_
    && !iterations < cost.Cost.max_ripup_iterations
    && not (exhausted ())
  do
    Obs.Trace.with_span "negotiation.round" @@ fun () ->
    incr iterations;
    Obs.Metrics.incr m_ripup_rounds;
    let pfac =
      cost.Cost.pfac_initial
      *. Float.pow cost.Cost.pfac_growth (float_of_int (!iterations - 1))
    in
    Grid.add_history grid ~increment:cost.Cost.history_increment;
    let victims =
      List.sort_uniq Int.compare
        (overused_nets ~is_frozen grid routes @ !blamed)
    in
    (match parallel with
    | Some pool when List.compare_length_with victims 1 > 0 ->
      (* colored rip-up: each disjoint-influence batch of the round's
         victim list retracts, reroutes and recommits concurrently *)
      route_batches_parallel ?budget ~cost ~pfac pool grid mazes specs
        (Array.of_list victims)
        ~prepare:(fun net ->
          (match routes.(net) with
          | Some r ->
            retract_route grid r;
            routes.(net) <- None
          | None -> ());
          incr total_reroutes;
          Obs.Metrics.incr m_reroutes)
        ~apply:(fun net r ->
          match r with
          | Some r ->
            apply_route grid r;
            routes.(net) <- Some r
          | None -> ())
    | Some _ | None -> List.iter (fun net -> route_net ~pfac net) victims);
    blamed := List.filter (fun net -> not (is_frozen net)) (drc_victims ());
    continue_ :=
      Grid.congested_nodes grid > 0 || unfrozen_unrouted () || !blamed <> []
  done;
  (* Drop still-conflicting nets: keep earlier ids, fail later ones.
     Frozen routes are never dropped — overuse on a frozen node always
     has an unfrozen sharer (frozen routes are mutually consistent),
     and dropping that sharer clears it. *)
  if Grid.congested_nodes grid > 0 then
    Array.iteri
      (fun net route ->
        match route with
        | Some (r : Rgrid.Route.t) ->
          if
            (not (is_frozen net))
            && List.exists (fun node -> Grid.overused grid node) r.Rgrid.Route.nodes
          then begin
            retract_route grid r;
            routes.(net) <- None
          end
        | None -> ())
      routes;
  { routes; initial_congestion; ripup_iterations = !iterations; total_reroutes = !total_reroutes }
