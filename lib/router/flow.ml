module Grid = Rgrid.Grid
module Node = Rgrid.Node
module Route = Rgrid.Route
module Layer = Rgrid.Layer
module I = Geometry.Interval

type t = {
  design : Netlist.Design.t;
  routes : Rgrid.Route.t option array;
  clean : bool array;
  initial_congestion : int;
  ripup_iterations : int;
  total_reroutes : int;
  violations : Drc.Check.violation list;
  extension : Drc.Line_end.stats;
  tpl : Drc.Tpl.t option;
  tpl_stats : Drc.Tpl.stats option;
  pao : Pinaccess.Pin_access.t option;
  reused_routes : int;
  elapsed : float;
}

let fill_nodes space (fill : Drc.Line_end.fill) =
  List.init (I.length fill.Drc.Line_end.span) (fun i ->
      let pos = I.lo fill.Drc.Line_end.span + i in
      match fill.Drc.Line_end.layer with
      | Layer.M2 ->
        Node.pack space ~layer:Layer.M2 ~x:pos ~y:fill.Drc.Line_end.track
      | Layer.M3 ->
        Node.pack space ~layer:Layer.M3 ~x:fill.Drc.Line_end.track ~y:pos
      | Layer.M1 -> assert false)

let finish ?tpl ?(reused = 0) ~grid ~pao
    ~initial_congestion ~ripup_iterations ~total_reroutes ~started ~layout
    routes =
  let design = Grid.design grid in
  let space = Grid.space grid in
  Drc.Extract.fill layout design routes;
  (* [x] is the position along the track: an x column for M2 fills, a
     y row for M3 fills *)
  let can_fill layer ~track ~x ~net =
    let node =
      match layer with
      | Layer.M2 -> Node.pack space ~layer:Layer.M2 ~x ~y:track
      | Layer.M3 -> Node.pack space ~layer:Layer.M3 ~x:track ~y:x
      | Layer.M1 -> assert false
    in
    (* M2 over a foreign M1 pin without a via is legal, so plain pin
       ownership does not veto a fill — only blockages and real metal
       of other nets do *)
    (not (Grid.blocked grid node))
    && (match Grid.nets_using grid node with
       | [] -> true
       | [ n ] -> n = net
       | _ :: _ :: _ -> false)
  in
  let rules = Drc.Rules.default in
  let fills, extension = Drc.Line_end.extend ~can_fill rules layout in
  (* push extension metal back into routes and grid usage *)
  List.iter
    (fun (fill : Drc.Line_end.fill) ->
      let net = fill.Drc.Line_end.net in
      if net >= 0 then begin
        let nodes = fill_nodes space fill in
        List.iter
          (fun node ->
            if not (List.mem net (Grid.nets_using grid node)) then
              Grid.add_usage grid ~net node)
          nodes;
        match routes.(net) with
        | Some r -> routes.(net) <- Some (Route.add_nodes ~space r nodes)
        | None -> ()
      end)
    fills;
  (* DRC and the TPL verdict judge the metal the flow reports: a fill
     crossing its own net's M3 adds a via to the route that only a
     fresh extraction of the extended routes sees *)
  if fills <> [] then Drc.Extract.fill layout design routes;
  let violations = Drc.Check.run rules layout in
  let tpl_stats = Option.map (fun deck -> Drc.Tpl.check deck layout) tpl in
  let blamed =
    List.sort_uniq Int.compare
      (Drc.Check.blamed_nets violations
      @ (match tpl_stats with
        | None -> []
        | Some stats -> Drc.Tpl.blamed_nets stats))
  in
  let clean =
    Array.mapi
      (fun net route -> Option.is_some route && not (List.mem net blamed))
      routes
  in
  {
    design;
    routes;
    clean;
    initial_congestion;
    ripup_iterations;
    total_reroutes;
    violations;
    extension;
    tpl;
    tpl_stats;
    pao;
    reused_routes = reused;
    elapsed = Obs.Clock.now () -. started;
  }

let routed_count t = Array.fold_left (fun k c -> if c then k + 1 else k) 0 t.clean

let routability t =
  float_of_int (routed_count t) /. float_of_int (Array.length t.clean)

let degraded t =
  match t.pao with
  | None -> false
  | Some pao -> pao.Pinaccess.Pin_access.degraded
