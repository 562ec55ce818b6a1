module I = Geometry.Interval
module Node = Rgrid.Node
module Grid = Rgrid.Grid
module Layer = Rgrid.Layer
module Pin = Netlist.Pin
module Design = Netlist.Design

let claim grid ~net node =
  if Grid.owner grid node = -1 && not (Grid.blocked grid node) then
    Grid.set_owner grid node ~net

let pin_shape_nodes space (p : Pin.t) =
  List.init (I.length p.tracks) (fun i ->
      Node.pack space ~layer:Layer.M2 ~x:p.x ~y:(I.lo p.tracks + i))

let claim_pins grid =
  let space = Grid.space grid in
  Array.iter
    (fun (p : Pin.t) ->
      List.iter (claim grid ~net:p.net) (pin_shape_nodes space p))
    (Design.pins (Grid.design grid))

let interval_nodes space (iv : Pinaccess.Access_interval.t) =
  List.init
    (I.length iv.Pinaccess.Access_interval.span)
    (fun i ->
      Node.pack space ~layer:Layer.M2
        ~x:(I.lo iv.Pinaccess.Access_interval.span + i)
        ~y:iv.Pinaccess.Access_interval.track)

let build grid ~pao =
  let design = Grid.design grid in
  let space = Grid.space grid in
  let nets = Design.nets design in
  let specs =
    match pao with
    | None ->
      Array.map
        (fun (net : Netlist.Net.t) ->
          let pins = Design.net_pins design net.Netlist.Net.id in
          let components =
            List.map
              (fun (p : Pin.t) ->
                {
                  Net_router.nodes = pin_shape_nodes space p;
                  anchors = [ { Net_router.pin = p.Pin.id; landing = None } ];
                })
              pins
          in
          Net_router.spec_of_components ~space ~net:net.Netlist.Net.id
            components)
        nets
    | Some pa ->
      let by_net = Array.make (Array.length nets) [] in
      List.iter
        (fun (pid, iv) ->
          let net = iv.Pinaccess.Access_interval.net in
          by_net.(net) <- (pid, iv) :: by_net.(net))
        pa.Pinaccess.Pin_access.assignments;
      Array.map
        (fun (net : Netlist.Net.t) ->
          let id = net.Netlist.Net.id in
          (* group the net's pins by their assigned interval: a shared
             interval becomes one component with several anchors *)
          let groups = Hashtbl.create 8 in
          List.iter
            (fun (pid, (iv : Pinaccess.Access_interval.t)) ->
              let key = (iv.track, I.lo iv.span, I.hi iv.span) in
              let cur =
                match Hashtbl.find_opt groups key with
                | Some (_, pids) -> pids
                | None -> []
              in
              Hashtbl.replace groups key (iv, pid :: cur))
            by_net.(id);
          if Hashtbl.length groups = 0 then
            invalid_arg
              (Printf.sprintf "Spec_builder.build: net %d has no assignment" id);
          let components =
            Hashtbl.fold
              (fun _key ((iv : Pinaccess.Access_interval.t), pids) acc ->
                let anchors =
                  List.map
                    (fun pid ->
                      let p = Design.pin design pid in
                      {
                        Net_router.pin = pid;
                        landing =
                          Some
                            (Node.pack space ~layer:Layer.M2 ~x:p.Pin.x
                               ~y:iv.track);
                      })
                    pids
                in
                { Net_router.nodes = interval_nodes space iv; anchors } :: acc)
              groups []
          in
          Net_router.spec_of_components ~space ~net:id components)
        nets
  in
  (* ownership: components (intervals or pin shapes) first, then every
     pin shape that is still free; interval metal is physically present
     (partial routes), so it is also marked solid for clearance *)
  Array.iter
    (fun (spec : Net_router.spec) ->
      List.iter
        (fun (c : Net_router.component) ->
          List.iter
            (fun node ->
              claim grid ~net:spec.Net_router.net node;
              if Option.is_some pao then Grid.set_solid grid node)
            c.Net_router.nodes)
        spec.Net_router.components)
    specs;
  claim_pins grid;
  specs
