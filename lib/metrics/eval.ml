type summary = {
  name : string;
  total_nets : int;
  routed_nets : int;
  routability : float;
  via_count : int;
  wirelength : int;
  cpu : float;
  initial_congestion : int;
  violations : int;
  degraded_panels : int;
}

let hpwl design net = Geometry.Rect.half_perimeter (Netlist.Design.net_bbox design net)

let degraded_panels (flow : Router.Flow.t) =
  match flow.Router.Flow.pao with
  | None -> 0
  | Some pao ->
    List.length
      (List.filter
         (fun (r : Pinaccess.Pin_access.panel_report) -> r.degraded)
         pao.Pinaccess.Pin_access.reports)

let of_flow ?name (flow : Router.Flow.t) =
  let design = flow.Router.Flow.design in
  let total_nets = Array.length (Netlist.Design.nets design) in
  let routed = ref 0 and vias = ref 0 and wl = ref 0 in
  Array.iteri
    (fun net clean ->
      if clean then begin
        incr routed;
        match flow.Router.Flow.routes.(net) with
        | Some r ->
          vias := !vias + Rgrid.Route.via_count r;
          wl := !wl + Rgrid.Route.wirelength r
        | None -> assert false
      end
      else wl := !wl + hpwl design net)
    flow.Router.Flow.clean;
  (* Table 2's "Via#": total vias for all nets, estimated through the
     vias-per-routed-net rate (paper Sec. 5) *)
  let via_estimate =
    if !routed = 0 then 0
    else
      int_of_float
        (Float.round
           (float_of_int !vias *. float_of_int total_nets
           /. float_of_int !routed))
  in
  {
    name = Option.value ~default:(Netlist.Design.name design) name;
    total_nets;
    routed_nets = !routed;
    routability = 100.0 *. float_of_int !routed /. float_of_int total_nets;
    via_count = via_estimate;
    wirelength = !wl;
    cpu = flow.Router.Flow.elapsed;
    initial_congestion = flow.Router.Flow.initial_congestion;
    violations = List.length flow.Router.Flow.violations;
    degraded_panels = degraded_panels flow;
  }

let ratio s ~reference =
  let f a b = if b = 0.0 then nan else a /. b in
  ( f s.routability reference.routability,
    f (float_of_int s.via_count) (float_of_int reference.via_count),
    f (float_of_int s.wirelength) (float_of_int reference.wirelength),
    f s.cpu reference.cpu )
