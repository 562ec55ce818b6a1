module I = Geometry.Interval
module Design = Netlist.Design
module Node = Rgrid.Node
module Layer = Rgrid.Layer

let unit = 6.0
let margin = 2.0 *. unit

let palette =
  [|
    "#1f77b4"; "#ff7f0e"; "#2ca02c"; "#d62728"; "#9467bd"; "#8c564b";
    "#e377c2"; "#17becf"; "#bcbd22"; "#3182bd"; "#e6550d"; "#31a354";
  |]

let net_color net = palette.(net mod Array.length palette)

type canvas = { svg : Svg.t; height_px : float }

(* grid (x, y) -> svg coordinates; track y grows upward in the layout,
   downward in SVG *)
let gx x = margin +. (float_of_int x *. unit)
let gy c y = c.height_px -. margin -. (float_of_int (y + 1) *. unit)

let canvas design =
  let w = (float_of_int (Design.width design) *. unit) +. (2.0 *. margin) in
  let h = (float_of_int (Design.height design) *. unit) +. (2.0 *. margin) in
  { svg = Svg.create ~width:w ~height:h; height_px = h }

let draw_base c design =
  Svg.comment c.svg (Design.stats design);
  (* row separators and track grid *)
  for tr = 0 to Design.height design - 1 do
    let y = gy c tr +. (unit /. 2.0) in
    let is_row_edge = tr mod Design.row_height design = 0 in
    Svg.line c.svg ~x1:(gx 0) ~y1:y
      ~x2:(gx (Design.width design))
      ~y2:y
      ~stroke:(if is_row_edge then "#999" else "#eee")
      ~stroke_width:(if is_row_edge then 0.8 else 0.4)
      ()
  done;
  (* blockages *)
  List.iter
    (fun (b : Netlist.Blockage.t) ->
      match b.Netlist.Blockage.layer with
      | Netlist.Blockage.M2 ->
        Svg.rect c.svg
          ~x:(gx (I.lo b.Netlist.Blockage.span))
          ~y:(gy c b.Netlist.Blockage.track)
          ~w:(float_of_int (I.length b.Netlist.Blockage.span) *. unit)
          ~h:unit ~fill:"#666" ~opacity:0.5 ()
      | Netlist.Blockage.M3 ->
        Svg.rect c.svg
          ~x:(gx b.Netlist.Blockage.track)
          ~y:(gy c (I.hi b.Netlist.Blockage.span))
          ~w:unit
          ~h:(float_of_int (I.length b.Netlist.Blockage.span) *. unit)
          ~fill:"#666" ~opacity:0.3 ())
    (Design.blockages design);
  (* pins: outlined boxes in their net's color *)
  Array.iter
    (fun (p : Netlist.Pin.t) ->
      Svg.rect c.svg
        ~x:(gx p.Netlist.Pin.x +. (unit *. 0.15))
        ~y:(gy c (I.hi p.Netlist.Pin.tracks) +. (unit *. 0.15))
        ~w:(unit *. 0.7)
        ~h:((float_of_int (I.length p.Netlist.Pin.tracks) *. unit) -. (unit *. 0.3))
        ~fill:"white"
        ~stroke:(net_color p.Netlist.Pin.net)
        ~stroke_width:1.0 ())
    (Design.pins design)

let design d =
  let c = canvas d in
  draw_base c d;
  Svg.to_string c.svg

let draw_route c ?(opacity = 1.0) (r : Rgrid.Route.t) =
  let color = net_color r.Rgrid.Route.net in
  List.iter
    (fun (seg : Rgrid.Route.seg) ->
      match seg.Rgrid.Route.layer with
      | Layer.M2 ->
        Svg.rect c.svg
          ~x:(gx (I.lo seg.Rgrid.Route.span))
          ~y:(gy c seg.Rgrid.Route.track +. (unit *. 0.25))
          ~w:(float_of_int (I.length seg.Rgrid.Route.span) *. unit)
          ~h:(unit *. 0.5) ~fill:color ~opacity ()
      | Layer.M3 ->
        Svg.rect c.svg
          ~x:(gx seg.Rgrid.Route.track +. (unit *. 0.3))
          ~y:(gy c (I.hi seg.Rgrid.Route.span))
          ~w:(unit *. 0.4)
          ~h:(float_of_int (I.length seg.Rgrid.Route.span) *. unit)
          ~fill:color ~opacity:(0.65 *. opacity) ()
      | Layer.M1 -> ())
    (Rgrid.Route.segments r);
  (* via cuts *)
  List.iter
    (fun (x, y) ->
      Svg.rect c.svg
        ~x:(gx x +. (unit *. 0.3))
        ~y:(gy c y +. (unit *. 0.3))
        ~w:(unit *. 0.4) ~h:(unit *. 0.4) ~fill:"black" ~opacity ())
    (Rgrid.Route.via_positions r)

let flow (f : Router.Flow.t) =
  let d = f.Router.Flow.design in
  let c = canvas d in
  draw_base c d;
  Array.iteri
    (fun net route ->
      match route with
      | None -> ()
      | Some r ->
        let opacity = if f.Router.Flow.clean.(net) then 1.0 else 0.35 in
        draw_route c ~opacity r)
    f.Router.Flow.routes;
  Svg.to_string c.svg

let pin_access d assignments =
  let c = canvas d in
  draw_base c d;
  List.iter
    (fun (_pid, (iv : Pinaccess.Access_interval.t)) ->
      Svg.rect c.svg
        ~x:(gx (I.lo iv.Pinaccess.Access_interval.span))
        ~y:(gy c iv.Pinaccess.Access_interval.track +. (unit *. 0.2))
        ~w:(float_of_int (I.length iv.Pinaccess.Access_interval.span) *. unit)
        ~h:(unit *. 0.6)
        ~fill:(net_color iv.Pinaccess.Access_interval.net)
        ~opacity:0.8 ())
    assignments;
  Svg.to_string c.svg

let save path svg =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc svg)
