module I = Geometry.Interval
module Rect = Geometry.Rect
module Design = Netlist.Design
module Blockage = Netlist.Blockage

type t = { panels : int list; rects : Geometry.Rect.t list }

let clean t = t.panels = [] && t.rects = []

(* Marking happens against a specific state of the batch: location
   references mean "at this point of the batch", so each delta is
   resolved on the spec it was written for and on the spec it produced.
   The spec carries everything marking reads — net names, pin shapes
   (whose middle track is the primary one) and the panel rows — so the
   batch is applied in one spec pass and the design rebuilt once. *)

let compute ~before deltas =
  let spec = Delta.spec_of_design before in
  let row_height = spec.Delta.row_height in
  let num_panels = spec.Delta.height / row_height in
  let panels = Hashtbl.create 16 and rects = ref [] in
  let mark_track track =
    let p = track / row_height in
    if p >= 0 && p < num_panels then Hashtbl.replace panels p ()
  in
  let mark_net (spec : Delta.spec) name =
    List.iter
      (fun (net, pins) ->
        if net = name then
          List.iter
            (fun (p : Netlist.Builder.pin_spec) ->
              mark_track ((I.lo p.tracks + I.hi p.tracks) / 2))
            pins)
      spec.Delta.nets
  in
  (* the net of the (last) pin covering the reference *)
  let net_of_pin (spec : Delta.spec) { Delta.at_x; at_track } =
    List.fold_left
      (fun found (net, pins) ->
        List.fold_left
          (fun found (p : Netlist.Builder.pin_spec) ->
            if p.x = at_x && I.contains p.tracks at_track then Some net
            else found)
          found pins)
      None spec.Delta.nets
  in
  let mark_shape ({ Delta.x = _; tracks } : Delta.pin_shape) =
    mark_track (I.lo tracks)
  in
  let mark_blockage (b : Blockage.t) =
    match b.Blockage.layer with
    | Blockage.M2 -> mark_track b.Blockage.track
    | Blockage.M3 ->
      (* no panel goes dirty — interval generation never reads M3 — but
         routing under the blockage's footprint must be reconsidered *)
      rects :=
        Rect.make ~xs:(I.point b.Blockage.track) ~ys:b.Blockage.span :: !rects
  in
  let mark_delta spec delta =
    match delta with
    | Delta.Add_pin { net; shape } ->
      mark_net spec net;
      mark_shape shape
    | Delta.Remove_pin r -> (
      mark_track r.Delta.at_track;
      match net_of_pin spec r with
      | Some name -> mark_net spec name
      | None -> () (* the spec pass rejects the delta *))
    | Delta.Move_pin { from_; shape } -> (
      mark_track from_.Delta.at_track;
      mark_shape shape;
      match net_of_pin spec from_ with
      | Some name -> mark_net spec name
      | None -> ())
    | Delta.Add_net { name; pins } ->
      mark_net spec name;
      List.iter mark_shape pins
    | Delta.Remove_net name -> mark_net spec name
    | Delta.Add_blockage b | Delta.Remove_blockage b -> mark_blockage b
    | Delta.Set_clearance _ ->
      for p = 0 to num_panels - 1 do
        Hashtbl.replace panels p ()
      done
  in
  (* two-sided marking: [before] each delta (old location, old net
     extent) and [after] it (new location, new net extent) *)
  let spec, _ =
    List.fold_left
      (fun (spec, index) delta ->
        mark_delta spec delta;
        let spec' = Delta.apply_spec ~index spec delta in
        mark_delta spec' delta;
        (spec', index + 1))
      (spec, 0) deltas
  in
  (* a spec the checks passed rebuilds without error *)
  let after = if deltas = [] then before else Delta.rebuild spec in
  let dirty_panels =
    Hashtbl.fold (fun p () acc -> p :: acc) panels [] |> List.sort Int.compare
  in
  let band p =
    Rect.make
      ~xs:(I.make ~lo:0 ~hi:(Design.width after - 1))
      ~ys:(Design.panel_tracks after p)
  in
  (after, { panels = dirty_panels; rects = List.map band dirty_panels @ !rects })
