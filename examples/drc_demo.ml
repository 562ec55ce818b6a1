(* The SADP rule deck in isolation: hand-built metal with a sub-minimum
   line-end gap, misaligned cuts and crowding via cuts; then the
   line-end extension legalizer at work.

     dune exec examples/drc_demo.exe *)

module Node = Rgrid.Node
module Layer = Rgrid.Layer
module Route = Rgrid.Route

let pf = Format.printf

let m2 space net track lo hi =
  Route.make ~space ~net
    ~nodes:
      (List.init (hi - lo + 1) (fun i ->
           Node.pack space ~layer:Layer.M2 ~x:(lo + i) ~y:track))
    ~pin_vias:[]

let show_layout layout tracks =
  let m2 = Drc.Extract.tracks layout Layer.M2 in
  List.iter
    (fun track ->
      let row = Bytes.make 30 '.' in
      for i = m2.Drc.Extract.start.(track) to m2.Drc.Extract.start.(track + 1) - 1 do
        let net = m2.Drc.Extract.net.(i) in
        for x = max 0 m2.Drc.Extract.lo.(i) to min 29 m2.Drc.Extract.hi.(i) do
          Bytes.set row x
            (if net = Drc.Extract.blockage_net then '#'
             else Char.chr (Char.code 'a' + (net mod 26)))
        done
      done;
      pf "  track %2d |%s|@." track (Bytes.to_string row))
    tracks

let () =
  let design =
    Netlist.Builder.design ~name:"drc-demo" ~width:30 ~height:10
      ~nets:
        [
          ("a", [ Netlist.Builder.pin_at 2 2; Netlist.Builder.pin_at 27 2 ]);
          ("b", [ Netlist.Builder.pin_at 5 6; Netlist.Builder.pin_at 25 6 ]);
          ("c", [ Netlist.Builder.pin_at 10 8; Netlist.Builder.pin_at 20 8 ]);
        ]
      ()
  in
  let space = Node.space_of_design design in
  let routes = Array.make 3 None in
  (* net a: two pieces on track 2 with a same-net gap of 2 (mergeable) *)
  routes.(0) <-
    Some (Route.add_nodes ~space (m2 space 0 2 2 9) (m2 space 0 2 12 18).Route.nodes);
  (* net b on track 3 ends 1 grid from net c: an R1 violation;
     its cut against track 2's cut is also misaligned (R2) *)
  routes.(1) <- Some (m2 space 1 3 3 10);
  routes.(2) <-
    Some
      (Route.make ~space ~net:2
         ~nodes:(m2 space 2 3 12 18).Route.nodes
         ~pin_vias:[ (4, 13, 3); (5, 14, 3) ])
  (* two V1 cuts one grid apart: an R3 violation *);

  let layout = Drc.Extract.of_routes design routes in
  pf "metal before legalization (tracks 2-3):@.";
  show_layout layout [ 2; 3 ];

  let rules = Drc.Rules.default in
  let violations = Drc.Check.run rules layout in
  pf "@.%d violations:@." (List.length violations);
  List.iter
    (fun (v : Drc.Check.violation) ->
      pf "  %-14s %s  nets [%s], blamed net %d@."
        (Drc.Check.kind_to_string v.Drc.Check.kind)
        (Drc.Check.where v)
        (String.concat ";" (List.map string_of_int v.Drc.Check.nets))
        v.Drc.Check.blame)
    violations;

  (* line-end extension: merges the same-net gap, aligns what it can *)
  let fills, stats = Drc.Line_end.extend rules layout in
  pf "@.line-end extension: %d merges, %d alignments, %d fill(s)@."
    stats.Drc.Line_end.merges stats.Drc.Line_end.alignments
    (List.length fills);
  List.iter
    (fun (f : Drc.Line_end.fill) ->
      pf "  fill net %d on %s track %d span %s@." f.Drc.Line_end.net
        (Layer.to_string f.Drc.Line_end.layer)
        f.Drc.Line_end.track
        (Geometry.Interval.to_string f.Drc.Line_end.span))
    fills;

  pf "@.metal after legalization:@.";
  show_layout layout [ 2; 3 ];
  let remaining = Drc.Check.run rules layout in
  pf "@.remaining violations: %d (the sub-minimum R1 gap cannot be fixed@."
    (List.length remaining);
  pf "by growing metal — that net is charged as unrouted, paper Sec. 5)@."
