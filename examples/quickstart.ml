(* Quickstart: build a small placed design by hand, run the concurrent
   pin access router, and inspect the result.

     dune exec examples/quickstart.exe *)

let () =
  (* A 30x20 grid: two standard cell rows of 10 M2 tracks.  Pins are
     short vertical M1 shapes; nets connect them. *)
  let design =
    Netlist.Builder.design ~name:"quickstart" ~width:30 ~height:20
      ~nets:
        [
          ("clk", [ Netlist.Builder.pin_span 4 ~lo:2 ~hi:4;
                    Netlist.Builder.pin_span 20 ~lo:12 ~hi:14 ]);
          ("d0", [ Netlist.Builder.pin_at 8 3; Netlist.Builder.pin_at 17 6 ]);
          ("d1", [ Netlist.Builder.pin_span 11 ~lo:5 ~hi:7;
                   Netlist.Builder.pin_at 25 4 ]);
          ("q0", [ Netlist.Builder.pin_at 6 13; Netlist.Builder.pin_at 14 16 ]);
          ("en", [ Netlist.Builder.pin_at 10 12; Netlist.Builder.pin_at 24 15;
                   Netlist.Builder.pin_at 27 13 ]);
        ]
      ()
  in
  Format.printf "design: %s@.@." (Netlist.Design.stats design);

  (* Run the full CPR flow: pin access optimization (Lagrangian
     relaxation) + negotiation routing + line-end extension + DRC. *)
  let flow = Router.Cpr.run design in
  let summary = Metrics.Eval.of_flow flow in
  Format.printf "routability : %.1f%%@." summary.Metrics.Eval.routability;
  Format.printf "vias        : %d@." summary.Metrics.Eval.via_count;
  Format.printf "wirelength  : %d@." summary.Metrics.Eval.wirelength;
  Format.printf "violations  : %d@.@." summary.Metrics.Eval.violations;

  (* The pin access intervals the optimizer chose. *)
  (match flow.Router.Flow.pao with
  | Some pao ->
    Format.printf "selected pin access intervals:@.";
    List.iter
      (fun (pid, iv) ->
        let p = Netlist.Design.pin design pid in
        Format.printf "  pin %d of net %s -> track %d, columns %s@." pid
          (Netlist.Design.net design p.Netlist.Pin.net).Netlist.Net.name
          iv.Pinaccess.Access_interval.track
          (Geometry.Interval.to_string iv.Pinaccess.Access_interval.span))
      pao.Pinaccess.Pin_access.assignments
  | None -> ());

  (* A picture is easier: write an SVG plot of the routed layout. *)
  Render.Layout_svg.save "quickstart.svg" (Render.Layout_svg.flow flow);
  Format.printf "@.layout plot written to ./quickstart.svg@.";

  (* And the realized routes. *)
  Format.printf "@.routes:@.";
  Array.iteri
    (fun net route ->
      let name = (Netlist.Design.net design net).Netlist.Net.name in
      match route with
      | None -> Format.printf "  %-4s UNROUTED@." name
      | Some r ->
        let segs = Rgrid.Route.segments r in
        Format.printf "  %-4s %d segments, %d vias, wl %d%s@." name
          (List.length segs)
          (Rgrid.Route.via_count r)
          (Rgrid.Route.wirelength r)
          (if flow.Router.Flow.clean.(net) then "" else "  (DRC-dirty)"))
    flow.Router.Flow.routes
