module B = Netlist.Builder
module Node = Rgrid.Node
module Grid = Rgrid.Grid
module Layer = Rgrid.Layer
module Route = Rgrid.Route
module I = Geometry.Interval
module NR = Router.Net_router

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let design () =
  B.design ~width:20 ~height:10
    ~nets:
      [
        ("a", [ B.pin_at 2 3; B.pin_at 12 3 ]);
        ("b", [ B.pin_at 5 6; B.pin_at 15 2 ]);
      ]
    ()

(* ----- Route representation ----- *)

let test_route_segments () =
  let d = design () in
  let space = Node.space_of_design d in
  let nodes =
    [
      (* an L: M2 run on track 3 then M3 up at x=6 *)
      Node.pack space ~layer:Layer.M2 ~x:2 ~y:3;
      Node.pack space ~layer:Layer.M2 ~x:3 ~y:3;
      Node.pack space ~layer:Layer.M2 ~x:4 ~y:3;
      Node.pack space ~layer:Layer.M2 ~x:5 ~y:3;
      Node.pack space ~layer:Layer.M2 ~x:6 ~y:3;
      Node.pack space ~layer:Layer.M3 ~x:6 ~y:3;
      Node.pack space ~layer:Layer.M3 ~x:6 ~y:4;
      Node.pack space ~layer:Layer.M3 ~x:6 ~y:5;
    ]
  in
  let r = Route.make ~space ~net:0 ~nodes ~pin_vias:[ (0, 2, 3) ] in
  let segs = Route.segments r in
  check_int "two segments" 2 (List.length segs);
  check_int "wirelength = 4 + 2" 6 (Route.wirelength r);
  check_int "v2 at the corner" 1 (List.length (Route.v2_vias r));
  check_int "vias: 1 V1 + 1 V2" 2 (Route.via_count r)

let test_route_dedupes () =
  let d = design () in
  let space = Node.space_of_design d in
  let n = Node.pack space ~layer:Layer.M2 ~x:4 ~y:4 in
  let r = Route.make ~space ~net:0 ~nodes:[ n; n; n ] ~pin_vias:[] in
  check_int "deduped" 1 (List.length r.Route.nodes)

let test_route_single_node_segment () =
  let d = design () in
  let space = Node.space_of_design d in
  let n = Node.pack space ~layer:Layer.M2 ~x:4 ~y:4 in
  let r = Route.make ~space ~net:0 ~nodes:[ n ] ~pin_vias:[] in
  check_int "one stub segment" 1 (List.length (Route.segments r));
  check_int "zero wirelength" 0 (Route.wirelength r)

(* ----- Net_router ----- *)

let pin_component space (p : Netlist.Pin.t) =
  {
    NR.nodes =
      List.init (I.length p.Netlist.Pin.tracks) (fun i ->
          Node.pack space ~layer:Layer.M2 ~x:p.Netlist.Pin.x
            ~y:(I.lo p.Netlist.Pin.tracks + i));
    anchors = [ { NR.pin = p.Netlist.Pin.id; landing = None } ];
  }

let test_net_router_connects () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Rgrid.Maze.create g in
  let p0 = Netlist.Design.pin d 0 and p1 = Netlist.Design.pin d 1 in
  let spec =
    NR.spec_of_components ~space ~net:0
      [ pin_component space p0; pin_component space p1 ]
  in
  match NR.route maze ~cost:Rgrid.Cost.default ~pfac:0.0 spec with
  | Some r ->
    check "both pins have V1s" true (List.length r.Route.pin_vias = 2);
    (* same track pins: a straight M2 wire, no M3 *)
    check "no M3 needed" true
      (List.for_all
         (fun n -> Layer.equal (Node.layer space n) Layer.M2)
         r.Route.nodes);
    check_int "wirelength 10" 10 (Route.wirelength r)
  | None -> Alcotest.fail "trivial net must route"

let test_net_router_trims_interval () =
  (* a long partial-route strip: only the used part survives *)
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Rgrid.Maze.create g in
  let strip =
    List.init 16 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(2 + i) ~y:3)
  in
  let comp1 =
    {
      NR.nodes = strip;
      anchors =
        [
          {
            NR.pin = 0;
            landing = Some (Node.pack space ~layer:Layer.M2 ~x:2 ~y:3);
          };
        ];
    }
  in
  let p1 = Netlist.Design.pin d 1 in
  let spec =
    NR.spec_of_components ~space ~net:0 [ comp1; pin_component space p1 ]
  in
  match NR.route maze ~cost:Rgrid.Cost.default ~pfac:0.0 spec with
  | Some r ->
    (* pin 1 is at x=12 track 3: the strip connects directly; grids
       right of x=12 are unused and must be trimmed *)
    check "unused strip tail trimmed" true
      (not
         (List.mem (Node.pack space ~layer:Layer.M2 ~x:17 ~y:3) r.Route.nodes));
    check "kept between landing and touch" true
      (List.mem (Node.pack space ~layer:Layer.M2 ~x:6 ~y:3) r.Route.nodes)
  | None -> Alcotest.fail "must route"

let test_net_router_single_component () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Rgrid.Maze.create g in
  let p0 = Netlist.Design.pin d 0 in
  let spec = NR.spec_of_components ~space ~net:0 [ pin_component space p0 ] in
  match NR.route maze ~cost:Rgrid.Cost.default ~pfac:0.0 spec with
  | Some r ->
    check_int "one V1" 1 (List.length r.Route.pin_vias);
    check "minimal metal" true (List.length r.Route.nodes <= 1)
  | None -> Alcotest.fail "single-component net must trivially route"

let test_net_router_unreachable () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  (* wall the whole column range between the pins on both layers *)
  for y = 0 to 9 do
    Grid.set_blocked g (Node.pack space ~layer:Layer.M2 ~x:7 ~y);
    Grid.set_blocked g (Node.pack space ~layer:Layer.M3 ~x:7 ~y)
  done;
  let maze = Rgrid.Maze.create g in
  let p0 = Netlist.Design.pin d 0 and p1 = Netlist.Design.pin d 1 in
  let spec =
    NR.spec_of_components ~space ~net:0
      [ pin_component space p0; pin_component space p1 ]
  in
  check "walled net fails" true
    (NR.route maze ~cost:Rgrid.Cost.default ~pfac:0.0 spec = None)

(* ----- Spec builder ----- *)

let test_spec_builder_no_pao () =
  let d = design () in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:None in
  check_int "one spec per net" 2 (Array.length specs);
  check_int "one component per pin" 2
    (List.length specs.(0).NR.components);
  (* pins own their shape nodes *)
  let space = Grid.space g in
  let p = Netlist.Design.pin d 0 in
  check_int "pin owned" p.Netlist.Pin.net
    (Grid.owner g
       (Node.pack space ~layer:Layer.M2 ~x:p.Netlist.Pin.x
          ~y:(I.lo p.Netlist.Pin.tracks)))

let test_spec_builder_with_pao () =
  let d = design () in
  let pao = Pinaccess.Pin_access.optimize ~kind:Pinaccess.Pin_access.Lr d in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:(Some pao) in
  Array.iter
    (fun (spec : NR.spec) ->
      List.iter
        (fun (c : NR.component) ->
          check "components have fixed landings" true
            (List.for_all
               (fun (a : NR.anchor) -> Option.is_some a.NR.landing)
               c.NR.anchors);
          (* interval nodes are solid *)
          let g_space = Grid.space g in
          ignore g_space;
          List.iter
            (fun node -> check "interval node solid" true (Grid.solid g node))
            c.NR.nodes)
        spec.NR.components)
    specs

(* ----- Negotiation ----- *)

let test_negotiation_small () =
  let d = design () in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:None in
  let flow = Router.Negotiation.run ~pao:None ~started:0.0 g specs in
  check_int "both nets routed" 2
    (Array.fold_left
       (fun k r -> if Option.is_some r then k + 1 else k)
       0 flow.Router.Flow.routes);
  check "no congestion left" true (Grid.congested_nodes g = 0)

let test_negotiation_resolves_sharing () =
  (* two nets whose straight paths collide on the only shared track must
     negotiate *)
  let d =
    B.design ~width:30 ~height:10
      ~nets:
        [
          ("a", [ B.pin_at 2 4; B.pin_at 27 4 ]);
          ("b", [ B.pin_at 4 4; B.pin_at 25 4 ]);
        ]
      ()
  in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:None in
  let flow = Router.Negotiation.run ~pao:None ~started:0.0 g specs in
  let routed =
    Array.fold_left (fun k r -> if Option.is_some r then k + 1 else k) 0
      flow.Router.Flow.routes
  in
  check_int "both nets routed" 2 routed;
  check "final metal short-free" true (Grid.congested_nodes g = 0)

(* A finished run must leave nothing behind that reaches its grid: no
   maze parked after the run, in order or with one maze per domain of
   a pool that outlives it. *)
let test_negotiation_releases_grid () =
  let routed ?pool () =
    let w = Weak.create 1 in
    let route () =
      let d = Workloads.Suite.design ~scale:0.05 (Workloads.Suite.find "ecc") in
      let g = Grid.create d in
      let specs = Router.Spec_builder.build g ~pao:None in
      ignore (Router.Negotiation.run ?pool ~pao:None ~started:0.0 g specs);
      Weak.set w 0 (Some g)
    in
    route ();
    Gc.full_major ();
    w
  in
  check "grid collected" true (not (Weak.check (routed ()) 0));
  check "grid collected after a pooled run" true
    (not (Weak.check (routed ~pool:(Exec.shared ~domains:2) ()) 0))

(* ----- Golden route digests ----- *)

(* Digest of what a routing flow produced: every route's nodes and pin
   vias, the per-net clean verdicts, the reroute count and the number
   of remaining violations. *)
let flow_digest (f : Router.Flow.t) =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun net route ->
      match route with
      | None -> Printf.bprintf b "%d:-;" net
      | Some (r : Route.t) ->
        Printf.bprintf b "%d:" net;
        List.iter (Printf.bprintf b "%d,") r.Route.nodes;
        List.iter
          (fun (pin, x, y) -> Printf.bprintf b "v%d/%d/%d," pin x y)
          r.Route.pin_vias;
        Buffer.add_char b ';')
    f.Router.Flow.routes;
  Array.iter
    (fun c -> Buffer.add_char b (if c then '1' else '0'))
    f.Router.Flow.clean;
  Printf.bprintf b "|%d|%d" f.Router.Flow.total_reroutes
    (List.length f.Router.Flow.violations);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The final flow of a routed ECO engine after three local-move
   batches: two incremental routes over frozen metal. *)
let eco_final () =
  let d = Workloads.Suite.design ~scale:0.1 (Workloads.Suite.find "ecc") in
  let config = { Eco.Engine.default_config with Eco.Engine.routing = true } in
  let engine = Eco.Engine.create ~config d in
  List.iter
    (fun batch -> ignore (Eco.Engine.apply engine batch))
    (Workloads.Eco_stream.local_moves ~seed:13L ~steps:3 ~dirty_fraction:0.1
       d);
  Option.get (Eco.Engine.flow engine)

(* (name, digest) pairs: three small Suite circuits, each through CPR
   at -j 1, -j 2 and -j 4 (PAO and routing on two or four domains),
   the negotiation-only baseline and the sequential baseline (whose
   first passes search with hard spacing); then one routed ECO
   stream. *)
let golden_cases () =
  let parallel jobs = { Router.Cpr.default_config with jobs } in
  List.concat_map
    (fun (id, scale) ->
      let name = Printf.sprintf "%s@%g" id scale in
      let d () = Workloads.Suite.design ~scale (Workloads.Suite.find id) in
      [
        (name ^ "/cpr", fun () -> Router.Cpr.run (d ()));
        (name ^ "/cpr-j2", fun () -> Router.Cpr.run ~config:(parallel 2) (d ()));
        (name ^ "/cpr-j4", fun () -> Router.Cpr.run ~config:(parallel 4) (d ()));
        (name ^ "/ncr", fun () -> Router.Baseline_ncr.run (d ()));
        (name ^ "/seq", fun () -> Router.Sequential.run (d ()));
      ])
    [ ("ecc", 0.05); ("ctl", 0.05); ("top", 0.03) ]
  @ [ ("ecc@0.1/eco", eco_final) ]

(* recorded before the relax step was fused, and the eco entry before
   ECO routing moved onto [Negotiation.run]; CPR_ROUTE_GOLDEN=print
   prints the table afresh *)
let golden =
  [
    ("ecc@0.05/cpr", "868b287b2894bc04f999fd4e3f1de643");
    ("ecc@0.05/cpr-j2", "868b287b2894bc04f999fd4e3f1de643");
    ("ecc@0.05/cpr-j4", "868b287b2894bc04f999fd4e3f1de643");
    ("ecc@0.05/ncr", "7e7b7c6f3c620234dba9bdd3f56e0374");
    ("ecc@0.05/seq", "49b456264690e48afd53bf9318e07299");
    ("ctl@0.05/cpr", "55e437f80fd503bb23a6b99ad9417b05");
    ("ctl@0.05/cpr-j2", "55e437f80fd503bb23a6b99ad9417b05");
    ("ctl@0.05/cpr-j4", "55e437f80fd503bb23a6b99ad9417b05");
    ("ctl@0.05/ncr", "548bbc14f10a1cc47bf8535430d17c7f");
    ("ctl@0.05/seq", "e54ae0f5f7952b8b81fbbebf82611d7d");
    ("top@0.03/cpr", "c646c3c7a8cd176ae2545aba55153b90");
    ("top@0.03/cpr-j2", "c646c3c7a8cd176ae2545aba55153b90");
    ("top@0.03/cpr-j4", "c646c3c7a8cd176ae2545aba55153b90");
    ("top@0.03/ncr", "d484aec53baf1cc2e31ad31aef7aeb78");
    ("top@0.03/seq", "ef8ba2fc943cf197f106538e92e9d566");
    ("ecc@0.1/eco", "09fed49c2ecfe023dacfdf214c5726b3");
  ]

let test_golden_digests () =
  let record = Sys.getenv_opt "CPR_ROUTE_GOLDEN" = Some "print" in
  List.iter
    (fun (name, run) ->
      let digest = flow_digest (run ()) in
      if record then Printf.printf "    (%S, %S);\n%!" name digest
      else
        Alcotest.(check string) name
          (Option.value ~default:"<missing>" (List.assoc_opt name golden))
          digest)
    (golden_cases ())

(* ----- Parallel routing ----- *)

(* A design whose nets must outgrow the first search window: a wall of
   blockages on both layers at x = 30 leaves a gap only above track
   30, farther than [bbox_margin] from the nets that cross it.  Nets
   that stay on one side run beside them, and two long nets over the
   gap come later in stage 1's order, so a detour found in order can
   meet a region already searched (how often depends on the
   schedule). *)
let walled_design () =
  let wall =
    Netlist.Blockage.make ~layer:Netlist.Blockage.M3 ~track:30
      ~span:(I.make ~lo:0 ~hi:30)
    :: List.init 31 (fun y ->
           Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:y
             ~span:(I.make ~lo:30 ~hi:30))
  in
  let crossing =
    List.init 6 (fun k ->
        ( Printf.sprintf "x%d" k,
          [ B.pin_at (18 + k) (3 + (4 * k)); B.pin_at (42 - k) (5 + (4 * k)) ] ))
  in
  let local =
    List.concat
      (List.init 6 (fun k ->
           [
             ( Printf.sprintf "l%d" k,
               [ B.pin_at (4 + k) (2 + (5 * k)); B.pin_at (14 + k) (4 + (5 * k)) ]
             );
             ( Printf.sprintf "r%d" k,
               [ B.pin_at (46 + k) (3 + (5 * k)); B.pin_at (56 + k) (1 + (5 * k)) ]
             );
             ( Printf.sprintf "t%d" k,
               [ B.pin_at (20 + (3 * k)) 33; B.pin_at (24 + (3 * k)) 37 ] );
           ]))
  in
  let over =
    [
      ("u0", [ B.pin_at 14 35; B.pin_at 46 37 ]);
      ("u1", [ B.pin_at 12 38; B.pin_at 48 36 ]);
    ]
  in
  B.design ~width:64 ~height:40 ~nets:(crossing @ local @ over)
    ~blockages:wall ()

(* One run of the walled design and the counters it moved: the ones a
   -j run must reproduce, how many searches outgrew their first window
   and how many pool jobs ran. *)
type counted = {
  flow : Router.Flow.t;
  exhausted : bool;  (** the budget, if any, ran out *)
  expansions : int;
  reroutes : int;
  outgrown : int;
  jobs : int;
}

let route_walled ?seconds ?work_units jobs =
  let counter name = Obs.Metrics.value (Obs.Metrics.counter name) in
  let names =
    [ "maze.expansions"; "negotiation.reroutes"; "exec.route_outgrown";
      "exec.jobs" ]
  in
  let before = List.map counter names in
  let d = walled_design () in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:None in
  let budget =
    if seconds = None && work_units = None then None
    else Some (Pinaccess.Budget.start ?seconds ?work_units ())
  in
  let flow =
    Router.Negotiation.run ~pool:(Exec.shared ~domains:jobs) ?budget
      ~pao:None ~started:0.0 g specs
  in
  let exhausted =
    Option.fold ~none:false ~some:Pinaccess.Budget.exhausted budget
  in
  match List.map2 (fun n b -> counter n - b) names before with
  | [ expansions; reroutes; outgrown; jobs ] ->
    { flow; exhausted; expansions; reroutes; outgrown; jobs }
  | _ -> assert false

(* Parallel routing reproduces the in-order run byte for byte, also
   when nets outgrow their window and under a deadline that never
   fires.  A work-unit budget routes in order on any pool, so its -j
   runs are the -j 1 run; an expired deadline stops every search, in
   order or speculative, and each speculative one is redone in order
   once its commit finds the deadline passed. *)
let test_parallel_outgrow_and_budget () =
  let same label reference run =
    Alcotest.(check string) (label ^ ": flow digest")
      (flow_digest reference.flow) (flow_digest run.flow);
    check_int (label ^ ": maze.expansions") reference.expansions
      run.expansions;
    check_int (label ^ ": negotiation.reroutes") reference.reroutes
      run.reroutes
  in
  let seq = route_walled 1 in
  check_int "no speculation at -j 1" 0 seq.outgrown;
  check_int "no pool job at -j 1" 0 seq.jobs;
  check "some crossing net routes around the wall" true
    (Option.is_some seq.flow.Router.Flow.routes.(0));
  List.iter
    (fun jobs ->
      let par = route_walled jobs in
      same (Printf.sprintf "-j %d" jobs) seq par;
      check (Printf.sprintf "-j %d takes the outgrow path" jobs) true
        (par.outgrown > 0))
    [ 2; 4 ];
  let far = route_walled ~seconds:1e9 2 in
  same "-j 2 under a distant deadline" seq far;
  check "a distant deadline still fans out" true (far.jobs > 0);
  check "a distant deadline still speculates" true (far.outgrown > 0);
  check "a distant deadline never fires" false far.exhausted;
  let work_units = seq.expansions / 2 in
  let cut = route_walled ~work_units 1 in
  check "the budget runs out" true cut.exhausted;
  check "the budget cut the routing short" true
    (flow_digest cut.flow <> flow_digest seq.flow);
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "-j %d, %d work units" jobs work_units in
      let par = route_walled ~work_units jobs in
      same label cut par;
      check_int (label ^ ": routes in order") 0 par.jobs)
    [ 2; 4 ];
  let spent = route_walled ~seconds:0.0 1 in
  check "a spent deadline is exhausted" true spent.exhausted;
  let spent2 = route_walled ~seconds:0.0 2 in
  check "a spent deadline still fans out" true (spent2.jobs > 0);
  Alcotest.(check string) "-j 2 under a spent deadline: flow digest"
    (flow_digest spent.flow) (flow_digest spent2.flow)

(* The commit-time deadline check of a parallel phase.  The fake clock
   jumps past the deadline as soon as any speculative search returns,
   before its result is recorded, so every search result reaches its
   commit after the deadline.  Each must be routed again in order,
   where the spent deadline stops it: as on one domain, no net is
   routed after the deadline passed. *)
let test_parallel_deadline_at_commit () =
  let d =
    B.design ~width:64 ~height:10
      ~nets:
        (List.init 8 (fun k ->
             ( Printf.sprintf "n%d" k,
               [ B.pin_at (2 + (8 * k)) 3; B.pin_at (6 + (8 * k)) 6 ] )))
      ()
  in
  let g = Grid.create d in
  let specs = Router.Spec_builder.build g ~pao:None in
  let expired = Atomic.make false and searched = Atomic.make 0 in
  let flow, exhausted =
    Obs.Clock.with_source
      (fun () -> if Atomic.get expired then 1e9 else 0.0)
      (fun () ->
        Pinaccess.Fault.with_hook
          (function
            | Pinaccess.Fault.Route_searched ->
              Atomic.incr searched;
              Atomic.set expired true
            | _ -> ())
          (fun () ->
            let budget = Pinaccess.Budget.start ~seconds:1e6 () in
            let flow =
              Router.Negotiation.run ~pool:(Exec.shared ~domains:2) ~budget
                ~pao:None ~started:0.0 g specs
            in
            (flow, Pinaccess.Budget.exhausted budget)))
  in
  check "a search ran speculatively" true (Atomic.get searched > 0);
  check "the deadline passed" true exhausted;
  check_int "no net routed after the deadline" 0
    (Array.fold_left
       (fun k r -> if Option.is_some r then k + 1 else k)
       0 flow.Router.Flow.routes)

let () =
  Alcotest.run "router"
    [
      ( "route",
        [
          Alcotest.test_case "segments" `Quick test_route_segments;
          Alcotest.test_case "dedupe" `Quick test_route_dedupes;
          Alcotest.test_case "stub" `Quick test_route_single_node_segment;
        ] );
      ( "net_router",
        [
          Alcotest.test_case "connects" `Quick test_net_router_connects;
          Alcotest.test_case "trims interval" `Quick test_net_router_trims_interval;
          Alcotest.test_case "single component" `Quick test_net_router_single_component;
          Alcotest.test_case "unreachable" `Quick test_net_router_unreachable;
        ] );
      ( "spec_builder",
        [
          Alcotest.test_case "no pao" `Quick test_spec_builder_no_pao;
          Alcotest.test_case "with pao" `Quick test_spec_builder_with_pao;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "small" `Quick test_negotiation_small;
          Alcotest.test_case "resolves sharing" `Quick test_negotiation_resolves_sharing;
          Alcotest.test_case "releases its grid" `Quick
            test_negotiation_releases_grid;
          Alcotest.test_case "parallel outgrow and budget" `Quick
            test_parallel_outgrow_and_budget;
          Alcotest.test_case "parallel deadline at commit" `Quick
            test_parallel_deadline_at_commit;
        ] );
      ( "identity",
        [ Alcotest.test_case "golden route digests" `Quick test_golden_digests ] );
    ]
