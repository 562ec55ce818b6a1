module I = Geometry.Interval
module Node = Rgrid.Node
module Grid = Rgrid.Grid
module Maze = Rgrid.Maze
module Cost = Rgrid.Cost
module Pin = Netlist.Pin
module Design = Netlist.Design

(* The sequential baseline legalizes as it goes: clearance and
   forbidden-via costs are much steeper than the negotiation flows'
   (detours instead of violations — [12]'s behaviour), but stay finite
   so dense regions remain reachable. *)
let steep =
  { Cost.default with Cost.spacing_penalty = 16.0; forbidden_via_cost = 24.0 }

(* Route fully legally first (clearances are walls); only a net that
   cannot be embedded legally after deferring falls back to the
   soft-but-steep penalties and may introduce violations — [12]'s
   legalize-as-you-go with net deferring. *)
let hard = { steep with Cost.hard_spacing = true }

let strip_cap = 2

(* Longest free strip over the pin on one of its tracks, capped at
   [strip_cap] grids per side: the net's greedily planned pin access.
   [12] legalizes while planning, so a *clean* strip — one whose ends
   keep the minimum line-end gap from committed foreign metal — is
   preferred over a merely free one. *)
let plan_pin_strip grid (p : Pin.t) =
  let space = Grid.space grid in
  let free ~x ~y =
    Node.in_bounds space ~x ~y
    &&
    let node = Node.pack space ~layer:Rgrid.Layer.M2 ~x ~y in
    Grid.passable grid ~net:p.net node && Grid.occ grid node = 0
  in
  let foreign ~x ~y =
    Node.in_bounds space ~x ~y
    &&
    let node = Node.pack space ~layer:Rgrid.Layer.M2 ~x ~y in
    Grid.blocked grid node
    || List.exists (fun k -> k <> p.net) (Grid.nets_using grid node)
  in
  let min_gap = Drc.Rules.default.Drc.Rules.min_line_end_gap in
  let clean ~x ~y =
    free ~x ~y
    &&
    let ok = ref true in
    for dx = 1 to min_gap do
      if foreign ~x:(x - dx) ~y || foreign ~x:(x + dx) ~y then ok := false
    done;
    !ok
  in
  let strip_on ~probe track =
    if not (probe ~x:p.x ~y:track) then None
    else begin
      let lo = ref p.x and hi = ref p.x in
      while p.x - !lo < strip_cap && probe ~x:(!lo - 1) ~y:track do
        decr lo
      done;
      while !hi - p.x < strip_cap && probe ~x:(!hi + 1) ~y:track do
        incr hi
      done;
      Some (track, !lo, !hi)
    end
  in
  let tracks = List.init (I.length p.tracks) (fun i -> I.lo p.tracks + i) in
  let candidates =
    match List.filter_map (strip_on ~probe:clean) tracks with
    | [] -> List.filter_map (strip_on ~probe:free) tracks
    | clean_candidates -> clean_candidates
  in
  let primary = Pin.primary_track p in
  let better (t1, l1, h1) (t2, l2, h2) =
    let len1 = h1 - l1 and len2 = h2 - l2 in
    if len1 <> len2 then len1 > len2
    else abs (t1 - primary) < abs (t2 - primary)
  in
  match candidates with
  | [] -> None
  | c :: cs ->
    let best = List.fold_left (fun b c -> if better c b then c else b) c cs in
    let track, lo, hi = best in
    Some
      ( List.init (hi - lo + 1) (fun i ->
            Node.pack space ~layer:Rgrid.Layer.M2 ~x:(lo + i) ~y:track),
        track )

let build_spec grid net =
  let design = Grid.design grid in
  let space = Grid.space grid in
  let pins = Design.net_pins design net in
  let planned =
    List.map
      (fun (p : Pin.t) ->
        match plan_pin_strip grid p with
        | Some (nodes, track) ->
          Some
            {
              Net_router.nodes;
              anchors =
                [
                  {
                    Net_router.pin = p.Pin.id;
                    landing =
                      Some
                        (Node.pack space ~layer:Rgrid.Layer.M2 ~x:p.Pin.x
                           ~y:track);
                  };
                ];
            }
        | None -> None)
      pins
  in
  if List.exists Option.is_none planned then None
  else
    Some
      (Net_router.spec_of_components ~space ~net
         (List.filter_map Fun.id planned))

let commit grid route =
  Negotiation.apply_route grid route;
  List.iter
    (fun node -> Grid.set_owner grid node ~net:route.Rgrid.Route.net)
    route.Rgrid.Route.nodes

let run ?tpl ?budget design =
  let started = Obs.Clock.now () in
  let grid = Grid.create design in
  (* pins are blockages for other nets, as in every flow *)
  Spec_builder.claim_pins grid;
  let maze = Maze.create grid in
  let n = Array.length (Design.nets design) in
  let routes = Array.make n None in
  let reroutes = ref 0 in
  let attempt ~cost net =
    match build_spec grid net with
    | None -> false
    | Some spec ->
      incr reroutes;
      (match Net_router.route ?budget maze ~cost ~pfac:0.0 spec with
      | Some route ->
        commit grid route;
        routes.(net) <- Some route;
        true
      | None -> false)
  in
  (* first pass in net order, fully legal (clearances are walls);
     failures are deferred rather than forced *)
  let deferred = ref [] in
  for net = 0 to n - 1 do
    if not (attempt ~cost:hard net) then deferred := net :: !deferred
  done;
  (* net deferring: retry legally with wide-open windows first, then
     allow steep-but-soft penalties as the last resort *)
  let wide cost =
    { cost with Cost.bbox_margin = 24; Cost.retry_margins = [ 60; 200 ] }
  in
  let deferred2 = ref [] in
  List.iter
    (fun net ->
      if not (attempt ~cost:(wide hard) net) then
        deferred2 := net :: !deferred2)
    (List.rev !deferred);
  List.iter
    (fun net -> ignore (attempt ~cost:(wide steep) net))
    (List.rev !deferred2);
  (* per-net design-rule legalization, hard-blocked like the rest of
     the flow ([12] legalizes during sequential routing) *)
  let layout = Drc.Extract.create () in
  let drc_reroutes =
    Negotiation.drc_ripup ~cost:(wide hard) ?budget ?tpl ~layout grid
      ~spec_of:(build_spec grid) ~routes ~rounds:3
  in
  Flow.finish ?tpl ~grid ~pao:None
    ~initial_congestion:0
    ~ripup_iterations:0
    ~total_reroutes:(!reroutes + drc_reroutes)
    ~started ~layout routes
