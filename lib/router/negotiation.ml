module Grid = Rgrid.Grid
module Maze = Rgrid.Maze
module Cost = Rgrid.Cost
module Node = Rgrid.Node
module Route = Rgrid.Route
module Rect = Geometry.Rect
module I = Geometry.Interval
module Budget = Pinaccess.Budget

let m_ripup_rounds = Obs.Metrics.counter "negotiation.ripup_rounds"
let m_reroutes = Obs.Metrics.counter "negotiation.reroutes"
let m_drc_rounds = Obs.Metrics.counter "negotiation.drc_rounds"
let m_outgrown = Obs.Metrics.counter "exec.route_outgrown"
let m_invalidated = Obs.Metrics.counter "exec.route_invalidated"

(* The PathFinder schedule of stage 2: round [i] (from 1) adds
   [history_increment] to every overused node, then reroutes at present-
   sharing factor [pfac_initial * pfac_growth^(i - 1)]; at most
   [max_ripup_iterations] rounds. *)
let history_increment = 1.0
let pfac_initial = 0.5
let pfac_growth = 1.6
let max_ripup_iterations = 16

let apply_route grid (route : Route.t) =
  List.iter
    (fun node -> Grid.add_usage grid ~net:route.Route.net node)
    route.Route.nodes;
  List.iter (fun (_pin, x, y) -> Grid.add_via grid ~x ~y) route.Route.pin_vias;
  Array.iter
    (fun p -> Grid.add_via grid ~x:(Route.v2_x p) ~y:(Route.v2_y p))
    route.Route.v2

let retract_route grid (route : Route.t) =
  List.iter
    (fun node -> Grid.remove_usage grid ~net:route.Route.net node)
    route.Route.nodes;
  List.iter
    (fun (_pin, x, y) -> Grid.remove_via grid ~x ~y)
    route.Route.pin_vias;
  Array.iter
    (fun p -> Grid.remove_via grid ~x:(Route.v2_x p) ~y:(Route.v2_y p))
    route.Route.v2

let is_frozen frozen =
  match frozen with Some f -> fun net -> f.(net) | None -> fun _ -> false

let crosses_overuse grid (r : Rgrid.Route.t) =
  List.exists (fun node -> Grid.overused grid node) r.Rgrid.Route.nodes

(* Drop still-conflicting nets so the metal is short-free: in id order,
   every unfrozen route still on an overused grid is retracted, which
   may clear the overuse for its later-id sharer.  Frozen routes are
   never dropped — overuse on a frozen node always has an unfrozen
   sharer (frozen routes are mutually consistent), and dropping that
   sharer clears it. *)
let drop_overused ~is_frozen grid routes =
  if Grid.congested_nodes grid > 0 then
    Array.iteri
      (fun net route ->
        match route with
        | Some r when (not (is_frozen net)) && crosses_overuse grid r ->
          retract_route grid r;
          routes.(net) <- None
        | Some _ | None -> ())
      routes

(* The rip-up probe (paper Sec. 4: rip-up and reroute also serves the
   manufacturing constraints).  Check the current metal, bump history
   by [scale] under every violation site and, with a TPL deck, under
   every uncolorable feature (also scaled by the deck's stitch cost, so
   an expensive-to-stitch deck pushes the router away harder), and
   return the blamed nets that are not frozen.  Shorts are tolerated:
   mid-negotiation the metal may still share grids.  The metal is
   extracted into [layout], the run's one buffer. *)
let probe ?tpl ~scale ~is_frozen layout grid routes =
  Obs.Trace.with_span "negotiation.probe" @@ fun () ->
  let space = Grid.space grid in
  Drc.Extract.fill ~tolerate_shorts:true layout (Grid.design grid) routes;
  let bump ~layer ~x ~y by =
    if Node.in_bounds space ~x ~y then
      Grid.add_history_at grid (Node.pack space ~layer ~x ~y) by
  in
  let violations = Drc.Check.run Drc.Rules.default layout in
  List.iter
    (fun (v : Drc.Check.violation) ->
      List.iter
        (fun (x, y) ->
          bump ~layer:Rgrid.Layer.M2 ~x ~y scale;
          bump ~layer:Rgrid.Layer.M3 ~x ~y scale)
        v.Drc.Check.sites)
    violations;
  let tpl_blamed =
    match tpl with
    | None -> []
    | Some deck ->
      let stats = Drc.Tpl.check deck layout in
      let by = scale *. Drc.Tpl.stitch_cost deck in
      List.iter
        (fun (v : Drc.Tpl.violation) ->
          for x = Geometry.Interval.lo v.Drc.Tpl.span
              to Geometry.Interval.hi v.Drc.Tpl.span do
            bump ~layer:Rgrid.Layer.M2 ~x ~y:v.Drc.Tpl.track by
          done)
        stats.Drc.Tpl.violations;
      Drc.Tpl.blamed_nets stats
  in
  List.filter
    (fun net -> not (is_frozen net))
    (List.sort_uniq Int.compare
       (Drc.Check.blamed_nets violations @ tpl_blamed))

(* The DRC rip-up rounds: probe the metal and hand the blamed nets to
   [reroute], up to [rounds] times, calling [drop] before every probe
   and at the end. *)
let drc_rounds ?tpl ~budget ~is_frozen ~drop ~reroute layout grid routes
    ~rounds =
  let reroutes = ref 0 in
  let round = ref 0 in
  let continue_ = ref true in
  while !continue_ && !round < rounds && not (Budget.exhausted budget) do
    Obs.Trace.with_span "negotiation.drc_round" @@ fun () ->
    incr round;
    Obs.Metrics.incr m_drc_rounds;
    drop ();
    match probe ?tpl ~scale:4.0 ~is_frozen layout grid routes with
    | [] -> continue_ := false
    | blamed ->
      reroutes := !reroutes + List.length blamed;
      reroute blamed
  done;
  drop ();
  !reroutes

let drc_ripup ?(cost = Cost.default) ?(budget = Budget.unlimited ()) ?tpl
    ~layout grid ~spec_of ~routes ~rounds =
  let maze = Maze.create grid in
  let reroute net =
    (match routes.(net) with
    | Some r ->
      retract_route grid r;
      List.iter (fun node -> Grid.clear_owner grid node ~net) r.Route.nodes;
      routes.(net) <- None
    | None -> ());
    Obs.Metrics.incr m_reroutes;
    match
      Option.bind (spec_of net) (Net_router.route ~budget maze ~cost ~pfac:4.0)
    with
    | Some r ->
      apply_route grid r;
      List.iter
        (fun node ->
          if Grid.owner grid node = -1 then Grid.set_owner grid node ~net)
        r.Route.nodes;
      routes.(net) <- Some r
    | None -> ()
  in
  let reroutes =
    drc_rounds ?tpl ~budget
      ~is_frozen:(fun _ -> false)
      ~drop:ignore ~reroute:(List.iter reroute) layout grid routes ~rounds
  in
  (* failed reroutes must not leave their pins grabbable *)
  Spec_builder.claim_pins grid;
  reroutes

(* ------------------------------------------------------------------ *)
(* Reroute phases                                                     *)
(* ------------------------------------------------------------------ *)

(* A phase is one ordered list of nets to reroute at one present-
   sharing factor: stage 1, the victims of a round, or the blamed nets
   of a DRC rip-up round.  In order, each net retracts its old route,
   searches and applies its new one. *)
type router = {
  grid : Grid.t;
  specs : Net_router.spec array;
  routes : Route.t option array;
  cost : Cost.t;
  budget : Budget.t;
  pool : Exec.t;
  mazes : Maze.t option array;
      (** one per domain, index 0 for in-order work; see [maze] *)
}

(* A run's mazes are made on first use, by the domain that searches
   with them: a maze's hot counters and its heap's length are written
   on every expansion, and blocks one domain allocates stay apart from
   another's, so two domains never write one cache line. *)
let maze r p =
  match r.mazes.(p) with
  | Some m -> m
  | None ->
    let m = Maze.create r.grid in
    r.mazes.(p) <- Some m;
    m

let reroute_in_order r ~pfac net =
  (match r.routes.(net) with
  | Some old ->
    retract_route r.grid old;
    r.routes.(net) <- None
  | None -> ());
  match
    Net_router.route ~budget:r.budget (maze r 0) ~cost:r.cost ~pfac
      r.specs.(net)
  with
  | Some route ->
    apply_route r.grid route;
    r.routes.(net) <- Some route
  | None -> ()

(* The region rule of a scheduled phase.  A search whose first window
   (the bbox grown by [cost.bbox_margin]) holds a path reads the grid
   only inside that window grown by the kernel's reach: the clearance
   term looks two grids along the track ([Maze]'s [clearance_level])
   and the forbidden-via test one grid across ([Grid.via_forbidden]).
   It writes only its old route and its new one, inside the window.
   Two nets of a phase conflict when either one's writes meet the
   other's reads or writes; a net starts once every earlier net it
   conflicts with has committed.  A search that needs a wider window
   has read outside its region: from that net on, the phase routes in
   order (see [scheduled]). *)
let reach = 2

(* how far past the commit frontier a worker looks for a ready net *)
let lookahead = 16

type searched = {
  found : Route.t option;
  work : int;  (** work units its searches spent *)
  metrics : Obs.Metrics.buffer;
  events : Obs.Trace.event list;
}

type slot =
  | Pending  (** not started: its old route is on the grid *)
  | Started
      (** its old route is retracted: searching, or its search
          outgrew the first window *)
  | Searched of searched  (** waiting for its turn to commit, or committed *)

type phase = {
  nets : int array;
  old : Route.t option array;
  deps : int array;  (** latest earlier conflicting net, or [-1] *)
  slots : slot array;
  m : Mutex.t;
  changed : Condition.t;
  mutable frontier : int;  (** nets before it have committed *)
  mutable stop : int;
      (** nets from it on are routed in order after the join: the first
          outgrown search, or the net whose commit found the deadline
          passed *)
  mutable outgrown : int;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

(* The grid points a route writes: its nodes and its V1 landings (a
   V2 sits on a node). *)
let points ~space (route : Route.t) =
  Seq.append
    (Seq.map
       (fun n -> (Node.x space n, Node.y space n))
       (List.to_seq route.Route.nodes))
    (Seq.map (fun (_pin, x, y) -> (x, y)) (List.to_seq route.Route.pin_vias))

(* [rect] grown to cover [route]'s points *)
let hull_route ~space rect route =
  let xs = Rect.xs rect and ys = Rect.ys rect in
  let lo_x = ref (I.lo xs) and hi_x = ref (I.hi xs)
  and lo_y = ref (I.lo ys) and hi_y = ref (I.hi ys) in
  Seq.iter
    (fun (x, y) ->
      lo_x := Int.min !lo_x x;
      hi_x := Int.max !hi_x x;
      lo_y := Int.min !lo_y y;
      hi_y := Int.max !hi_y y)
    (points ~space route);
  Rect.make ~xs:(I.make ~lo:!lo_x ~hi:!hi_x) ~ys:(I.make ~lo:!lo_y ~hi:!hi_y)

(* [deps.(i)]: the latest [j < i] whose writes meet net [i]'s reads or
   writes, or whose reads meet net [i]'s writes.  Only the [lookahead]
   nets before [i] matter: by the time [i] is within [lookahead] of
   the frontier, every earlier net has committed. *)
let dependencies writes foots =
  Array.mapi
    (fun i foot ->
      let rec latest j =
        if j < 0 || j < i - lookahead then -1
        else if
          Rect.overlaps writes.(j) foot || Rect.overlaps writes.(i) foots.(j)
        then j
        else latest (j - 1)
      in
      latest (i - 1))
    foots

let plan r nets =
  let space = Grid.space r.grid in
  let die = Netlist.Design.die (Grid.design r.grid) in
  let k = Array.length nets in
  let old = Array.map (fun net -> r.routes.(net)) nets in
  let windows =
    Array.map
      (fun net ->
        Rect.inflate r.specs.(net).Net_router.bbox ~by:r.cost.Cost.bbox_margin
          ~within:die)
      nets
  in
  let reads =
    Array.map (fun w -> Rect.inflate w ~by:reach ~within:die) windows
  in
  let with_old i rect =
    Option.fold ~none:rect ~some:(hull_route ~space rect) old.(i)
  in
  {
    nets;
    old;
    deps =
      dependencies (Array.mapi with_old windows) (Array.mapi with_old reads);
    slots = Array.make k Pending;
    m = Mutex.create ();
    changed = Condition.create ();
    frontier = 0;
    stop = k;
    outgrown = 0;
    error = None;
  }

(* One phase on every domain of [r.pool].  Each domain runs a worker
   loop: commit whatever is ready at the frontier, else take the
   lowest-index ready net within [lookahead] and search it with the
   first margin only.  Commits happen in phase order: they apply the
   route and spend the net's work into the budget.  Speculation stops
   at the earliest net whose search outgrows its window, and at a
   commit that finds the deadline passed, where the in-order run would
   have checked the deadline before the net.  After the join the calling
   domain merges the committed nets' metrics and spans in phase order,
   puts back the old routes of the nets started past the frontier and
   routes the rest of the phase in order — so the phase leaves the
   grid, routes, budget and observability exactly as the in-order loop
   does.  The budget has no work allowance here (see [reroute_phase]),
   only maybe a deadline. *)
let scheduled r ~pfac nets =
  let ph = plan r nets in
  let trace_on = Obs.Trace.enabled () in
  (* a speculative search: the first window only, on a private work
     counter under the run's deadline; [None] when it outgrew it *)
  let search maze i budget =
    let attempt () =
      Net_router.attempt ~budget ~margins:[ r.cost.Cost.bbox_margin ] maze
        ~cost:r.cost ~pfac r.specs.(nets.(i))
    in
    let (outcome, events), metrics =
      Obs.Metrics.buffered (fun () ->
          if trace_on then Obs.Trace.buffered attempt else (attempt (), []))
    in
    let searched found =
      Some { found; work = Budget.work_spent budget; metrics; events }
    in
    match outcome with
    | Net_router.Unreachable -> None
    | Net_router.Routed route -> searched (Some route)
    | Net_router.Stopped -> searched None
  in
  let pick () =
    let stop = min ph.stop (ph.frontier + lookahead) in
    let rec go i =
      if i >= stop then None
      else
        match ph.slots.(i) with
        | Pending when ph.deps.(i) < ph.frontier -> Some i
        | Pending | Started | Searched _ -> go (i + 1)
    in
    go ph.frontier
  in
  (* under the lock: commit what is ready, then claim a net to search *)
  let rec next () =
    if Option.is_some ph.error || ph.frontier >= ph.stop then None
    else
      let f = ph.frontier in
      match ph.slots.(f) with
      | Searched _ when Budget.exhausted r.budget ->
        (* the in-order run would check the deadline before this net *)
        ph.stop <- f;
        Condition.broadcast ph.changed;
        None
      | Searched s ->
        Option.iter (apply_route r.grid) s.found;
        r.routes.(nets.(f)) <- s.found;
        Budget.spend r.budget s.work;
        ph.frontier <- f + 1;
        Condition.broadcast ph.changed;
        next ()
      | Pending | Started -> (
        match pick () with
        | Some i ->
          ph.slots.(i) <- Started;
          Some (i, Budget.isolated r.budget ())
        | None ->
          Condition.wait ph.changed ph.m;
          next ())
  in
  let worker p =
    let rec loop () =
      match Mutex.protect ph.m next with
      | None -> ()
      | Some (i, budget) ->
        Option.iter (retract_route r.grid) ph.old.(i);
        let result = search (maze r p) i budget in
        Pinaccess.Fault.trip Pinaccess.Fault.Route_searched;
        Mutex.protect ph.m (fun () ->
            (match result with
            | Some s -> ph.slots.(i) <- Searched s
            | None ->
              ph.outgrown <- ph.outgrown + 1;
              ph.stop <- Int.min ph.stop i);
            Condition.broadcast ph.changed);
        loop ()
    in
    try loop ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect ph.m (fun () ->
          if Option.is_none ph.error then ph.error <- Some (e, bt);
          Condition.broadcast ph.changed)
  in
  (* one pool job of [domains] worker loops; the caller claims loop 0
     right after its wake-up broadcast, so on two domains each loop's
     maze stays with the domain that made it *)
  ignore (Exec.map r.pool worker (Array.init (Array.length r.mazes) Fun.id));
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) ph.error;
  let discarded = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot with
      | Searched s when i < ph.frontier ->
        Obs.Metrics.flush s.metrics;
        Obs.Trace.replay s.events
      | Searched _ ->
        incr discarded;
        Option.iter (apply_route r.grid) ph.old.(i)
      | Started -> Option.iter (apply_route r.grid) ph.old.(i)
      | Pending -> ())
    ph.slots;
  Obs.Metrics.add m_outgrown ph.outgrown;
  Obs.Metrics.add m_invalidated !discarded;
  for i = ph.frontier to Array.length nets - 1 do
    reroute_in_order r ~pfac nets.(i)
  done

(* Under a work-unit allowance, where a net's searches stop depends on
   what every earlier net spent, which a speculative search cannot
   know: such a run routes every phase in order. *)
let reroute_phase r ~pfac nets =
  let nets = Array.of_list nets in
  Obs.Metrics.add m_reroutes (Array.length nets);
  if
    Exec.domains r.pool > 1
    && Array.length nets > 1
    && Budget.remaining_work r.budget = None
  then scheduled r ~pfac nets
  else Array.iter (reroute_in_order r ~pfac) nets

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

let run ?(pool = Exec.sequential) ?(cost = Cost.default) ?tpl
    ?(budget = Budget.unlimited ()) ?frozen ?initial ~pao ~started grid specs =
  let n = Array.length specs in
  let router =
    {
      grid;
      specs;
      routes = Array.make n None;
      cost;
      budget;
      pool;
      mazes = Array.make (Exec.domains pool) None;
    }
  in
  let routes = router.routes in
  let is_frozen = is_frozen frozen in
  (* pre-committed routes (an incremental caller's reused metal): their
     usage and vias go on the grid up front, so stage 1 searches see
     them as congestion exactly like earlier-committed routes *)
  Option.iter
    (Array.iteri (fun net route ->
         match route with
         | Some r ->
           apply_route grid r;
           routes.(net) <- Some r
         | None -> ()))
    initial;
  let total_reroutes = ref 0 in
  let reroute ~pfac nets =
    total_reroutes := !total_reroutes + List.length nets;
    reroute_phase router ~pfac nets
  in
  let layout = Drc.Extract.create () in
  let probe () = probe ?tpl ~scale:2.0 ~is_frozen layout grid routes in
  (* Stage 1: independent routing (no present-sharing term); nets that
     arrived pre-routed via [initial] keep their metal *)
  reroute ~pfac:0.0
    (List.filter
       (fun net -> routes.(net) = None)
       (Array.to_list (routing_order specs)));
  let initial_congestion = Grid.congested_nodes grid in
  (* Stage 2: rip-up and reroute with negotiation *)
  let iterations = ref 0 in
  let unfrozen_unrouted net = routes.(net) = None && not (is_frozen net) in
  let blamed = ref (if initial_congestion = 0 then probe () else []) in
  let continue_ =
    ref
      (initial_congestion > 0
      || Seq.exists unfrozen_unrouted (Seq.init n Fun.id)
      || !blamed <> [])
  in
  while
    !continue_
    && !iterations < max_ripup_iterations
    && not (Budget.exhausted budget)
  do
    Obs.Trace.with_span "negotiation.round" @@ fun () ->
    incr iterations;
    Obs.Metrics.incr m_ripup_rounds;
    let pfac =
      pfac_initial *. Float.pow pfac_growth (float_of_int (!iterations - 1))
    in
    Grid.add_history grid ~increment:history_increment;
    (* victims: unfrozen nets unrouted or crossing overuse, plus the
       last probe's blamed nets *)
    let overused net =
      (not (is_frozen net))
      &&
      match routes.(net) with
      | Some r -> crosses_overuse grid r
      | None -> true
    in
    reroute ~pfac
      (List.sort_uniq Int.compare
         (List.filter overused (List.init n Fun.id) @ !blamed));
    blamed := probe ();
    continue_ :=
      Grid.congested_nodes grid > 0
      || Seq.exists unfrozen_unrouted (Seq.init n Fun.id)
      || !blamed <> []
  done;
  (* the DRC rip-up first drops the nets still sharing grids: a soft
     (pfac-based) reroute may introduce sharing *)
  let drc_reroutes =
    drc_rounds ?tpl ~budget ~is_frozen
      ~drop:(fun () -> drop_overused ~is_frozen grid routes)
      ~reroute:(reroute_phase router ~pfac:4.0)
      layout grid routes ~rounds:2
  in
  let reused =
    Option.fold ~none:0
      ~some:(Array.fold_left (fun k f -> if f then k + 1 else k) 0)
      frozen
  in
  Flow.finish ?tpl ~reused ~grid ~pao ~initial_congestion
    ~ripup_iterations:!iterations
    ~total_reroutes:(!total_reroutes + drc_reroutes)
    ~started ~layout routes
