module I = Geometry.Interval
module Rect = Geometry.Rect
module Design = Netlist.Design
module Pin = Netlist.Pin
module Net = Netlist.Net
module PA = Pinaccess.Pin_access
module AI = Pinaccess.Access_interval
module Grid = Rgrid.Grid
module Route = Rgrid.Route

type warm_policy = Warm_always | Warm_never

let warm_policy_to_string = function
  | Warm_always -> "warm-always"
  | Warm_never -> "warm-never"

type config = {
  pao : PA.config;
  kind : PA.solver_kind;
  warm_policy : warm_policy;
  routing : bool;
}

let default_config =
  {
    pao = PA.default_config;
    kind = PA.Lr;
    warm_policy = Warm_always;
    routing = false;
  }

type step_report = {
  deltas : int;
  dirty_panels : int list;
  panels : int;
  cache_hits : int;
  solved : int;
  warm_started : int;
  frozen_nets : int;
  rerouted_nets : int;
  pao_wall : float;
  route_wall : float;
  objective : float;
}

type t = {
  mutable config : config;
  cache : Panel_cache.t;
  mutable design : Design.t;
  mutable pao : PA.t;
  mutable flow : Router.Flow.t option;
  mutable panel_keys : string array;  (* "" for empty panels *)
  cold_pao_wall : float;
  cold_route_wall : float;
}

type pao_stats = {
  mutable hits : int;
  mutable solved : int;
  mutable warm : int;
}

(* The panel walk of [PA.optimize] with the cache in front.  Clean
   panels (key unchanged) re-serve their stored solution, and so does a
   panel whose key duplicates an earlier miss of the same round.  Only
   the misses go to the walk ([PA.solve_panels]), with each miss's
   previous entry peeked here, on the caller; the walk's task turns it
   into a warm start once the problem is built.  Hits are free: [budget]
   meters the misses alone.  With [Warm_never] the result is
   bit-identical to a from-scratch [PA.optimize], on any pool. *)
let solve_pao_stage ~cache ~(config : config) ~prev_key
    ?(budget = Pinaccess.Budget.unlimited ()) ~pool design stats =
  Obs.Trace.with_span "eco.pao" @@ fun () ->
  let started = Obs.Clock.now () in
  let num_panels = Design.num_panels design in
  let keys = Array.make num_panels "" in
  let hit_entries = Hashtbl.create 16 in (* panel -> entry *)
  let in_flight = Hashtbl.create 16 in (* key -> () *)
  let prev_entries = Hashtbl.create 16 in (* miss panel -> previous entry *)
  let misses_rev = ref [] in
  let key = Panel_cache.key ~config:config.pao ~kind:config.kind in
  for panel = 0 to num_panels - 1 do
    if Design.pins_of_panel design panel <> [] then begin
      let key = key design ~panel in
      keys.(panel) <- key;
      if not (Hashtbl.mem in_flight key) then
        match Panel_cache.find cache key with
        | Some entry ->
          stats.hits <- stats.hits + 1;
          Hashtbl.replace hit_entries panel entry
        | None ->
          stats.solved <- stats.solved + 1;
          if config.warm_policy <> Warm_never then
            Option.iter
              (Hashtbl.replace prev_entries panel)
              (Option.bind (prev_key panel) (Panel_cache.peek cache));
          Hashtbl.replace in_flight key ();
          misses_rev := panel :: !misses_rev
    end
  done;
  (* In the walk's task: [Fault.Worker] is the service layer's injected
     worker-failure point, tripped once per miss so a supervisor above
     can observe a single task dying; then the warm start, from the
     previous entry that [Warm_always] recorded above. *)
  let warm ~panel problem =
    Pinaccess.Fault.trip Pinaccess.Fault.Worker;
    match Hashtbl.find_opt prev_entries panel with
    | Some prev when Array.length prev.Panel_cache.multipliers > 0 ->
      Some (Panel_cache.warm_start_for prev problem)
    | _ -> None
  in
  let keep ~panel problem (s : PA.solved) =
    Panel_cache.entry_of_solution ~problem ~assignments:s.PA.assignments
      ~report:s.PA.report ~multipliers:s.PA.multipliers design ~panel
  in
  let solved =
    PA.solve_panels config.pao ~budget ~pool ~kind:config.kind ~warm ~keep
      design (List.rev !misses_rev)
  in
  (* store fresh entries before accumulation so duplicate-key panels
     can re-serve them *)
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun ((s : PA.solved), entry) ->
      let panel = s.PA.report.PA.panel in
      if s.PA.warm_started then stats.warm <- stats.warm + 1;
      Panel_cache.store cache keys.(panel) entry;
      Hashtbl.replace fresh panel s)
    solved;
  let served panel =
    match Hashtbl.find_opt fresh panel with
    | Some (s : PA.solved) -> (s.PA.assignments, s.PA.report)
    | None ->
      let entry =
        match Hashtbl.find_opt hit_entries panel with
        | Some entry -> entry
        | None -> (
          (* duplicate of a miss solved this round: a fresh lookup,
             counted as the hit a sequential walk would record *)
          stats.hits <- stats.hits + 1;
          match Panel_cache.find cache keys.(panel) with
          | Some entry -> entry
          | None -> assert false (* just stored above *))
      in
      Panel_cache.materialize entry design ~panel
  in
  let pao =
    PA.assemble config.pao ~kind:config.kind design ~started
      (List.filter_map
         (fun panel -> if keys.(panel) = "" then None else Some (served panel))
         (List.init num_panels Fun.id))
  in
  PA.validate pao;
  (pao, keys)

(* Route [design] under [pao] through the one negotiation engine.  With
   [previous] (the design, pin access and flow before an edit, and the
   edit's dirty rects) every route the edit provably did not disturb is
   frozen and only the rest is negotiated around it.  A route is frozen
   iff its net survives by name (unambiguously), was clean, kept the
   same pin shapes and the same per-pin interval assignment, its search
   window stays clear of every dirty rect, and its metal is still
   passable on the new grid. *)
let route (config : config) ~pool ?previous design pao =
  Obs.Trace.with_span "eco.route" @@ fun () ->
  let started = Obs.Clock.now () in
  let grid = Grid.create design in
  let specs = Router.Spec_builder.build grid ~pao:(Some pao) in
  let n = Array.length specs in
  let frozen = Array.make n false in
  let initial = Array.make n None in
  let space = Grid.space grid in
  (match previous with
  | Some (before, (old_pao : PA.t), (old_flow : Router.Flow.t), dirty_rects)
    when Design.width before = Design.width design
         && Design.height before = Design.height design ->
    (* nets correspond by name; an ambiguous (duplicated) name never
       freezes *)
    let old_of_name =
      let tbl = Hashtbl.create 64 and dup = Hashtbl.create 4 in
      Array.iter
        (fun (net : Net.t) ->
          if Hashtbl.mem tbl net.Net.name then Hashtbl.replace dup net.Net.name ()
          else Hashtbl.add tbl net.Net.name net.Net.id)
        (Design.nets before);
      fun name ->
        if Hashtbl.mem dup name then None else Hashtbl.find_opt tbl name
    in
    let shape_list d id =
      Design.net_pins d id
      |> List.map (fun (p : Pin.t) ->
             (p.Pin.x, I.lo p.Pin.tracks, I.hi p.Pin.tracks))
      |> List.sort compare
    in
    (* assigned (track, span) per pin, keyed by physical shape — ids are
       re-densified across rebuilds, shapes are stable and unique *)
    let slot_map (pao : PA.t) =
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun (pid, (iv : AI.t)) ->
          let p = Design.pin pao.PA.design pid in
          Hashtbl.replace tbl
            (p.Pin.x, I.lo p.Pin.tracks, I.hi p.Pin.tracks)
            (iv.AI.track, I.lo iv.AI.span, I.hi iv.AI.span))
        pao.PA.assignments;
      tbl
    in
    let old_slots = slot_map old_pao and new_slots = slot_map pao in
    let new_pin_at = Hashtbl.create 256 in
    Array.iter
      (fun (p : Pin.t) ->
        Hashtbl.replace new_pin_at
          (p.Pin.x, I.lo p.Pin.tracks, I.hi p.Pin.tracks)
          p.Pin.id)
      (Design.pins design);
    (* the window the route was found in, plus slack for spacing and
       line-end interactions reaching past its edge; retry margins are
       irrelevant here — they only widen searches for nets that failed
       to route, and a freeze candidate has a route *)
    let margin = Rgrid.Cost.default.Rgrid.Cost.bbox_margin + 2 in
    let die = Design.die design in
    let claimed = Hashtbl.create 1024 in
    Array.iteri
      (fun nn (spec : Router.Net_router.spec) ->
        match old_of_name (Design.net design nn).Net.name with
        | None -> ()
        | Some on -> (
          match old_flow.Router.Flow.routes.(on) with
          | Some old_route
            when old_flow.Router.Flow.clean.(on)
                 && shape_list before on = shape_list design nn
                 && List.for_all
                      (fun sh ->
                        match
                          ( Hashtbl.find_opt old_slots sh,
                            Hashtbl.find_opt new_slots sh )
                        with
                        | Some a, Some b -> a = b
                        | _ -> false)
                      (shape_list design nn)
                 && not
                      (List.exists
                         (Rect.overlaps
                            (Rect.inflate spec.Router.Net_router.bbox
                               ~by:margin ~within:die))
                         dirty_rects) ->
            let remap_ok = ref true in
            let pin_vias =
              List.map
                (fun (pid, x, y) ->
                  let p = Design.pin before pid in
                  match
                    Hashtbl.find_opt new_pin_at
                      (p.Pin.x, I.lo p.Pin.tracks, I.hi p.Pin.tracks)
                  with
                  | Some np -> (np, x, y)
                  | None ->
                    remap_ok := false;
                    (pid, x, y))
                old_route.Route.pin_vias
            in
            let nodes = old_route.Route.nodes in
            let fits =
              List.for_all
                (fun node ->
                  (not (Grid.blocked grid node))
                  && (let o = Grid.owner grid node in
                      o = -1 || o = nn)
                  &&
                  match Hashtbl.find_opt claimed node with
                  | Some net -> net = nn
                  | None -> true)
                nodes
            in
            if !remap_ok && fits then begin
              List.iter (fun node -> Hashtbl.replace claimed node nn) nodes;
              frozen.(nn) <- true;
              initial.(nn) <- Some (Route.make ~space ~net:nn ~nodes ~pin_vias)
            end
          | _ -> ()))
      specs
  | Some _ | None -> ());
  Router.Negotiation.run ~pool
    (* the PA config is the deck's single source of truth in ECO (it is
       what panel-cache keys digest); the router deck derives from it *)
    ?tpl:
      (Option.map Drc.Tpl.of_params
         config.pao.PA.gen.Pinaccess.Interval_gen.tpl)
    ~frozen ~initial ~pao:(Some pao) ~started grid specs

let route_wall flow =
  Option.fold ~none:0.0 ~some:(fun (f : Router.Flow.t) -> f.Router.Flow.elapsed)
    flow

let create ?(config = default_config) ?budget ?(pool = Exec.sequential)
    design =
  Obs.Trace.with_span "eco.create" @@ fun () ->
  let cache = Panel_cache.create () in
  let stats = { hits = 0; solved = 0; warm = 0 } in
  let pao, panel_keys =
    solve_pao_stage ~cache ~config ~prev_key:(fun _ -> None) ?budget ~pool
      design stats
  in
  let flow =
    if config.routing then Some (route config ~pool design pao) else None
  in
  {
    config;
    cache;
    design;
    pao;
    flow;
    panel_keys;
    cold_pao_wall = pao.PA.elapsed;
    cold_route_wall = route_wall flow;
  }

let apply ?budget ?(pool = Exec.sequential) t deltas =
  Obs.Trace.with_span "eco.apply" @@ fun () ->
  let before = t.design in
  let after, dirty = Dirty.compute ~before deltas in
  let gen =
    List.fold_left Delta.apply_config t.config.pao.PA.gen deltas
  in
  let config = { t.config with pao = { t.config.pao with PA.gen } } in
  let stats = { hits = 0; solved = 0; warm = 0 } in
  let prev_key panel =
    if panel < Array.length t.panel_keys && t.panel_keys.(panel) <> "" then
      Some t.panel_keys.(panel)
    else None
  in
  let pao, panel_keys =
    solve_pao_stage ~cache:t.cache ~config ~prev_key ?budget ~pool after stats
  in
  let flow =
    if not config.routing then None
    else
      let previous =
        Option.map
          (fun old_flow -> (before, t.pao, old_flow, dirty.Dirty.rects))
          t.flow
      in
      Some (route config ~pool ?previous after pao)
  in
  let field f = Option.fold ~none:0 ~some:f flow in
  t.design <- after;
  t.config <- config;
  t.pao <- pao;
  t.flow <- flow;
  t.panel_keys <- panel_keys;
  {
    deltas = List.length deltas;
    dirty_panels = dirty.Dirty.panels;
    panels = stats.hits + stats.solved;
    cache_hits = stats.hits;
    solved = stats.solved;
    warm_started = stats.warm;
    frozen_nets = field (fun f -> f.Router.Flow.reused_routes);
    rerouted_nets = field (fun f -> f.Router.Flow.total_reroutes);
    pao_wall = pao.PA.elapsed;
    route_wall = route_wall flow;
    objective = pao.PA.objective;
  }

let design t = t.design
let pao t = t.pao
let flow t = t.flow
let gen_config t = t.config.pao.PA.gen
let cache_hit_rate t = Panel_cache.hit_rate t.cache
let cache_size t = Panel_cache.size t.cache
let cold_pao_wall t = t.cold_pao_wall
let cold_route_wall t = t.cold_route_wall
