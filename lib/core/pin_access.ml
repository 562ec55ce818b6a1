type solver_kind = Ilp | Lr

type tier = Tier_ilp | Tier_lr | Tier_minimum

type config = { gen : Interval_gen.config; lr : Lagrangian.config }

let default_config =
  { gen = Interval_gen.default_config; lr = Lagrangian.default_config }

type panel_report = {
  panel : int;
  pins : int;
  intervals : int;
  cliques : int;
  objective : float;
  lr_iterations : int;
  proven_optimal : bool;
  served_by : tier;
  degraded : bool;
}

type tpl_coloring = {
  tpl_params : Solver.Color_graph.params;
  features : (int * int * int * int) array;
  colors : Solver.Color_graph.assignment array;
  tpl_stitches : int;
  tpl_residual : int;
}

type solved = {
  assignments : (Netlist.Pin.id * Access_interval.t) list;
  report : panel_report;
  multipliers : float array;
  warm_started : bool;
}

type t = {
  design : Netlist.Design.t;
  kind : solver_kind;
  assignments : (Netlist.Pin.id * Access_interval.t) list;
  objective : float;
  reports : panel_report list;
  degraded : bool;
  elapsed : float;
  tpl : tpl_coloring option;
}

let solver_kind_to_string = function Ilp -> "ILP" | Lr -> "LR"

(* which rung of the degradation ladder actually served each panel *)
let m_tier_ilp = Obs.Metrics.counter "pao.tier.ilp"
let m_tier_lr = Obs.Metrics.counter "pao.tier.lr"
let m_tier_minimum = Obs.Metrics.counter "pao.tier.minimum"
let m_degraded = Obs.Metrics.counter "pao.degraded_panels"

let tier_counter = function
  | Tier_ilp -> m_tier_ilp
  | Tier_lr -> m_tier_lr
  | Tier_minimum -> m_tier_minimum

let tier_to_string = function
  | Tier_ilp -> "ILP"
  | Tier_lr -> "LR"
  | Tier_minimum -> "MIN"

let tier_of_kind = function Ilp -> Tier_ilp | Lr -> Tier_lr

(* Theorem 1: every pin's minimum interval exists and minimum intervals
   are pairwise disjoint, so this assignment is always feasible — the
   ladder's unconditional last rung. *)
let minimum_solution (problem : Problem.t) =
  let assignment =
    Array.init (Problem.num_pins problem) (fun slot ->
        Problem.minimum_interval problem ~slot)
  in
  Solution.make problem ~assignment

(* One tier attempt: (solution, lr_iterations, complete, tier) where
   [complete] means the tier ran to its own finish rather than being
   cut short by the budget.  [lr_run] receives the LR solve of
   [problem] that seeds the incumbent. *)
let ilp_tier config ~budget ~lr_run (problem : Problem.t) =
  Obs.Trace.with_span "pao.tier.ilp" @@ fun () ->
  Fault.trip Fault.Ilp;
  (* the LR solution seeds the incumbent *)
  let lr_of p =
    match Lagrangian.solve ~config:config.lr ~budget p with
    | lr -> Some lr
    | exception e when Cpr_error.recoverable e -> None
  in
  let solve p lr =
    let warm_start =
      match lr with
      | Some lr when Solution.is_conflict_free lr.Lagrangian.solution ->
        Some lr.Lagrangian.solution
      | Some _ | None -> None
    in
    Ilp.solve ~budget ?warm_start p
  in
  let r =
    let lr = lr_of problem in
    lr_run := lr;
    try solve problem lr
    with Solver.Milp.Infeasible _ ->
      (* the design-rule clearance can make strict feasibility
         impossible (adjacent same-track pins); fall back to the
         paper's original conflict relation for this instance *)
      let relaxed =
        { problem.Problem.config with Interval_gen.clearance = 0; tpl = None }
      in
      let problem0 =
        Problem.of_intervals relaxed problem.Problem.design
          problem.Problem.intervals
      in
      solve problem0 (lr_of problem0)
  in
  (r.Ilp.solution, 0, r.Ilp.proven_optimal, Tier_ilp)

(* [solved]: this very solve, already run (and metered) by the ILP
   tier, which the rung serves instead of repeating it *)
let lr_tier ?warm_start ?solved config ~budget (problem : Problem.t) =
  Obs.Trace.with_span "pao.tier.lr" @@ fun () ->
  Fault.trip Fault.Lr;
  let r =
    match solved with
    | Some r -> r
    | None -> Lagrangian.solve ~config:config.lr ~budget ?warm_start problem
  in
  (r.Lagrangian.solution, r.Lagrangian.iterations,
   not r.Lagrangian.budget_expired, Tier_lr, r.Lagrangian.multipliers)

let minimum_tier (problem : Problem.t) =
  (minimum_solution problem, 0, true, Tier_minimum, [||])

let solve_problem ?warm_start config ~budget kind ~panel
    (problem : Problem.t) =
  Obs.Trace.with_span "pao.panel" @@ fun () ->
  let tiers =
    if Budget.exhausted budget then [ fun _ -> minimum_tier problem ]
    else
      match kind with
      | Ilp ->
        let lr_run = ref None in
        [
          (fun () ->
            let s, it, c, t = ilp_tier config ~budget ~lr_run problem in
            (s, it, c, t, [||]));
          (fun () ->
            (* without an ECO warm start the LR rung would repeat the
               ILP tier's seeding solve exactly *)
            let solved = if warm_start = None then !lr_run else None in
            lr_tier ?warm_start ?solved config ~budget problem);
          (fun _ -> minimum_tier problem);
        ]
      | Lr ->
        [
          (fun () -> lr_tier ?warm_start config ~budget problem);
          (fun _ -> minimum_tier problem);
        ]
  in
  let rec attempt = function
    | [] -> assert false
    | [ last ] -> last () (* last rung: typed errors propagate *)
    | f :: rest ->
      (try f () with e when Cpr_error.recoverable e -> attempt rest)
  in
  let solution, lr_iterations, complete, served_by, multipliers =
    attempt tiers
  in
  Obs.Metrics.incr (tier_counter served_by);
  if served_by <> tier_of_kind kind || not complete then
    Obs.Metrics.incr m_degraded;
  let report =
    {
      panel;
      pins = Problem.num_pins problem;
      intervals = Problem.num_intervals problem;
      cliques = Problem.num_cliques problem;
      objective = Solution.objective solution;
      lr_iterations;
      proven_optimal = complete;
      served_by;
      degraded = served_by <> tier_of_kind kind || not complete;
    }
  in
  let assignments =
    Array.to_list
      (Array.mapi
         (fun slot id ->
           (problem.Problem.pin_ids.(slot), problem.Problem.intervals.(id)))
         solution.Solution.assignment)
  in
  { assignments; report; multipliers; warm_started = warm_start <> None }

(* The one panel walk (panels are independent subproblems, Sec. 3.4).
   [jobs] are the live panels in ascending order, each with the
   builder of its problem.  [Fanout.run] fans them out with isolated
   equal slices of the budget and merges them back in panel order.
   Each task builds its own problem, so no more problems are resident
   than are being solved.  [warm] runs in the task once the problem is
   built and returns the LR warm start; [keep] packages whatever else
   the caller needs from the problem before it is dropped. *)
let walk ~pool ~budget config kind ~warm ~keep jobs =
  Fanout.run ~pool ~budget
    (fun ~budget (panel, build) ->
      let problem = build () in
      let warm_start = warm ~panel problem in
      let s = solve_problem ?warm_start config ~budget kind ~panel problem in
      (s, keep ~panel problem s))
    jobs
  |> Array.to_list

(* Global TPL coloring pass: one deterministic greedy coloring over the
   distinct selected intervals of the whole design, run after the panel
   merge.  Being global, it sees cross-panel color conflicts no
   per-panel solver can, and its input — features canonically sorted by
   (track, lo, hi, net) — does not depend on panel solve order, so
   [~j:n] colorings are bit-identical to [~j:1]. *)
let color_assignments params assignments =
  let module I = Geometry.Interval in
  let table = Hashtbl.create 256 in
  List.iter
    (fun ((_ : Netlist.Pin.id), (iv : Access_interval.t)) ->
      Hashtbl.replace table (iv.track, I.lo iv.span, I.hi iv.span, iv.net) ())
    assignments;
  let features =
    Hashtbl.fold (fun key () acc -> key :: acc) table []
    |> List.sort compare |> Array.of_list
  in
  let feats =
    Array.map
      (fun (track, lo, hi, _net) -> Solver.Color_graph.feature ~track ~lo ~hi)
      features
  in
  let c = Solver.Color_graph.color params feats in
  {
    tpl_params = params;
    features;
    colors = c.Solver.Color_graph.assignment;
    tpl_stitches = c.Solver.Color_graph.stitches;
    tpl_residual = c.Solver.Color_graph.residual;
  }

let assemble config ~kind design ~started panels =
  let assignments = List.concat_map fst panels in
  let reports = List.map snd panels in
  {
    design;
    kind;
    assignments;
    objective =
      List.fold_left (fun acc (r : panel_report) -> acc +. r.objective) 0.0
        reports;
    reports;
    degraded = List.exists (fun (r : panel_report) -> r.degraded) reports;
    elapsed = Obs.Clock.now () -. started;
    tpl =
      Option.map
        (fun params -> color_assignments params assignments)
        config.gen.Interval_gen.tpl;
  }

let build_panel config design ~panel =
  try Problem.build_panel config.gen design ~panel
  with Interval_gen.Pin_unreachable pid ->
    Cpr_error.infeasible ~panel
      "pin %d unreachable: its primary track is blocked" pid

let panel_jobs config design panels =
  Array.of_list
    (List.map
       (fun panel -> (panel, fun () -> build_panel config design ~panel))
       panels)

let solve_panels config ~budget ~pool ~kind ~warm ~keep design panels =
  walk ~pool ~budget config kind ~warm ~keep (panel_jobs config design panels)

(* [optimize] and [optimize_combined]: one walk, timed and assembled *)
let run config ?(budget = Budget.unlimited ()) ?(j = 1) ~kind design jobs =
  Obs.Trace.with_span "pao.optimize" @@ fun () ->
  let started = Obs.Clock.now () in
  walk ~pool:(Exec.shared ~domains:j) ~budget config kind
    ~warm:(fun ~panel:_ _ -> None)
    ~keep:(fun ~panel:_ _ _ -> ())
    jobs
  |> List.map (fun ((s : solved), ()) -> (s.assignments, s.report))
  |> assemble config ~kind design ~started

let optimize ?(config = default_config) ?budget ?j ?stream:_ ~kind design =
  List.init (Netlist.Design.num_panels design) Fun.id
  |> List.filter (fun panel -> Netlist.Design.pins_of_panel design panel <> [])
  |> panel_jobs config design
  |> run config ?budget ?j ~kind design

let optimize_combined ?(config = default_config) ?budget ~kind design ~panels =
  let build () =
    try Problem.build_panels config.gen design ~panels
    with Interval_gen.Pin_unreachable pid ->
      Cpr_error.infeasible "pin %d unreachable: its primary track is blocked"
        pid
  in
  let live =
    List.exists
      (fun panel -> Netlist.Design.pins_of_panel design panel <> [])
      panels
  in
  run config ?budget ~kind design (if live then [| (-1, build) |] else [||])

let interval_of_pin t pid =
  List.assoc_opt pid t.assignments

let validate ?(complete = true) t =
  let fail fmt =
    Printf.ksprintf
      (fun reason ->
        Cpr_error.solver_failure ~solver:"pin_access" "validate: %s" reason)
      fmt
  in
  let design = t.design in
  let num_pins = Array.length (Netlist.Design.pins design) in
  let seen = Array.make num_pins false in
  List.iter
    (fun (pid, iv) ->
      if seen.(pid) then fail "pin %d assigned twice" pid;
      seen.(pid) <- true;
      if not (Access_interval.serves iv pid) then
        fail "interval does not serve pin %d" pid)
    t.assignments;
  if complete then
    Array.iteri
      (fun pid assigned -> if not assigned then fail "pin %d unassigned" pid)
      seen;
  (* no overlap among assigned intervals of different nets (Problem 1) *)
  let distinct =
    List.sort_uniq
      (fun (a : Access_interval.t) b -> Int.compare a.id b.id)
      (List.map snd t.assignments)
  in
  let by_track = Hashtbl.create 64 in
  List.iter
    (fun (iv : Access_interval.t) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt by_track iv.track)
      in
      Hashtbl.replace by_track iv.track (iv :: cur))
    distinct;
  Hashtbl.iter
    (fun _track ivs ->
      let arr = Array.of_list ivs in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = arr.(i) and b = arr.(j) in
          if
            a.Access_interval.net <> b.Access_interval.net
            && Access_interval.overlaps a b
          then
            fail "different-net intervals overlap on track %d"
              a.Access_interval.track
        done
      done)
    by_track
