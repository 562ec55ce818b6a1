module Design = Netlist.Design
module Net = Netlist.Net
module Pin = Netlist.Pin
module PA = Pinaccess.Pin_access
module Problem = Pinaccess.Problem
module Solution = Pinaccess.Solution
module Generator = Workloads.Generator
module Rng = Workloads.Rng

type config = {
  iterations : int;
  seed : int64;
  tolerance : float;
  max_nets : int;
  ilp : bool;
  routing : bool;
  parallel : bool;
  shrink_rounds : int;
  eco : bool;
  tpl : int option;
}

let default_config =
  {
    iterations = 200;
    seed = 0xC0FFEEL;
    tolerance = 1e-6;
    max_nets = 24;
    ilp = true;
    routing = true;
    parallel = true;
    shrink_rounds = 80;
    eco = true;
    tpl = None;
  }

type failure = {
  case : int;
  case_seed : int64;
  reason : string;
  shrunk_reason : string;
  design : Netlist.Design.t;
  deltas : Eco.Delta.t list list;
  shrink_steps : int;
}

type outcome = {
  cases : int;
  skipped : int;
  outgrown : int;
  failure : failure option;
}

let scale tolerance a b =
  tolerance *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* One invariant: run [f], turn a certificate rejection or an escaped
   solver exception into a named failure. *)
let invariant name f =
  match f () with
  | Ok v -> Ok v
  | Error detail -> Error (Printf.sprintf "%s: %s" name detail)
  | exception e -> Error (Printf.sprintf "%s: exception %s" name (Printexc.to_string e))

let ( let* ) = Result.bind

let of_cert = function
  | Ok () -> Ok ()
  | Error r -> Error (Certificate.reason_to_string r)

(* Certify each live panel's minimum-tier assignment and its bare
   (conflict-free) LR solution against the panel's solver-independent
   upper bound; the result is the sum of those bounds over the design. *)
let check_panels config design =
  let gen = PA.default_config.PA.gen in
  let rec go panel ub =
    if panel = Design.num_panels design then Ok ub
    else
      let problem = Problem.build_panel gen design ~panel in
      if Problem.num_pins problem = 0 then go (panel + 1) ub
      else begin
        let bound = Certificate.upper_bound problem in
        let check name sol =
          Certificate.certify ~tolerance:config.tolerance
            (Certificate.of_solution ~dual_bound:bound sol)
          |> Result.map_error (fun r ->
                 Printf.sprintf "panel %d %s: %s" panel name
                   (Certificate.reason_to_string r))
        in
        (* the ladder's last rung: Theorem 1 says shrinking every pin
           to its minimum interval is always feasible — certify it *)
        let minimum =
          Solution.make problem
            ~assignment:
              (Array.init (Problem.num_pins problem) (fun slot ->
                   Problem.minimum_interval problem ~slot))
        in
        let* () = check "minimum-tier" minimum in
        let lr = Pinaccess.Lagrangian.solve problem in
        let* () =
          if Solution.is_conflict_free lr.Pinaccess.Lagrangian.solution then
            check "LR" lr.Pinaccess.Lagrangian.solution
          else Ok ()
        in
        go (panel + 1) (ub +. bound)
      end
  in
  go 0 0.0

(* the engine in bit-identity mode, routing whenever the campaign
   routes, so the differential also audits every incremental flow *)
let eco_config config =
  {
    Eco.Engine.default_config with
    warm_policy = Eco.Engine.Warm_never;
    routing = config.routing;
  }

(* The case's delta stream derives from the design text, so it
   regenerates identically for the original design and for every
   candidate the shrinker proposes. *)
let eco_stream design =
  Workloads.Eco_stream.random
    ~seed:(Eco_audit.stream_seed design)
    ~steps:3 ~edits_per_step:2 design

(* The flat DRC kernel against the reference: the same violations in
   the same order, with the same report text. *)
let drc_matches_reference ~tolerate_shorts ~what design routes =
  let rules = Drc.Rules.default in
  let kernel =
    Drc.Check.run rules (Drc.Extract.of_routes ~tolerate_shorts design routes)
  in
  let reference =
    Drc_reference.check rules
      (Drc_reference.of_routes ~tolerate_shorts design routes)
  in
  let rec first i = function
    | v :: vs, (r, text) :: rs ->
      if v <> r then Error (Printf.sprintf "%s: violation %d differs" what i)
      else if Drc.Check.where v <> text then
        Error
          (Printf.sprintf "%s: violation %d reads %S, reference %S" what i
             (Drc.Check.where v) text)
      else first (i + 1) (vs, rs)
    | [], [] -> Ok ()
    | _ ->
      Error
        (Printf.sprintf "%s: kernel found %d violations, reference %d" what
           (List.length kernel) (List.length reference))
  in
  first 0 (kernel, reference)

let check_design config design =
  let* lr =
    invariant "lr-optimize" (fun () ->
        let lr = PA.optimize ~kind:PA.Lr design in
        PA.validate lr;
        let* () =
          of_cert (Certificate.certify_pin_access ~tolerance:config.tolerance lr)
        in
        Ok lr)
  in
  let* ub = invariant "panel-certificates" (fun () -> check_panels config design) in
  (* the quality sandwich: the whole-design LR objective never beats
     the summed per-panel bounds that no solver computed *)
  let* () =
    invariant "lr-sandwich" (fun () ->
        if lr.PA.objective > ub +. scale config.tolerance lr.PA.objective ub
        then
          Error
            (Printf.sprintf "LR objective %.6f above certified upper bound %.6f"
               lr.PA.objective ub)
        else Ok ())
  in
  let* () =
    if not config.ilp then Ok ()
    else
      invariant "ilp-vs-lr" (fun () ->
          (* a deterministic node budget: the comparison is skipped
             (never failed) when it expires before optimality *)
          let budget = Pinaccess.Budget.start ~work_units:200_000 () in
          let ilp = PA.optimize ~budget ~kind:PA.Ilp design in
          PA.validate ilp;
          let* () = of_cert (Certificate.certify_pin_access ~tolerance:config.tolerance ilp) in
          (* the sandwich only binds when every panel was served by the
             exact solver running to proven optimality *)
          if ilp.PA.degraded then Ok ()
          else if
            ilp.PA.objective
            < lr.PA.objective -. scale config.tolerance ilp.PA.objective lr.PA.objective
          then
            Error
              (Printf.sprintf
                 "proven-optimal ILP objective %.6f below LR feasible %.6f"
                 ilp.PA.objective lr.PA.objective)
          else Ok ())
  in
  let* () =
    if not config.parallel then Ok ()
    else
      invariant "parallel-determinism" (fun () ->
          let par = PA.optimize ~kind:PA.Lr ~j:2 design in
          if par.PA.objective <> lr.PA.objective then
            Error
              (Printf.sprintf "objective diverged: seq %.9f, -j2 %.9f"
                 lr.PA.objective par.PA.objective)
          else if par.PA.reports <> lr.PA.reports then
            Error "panel reports diverged"
          else if par.PA.assignments <> lr.PA.assignments then
            Error "assignments diverged"
          else Ok ())
  in
  let* () =
    if not config.routing then Ok ()
    else
      let audit name route =
        invariant name (fun () ->
            let flow = route () in
            match Flow_audit.run flow with
            | [] -> Ok flow
            | i :: _ -> Error (Flow_audit.issue_to_string i))
      in
      let* cpr = audit "cpr-flow" (fun () -> Router.Cpr.run design) in
      let* () =
        if not config.parallel then Ok ()
        else
          (* Routing on two domains must reproduce the sequential flow.
             The default first window almost always holds the path on
             designs this small, so the check also runs with a one-grid
             first window, where searches outgrow it and are redone in
             order. *)
          let same name (seq : Router.Flow.t) (par : Router.Flow.t) =
            let open Router.Flow in
            if par.routes <> seq.routes then Error (name ^ ": routes diverged")
            else if par.clean <> seq.clean then
              Error (name ^ ": clean verdicts diverged")
            else if par.total_reroutes <> seq.total_reroutes then
              Error
                (Printf.sprintf "%s: reroutes diverged: seq %d, -j2 %d" name
                   seq.total_reroutes par.total_reroutes)
            else if par.violations <> seq.violations then
              Error (name ^ ": violations diverged")
            else Ok ()
          in
          let narrow =
            {
              Router.Cpr.default_config with
              cost = { Rgrid.Cost.default with bbox_margin = 1 };
            }
          in
          invariant "routed-parallel-determinism" (fun () ->
              let* () =
                same "-j 2" cpr
                  (Router.Cpr.run
                     ~config:{ Router.Cpr.default_config with jobs = 2 }
                     design)
              in
              same "-j 2, one-grid window"
                (Router.Cpr.run ~config:narrow design)
                (Router.Cpr.run ~config:{ narrow with jobs = 2 } design))
      in
      let* seq =
        audit "sequential-flow" (fun () -> Router.Sequential.run design)
      in
      (* the final metal is short-free; the two flows' metal overlaid
         (even nets from CPR, odd from the sequential flow) shorts, so
         it is extracted tolerantly, as a rip-up probe would *)
      invariant "drc-reference" (fun () ->
          let* () =
            drc_matches_reference ~tolerate_shorts:false ~what:"final CPR metal"
              design cpr.Router.Flow.routes
          in
          drc_matches_reference ~tolerate_shorts:true
            ~what:"CPR/sequential overlay" design
            (Array.mapi
               (fun net route ->
                 if net mod 2 = 0 then route else seq.Router.Flow.routes.(net))
               cpr.Router.Flow.routes))
  in
  let* () =
    if not config.eco then Ok ()
    else
      invariant "eco-differential" (fun () ->
          Eco_audit.check ~tolerance:config.tolerance
            ~config:(eco_config config) design (eco_stream design))
  in
  let* () =
    match config.tpl with
    | None -> Ok ()
    | Some colors ->
      (* the TPL campaign: rerun the whole ladder under a color deck and
         hold it to the same certificates, now including the coloring *)
      let deck = Drc.Tpl.make ~colors () in
      let pa_config =
        {
          PA.default_config with
          PA.gen =
            {
              PA.default_config.PA.gen with
              Pinaccess.Interval_gen.tpl = Some (Drc.Tpl.params deck);
            };
        }
      in
      let* tpl_lr =
        invariant "tpl-lr" (fun () ->
            let r = PA.optimize ~config:pa_config ~kind:PA.Lr design in
            PA.validate r;
            let* () =
              of_cert (Certificate.certify_pin_access ~tolerance:config.tolerance r)
            in
            match r.PA.tpl with
            | None -> Error "no coloring attached despite a TPL deck"
            | Some _ -> Ok r)
      in
      let* () =
        if not config.parallel then Ok ()
        else
          invariant "tpl-parallel-determinism" (fun () ->
              let par = PA.optimize ~config:pa_config ~kind:PA.Lr ~j:2 design in
              if par.PA.assignments <> tpl_lr.PA.assignments then
                Error "assignments diverged under TPL"
              else if par.PA.tpl <> tpl_lr.PA.tpl then
                Error "colorings diverged under TPL"
              else Ok ())
      in
      if not config.routing then Ok ()
      else
        invariant "tpl-flow" (fun () ->
            let rc = { Router.Cpr.default_config with Router.Cpr.tpl = Some deck } in
            match Flow_audit.run (Router.Cpr.run ~config:rc design) with
            | [] -> Ok ()
            | i :: _ -> Error (Flow_audit.issue_to_string i))
  in
  Ok ()

(* ----------------------------------------------------------------- *)
(* Shrinking                                                          *)
(* ----------------------------------------------------------------- *)

(* Rebuild a sub-design of [design] keeping only [nets] (re-densifying
   ids through the Builder) and [blockages]. *)
let rebuild design ~nets ~blockages =
  let specs =
    List.map
      (fun (net : Net.t) ->
        ( net.Net.name,
          List.map
            (fun (p : Pin.t) ->
              { Netlist.Builder.x = p.Pin.x; tracks = p.Pin.tracks })
            (Design.net_pins design net.Net.id) ))
      nets
  in
  Netlist.Builder.design ~name:(Design.name design) ~width:(Design.width design)
    ~height:(Design.height design) ~row_height:(Design.row_height design)
    ~nets:specs ~blockages ()

let shrink config design =
  let evals = ref config.shrink_rounds in
  let fails d =
    !evals > 0
    && begin
         decr evals;
         Result.is_error (check_design config d)
       end
  in
  if not (fails design) then (design, 0)
  else begin
    let fails_with nets blockages =
      match rebuild design ~nets ~blockages with
      | d -> fails d
      | exception _ -> false
    in
    (* ddmin over the net list *)
    let nets, net_steps =
      Ddmin.reduce
        (fun nets -> fails_with nets (Design.blockages design))
        (Array.to_list (Design.nets design))
    in
    let steps = ref net_steps in
    let blockages = ref (Design.blockages design) in
    let adopt keep =
      fails_with nets keep
      && begin
           incr steps;
           blockages := keep;
           true
         end
    in
    (* then the blockages: all at once, else one at a time *)
    if !blockages <> [] && not (adopt []) then
      List.iter
        (fun b ->
          let keep = List.filter (fun b' -> b' != b) !blockages in
          ignore (adopt keep : bool))
        !blockages;
    (rebuild design ~nets ~blockages:!blockages, !steps)
  end

let m_outgrown = Obs.Metrics.counter "exec.route_outgrown"

let run ?(progress = fun _ -> ()) config =
  let rng = Rng.create config.seed in
  let outgrown = ref 0 in
  let rec go case skipped =
    if case > config.iterations then
      {
        cases = config.iterations;
        skipped;
        outgrown = !outgrown;
        failure = None;
      }
    else begin
      let case_seed = Rng.next rng in
      let params =
        Generator.random_params ~max_nets:config.max_nets ~seed:case_seed ()
      in
      match Generator.generate params with
      | exception Invalid_argument _ ->
        (* the die could not host the drawn pin count — not a solver
           defect, just an infertile case *)
        progress case;
        go (case + 1) (skipped + 1)
      | design ->
        let before = Obs.Metrics.value m_outgrown in
        (match check_design config design with
        | Ok () ->
          if Obs.Metrics.value m_outgrown > before then incr outgrown;
          progress case;
          go (case + 1) skipped
        | Error reason ->
          let shrunk, shrink_steps = shrink config design in
          let shrunk_reason =
            match check_design config shrunk with
            | Error r -> r
            | Ok () -> reason
          in
          (* when the surviving violation is the ECO differential, also
             ddmin the delta stream so the repro is (design, deltas) *)
          let deltas, delta_steps =
            if
              config.eco
              && String.starts_with ~prefix:"eco-differential" shrunk_reason
            then
              Eco_audit.shrink_stream ~tolerance:config.tolerance
                ~config:(eco_config config) ~rounds:config.shrink_rounds
                shrunk (eco_stream shrunk)
            else ([], 0)
          in
          {
            cases = case;
            skipped;
            outgrown = !outgrown;
            failure =
              Some
                {
                  case;
                  case_seed;
                  reason;
                  shrunk_reason;
                  design = shrunk;
                  deltas;
                  shrink_steps = shrink_steps + delta_steps;
                };
          })
    end
  in
  go 1 0
