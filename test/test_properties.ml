(* Randomized whole-pipeline properties on small generated instances:
   the invariants that must hold for *any* valid input, not just the
   curated examples. *)

module B = Netlist.Builder
module Design = Netlist.Design
module Node = Rgrid.Node
module Layer = Rgrid.Layer
module PA = Pinaccess.Pin_access


(* random small designs: 1-2 rows, pins on distinct (x, zone) slots *)
let design_gen =
  QCheck.Gen.(
    let* rows = int_range 1 2 in
    let* width = int_range 12 30 in
    let* nnets = int_range 1 6 in
    let* raw =
      list_repeat (nnets * 2)
        (let* x = int_range 0 (width - 1) in
         let* zone = int_range 0 1 in
         let* h = int_range 1 3 in
         let* row = int_range 0 (rows - 1) in
         return (x, zone, h, row))
    in
    (* dedupe by (x, zone, row) to keep pin shapes disjoint *)
    let seen = Hashtbl.create 16 in
    let sites =
      List.filter
        (fun (x, zone, _, row) ->
          if Hashtbl.mem seen (x, zone, row) then false
          else begin
            Hashtbl.add seen (x, zone, row) ();
            true
          end)
        raw
    in
    let specs =
      List.map
        (fun (x, zone, h, row) ->
          let base = (row * 10) + if zone = 0 then 1 else 6 in
          let h = min h (if zone = 0 then 4 else 3) in
          B.pin_span x ~lo:base ~hi:(base + h - 1))
        sites
    in
    (* pair pins into 2-pin nets; odd one out becomes a 1-pin net *)
    let rec pair = function
      | a :: b :: rest -> [ a; b ] :: pair rest
      | [ a ] -> [ [ a ] ]
      | [] -> []
    in
    let nets =
      List.mapi (fun i pins -> (Printf.sprintf "n%d" i, pins)) (pair specs)
    in
    if nets = [] then return None
    else return (Some (width, rows * 10, nets)))

let arbitrary_design =
  QCheck.make ~print:(fun _ -> "<design>") design_gen

let build (width, height, nets) = B.design ~width ~height ~nets ()

let prop_pao_valid kind name =
  QCheck.Test.make ~name ~count:60 arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let pao = PA.optimize ~kind d in
        (match PA.validate pao with
        | () -> true
        | exception Pinaccess.Cpr_error.Error _ -> false))

(* Theorem 1 made executable: with both optimizing tiers killed, the
   shrink-to-minimum rung must still produce a complete conflict-free
   assignment on ANY valid design — the ladder's unconditional floor. *)
let prop_minimum_fallback_valid =
  QCheck.Test.make ~name:"minimum-tier fallback always valid" ~count:60
    arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let pao =
          Pinaccess.Fault.with_failures
            [ Pinaccess.Fault.Ilp; Pinaccess.Fault.Lr ]
            (fun () -> PA.optimize ~kind:PA.Ilp d)
        in
        (match PA.validate pao with
        | () ->
          pao.PA.degraded
          && List.for_all
               (fun (r : PA.panel_report) ->
                 r.PA.served_by = PA.Tier_minimum && r.PA.degraded)
               pao.PA.reports
        | exception Pinaccess.Cpr_error.Error _ -> false))

(* save → load reproduces the design exactly (pins, nets, blockages) *)
let prop_design_io_roundtrip =
  QCheck.Test.make ~name:"design_io roundtrip" ~count:60 arbitrary_design
    (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let d' = Netlist.Design_io.of_string (Netlist.Design_io.to_string d) in
        Netlist.Design_io.to_string d = Netlist.Design_io.to_string d'
        && Array.length (Design.pins d) = Array.length (Design.pins d')
        && Array.length (Design.nets d) = Array.length (Design.nets d'))

let prop_lr_le_ilp =
  (* only comparable when the LR solution is feasible: with residual
     clearance conflicts its objective counts intervals the exact
     solver would forbid *)
  QCheck.Test.make ~name:"feasible LR objective <= ILP objective" ~count:40
    arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let cfg = Pinaccess.Interval_gen.default_config in
        let ok = ref true in
        for panel = 0 to Netlist.Design.num_panels d - 1 do
          let problem = Pinaccess.Problem.build_panel cfg d ~panel in
          if Pinaccess.Problem.num_pins problem > 0 then begin
            let lr = Pinaccess.Lagrangian.solve problem in
            let sol = lr.Pinaccess.Lagrangian.solution in
            if Pinaccess.Solution.is_conflict_free sol then begin
              match
                Pinaccess.Ilp.solve
                  ~budget:(Pinaccess.Budget.start ~seconds:10.0 ())
                  ~warm_start:sol problem
              with
              | ilp ->
                if
                  Pinaccess.Solution.objective sol
                  > ilp.Pinaccess.Ilp.objective +. 1e-6
                then ok := false
              | exception Solver.Milp.Infeasible _ -> ()
            end
          end
        done;
        !ok)

let prop_cpr_flow_sound =
  QCheck.Test.make ~name:"CPR flow invariants on random designs" ~count:30
    arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let flow = Router.Cpr.run d in
        (* clean nets verified electrically; final metal short-free *)
        Router.Verify.check_flow flow = []
        &&
        let owner = Hashtbl.create 64 in
        Array.for_all
          (fun route ->
            match route with
            | None -> true
            | Some (r : Rgrid.Route.t) ->
              List.for_all
                (fun node ->
                  match Hashtbl.find_opt owner node with
                  | Some other when other <> r.Rgrid.Route.net -> false
                  | Some _ | None ->
                    Hashtbl.replace owner node r.Rgrid.Route.net;
                    true)
                r.Rgrid.Route.nodes)
          flow.Router.Flow.routes)

let prop_determinism =
  QCheck.Test.make ~name:"flows are deterministic" ~count:15 arbitrary_design
    (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d1 = build spec and d2 = build spec in
        let s1 = Metrics.Eval.of_flow (Router.Cpr.run d1) in
        let s2 = Metrics.Eval.of_flow (Router.Cpr.run d2) in
        s1.Metrics.Eval.routed_nets = s2.Metrics.Eval.routed_nets
        && s1.Metrics.Eval.via_count = s2.Metrics.Eval.via_count
        && s1.Metrics.Eval.wirelength = s2.Metrics.Eval.wirelength)

(* unidirectionality of final metal: M2 segments never span tracks,
   M3 segments never span columns (guaranteed by Route.segments
   grouping, re-checked here from raw nodes) *)
let prop_unidirectional =
  QCheck.Test.make ~name:"final metal is unidirectional" ~count:30
    arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let space = Node.space_of_design d in
        let flow = Router.Baseline_ncr.run d in
        Array.for_all
          (fun route ->
            match route with
            | None -> true
            | Some (r : Rgrid.Route.t) ->
              List.for_all
                (fun (seg : Rgrid.Route.seg) ->
                  ignore space;
                  match seg.Rgrid.Route.layer with
                  | Layer.M2 | Layer.M3 -> true
                  | Layer.M1 -> false)
                (Rgrid.Route.segments r))
          flow.Router.Flow.routes)

(* ------------------------------------------------------------------ *)
(* TPL (color-constrained) properties                                  *)
(* ------------------------------------------------------------------ *)

let tpl_config colors =
  {
    PA.default_config with
    PA.gen =
      {
        PA.default_config.PA.gen with
        Pinaccess.Interval_gen.tpl = Some (Solver.Color_graph.default ~colors);
      };
  }

(* a TPL run's result still certifies against the audit layer, and the
   attached coloring re-verifies against the deck from its own raw
   feature geometry — the audit-legality of satellite (e) *)
let prop_tpl_coloring_certified =
  QCheck.Test.make ~name:"TPL coloring certifies and re-verifies" ~count:40
    arbitrary_design (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let r = PA.optimize ~config:(tpl_config 3) ~kind:PA.Lr d in
        PA.validate r;
        (match Audit.certify_pin_access r with
        | Error _ -> false
        | Ok () -> (
          match r.PA.tpl with
          | None -> false
          | Some c ->
            let feats =
              Array.map
                (fun (track, lo, hi, _net) ->
                  Solver.Color_graph.feature ~track ~lo ~hi)
                c.PA.features
            in
            Solver.Color_graph.verify c.PA.tpl_params feats c.PA.colors
            = Ok ())))

(* parallel panel solves merge into the same global coloring *)
let prop_tpl_parallel_identical =
  QCheck.Test.make ~name:"-j2 = -j1 under TPL" ~count:30 arbitrary_design
    (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let config = tpl_config 3 in
        let seq = PA.optimize ~config ~kind:PA.Lr ~j:1 d in
        let par = PA.optimize ~config ~kind:PA.Lr ~j:2 d in
        seq.PA.assignments = par.PA.assignments
        && seq.PA.objective = par.PA.objective
        && seq.PA.reports = par.PA.reports
        && seq.PA.tpl = par.PA.tpl)

(* with the deck off, nothing TPL-shaped leaks into the result, and a
   TPL run in between leaves no hidden state behind *)
let prop_tpl_off_bit_identical =
  QCheck.Test.make ~name:"TPL off is bit-identical" ~count:30 arbitrary_design
    (fun input ->
      match input with
      | None -> true
      | Some spec ->
        let d = build spec in
        let before = PA.optimize ~kind:PA.Lr d in
        let tpl_run = PA.optimize ~config:(tpl_config 3) ~kind:PA.Lr d in
        ignore tpl_run;
        let after = PA.optimize ~kind:PA.Lr d in
        before.PA.tpl = None && after.PA.tpl = None
        && before.PA.assignments = after.PA.assignments
        && before.PA.objective = after.PA.objective
        && before.PA.reports = after.PA.reports)

(* ------------------------------------------------------------------ *)
(* Budget contract                                                     *)
(* ------------------------------------------------------------------ *)

(* multi-panel generated designs, plus where in [1, unbudgeted LR
   iterations] the work budget falls *)
let budget_case_gen =
  QCheck.Gen.(
    let* seed = int_range 0 9999 in
    let* rows = int_range 3 12 in
    let* nets_per_row = int_range 3 6 in
    let* frac = float_bound_inclusive 1.0 in
    return (seed, rows * nets_per_row, rows * 10, frac))

let arbitrary_budget_case =
  QCheck.make
    ~print:(fun (seed, nets, height, frac) ->
      Printf.sprintf "seed=%d nets=%d height=%d frac=%g" seed nets height frac)
    budget_case_gen

(* the walk carves its work slices up front and charges them back in
   panel order, so under a work-unit budget -j cannot change a byte,
   with or without the TPL deck *)
let prop_budget_j_identical =
  QCheck.Test.make ~name:"work budget: -j4 = -j1" ~count:25
    arbitrary_budget_case (fun (seed, nets, height, frac) ->
      let d =
        match
          Workloads.Generator.generate
            (Workloads.Generator.with_size ~name:"budget" ~nets ~width:40
               ~height ~seed:(Int64.of_int seed) ())
        with
        | d -> d
        | exception Invalid_argument _ ->
          QCheck.assume_fail () (* the die cannot host the pins *)
      in
      let iterations =
        List.fold_left
          (fun acc (r : PA.panel_report) -> acc + r.PA.lr_iterations)
          0 (PA.optimize ~kind:PA.Lr d).PA.reports
      in
      let w =
        1 + int_of_float (frac *. float_of_int (max 0 (iterations - 1)))
      in
      let solve ?config j =
        PA.optimize ?config
          ~budget:(Pinaccess.Budget.start ~work_units:w ())
          ~kind:PA.Lr ~j d
      in
      let same (a : PA.t) (b : PA.t) =
        a.PA.assignments = b.PA.assignments
        && a.PA.reports = b.PA.reports
        && a.PA.objective = b.PA.objective
        && a.PA.tpl = b.PA.tpl
      in
      same (solve 1) (solve 4)
      && same (solve ~config:(tpl_config 3) 1) (solve ~config:(tpl_config 3) 4))

let () =
  Alcotest.run "properties"
    [
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest (prop_pao_valid PA.Lr "LR PAO valid");
          QCheck_alcotest.to_alcotest (prop_pao_valid PA.Ilp "ILP PAO valid");
          QCheck_alcotest.to_alcotest prop_minimum_fallback_valid;
          QCheck_alcotest.to_alcotest prop_design_io_roundtrip;
          QCheck_alcotest.to_alcotest prop_lr_le_ilp;
          QCheck_alcotest.to_alcotest prop_cpr_flow_sound;
          QCheck_alcotest.to_alcotest prop_determinism;
          QCheck_alcotest.to_alcotest prop_unidirectional;
        ] );
      ( "tpl",
        [
          QCheck_alcotest.to_alcotest prop_tpl_coloring_certified;
          QCheck_alcotest.to_alcotest prop_tpl_parallel_identical;
          QCheck_alcotest.to_alcotest prop_tpl_off_bit_identical;
        ] );
      ("budget", [ QCheck_alcotest.to_alcotest prop_budget_j_identical ]);
    ]
