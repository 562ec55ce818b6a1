(* Command-line driver: generate (or scale) a benchmark circuit, run one
   of the three routing flows and report the paper's metrics.

     dune exec bin/cpr_main.exe -- --circuit ecc --scale 0.25
     dune exec bin/cpr_main.exe -- --circuit alu --router seq
     dune exec bin/cpr_main.exe -- --nets 400 --width 120 --height 100
     dune exec bin/cpr_main.exe -- --circuit ecc --pao ilp --verbose
     dune exec bin/cpr_main.exe -- --check-library --lib-cells 24 -j 4

   Exit codes (shared by cpr_fuzz and cpr_serve): 0 clean, 1 a
   violation or weak pin was found, 2 usage or I/O errors. *)

open Cmdliner

type router_kind = R_cpr | R_ncr | R_seq

let build_design circuit scale nets width height seed load repair =
  match load with
  | Some path -> Netlist.Design_io.load ~repair path
  | None ->
    (match circuit with
    | Some id ->
      let c = Workloads.Suite.find id in
      Workloads.Suite.design ~scale c
    | None ->
      let params =
        Workloads.Generator.with_size ~name:"custom" ~nets ~width ~height
          ~seed:(Int64.of_int seed) ()
      in
      Workloads.Generator.generate params)

let violation_breakdown violations =
  let table = Hashtbl.create 4 in
  List.iter
    (fun (v : Drc.Check.violation) ->
      let k = Drc.Check.kind_to_string v.Drc.Check.kind in
      Hashtbl.replace table k
        (1 + Option.value ~default:0 (Hashtbl.find_opt table k)))
    violations;
  Hashtbl.fold (fun k c acc -> Printf.sprintf "%s=%d %s" k c acc) table ""

let run_flow router pao_kind budget jobs tpl design =
  let budget =
    Option.map (fun seconds -> Pinaccess.Budget.start ~seconds ()) budget
  in
  let tpl = Option.map (fun colors -> Drc.Tpl.make ~colors ()) tpl in
  match router with
  | R_cpr ->
    let config =
      {
        Router.Cpr.default_config with
        Router.Cpr.pao_kind =
          (match pao_kind with
          | `Lr -> Pinaccess.Pin_access.Lr
          | `Ilp -> Pinaccess.Pin_access.Ilp);
        jobs;
        tpl;
      }
    in
    (* without an explicit --budget, keep the historical 30 s cap on
       the exact ILP stage so --pao ilp stays interactive *)
    let pao_budget =
      match (budget, pao_kind) with
      | None, `Ilp -> Some (Pinaccess.Budget.start ~seconds:30.0 ())
      | _ -> budget
    in
    Router.Cpr.run ~config ?budget ?pao_budget design
  | R_ncr -> Router.Baseline_ncr.run ?tpl ?budget design
  | R_seq -> Router.Sequential.run ?tpl ?budget design

(* Incremental (ECO) mode: cold-start the engine on the design, replay
   the delta stream batch by batch, and report what each step reused
   versus re-solved, ending with the usual paper metrics. *)
let run_eco pao_kind verbose path design =
  let batches = Eco.Delta.load path in
  let config =
    {
      Eco.Engine.default_config with
      Eco.Engine.kind =
        (match pao_kind with
        | `Lr -> Pinaccess.Pin_access.Lr
        | `Ilp -> Pinaccess.Pin_access.Ilp);
      routing = true;
    }
  in
  let engine = Eco.Engine.create ~config design in
  Format.printf "ECO: cold start pao %.3fs route %.3fs, replaying %d batches@."
    (Eco.Engine.cold_pao_wall engine)
    (Eco.Engine.cold_route_wall engine)
    (List.length batches);
  List.iteri
    (fun i batch ->
      let r = Eco.Engine.apply engine batch in
      Format.printf
        "  step %d: %d deltas, %d dirty panels | panels %d (%d cached, %d \
         solved, %d warm) | routes %d frozen, %d rerouted | obj %.2f | pao \
         %.3fs route %.3fs@."
        (i + 1) r.Eco.Engine.deltas
        (List.length r.Eco.Engine.dirty_panels)
        r.Eco.Engine.panels r.Eco.Engine.cache_hits r.Eco.Engine.solved
        r.Eco.Engine.warm_started r.Eco.Engine.frozen_nets
        r.Eco.Engine.rerouted_nets r.Eco.Engine.objective r.Eco.Engine.pao_wall
        r.Eco.Engine.route_wall;
      if verbose then
        List.iter
          (fun p -> Format.printf "    dirty panel %d@." p)
          r.Eco.Engine.dirty_panels)
    batches;
  Format.printf "final design: %s@."
    (Netlist.Design.stats (Eco.Engine.design engine));
  Format.printf "panel cache: %d entries, %.1f%% lifetime hit rate@."
    (Eco.Engine.cache_size engine)
    (100.0 *. Eco.Engine.cache_hit_rate engine);
  (match Eco.Engine.flow engine with
  | Some flow ->
    let s = Metrics.Eval.of_flow flow in
    Format.printf "Rout.  : %.2f%% (%d/%d nets)@." s.Metrics.Eval.routability
      s.Metrics.Eval.routed_nets s.Metrics.Eval.total_nets;
    Format.printf "Via#   : %d@." s.Metrics.Eval.via_count;
    Format.printf "WL     : %d@." s.Metrics.Eval.wirelength;
    Format.printf "reused routes (last step): %d@."
      flow.Router.Flow.reused_routes
  | None -> ());
  0

(* Library-check mode: synthesize (or, later, load) a cell library,
   sweep every cell through the density ladder on the domain pool, and
   emit the ranked report.  Exit 1 when any pin grades F — the library
   has a pin no placement can rescue. *)
let run_check_library pao budget jobs seed lib_cells report report_md verbose
    stats =
  let params =
    {
      Workloads.Cell_lib.default_params with
      Workloads.Cell_lib.cells = lib_cells;
      seed = Int64.of_int seed;
    }
  in
  let cells = Workloads.Cell_lib.generate params in
  let config =
    {
      Libcheck.Harness.default_config with
      Libcheck.Harness.kind =
        (match pao with
        | `Lr -> Pinaccess.Pin_access.Lr
        | `Ilp -> Pinaccess.Pin_access.Ilp);
      seed = Int64.of_int seed;
    }
  in
  let budget =
    Option.map (fun seconds -> Pinaccess.Budget.start ~seconds ()) budget
  in
  let lib_name = Printf.sprintf "synth-%d-seed%d" lib_cells seed in
  Format.printf "checking library %s: %d cells, %d pins, densities %s@."
    lib_name (List.length cells)
    (Workloads.Cell_lib.num_pins cells)
    (String.concat "/"
       (List.map (Printf.sprintf "%g") config.Libcheck.Harness.densities));
  let results = Libcheck.Sweep.run ~j:jobs ?budget config cells in
  let r = Libcheck.Report.make ~lib_name config results in
  let uncertified =
    List.filter
      (fun (c : Libcheck.Check.cell_result) -> not c.Libcheck.Check.certified)
      r.Libcheck.Report.cells
  in
  Format.printf "grades (pins): %s@."
    (String.concat ", "
       (List.map
          (fun (g, n) -> Printf.sprintf "%s=%d" (Libcheck.Grade.to_string g) n)
          (Libcheck.Report.grade_histogram r)));
  let weak = Libcheck.Report.weak_pins r in
  Format.printf "weak pins (F): %d; uncertified cells: %d@." weak
    (List.length uncertified);
  if verbose then
    List.iter
      (fun (c : Libcheck.Check.cell_result) ->
        Format.printf "  %s: %s%s@." c.Libcheck.Check.cell.Workloads.Cell_lib.cell_name
          (Libcheck.Grade.to_string c.Libcheck.Check.worst)
          (match c.Libcheck.Check.uncertified with
          | None -> ""
          | Some why -> " [UNCERTIFIED: " ^ why ^ "]"))
      r.Libcheck.Report.cells;
  (match report with
  | Some path ->
    Libcheck.Report.save_json path r;
    Format.printf "report written to %s@." path
  | None -> ());
  (match report_md with
  | Some path ->
    Libcheck.Report.save_markdown path r;
    Format.printf "markdown report written to %s@." path
  | None -> ());
  if stats then
    Format.printf "@.%s" (Obs.Metrics.summary (Obs.Metrics.snapshot ()));
  if weak > 0 || uncertified <> [] then 1 else 0

let main circuit scale nets width height seed router pao budget jobs
    tpl verbose load repair save svg trace
    metrics_out stats eco check_library lib_cells report report_md =
  if check_library then
    run_check_library pao budget jobs seed lib_cells report report_md verbose
      stats
  else begin
  let design = build_design circuit scale nets width height seed load repair in
  (match save with
  | Some path ->
    Netlist.Design_io.save path design;
    Format.printf "saved design to %s@." path
  | None -> ());
  Format.printf "%s@." (Netlist.Design.stats design);
  match eco with
  | Some path -> run_eco pao verbose path design
  | None ->begin
  (* span sinks for the run: Chrome trace_event and/or JSONL stream.
     Both stream into atomic pending files promoted on success, so an
     interrupted run leaves no torn artifact at the requested path. *)
  let trace_p = Option.map Obs.Fsio.open_atomic trace in
  let metrics_p = Option.map Obs.Fsio.open_atomic metrics_out in
  let trace_oc = Option.map Obs.Fsio.channel trace_p in
  let metrics_oc = Option.map Obs.Fsio.channel metrics_p in
  let sinks =
    List.filter_map Fun.id
      [
        Option.map Obs.Trace.chrome trace_oc;
        Option.map Obs.Trace.jsonl metrics_oc;
      ]
  in
  let run () = run_flow router pao budget jobs tpl design in
  let flow =
    match sinks with
    | [] -> run ()
    | s :: rest -> Obs.Trace.with_sink (List.fold_left Obs.Trace.tee s rest) run
  in
  (* the JSONL stream ends with the final counter/histogram snapshot,
     so one file carries both the events and the aggregates *)
  Option.iter
    (fun oc ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (Obs.Metrics.jsonl (Obs.Metrics.snapshot ())))
    metrics_oc;
  Option.iter Obs.Fsio.commit metrics_p;
  Option.iter Obs.Fsio.commit trace_p;
  Option.iter (Format.printf "trace written to %s (Perfetto-loadable)@.") trace;
  Option.iter (Format.printf "metrics written to %s@.") metrics_out;
  let s = Metrics.Eval.of_flow flow in
  Format.printf "Rout.  : %.2f%% (%d/%d nets)@." s.Metrics.Eval.routability
    s.Metrics.Eval.routed_nets s.Metrics.Eval.total_nets;
  Format.printf "Via#   : %d@." s.Metrics.Eval.via_count;
  Format.printf "WL     : %d@." s.Metrics.Eval.wirelength;
  Format.printf "cpu(s) : %.2f@." s.Metrics.Eval.cpu;
  Format.printf "initial congested grids: %d@."
    s.Metrics.Eval.initial_congestion;
  Format.printf "DRC violations: %d (%s)@." s.Metrics.Eval.violations
    (violation_breakdown flow.Router.Flow.violations);
  Option.iter
    (fun st -> Format.printf "TPL    : %s@." (Drc.Tpl.stats_to_string st))
    flow.Router.Flow.tpl_stats;
  if Router.Flow.degraded flow then
    Format.printf
      "DEGRADED: %d panel(s) fell back below the requested pin access solver \
       (see --verbose)@."
      s.Metrics.Eval.degraded_panels;
  if stats then
    Format.printf "@.%s" (Obs.Metrics.summary (Obs.Metrics.snapshot ()));
  (match svg with
  | Some path ->
    Render.Layout_svg.save path (Render.Layout_svg.flow flow);
    Format.printf "layout plot written to %s@." path
  | None -> ());
  if verbose then begin
    (match flow.Router.Flow.pao with
    | Some pao ->
      Format.printf "@.Pin access optimization (%s): objective %.2f in %.2fs@."
        (Pinaccess.Pin_access.solver_kind_to_string
           pao.Pinaccess.Pin_access.kind)
        pao.Pinaccess.Pin_access.objective pao.Pinaccess.Pin_access.elapsed;
      List.iter
        (fun (r : Pinaccess.Pin_access.panel_report) ->
          Format.printf
            "  panel %d: %d pins, %d intervals, %d cliques, obj %.1f, \
             served by %s%s@."
            r.Pinaccess.Pin_access.panel r.Pinaccess.Pin_access.pins
            r.Pinaccess.Pin_access.intervals r.Pinaccess.Pin_access.cliques
            r.Pinaccess.Pin_access.objective
            (Pinaccess.Pin_access.tier_to_string r.Pinaccess.Pin_access.served_by)
            (if r.Pinaccess.Pin_access.degraded then " [degraded]" else ""))
        pao.Pinaccess.Pin_access.reports
    | None -> ());
    Format.printf "@.rip-up iterations: %d, total reroutes: %d@."
      flow.Router.Flow.ripup_iterations flow.Router.Flow.total_reroutes;
    Format.printf "line-end extension: %d merges, %d alignments@."
      flow.Router.Flow.extension.Drc.Line_end.merges
      flow.Router.Flow.extension.Drc.Line_end.alignments;
    List.iteri
      (fun i (v : Drc.Check.violation) ->
        if i < 20 then
          Format.printf "  violation: %s %s (%s)@."
            (Drc.Check.kind_to_string v.Drc.Check.kind)
            (Drc.Check.where v)
            (String.concat "," (List.map string_of_int v.Drc.Check.nets)))
      flow.Router.Flow.violations
  end;
  (* the shared exit-code convention: 1 when the layout has DRC
     violations — an uncolorable TPL feature is a violation too —
     mirroring --check-library's 1 on a weak pin *)
  let tpl_dirty =
    match flow.Router.Flow.tpl_stats with
    | Some st -> not (Drc.Tpl.clean st)
    | None -> false
  in
  if s.Metrics.Eval.violations > 0 || tpl_dirty then 1 else 0
  end
  end

(* Typed-error boundary: malformed designs, solver failures and
   infeasible panels surface as clean cmdliner errors, never raw
   OCaml exception traces. *)
let main circuit scale nets width height seed router pao budget jobs
    tpl verbose load repair save svg trace
    metrics_out stats eco check_library lib_cells report report_md =
  match
    Pinaccess.Cpr_error.protect (fun () ->
        main circuit scale nets width height seed router pao budget jobs
          tpl verbose load repair save svg trace
          metrics_out stats eco check_library lib_cells report report_md)
  with
  | Ok n -> Ok n
  | Error e -> Error (`Msg (Pinaccess.Cpr_error.to_string e))
  | exception ((Eco.Delta.Parse_error _ | Eco.Delta.Invalid _) as e) ->
    Error (`Msg (Eco.Delta.error_to_string e))

let circuit =
  let doc =
    "Benchmark circuit id (ecc, efc, ctl, alu, div, top). When absent, a \
     custom circuit is generated from $(b,--nets)/$(b,--width)/$(b,--height)."
  in
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~doc)

let scale =
  let doc = "Shrink a named circuit (nets and die together), in (0, 1]." in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~doc)

(* reject nonsense sizes at the parser, before any generator runs *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be positive, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be >= 0, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "must be positive, got %g" f))
    | None -> Error (`Msg (Printf.sprintf "not a number: %S" s))
  in
  Arg.conv ~docv:"SECONDS" (parse, fun fmt f -> Format.fprintf fmt "%g" f)

let nets =
  Arg.(
    value & opt positive_int 300
    & info [ "nets" ] ~doc:"Custom circuit: net count.")

let width =
  Arg.(
    value & opt positive_int 120
    & info [ "width" ] ~doc:"Custom circuit: grid columns.")

let height =
  Arg.(
    value & opt positive_int 100
    & info [ "height" ] ~doc:"Custom circuit: M2 tracks (multiple of 10).")

let seed =
  Arg.(
    value & opt nonneg_int 1 & info [ "seed" ] ~doc:"Custom circuit: PRNG seed.")

let router =
  let parse = function
    | "cpr" -> Ok R_cpr
    | "ncr" -> Ok R_ncr
    | "seq" -> Ok R_seq
    | s -> Error (`Msg (Printf.sprintf "unknown router %S" s))
  in
  let print fmt r =
    Format.pp_print_string fmt
      (match r with R_cpr -> "cpr" | R_ncr -> "ncr" | R_seq -> "seq")
  in
  let router_conv = Arg.conv ~docv:"ROUTER" (parse, print) in
  let doc =
    "Routing flow: $(b,cpr) (concurrent pin access router, the paper's \
     contribution), $(b,ncr) (negotiation-congestion baseline without pin \
     access optimization, [21]), or $(b,seq) (sequential pin access planning \
     baseline, [12])."
  in
  Arg.(value & opt router_conv R_cpr & info [ "r"; "router" ] ~doc)

let pao =
  let parse = function
    | "lr" -> Ok `Lr
    | "ilp" -> Ok `Ilp
    | s -> Error (`Msg (Printf.sprintf "unknown pao solver %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt (match p with `Lr -> "lr" | `Ilp -> "ilp")
  in
  let solver_conv = Arg.conv ~docv:"SOLVER" (parse, print) in
  let doc =
    "Pin access optimizer for the cpr flow: $(b,lr) (Lagrangian relaxation, \
     scalable) or $(b,ilp) (exact branch-and-bound, optimal)."
  in
  Arg.(value & opt solver_conv `Lr & info [ "pao" ] ~doc)

let budget =
  let doc =
    "Wall-clock budget in seconds for the whole flow. Pin access degrades \
     panel by panel (ILP → LR → minimum intervals) and routing stops \
     ripping up when the budget runs out; the result is always a legal \
     best-effort layout."
  in
  Arg.(value & opt (some positive_float) None & info [ "budget" ] ~doc)

let jobs =
  let doc =
    "Domains for the parallel stages of the $(b,cpr) flow (default 1 = \
     sequential). Pin access solves independent panels and the router \
     searches nets with disjoint regions on $(docv) domains, merging in \
     order, so results are identical to $(b,-j 1); pass 0 to use every \
     core the machine recommends."
  in
  let parse s =
    match int_of_string_opt s with
    | Some 0 -> Ok (Exec.default_domains ())
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be >= 0, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
  in
  let jobs_conv = Arg.conv ~docv:"N" (parse, Format.pp_print_int) in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let tpl =
  let doc =
    "Enable the triple-patterning rule deck with $(docv) mask colors \
     (usually 3). Pin access prices same-color conflicts alongside access \
     conflicts, the router charges stitch costs and rips up uncolorable \
     nets, and the final layout's coloring is re-checked; an uncolorable \
     feature in the final layout exits 1 like any DRC violation."
  in
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 2 -> Ok k
    | Some k -> Error (`Msg (Printf.sprintf "need at least 2 colors, got %d" k))
    | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
  in
  let colors_conv = Arg.conv ~docv:"K" (parse, Format.pp_print_int) in
  Arg.(value & opt (some colors_conv) None & info [ "tpl" ] ~docv:"K" ~doc)

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-panel and DRC details.")

let load =
  Arg.(
    value
    & opt (some file) None
    & info [ "load" ] ~doc:"Route a design saved with $(b,--save).")

let repair =
  let doc =
    "With $(b,--load): clamp off-die geometry and drop duplicate pins \
     instead of rejecting a malformed design file."
  in
  Arg.(value & flag & info [ "repair" ] ~doc)

let save =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~doc:"Export the (generated) design to a file.")

let svg =
  Arg.(
    value
    & opt (some string) None
    & info [ "svg" ] ~doc:"Write an SVG plot of the routed layout.")

let trace =
  let doc =
    "Write a Chrome trace_event JSON of the run's spans (run > panel > \
     LR iteration) to $(docv); open it in about:tracing or \
     ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Stream span events as JSON-lines to $(docv), ending with the final \
     counter/histogram snapshot — the machine-readable twin of $(b,--stats)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let stats =
  let doc =
    "Print the end-of-run solver counters and histograms (LR iterations, \
     ILP nodes, maze expansions, rip-up rounds, degradation tiers, ...)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let eco =
  let doc =
    "Incremental (ECO) mode: replay a saved delta stream ($(b,step)-separated \
     batches, see lib/eco) against the design through the incremental \
     engine — cached clean panels, warm-started dirty ones, frozen \
     untouched routes — reporting per-step reuse and the final metrics. \
     Only $(b,--pao) affects this mode's solver choice."
  in
  Arg.(value & opt (some file) None & info [ "eco" ] ~docv:"FILE" ~doc)

let check_library =
  let doc =
    "Library mode: instead of routing a design, grade every pin of a \
     synthesized cell library. Each cell is placed in isolation on a \
     single-row die, surrounded by seeded blockage congestion at several \
     density levels, solved with the concurrent pin access optimizer and \
     audit-certified; the ranked worst-first report is deterministic for a \
     given $(b,--seed) and identical for any $(b,-j). Exits 1 when a pin \
     grades F (no certified access even in isolation)."
  in
  Arg.(value & flag & info [ "check-library" ] ~doc)

let lib_cells =
  let doc = "Library mode: number of cells to synthesize." in
  Arg.(value & opt positive_int 24 & info [ "lib-cells" ] ~docv:"N" ~doc)

let report =
  let doc =
    "Library mode: write the ranked report as JSON to $(docv) (atomic \
     write; a crash never leaves a torn report)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let report_md =
  let doc = "Library mode: write the ranked report as markdown to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "report-md" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "concurrent pin access optimization for unidirectional routing" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reproduction of Xu et al., DAC 2017: concurrent pin access \
         optimization (ILP / Lagrangian relaxation over pin access \
         intervals) feeding a negotiation-congestion unidirectional router \
         under SADP design rules.";
    ]
  in
  Cmd.v
    (Cmd.info "cpr" ~version:"1.0.0" ~doc ~man)
    Term.(
      term_result
        (const main $ circuit $ scale $ nets $ width $ height $ seed $ router
        $ pao $ budget $ jobs $ tpl $ verbose $ load $ repair $ save $ svg $ trace $ metrics_out $ stats
        $ eco $ check_library $ lib_cells $ report $ report_md))

(* 0 = ok, 1 = violation/weak pin, 2 = usage or I/O error: cmdliner's
   own error exits (123/124/125) all collapse onto 2. *)
let () = exit (match Cmd.eval' cmd with 0 -> 0 | 1 -> 1 | _ -> 2)
