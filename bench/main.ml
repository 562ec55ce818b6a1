(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Sec. 5) plus kernel micro-benchmarks and the
   ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table2 fig6  -- run a subset
     CPR_BENCH_SCALE=0.2 dune exec bench/main.exe
                                              -- shrink the circuits

   Absolute numbers differ from the paper (synthetic placements, a
   simulated ILP solver, different hardware); the reproduction target
   is the orderings and approximate factors, which each experiment
   prints next to the paper's values. *)

module Eval = Metrics.Eval
module Report = Metrics.Report
module Suite = Workloads.Suite
module PA = Pinaccess.Pin_access

let pf = Format.printf

(* a malformed env var must not kill a long bench run: warn and keep
   the default *)
let env_float name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
    (match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None ->
      Printf.eprintf "warning: ignoring malformed %s=%S (using %g)\n%!" name s
        default;
      default)

let env_int name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some n ->
      (* 0 or negative must not silently mean "sequential": say so and
         run with the default so the parallel rows stay meaningful *)
      Printf.eprintf
        "warning: %s=%d out of range (must be >= 1); using %d\n%!" name n
        default;
      default
    | None ->
      Printf.eprintf "warning: ignoring malformed %s=%S (using %d)\n%!" name s
        default;
      default)

let scale = env_float "CPR_BENCH_SCALE" ~default:1.0

(* domains for the [parallel] experiment; the container may expose a
   single core, in which case the experiment still checks determinism
   but reports no speedup *)
let jobs = env_int "CPR_BENCH_JOBS" ~default:2

(* budget for each exact-ILP solve; the paper's CPLEX-class solver gets
   hours, our in-repo branch-and-bound gets this many seconds and
   reports when the cap bites *)
let ilp_budget = env_float "CPR_BENCH_ILP_LIMIT" ~default:60.0

let section title =
  pf "@.================================================================@.";
  pf "%s@." title;
  pf "================================================================@."

(* --------------------------------------------------------------- *)
(* Paper reference values                                           *)
(* --------------------------------------------------------------- *)

type paper_row = {
  rout : float;
  via : int;
  wl : int;
  cpu : float;
}

(* Table 2 of the paper: [12] sequential, [21] w/o PAO, CPR. *)
let paper_table2 =
  [
    ("ecc", { rout = 96.41; via = 6482; wl = 46588; cpu = 19.98 },
     { rout = 94.55; via = 5409; wl = 38428; cpu = 10.00 },
     { rout = 97.25; via = 4907; wl = 40465; cpu = 2.01 });
    ("efc", { rout = 94.91; via = 8558; wl = 57834; cpu = 34.52 },
     { rout = 92.83; via = 7989; wl = 52329; cpu = 15.60 },
     { rout = 96.80; via = 7418; wl = 51973; cpu = 3.69 });
    ("ctl", { rout = 95.27; via = 10573; wl = 72388; cpu = 37.14 },
     { rout = 92.42; via = 9327; wl = 64217; cpu = 17.80 },
     { rout = 96.86; via = 8757; wl = 63900; cpu = 3.69 });
    ("alu", { rout = 95.17; via = 11645; wl = 75679; cpu = 45.92 },
     { rout = 93.37; via = 10496; wl = 64604; cpu = 20.10 },
     { rout = 97.01; via = 9371; wl = 62249; cpu = 5.24 });
    ("div", { rout = 94.60; via = 22829; wl = 155704; cpu = 106.0 },
     { rout = 92.12; via = 21001; wl = 139811; cpu = 47.70 },
     { rout = 95.89; via = 19665; wl = 139201; cpu = 24.32 });
    ("top", { rout = 95.33; via = 82644; wl = 513366; cpu = 763.2 },
     { rout = 93.44; via = 73487; wl = 434051; cpu = 147.4 },
     { rout = 96.79; via = 65167; wl = 436972; cpu = 40.37 });
  ]

let circuits () =
  List.map (fun (id, _, _, _) -> Suite.find id) paper_table2

(* --------------------------------------------------------------- *)
(* Machine-readable telemetry (BENCH.json)                          *)
(* --------------------------------------------------------------- *)

(* Per-circuit summaries recorded by table2, written with the kernel
   counters at the end of every bench invocation so each PR leaves a
   diffable perf record.  [scripts/bench_gate.py] diffs the quality
   numbers against the committed [bench/BASELINE.json]. *)
let telemetry_file = "BENCH.json"
let bench_circuits : (string * (string * Eval.summary) list) list ref = ref []

(* Per-circuit rows recorded by the [parallel] experiment: sequential
   vs parallel wall-clock of the PAO stage and of the full flow, the
   bit-identity flag the CI job asserts on, the effective job count,
   and the work-stealing scheduler's telemetry for the parallel runs
   (chunk/steal counts, victim queue-depth histogram) plus the maze
   kernel's allocation rate — docs/PERF.md explains how to read
   them. *)
type parallel_row = {
  pr_id : string;
  pr_jobs : int;  (** effective [-j] of the parallel runs *)
  pao_seq_wall : float;
  pao_par_wall : float;
  pao_identical : bool;
  flow_seq : Eval.summary;
  flow_par : Eval.summary;
  flow_seq_wall : float;
  flow_par_wall : float;
  pr_chunks : int;  (** chunks run from the owner's own deque *)
  pr_steals : int;  (** chunks obtained by stealing *)
  pr_steal_misses : int;  (** empty scan passes *)
  pr_queue_depth : int array;  (** log2-bucketed victim depth at steals *)
  pr_alloc_per_node : float;  (** minor words per maze expansion (par flow) *)
}

let parallel_rows : parallel_row list ref = ref []

(* Per-run rows recorded by the [mega] experiment: the streamed PAO
   (panel problems built as solved, never all resident) on the 10x-top
   scale tier, sequential vs parallel. *)
type mega_row = {
  mg_id : string;
  mg_nets : int;
  mg_panels : int;
  mg_jobs : int;
  mg_pao_seq_wall : float;
  mg_pao_par_wall : float;
  mg_identical : bool;
  mg_chunks : int;
  mg_steals : int;
  mg_steal_misses : int;
  mg_queue_depth : int array;
}

let mega_rows : mega_row list ref = ref []

(* Per-circuit rows recorded by the [eco] experiment: cold solve vs
   incremental re-optimization over a 5%-dirty edit stream. *)
type eco_row = {
  eco_id : string;
  eco_cold_wall : float;
  eco_steps : int;
  eco_incremental_wall : float;
  eco_scratch_wall : float;
  eco_speedup : float;
  eco_hit_rate : float;
  eco_warm_started : int;
}

let eco_rows : eco_row list ref = ref []

(* Per-circuit rows recorded by the [serve] experiment: sustained
   edits/sec and client-observed latency percentiles of the ECO
   service under a multi-session load run. *)
type serve_row = {
  sv_id : string;
  sv_clients : int;
  sv_batches : int;  (** acknowledged *)
  sv_edits_per_sec : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
  sv_timeouts : int;
  sv_shed : int;
  sv_mismatches : int;
}

let serve_rows : serve_row list ref = ref []

(* Per-library rows recorded by the [libcheck] experiment: library
   sweep throughput (cells/sec over the domain pool), the sequential
   vs parallel report-identity flag, and the pin grade distribution. *)
type libcheck_row = {
  lc_id : string;
  lc_cells : int;
  lc_pins : int;
  lc_jobs : int;
  lc_seq_wall : float;
  lc_par_wall : float;
  lc_identical : bool;
  lc_cells_per_sec : float;  (** of the parallel sweep *)
  lc_weak_pins : int;
  lc_grades : (string * int) list;  (** pins per grade, worst last *)
}

let libcheck_rows : libcheck_row list ref = ref []

(* Per-design rows recorded by the [tpl] experiment: the color-
   constrained pin access ladder on dense stress layouts — coloring
   outcome of the routed layout, the -j2 bit-identity flag (coloring
   included), and the no-leak flag (a TPL run must not perturb a
   following TPL-off run). *)
type tpl_row = {
  tp_id : string;
  tp_colors : int;
  tp_nets : int;
  tp_features : int;  (** M2 features of the routed layout *)
  tp_solid : int;
  tp_stitched : int;
  tp_uncolored : int;
  tp_identical : bool;  (** -j2 PAO run bit-identical, coloring included *)
  tp_off_identical : bool;
      (** a TPL-off run after the TPL runs equals the one before them *)
  tp_pao_wall : float;
  tp_flow_wall : float;
  tp_summary : Eval.summary;
}

let tpl_rows : tpl_row list ref = ref []

(* Per-circuit rows recorded by the [tune] experiment: the untuned PAO
   stage vs the deterministic bandit tuner, compared in work units
   (LR iterations — the reward currency, DESIGN.md §12) and wall
   clock, plus the zero-drift flag: an untuned run after the tuned one
   must be bit-identical to one before it. *)
type tune_row = {
  tn_id : string;
  tn_panels : int;
  tn_seed : int;
  tn_untuned_wall : float;
  tn_tuned_wall : float;
  tn_untuned_work : int;  (** LR iterations of the untuned solve *)
  tn_tuned_work : int;
  tn_untuned_obj : float;
  tn_tuned_obj : float;
  tn_off_identical : bool;
      (** untuned runs before and after the tuned one are bit-identical *)
  tn_pulls : int;
  tn_regret : float;
  tn_histogram : (string * int) list;  (** selections per arm *)
}

let tune_rows : tune_row list ref = ref []

let write_telemetry ~ran =
  let open Obs.Json in
  let summary_json (s : Eval.summary) =
    Obj
      [
        ("routability", Num s.Eval.routability);
        ("via_count", num_int s.Eval.via_count);
        ("wirelength", num_int s.Eval.wirelength);
        ("cpu", Num s.Eval.cpu);
      ]
  in
  let circuits =
    List.rev_map
      (fun (id, flows) ->
        Obj
          [
            ("id", Str id);
            ("flows", Obj (List.map (fun (tag, s) -> (tag, summary_json s)) flows));
          ])
      !bench_circuits
  in
  let depth_json d =
    List (Array.to_list (Array.map (fun c -> num_int c) d))
  in
  let parallel =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.pr_id);
            ("jobs", num_int r.pr_jobs);
            ("pao_seq_wall", Num r.pao_seq_wall);
            ("pao_par_wall", Num r.pao_par_wall);
            ("identical", Bool r.pao_identical);
            ("flow_seq", summary_json r.flow_seq);
            ("flow_par", summary_json r.flow_par);
            ("flow_seq_wall", Num r.flow_seq_wall);
            ("flow_par_wall", Num r.flow_par_wall);
            ("chunks", num_int r.pr_chunks);
            ("steals", num_int r.pr_steals);
            ("steal_misses", num_int r.pr_steal_misses);
            ("queue_depth", depth_json r.pr_queue_depth);
            ("alloc_per_node", Num r.pr_alloc_per_node);
          ])
      !parallel_rows
  in
  let mega =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.mg_id);
            ("nets", num_int r.mg_nets);
            ("panels", num_int r.mg_panels);
            ("jobs", num_int r.mg_jobs);
            ("pao_seq_wall", Num r.mg_pao_seq_wall);
            ("pao_par_wall", Num r.mg_pao_par_wall);
            ("identical", Bool r.mg_identical);
            ("chunks", num_int r.mg_chunks);
            ("steals", num_int r.mg_steals);
            ("steal_misses", num_int r.mg_steal_misses);
            ("queue_depth", depth_json r.mg_queue_depth);
          ])
      !mega_rows
  in
  let eco =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.eco_id);
            ("cold_pao_wall", Num r.eco_cold_wall);
            ("steps", num_int r.eco_steps);
            ("incremental_wall", Num r.eco_incremental_wall);
            ("scratch_wall", Num r.eco_scratch_wall);
            ("speedup", Num r.eco_speedup);
            ("hit_rate", Num r.eco_hit_rate);
            ("warm_started", num_int r.eco_warm_started);
          ])
      !eco_rows
  in
  let serve =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.sv_id);
            ("clients", num_int r.sv_clients);
            ("batches", num_int r.sv_batches);
            ("edits_per_sec", Num r.sv_edits_per_sec);
            ("p50_ms", Num r.sv_p50_ms);
            ("p99_ms", Num r.sv_p99_ms);
            ("timeouts", num_int r.sv_timeouts);
            ("shed", num_int r.sv_shed);
            ("mismatches", num_int r.sv_mismatches);
          ])
      !serve_rows
  in
  let libcheck =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.lc_id);
            ("cells", num_int r.lc_cells);
            ("pins", num_int r.lc_pins);
            ("jobs", num_int r.lc_jobs);
            ("seq_wall", Num r.lc_seq_wall);
            ("par_wall", Num r.lc_par_wall);
            ("identical", Bool r.lc_identical);
            ("cells_per_sec", Num r.lc_cells_per_sec);
            ("weak_pins", num_int r.lc_weak_pins);
            ( "grades",
              Obj (List.map (fun (g, n) -> (g, num_int n)) r.lc_grades) );
          ])
      !libcheck_rows
  in
  let tpl =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.tp_id);
            ("colors", num_int r.tp_colors);
            ("nets", num_int r.tp_nets);
            ("features", num_int r.tp_features);
            ("solid", num_int r.tp_solid);
            ("stitched", num_int r.tp_stitched);
            ("uncolored", num_int r.tp_uncolored);
            ("identical", Bool r.tp_identical);
            ("off_identical", Bool r.tp_off_identical);
            ("pao_wall", Num r.tp_pao_wall);
            ("flow_wall", Num r.tp_flow_wall);
            ("flow", summary_json r.tp_summary);
          ])
      !tpl_rows
  in
  let tune =
    List.rev_map
      (fun r ->
        Obj
          [
            ("id", Str r.tn_id);
            ("panels", num_int r.tn_panels);
            ("seed", num_int r.tn_seed);
            ("untuned_wall", Num r.tn_untuned_wall);
            ("tuned_wall", Num r.tn_tuned_wall);
            ("untuned_work", num_int r.tn_untuned_work);
            ("tuned_work", num_int r.tn_tuned_work);
            ("untuned_obj", Num r.tn_untuned_obj);
            ("tuned_obj", Num r.tn_tuned_obj);
            ("off_identical", Bool r.tn_off_identical);
            ("pulls", num_int r.tn_pulls);
            ("regret", Num r.tn_regret);
            ( "histogram",
              Obj (List.map (fun (a, n) -> (a, num_int n)) r.tn_histogram) );
          ])
      !tune_rows
  in
  let json =
    Obj
      [
        ("bench", Str "cpr");
        ("scale", Num scale);
        ("jobs", num_int jobs);
        ("available_domains", num_int (Domain.recommended_domain_count ()));
        ("experiments", List (List.map (fun e -> Str e) ran));
        ("circuits", List circuits);
        ("parallel", List parallel);
        ("mega", List mega);
        ("eco", List eco);
        ("serve", List serve);
        ("libcheck", List libcheck);
        ("tpl", List tpl);
        ("tune", List tune);
        ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
      ]
  in
  (* atomic: a crashed or killed bench run never leaves a torn
     BENCH.json for the CI validator to choke on *)
  Obs.Fsio.atomic_write telemetry_file (to_string_pretty json ^ "\n");
  pf "@.telemetry written to %s@." telemetry_file

(* --------------------------------------------------------------- *)
(* Table 2                                                          *)
(* --------------------------------------------------------------- *)

let run_flows design =
  let seq = Router.Sequential.run design in
  let ncr = Router.Baseline_ncr.run design in
  let cpr = Router.Cpr.run design in
  (Eval.of_flow ~name:"seq" seq, Eval.of_flow ~name:"ncr" ncr,
   Eval.of_flow ~name:"cpr" cpr, seq, ncr, cpr)

let table2 () =
  section "Table 2 — routing quality: [12] sequential / [21] w/o PAO / CPR";
  pf "(paper values in parentheses; Via# extrapolated per routed net)@.@.";
  let rows = ref [] in
  let sums = Array.make 12 0.0 in
  let count = ref 0 in
  List.iter
    (fun (id, p_seq, p_ncr, p_cpr) ->
      let c = Suite.find id in
      let design = Suite.design ~scale c in
      let s_seq, s_ncr, s_cpr, _, _, _ = run_flows design in
      incr count;
      let record base (s : Eval.summary) =
        sums.(base) <- sums.(base) +. s.Eval.routability;
        sums.(base + 1) <- sums.(base + 1) +. float_of_int s.Eval.via_count;
        sums.(base + 2) <- sums.(base + 2) +. float_of_int s.Eval.wirelength;
        sums.(base + 3) <- sums.(base + 3) +. s.Eval.cpu
      in
      record 0 s_seq;
      record 4 s_ncr;
      record 8 s_cpr;
      bench_circuits :=
        (id, [ ("seq", s_seq); ("ncr", s_ncr); ("cpr", s_cpr) ])
        :: !bench_circuits;
      let cells (s : Eval.summary) (p : paper_row) =
        [
          Printf.sprintf "%.2f(%.2f)" s.Eval.routability p.rout;
          Printf.sprintf "%d(%d)" s.Eval.via_count p.via;
          Printf.sprintf "%d(%d)" s.Eval.wirelength p.wl;
          Printf.sprintf "%.2f(%.1f)" s.Eval.cpu p.cpu;
        ]
      in
      rows :=
        ((id :: cells s_seq p_seq) @ cells s_ncr p_ncr @ cells s_cpr p_cpr)
        :: !rows;
      pf "  %s done@." id)
    paper_table2;
  let header =
    [ "Ckt" ]
    @ List.concat_map
        (fun tag -> [ tag ^ ".Rout%"; tag ^ ".Via#"; tag ^ ".WL"; tag ^ ".cpu" ])
        [ "seq"; "ncr"; "cpr" ]
  in
  pf "@.%s@." (Report.table ~header (List.rev !rows));
  (* ratio row vs CPR, as in the paper's last line *)
  let n = float_of_int !count in
  let avg i = sums.(i) /. n in
  let ratio base i = avg (base + i) /. avg (8 + i) in
  pf "@.Average ratios over CPR (paper: seq 0.985/1.238/1.160/12.69, ncr 0.962/1.108/0.998/3.26)@.";
  pf "  seq/CPR: Rout %.3f  Via %.3f  WL %.3f  cpu %.2f@."
    (ratio 0 0) (ratio 0 1) (ratio 0 2) (ratio 0 3);
  pf "  ncr/CPR: Rout %.3f  Via %.3f  WL %.3f  cpu %.2f@."
    (ratio 4 0) (ratio 4 1) (ratio 4 2) (ratio 4 3)

(* --------------------------------------------------------------- *)
(* Figure 6 — LR vs ILP scalability on combined multi-panel         *)
(* instances                                                        *)
(* --------------------------------------------------------------- *)

let fig6 () =
  section "Figure 6 — LR vs ILP: runtime (a) and objective (b) vs #pins";
  pf "(ILP capped at %.0fs per instance; * marks a cap hit — the paper's@." ilp_budget;
  pf " ILP curve also leaves the plot near 1e4 s)@.@.";
  let targets =
    [ 250; 500; 1000; 2000; 3000; 4500; 6000 ]
    |> List.map (fun p -> int_of_float (float_of_int p *. Float.min 1.0 scale))
    |> List.filter (fun p -> p >= 50)
  in
  let rows =
    List.map
      (fun pins ->
        let design = Suite.sweep_design ~pins in
        let panels =
          List.init (Netlist.Design.num_panels design) (fun i -> i)
        in
        let lr, lr_time =
          Obs.Clock.time (fun () ->
              PA.optimize_combined ~kind:PA.Lr design ~panels)
        in
        let ilp, ilp_time =
          Obs.Clock.time (fun () ->
              PA.optimize_combined
                ~budget:(Pinaccess.Budget.start ~seconds:ilp_budget ())
                ~kind:PA.Ilp design
                ~panels)
        in
        let capped =
          List.exists (fun r -> not r.PA.proven_optimal) ilp.PA.reports
        in
        let real_pins = List.length lr.PA.assignments in
        pf "  %d pins done@." real_pins;
        [
          string_of_int real_pins;
          Report.fixed 3 lr_time;
          Report.fixed 3 ilp_time ^ (if capped then "*" else "");
          Report.fixed 1 lr.PA.objective;
          Report.fixed 1 ilp.PA.objective;
          Report.fixed 4 (lr.PA.objective /. Float.max 1e-9 ilp.PA.objective);
        ])
      targets
  in
  pf "@.%s@."
    (Report.table
       ~header:[ "pins"; "LR cpu(s)"; "ILP cpu(s)"; "LR obj"; "ILP obj"; "LR/ILP" ]
       rows);
  pf "@.Expected shape: ILP runtime grows super-linearly and dwarfs LR@.";
  pf "(Fig 6a); LR objective stays close to the ILP optimum (Fig 6b).@."

(* --------------------------------------------------------------- *)
(* Figure 7(a) — routing quality with LR-based vs ILP-based PAO     *)
(* --------------------------------------------------------------- *)

let fig7a () =
  section "Figure 7(a) — LR-based over ILP-based CPR routing quality";
  pf "(paper: Rout and WL ratios ~1.0; LR uses ~5%% more vias;@.";
  pf " circuits at half scale so the exact per-panel solves stay tractable)@.@.";
  let fig7a_scale = Float.min scale 0.5 in
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale:fig7a_scale c in
        let lr_pao = PA.optimize ~kind:PA.Lr design in
        let ilp_pao =
          PA.optimize
            ~budget:
              (Pinaccess.Budget.start ~seconds:(Float.min 3.0 ilp_budget) ())
            ~kind:PA.Ilp design
        in
        let lr = Eval.of_flow (Router.Cpr.run_with_pao design lr_pao) in
        let ilp = Eval.of_flow (Router.Cpr.run_with_pao design ilp_pao) in
        let rout, via, wl, _ = Eval.ratio lr ~reference:ilp in
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          Report.fixed 3 rout;
          Report.fixed 3 via;
          Report.fixed 3 wl;
          Report.fixed 1 lr_pao.PA.objective;
          Report.fixed 1 ilp_pao.PA.objective;
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [ "Ckt"; "Rout LR/ILP"; "Via# LR/ILP"; "WL LR/ILP"; "LR obj"; "ILP obj" ]
       rows)

(* --------------------------------------------------------------- *)
(* Figure 7(b) — congested grids before rip-up, w/ and w/o PAO      *)
(* --------------------------------------------------------------- *)

let stage1_congestion design ~pao =
  let grid = Rgrid.Grid.create design in
  let pao =
    if pao then Some (PA.optimize ~kind:PA.Lr design) else None
  in
  let specs = Router.Spec_builder.build grid ~pao in
  let maze = Rgrid.Maze.create grid in
  Array.iter
    (fun spec ->
      match
        Router.Net_router.route maze ~cost:Rgrid.Cost.default ~pfac:0.0 spec
      with
      | Some r -> Router.Negotiation.apply_route grid r
      | None -> ())
    specs;
  Rgrid.Grid.congested_nodes grid

let fig7b () =
  section "Figure 7(b) — initial congested routing grids, w/ vs w/o PAO";
  pf "(paper: 5-10x reduction with pin access optimization)@.@.";
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale c in
        let with_pao = stage1_congestion design ~pao:true in
        let without = stage1_congestion design ~pao:false in
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          string_of_int with_pao;
          string_of_int without;
          Report.fixed 2
            (float_of_int without /. Float.max 1.0 (float_of_int with_pao));
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table ~header:[ "Ckt"; "w/ PAO"; "w/o PAO"; "reduction x" ] rows)

(* --------------------------------------------------------------- *)
(* Ablations                                                        *)
(* --------------------------------------------------------------- *)

let pao_quality design config =
  let pao = PA.optimize ~config ~kind:PA.Lr design in
  let total_iters =
    List.fold_left (fun k r -> k + r.PA.lr_iterations) 0 pao.PA.reports
  in
  (pao.PA.objective, total_iters, pao.PA.elapsed)

let ablation_f () =
  section "Ablation — objective weighting: sqrt (paper) vs linear length";
  pf "(optimal ILP selections per panel, isolating the objective choice)@.@.";
  let design = Suite.design ~scale:(Float.min scale 0.2) (Suite.find "ecc") in
  let run weighting =
    let gen =
      {
        Pinaccess.Interval_gen.default_config with
        Pinaccess.Interval_gen.weighting;
        (* the paper's original conflict relation, so every panel is
           strictly feasible for the exact solver *)
        clearance = 0;
      }
    in
    let lengths = ref [] in
    for panel = 0 to min 4 (Netlist.Design.num_panels design - 1) do
      let problem = Pinaccess.Problem.build_panel gen design ~panel in
      if Pinaccess.Problem.num_pins problem > 0 then begin
        let r = Pinaccess.Ilp.solve ~time_limit:30.0 problem in
        let chosen = Pinaccess.Solution.chosen r.Pinaccess.Ilp.solution in
        Array.iteri
          (fun id sel ->
            if sel then
              lengths :=
                float_of_int
                  (Pinaccess.Access_interval.length
                     problem.Pinaccess.Problem.intervals.(id))
                :: !lengths)
          chosen
      end
    done;
    let lengths = !lengths in
    let n = float_of_int (List.length lengths) in
    let mean = List.fold_left ( +. ) 0.0 lengths /. n in
    let mn = List.fold_left Float.min infinity lengths in
    let var =
      List.fold_left (fun acc l -> acc +. ((l -. mean) ** 2.0)) 0.0 lengths /. n
    in
    (mean, sqrt var /. Float.max 1e-9 mean, mn /. Float.max 1e-9 mean)
  in
  let mean_s, cv_s, bal_s = run Pinaccess.Objective.Sqrt_length in
  let mean_l, cv_l, bal_l = run Pinaccess.Objective.Linear_length in
  pf "sqrt:   mean length %.2f  coeff-of-variation %.3f  min/mean %.3f@."
    mean_s cv_s bal_s;
  pf "linear: mean length %.2f  coeff-of-variation %.3f  min/mean %.3f@."
    mean_l cv_l bal_l;
  pf "Expected shape: sqrt trades a little mean length for better balance@.";
  pf "(lower variation / higher min-to-mean, paper Sec. 3.3).@."

let ablation_step () =
  section "Ablation — subgradient step: decaying 1/k^0.95 (paper) vs constant";
  let design = Suite.design ~scale:(Float.min scale 0.5) (Suite.find "ecc") in
  let run constant_step =
    let config =
      {
        PA.default_config with
        PA.lr =
          {
            Pinaccess.Lagrangian.default_config with
            Pinaccess.Lagrangian.constant_step;
            plateau_exit = None;
          };
      }
    in
    pao_quality design config
  in
  let obj_d, it_d, t_d = run None in
  let obj_c, it_c, t_c = run (Some 0.5) in
  pf "decaying: objective %.1f, total iterations %d, cpu %.2fs@." obj_d it_d t_d;
  pf "constant: objective %.1f, total iterations %d, cpu %.2fs@." obj_c it_c t_c;
  pf "Expected shape: the decaying schedule converges (fewer iterations@.";
  pf "or better objective); a constant step oscillates (Held et al.).@."

let ablation_ub () =
  section "Ablation — LR iteration bound UB (paper: 200)";
  let design = Suite.design ~scale:(Float.min scale 0.5) (Suite.find "ecc") in
  let rows =
    List.map
      (fun ub ->
        let config =
          {
            PA.default_config with
            PA.lr =
              {
                Pinaccess.Lagrangian.default_config with
                Pinaccess.Lagrangian.max_iterations = ub;
                plateau_exit = None;
              };
          }
        in
        let obj, iters, cpu = pao_quality design config in
        [
          string_of_int ub;
          Report.fixed 1 obj;
          string_of_int iters;
          Report.fixed 2 cpu;
        ])
      [ 10; 25; 50; 100; 200; 400 ]
  in
  pf "%s@."
    (Report.table ~header:[ "UB"; "objective"; "iterations"; "cpu(s)" ] rows);
  pf "Expected shape: quality saturates near the paper's UB=200.@."

(* --------------------------------------------------------------- *)
(* Kernel micro-benchmarks (bechamel)                               *)
(* --------------------------------------------------------------- *)

let kernels () =
  section "Kernel micro-benchmarks (bechamel, monotonic clock)";
  let design = Suite.design ~scale:0.25 (Suite.find "ecc") in
  let cfg_gen = Pinaccess.Interval_gen.default_config in
  let problem = Pinaccess.Problem.build_panel cfg_gen design ~panel:0 in
  let grid = Rgrid.Grid.create design in
  let specs = Router.Spec_builder.build grid ~pao:None in
  let maze = Rgrid.Maze.create grid in
  let spec = specs.(0) in
  let tests =
    [
      Bechamel.Test.make ~name:"interval-generation"
        (Bechamel.Staged.stage (fun () ->
             Pinaccess.Interval_gen.generate_panel cfg_gen design ~panel:0));
      Bechamel.Test.make ~name:"conflict-detection"
        (Bechamel.Staged.stage (fun () ->
             Pinaccess.Conflict.detect ~clearance:2 problem.Pinaccess.Problem.intervals));
      Bechamel.Test.make ~name:"lr-maxgains"
        (Bechamel.Staged.stage (fun () ->
             Pinaccess.Lagrangian.max_gains problem
               ~gains:problem.Pinaccess.Problem.profits));
      Bechamel.Test.make ~name:"lr-solve-panel"
        (Bechamel.Staged.stage (fun () ->
             Pinaccess.Lagrangian.solve problem));
      Bechamel.Test.make ~name:"maze-route-net"
        (Bechamel.Staged.stage (fun () ->
             Router.Net_router.route maze ~cost:Rgrid.Cost.default ~pfac:0.0
               spec));
    ]
  in
  let test = Bechamel.Test.make_grouped ~name:"kernels" ~fmt:"%s/%s" tests in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000
      ~quota:(Bechamel.Time.second 1.0)
      ~kde:(Some 1000) ()
  in
  let raw = Bechamel.Benchmark.all cfg instances test in
  let ols =
    Bechamel.Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Bechamel.Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      rows := [ name; Report.fixed 1 ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  pf "%s@." (Report.table ~header:[ "kernel"; "ns/run" ] rows)

(* --------------------------------------------------------------- *)
(* Parallel execution — seq vs [-j jobs] wall-clock and determinism  *)
(* --------------------------------------------------------------- *)

(* The PR-3 executor promises *bit-identical* results: the panels of
   the PAO stage and the disjoint batches of the initial-route stage
   produce exactly the sequential answer, whatever [jobs] is.  This
   experiment measures the seq and parallel wall-clock per circuit
   (CPU seconds via [Sys.time] mislead under multiple domains) and
   records the equality flag that CI asserts on.  On a single-core
   container the parallel runs cannot be faster — the point of the
   record is the identity check plus an honest timing baseline. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Scheduler counters of the process-wide shared pool the parallel runs
   execute on; deltas around a run attribute chunks/steals to it. *)
let sched_stats () = Exec.stats (Exec.shared ~domains:jobs)

let sched_delta (before : Exec.stats) (after : Exec.stats) =
  ( after.Exec.chunks - before.Exec.chunks,
    after.Exec.chunks_stolen - before.Exec.chunks_stolen,
    after.Exec.steal_misses - before.Exec.steal_misses,
    Array.init
      (Array.length after.Exec.queue_depth)
      (fun i -> after.Exec.queue_depth.(i) - before.Exec.queue_depth.(i)) )

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let parallel_exp () =
  section
    (Printf.sprintf
       "Parallel execution — sequential vs -j %d (available domains: %d)" jobs
       (Domain.recommended_domain_count ()));
  pf "(parallel results must be bit-identical to sequential; wall-clock@.";
  pf " speedup requires more than one core — see available domains)@.@.";
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale c in
        let pao_seq, pao_seq_wall =
          wall (fun () -> PA.optimize ~kind:PA.Lr design)
        in
        let pao_par, pao_par_wall =
          wall (fun () -> PA.optimize ~kind:PA.Lr ~j:jobs design)
        in
        let pao_identical =
          pao_seq.PA.objective = pao_par.PA.objective
          && pao_seq.PA.reports = pao_par.PA.reports
          && pao_seq.PA.assignments = pao_par.PA.assignments
        in
        let flow_seq, flow_seq_wall = wall (fun () -> Router.Cpr.run design) in
        let sched0 = sched_stats () in
        let alloc0 = counter_value "maze.alloc_words" in
        let nodes0 = counter_value "maze.expansions" in
        let flow_par, flow_par_wall =
          wall (fun () ->
              Router.Cpr.run
                ~config:
                  { Router.Cpr.default_config with jobs; parallel_init = true }
                design)
        in
        let chunks, steals, misses, depth = sched_delta sched0 (sched_stats ()) in
        let alloc_per_node =
          let nodes = counter_value "maze.expansions" - nodes0 in
          if nodes = 0 then 0.0
          else
            float_of_int (counter_value "maze.alloc_words" - alloc0)
            /. float_of_int nodes
        in
        let s_seq = Eval.of_flow ~name:"flow-seq" flow_seq in
        let s_par = Eval.of_flow ~name:"flow-par" flow_par in
        parallel_rows :=
          {
            pr_id = c.Suite.id;
            pr_jobs = jobs;
            pao_seq_wall;
            pao_par_wall;
            pao_identical;
            flow_seq = s_seq;
            flow_par = s_par;
            flow_seq_wall;
            flow_par_wall;
            pr_chunks = chunks;
            pr_steals = steals;
            pr_steal_misses = misses;
            pr_queue_depth = depth;
            pr_alloc_per_node = alloc_per_node;
          }
          :: !parallel_rows;
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          Report.fixed 2 pao_seq_wall;
          Report.fixed 2 pao_par_wall;
          (if pao_identical then "yes" else "NO");
          Report.fixed 2 flow_seq_wall;
          Report.fixed 2 flow_par_wall;
          Printf.sprintf "%d/%d" chunks steals;
          Report.fixed 1 alloc_per_node;
          Printf.sprintf "%.2f/%d/%d" s_seq.Eval.routability s_seq.Eval.via_count
            s_seq.Eval.wirelength;
          Printf.sprintf "%.2f/%d/%d" s_par.Eval.routability s_par.Eval.via_count
            s_par.Eval.wirelength;
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "Ckt";
           "PAO seq(s)";
           Printf.sprintf "PAO -j%d(s)" jobs;
           "identical";
           "flow seq(s)";
           Printf.sprintf "flow -j%d(s)" jobs;
           "chunk/steal";
           "alloc/node";
           "seq R/V/WL";
           "par R/V/WL";
         ]
       rows);
  pf "@.Expected shape: the identical column is all-yes; the wall-clock@.";
  pf "columns converge on one core and separate once domains > 1.@.";
  pf "chunk/steal and alloc/node read against docs/PERF.md's cost model.@."

(* --------------------------------------------------------------- *)
(* mega — streamed PAO on the 10x-top scale tier                     *)
(* --------------------------------------------------------------- *)

(* The [mega] circuit is an order of magnitude past the paper's suite
   (222k nets at scale 1.0), big enough that materializing every panel
   problem is the memory bottleneck (the PAO walk builds each panel
   as it is solved): this experiment runs the PAO stage sequential vs
   parallel and checks bit-identity.  Routing is out of
   scope here — the point is panel throughput on a workload deep
   enough that the work-stealing pool has something worth stealing. *)
let mega_exp () =
  section
    (Printf.sprintf "mega — streamed PAO at 10x top (-j %d, scale %.2f)" jobs
       scale);
  pf "(panel problems are built inside the solve, never all resident;@.";
  pf " sequential and parallel streamed runs must be bit-identical)@.@.";
  let c = Suite.mega in
  let design = Suite.design ~scale c in
  let nets = Array.length (Netlist.Design.nets design) in
  let panels = Netlist.Design.num_panels design in
  pf "  %s: %d nets, %d panels@." c.Suite.id nets panels;
  let pao_seq, seq_wall =
    wall (fun () -> PA.optimize ~kind:PA.Lr design)
  in
  let sched0 = sched_stats () in
  let pao_par, par_wall =
    wall (fun () -> PA.optimize ~kind:PA.Lr ~j:jobs design)
  in
  let chunks, steals, misses, depth = sched_delta sched0 (sched_stats ()) in
  let identical =
    pao_seq.PA.objective = pao_par.PA.objective
    && pao_seq.PA.reports = pao_par.PA.reports
    && pao_seq.PA.assignments = pao_par.PA.assignments
  in
  mega_rows :=
    {
      mg_id = c.Suite.id;
      mg_nets = nets;
      mg_panels = panels;
      mg_jobs = jobs;
      mg_pao_seq_wall = seq_wall;
      mg_pao_par_wall = par_wall;
      mg_identical = identical;
      mg_chunks = chunks;
      mg_steals = steals;
      mg_steal_misses = misses;
      mg_queue_depth = depth;
    }
    :: !mega_rows;
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "Ckt"; "nets"; "panels"; "seq(s)";
           Printf.sprintf "-j%d(s)" jobs; "identical"; "chunk/steal/miss";
         ]
       [
         [
           c.Suite.id;
           string_of_int nets;
           string_of_int panels;
           Report.fixed 2 seq_wall;
           Report.fixed 2 par_wall;
           (if identical then "yes" else "NO");
           Printf.sprintf "%d/%d/%d" chunks steals misses;
         ];
       ]);
  pf "@.Expected shape: identical yes; par(s) below seq(s) once the@.";
  pf "machine exposes more than one domain.@."

(* --------------------------------------------------------------- *)
(* ECO — incremental re-optimization vs from-scratch                *)
(* --------------------------------------------------------------- *)

(* The ECO engine promises that re-optimizing after a small edit costs
   a fraction of a cold solve: clean panels come straight out of the
   content-addressed panel cache and dirty panels warm-start the LR
   from their cached multipliers.  Each step moves pins in ~5% of the
   panels; the incremental PAO wall is then compared against a full
   [PA.optimize] of the same post-edit design.  CI asserts that the
   recorded rows are well-formed (hit rate in [0,1], positive speedup);
   the >=3x factor is the expected shape, not a gate, to keep the
   smoke run flake-free on loaded runners. *)
let eco_exp () =
  section "ECO — incremental re-optimization at 5% dirty panels";
  pf "(each step moves pins in ~5%% of the panels; incremental = panel@.";
  pf " cache + warm-started LR on dirty panels, scratch = PA.optimize)@.@.";
  let steps = 6 and dirty_fraction = 0.05 in
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale c in
        let engine, cold_wall = wall (fun () -> Eco.Engine.create design) in
        let batches =
          Workloads.Eco_stream.local_moves ~seed:31L ~steps ~dirty_fraction
            design
        in
        let inc = ref 0.0 and scr = ref 0.0 and warm = ref 0 in
        List.iter
          (fun batch ->
            let r = Eco.Engine.apply engine batch in
            inc := !inc +. r.Eco.Engine.pao_wall;
            warm := !warm + r.Eco.Engine.warm_started;
            let _, w =
              wall (fun () ->
                  PA.optimize ~kind:PA.Lr (Eco.Engine.design engine))
            in
            scr := !scr +. w)
          batches;
        let n = List.length batches in
        let speedup = if n = 0 then 1.0 else !scr /. Float.max 1e-9 !inc in
        let hit_rate = Eco.Engine.cache_hit_rate engine in
        eco_rows :=
          {
            eco_id = c.Suite.id;
            eco_cold_wall = cold_wall;
            eco_steps = n;
            eco_incremental_wall = !inc;
            eco_scratch_wall = !scr;
            eco_speedup = speedup;
            eco_hit_rate = hit_rate;
            eco_warm_started = !warm;
          }
          :: !eco_rows;
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          Report.fixed 2 cold_wall;
          string_of_int n;
          Report.fixed 3 !inc;
          Report.fixed 3 !scr;
          Report.fixed 1 speedup;
          Report.fixed 3 hit_rate;
          string_of_int !warm;
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "Ckt";
           "cold(s)";
           "steps";
           "inc(s)";
           "scratch(s)";
           "speedup";
           "hit rate";
           "warm";
         ]
       rows);
  pf "@.Expected shape: speedup well above 3x at 5%% dirty — the cache@.";
  pf "serves ~95%% of the panels and the dirty rest warm-start.@."

(* --------------------------------------------------------------- *)
(* serve — the ECO service under load                                *)
(* --------------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Sustained throughput and client-observed latency of [cpr_serve]'s
   broker: 4 sessions per circuit, each streaming random edit batches
   through the full WAL-append / apply / commit pipeline (in-process —
   the wire protocol's stdio framing costs microseconds and is
   exercised by the soak harness instead).  The load generator's
   shadow-design comparison doubles as an end-to-end check that every
   acknowledged batch landed; CI asserts zero mismatches. *)
let serve_exp () =
  section "serve — ECO service throughput and latency under load";
  pf "(4 sessions x random edit batches; every batch journaled,@.";
  pf " applied incrementally and committed before the ack)@.@.";
  let clients = 4 and steps = 8 and edits_per_step = 3 in
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale c in
        let root = Filename.temp_file "cpr-serve-bench" "" in
        Sys.remove root;
        Sys.mkdir root 0o755;
        let config =
          {
            (Serve.Server.default_config ~root) with
            Serve.Server.jobs;
            now = Unix.gettimeofday;
          }
        in
        let t = Serve.Server.create config in
        let outcome =
          Serve.Loadgen.run ~design
            {
              Serve.Loadgen.default with
              Serve.Loadgen.clients;
              steps;
              edits_per_step;
              seed = 17L;
              now = Unix.gettimeofday;
            }
            (Serve.Server.handle t)
        in
        Serve.Server.shutdown t;
        rm_rf root;
        let open Serve.Loadgen in
        serve_rows :=
          {
            sv_id = c.Suite.id;
            sv_clients = clients;
            sv_batches = outcome.acked;
            sv_edits_per_sec = outcome.edits_per_sec;
            sv_p50_ms = outcome.p50_ms;
            sv_p99_ms = outcome.p99_ms;
            sv_timeouts = outcome.timeouts;
            sv_shed = outcome.shed;
            sv_mismatches = List.length outcome.mismatches;
          }
          :: !serve_rows;
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          string_of_int outcome.acked;
          Report.fixed 1 outcome.edits_per_sec;
          Report.fixed 1 outcome.p50_ms;
          Report.fixed 1 outcome.p99_ms;
          string_of_int outcome.timeouts;
          string_of_int outcome.shed;
          string_of_int (List.length outcome.mismatches);
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "Ckt"; "acked"; "edits/s"; "p50(ms)"; "p99(ms)"; "timeout"; "shed";
           "mismatch";
         ]
       rows);
  pf "@.Every acked batch is WAL-committed before the reply; mismatch@.";
  pf "must be 0 — the dumped design equals the fold of acked batches.@."

(* --------------------------------------------------------------- *)
(* libcheck — library sweep throughput and grade distribution        *)
(* --------------------------------------------------------------- *)

let libcheck_exp () =
  section
    (Printf.sprintf "libcheck — library pin-access sweep (-j %d)" jobs);
  pf "(every cell solved and audit-certified at each density level;@.";
  pf " the parallel sweep must produce the sequential report bytes)@.@.";
  let sizes =
    List.filter_map
      (fun n ->
        let scaled = int_of_float (float_of_int n *. scale) in
        if scaled >= 2 then Some scaled else None)
      [ 24; 96 ]
  in
  let sizes = if sizes = [] then [ 2 ] else sizes in
  let rows =
    List.map
      (fun n ->
        let id = Printf.sprintf "synth-%d" n in
        let params =
          { Workloads.Cell_lib.default_params with Workloads.Cell_lib.cells = n }
        in
        let cells = Workloads.Cell_lib.generate params in
        let config = Libcheck.Harness.default_config in
        let seq, lc_seq_wall =
          wall (fun () -> Libcheck.Sweep.run ~j:1 config cells)
        in
        let par, lc_par_wall =
          wall (fun () -> Libcheck.Sweep.run ~j:jobs config cells)
        in
        let render results =
          Obs.Json.to_string
            (Libcheck.Report.to_json
               (Libcheck.Report.make ~lib_name:id config results))
        in
        let lc_identical = render seq = render par in
        let report = Libcheck.Report.make ~lib_name:id config par in
        let grades =
          List.map
            (fun (g, c) -> (Libcheck.Grade.to_string g, c))
            (Libcheck.Report.grade_histogram report)
        in
        let pins = Workloads.Cell_lib.num_pins cells in
        let weak = Libcheck.Report.weak_pins report in
        let cells_per_sec =
          if lc_par_wall > 0.0 then float_of_int n /. lc_par_wall else 0.0
        in
        libcheck_rows :=
          {
            lc_id = id;
            lc_cells = n;
            lc_pins = pins;
            lc_jobs = jobs;
            lc_seq_wall;
            lc_par_wall;
            lc_identical;
            lc_cells_per_sec = cells_per_sec;
            lc_weak_pins = weak;
            lc_grades = grades;
          }
          :: !libcheck_rows;
        pf "  %s done@." id;
        [
          id;
          string_of_int n;
          string_of_int pins;
          Report.fixed 2 lc_seq_wall;
          Report.fixed 2 lc_par_wall;
          (if lc_identical then "yes" else "NO");
          Report.fixed 1 cells_per_sec;
          String.concat " "
            (List.map (fun (g, c) -> Printf.sprintf "%s=%d" g c) grades);
          string_of_int weak;
        ])
      sizes
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "library"; "cells"; "pins"; "seq(s)"; "par(s)"; "ident";
           "cells/s"; "grades"; "weak";
         ]
       rows);
  pf "@.The identity column must read yes: the sweep carves isolated@.";
  pf "budget slices up front and merges in input order, so -j never@.";
  pf "changes a single report byte.@."

(* --------------------------------------------------------------- *)
(* tpl — color-constrained pin access on dense stress layouts        *)
(* --------------------------------------------------------------- *)

(* Triple-patterning mode on the [tpl_stress] workloads: dense short
   nets whose access intervals crowd into the same track windows, so
   same-color spacing actually constrains selection.  Recorded per
   design: the routed layout's coloring outcome (solid / stitched /
   uncolored features), bit-identity of the -j2 TPL run (coloring
   included), and the no-leak flag — a TPL-off run after the TPL runs
   must still be bit-identical to one before them, which is the zero-
   drift promise the bench gate holds TPL-off rows to. *)
let tpl_exp () =
  let colors = 3 in
  section
    (Printf.sprintf "tpl — %d-color TPL-aware pin access and routing" colors);
  pf "(dense stress layouts; uncolored counts the honest residual,@.";
  pf " identical and off-identical must both read yes)@.@.";
  let deck = Drc.Tpl.make ~colors () in
  let pa_tpl =
    {
      PA.default_config with
      PA.gen =
        {
          PA.default_config.PA.gen with
          Pinaccess.Interval_gen.tpl = Some (Drc.Tpl.params deck);
        };
    }
  in
  let size n = max 8 (int_of_float (float_of_int n *. scale)) in
  let cases =
    [
      Workloads.Generator.tpl_stress_params ~rows:2 ~nets:(size 120) ~width:48
        ~seed:5L ();
      Workloads.Generator.tpl_stress_params ~rows:3 ~nets:(size 260) ~width:72
        ~seed:6L ();
    ]
  in
  let rows =
    List.map
      (fun params ->
        let design = Workloads.Generator.generate params in
        let id = params.Workloads.Generator.name in
        let nets = Array.length (Netlist.Design.nets design) in
        let before = PA.optimize ~kind:PA.Lr design in
        let seq, pao_wall =
          wall (fun () -> PA.optimize ~config:pa_tpl ~kind:PA.Lr design)
        in
        let par = PA.optimize ~config:pa_tpl ~kind:PA.Lr ~j:jobs design in
        let identical =
          seq.PA.objective = par.PA.objective
          && seq.PA.assignments = par.PA.assignments
          && seq.PA.tpl = par.PA.tpl
        in
        let flow, flow_wall =
          wall (fun () ->
              Router.Cpr.run
                ~config:{ Router.Cpr.default_config with Router.Cpr.tpl = Some deck }
                design)
        in
        let stats =
          match flow.Router.Flow.tpl_stats with
          | Some s -> s
          | None -> failwith "tpl flow recorded no TPL stats"
        in
        (* the no-leak check: TPL runs must leave no trace in a
           following TPL-off solve *)
        let after = PA.optimize ~kind:PA.Lr design in
        let off_identical =
          before.PA.objective = after.PA.objective
          && before.PA.assignments = after.PA.assignments
          && before.PA.reports = after.PA.reports
        in
        let s = Eval.of_flow ~name:("tpl-" ^ id) flow in
        tpl_rows :=
          {
            tp_id = id;
            tp_colors = colors;
            tp_nets = nets;
            tp_features = stats.Drc.Tpl.features;
            tp_solid = stats.Drc.Tpl.solid;
            tp_stitched = stats.Drc.Tpl.stitched;
            tp_uncolored = stats.Drc.Tpl.uncolored;
            tp_identical = identical;
            tp_off_identical = off_identical;
            tp_pao_wall = pao_wall;
            tp_flow_wall = flow_wall;
            tp_summary = s;
          }
          :: !tpl_rows;
        pf "  %s done@." id;
        [
          id;
          string_of_int nets;
          string_of_int stats.Drc.Tpl.features;
          Printf.sprintf "%d/%d/%d" stats.Drc.Tpl.solid stats.Drc.Tpl.stitched
            stats.Drc.Tpl.uncolored;
          (if identical then "yes" else "NO");
          (if off_identical then "yes" else "NO");
          Report.fixed 2 pao_wall;
          Report.fixed 2 flow_wall;
          Printf.sprintf "%.2f/%d/%d" s.Eval.routability s.Eval.via_count
            s.Eval.wirelength;
        ])
      cases
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "design"; "nets"; "feat"; "solid/stitch/uncol";
           Printf.sprintf "-j%d ident" jobs; "off ident"; "PAO(s)"; "flow(s)";
           "R/V/WL";
         ]
       rows);
  pf "@.Expected shape: both identity columns all-yes; stitches appear@.";
  pf "under density and uncolored stays a small honest residual.@."

(* --------------------------------------------------------------- *)
(* tune — untuned vs bandit-tuned PAO                                *)
(* --------------------------------------------------------------- *)

(* The adaptive tuner's honest comparison: the untuned PAO stage vs
   the seeded-bandit tuner on the paper suite, measured in work units
   (LR iterations, the tuner's own reward currency) rather than wall
   clock, so the row is reproducible on any machine.  The off_identical
   flag is the zero-drift promise the bench gate holds: an untuned
   solve after the tuned one must be bit-identical to one before it —
   tuning leaves no trace when it is off. *)
let tune_exp () =
  let tune_seed = 0 in
  section
    (Printf.sprintf "tune — untuned vs bandit-tuned PAO (seed %d)" tune_seed);
  pf "(work units = LR iterations, the reward currency of DESIGN.md §12;@.";
  pf " off-identical must read yes: tuning leaves no trace when off)@.@.";
  let rows =
    List.map
      (fun c ->
        let design = Suite.design ~scale c in
        let panels = Netlist.Design.num_panels design in
        let w0 = counter_value "lr.iterations" in
        let untuned, untuned_wall =
          wall (fun () -> PA.optimize ~kind:PA.Lr design)
        in
        let untuned_work = counter_value "lr.iterations" - w0 in
        let tuner =
          Tune.Tuner.create
            ~seed:(Int64.of_int tune_seed)
            (Tune.Tuner.Bandit 0L)
        in
        let w1 = counter_value "lr.iterations" in
        let tuned, tuned_wall =
          wall (fun () ->
              PA.optimize ?tune:(Tune.Tuner.pa_hook tuner) ~kind:PA.Lr design)
        in
        let tuned_work = counter_value "lr.iterations" - w1 in
        let after = PA.optimize ~kind:PA.Lr design in
        let off_identical =
          untuned.PA.objective = after.PA.objective
          && untuned.PA.assignments = after.PA.assignments
          && untuned.PA.reports = after.PA.reports
        in
        let pulls, regret, histogram =
          match Tune.Tuner.bandit tuner with
          | Some b ->
            (Tune.Bandit.pulls b, Tune.Bandit.regret_proxy b,
             Tune.Bandit.histogram b)
          | None -> (0, 0.0, [])
        in
        tune_rows :=
          {
            tn_id = c.Suite.id;
            tn_panels = panels;
            tn_seed = tune_seed;
            tn_untuned_wall = untuned_wall;
            tn_tuned_wall = tuned_wall;
            tn_untuned_work = untuned_work;
            tn_tuned_work = tuned_work;
            tn_untuned_obj = untuned.PA.objective;
            tn_tuned_obj = tuned.PA.objective;
            tn_off_identical = off_identical;
            tn_pulls = pulls;
            tn_regret = regret;
            tn_histogram = histogram;
          }
          :: !tune_rows;
        pf "  %s done@." c.Suite.id;
        [
          c.Suite.id;
          string_of_int panels;
          string_of_int untuned_work;
          string_of_int tuned_work;
          Report.fixed 3
            (float_of_int tuned_work
            /. Float.max 1.0 (float_of_int untuned_work));
          Report.fixed 1 untuned.PA.objective;
          Report.fixed 1 tuned.PA.objective;
          (if off_identical then "yes" else "NO");
          Report.fixed 2 untuned_wall;
          Report.fixed 2 tuned_wall;
          String.concat " "
            (List.map (fun (a, n) -> Printf.sprintf "%s=%d" a n) histogram);
        ])
      (circuits ())
  in
  pf "@.%s@."
    (Report.table
       ~header:
         [
           "Ckt"; "panels"; "work"; "tuned work"; "ratio"; "obj"; "tuned obj";
           "off ident"; "wall(s)"; "tuned wall(s)"; "policy histogram";
         ]
       rows);
  pf "@.Expected shape: off-identical all-yes; the work ratio dips below@.";
  pf "1.0 on at least one circuit as the bandit locks onto cheaper@.";
  pf "schedules at equal objective (the gate's --require-tune check).@."

let experiments =
  [
    ("table2", table2);
    ("fig6", fig6);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("ablation-f", ablation_f);
    ("ablation-step", ablation_step);
    ("ablation-ub", ablation_ub);
    ("parallel", parallel_exp);
    ("mega", mega_exp);
    ("eco", eco_exp);
    ("serve", serve_exp);
    ("libcheck", libcheck_exp);
    ("tpl", tpl_exp);
    ("tune", tune_exp);
    ("kernels", kernels);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst experiments
  in
  pf "CPR reproduction bench — scale %.2f (CPR_BENCH_SCALE to change)@." scale;
  let ran = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        f ();
        ran := name :: !ran
      | None ->
        pf "unknown experiment %s; available: %s@." name
          (String.concat ", " (List.map fst experiments)))
    requested;
  write_telemetry ~ran:(List.rev !ran)
