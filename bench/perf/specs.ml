type spec = {
  name : string;
  unit_ : string;
  better : Verdict.better;
  bound : float option;
}

let spec ?bound name unit_ better = { name; unit_; better; bound }

open Verdict

let end_to_end =
  [
    spec "setup_s" "s" Lower ~bound:0.25;
    spec "wall_s" "s" Lower ~bound:0.25;
    spec "objective_share" "ratio" Higher ~bound:0.1;
    spec "peak_rss_mb" "MB" Lower ~bound:0.25;
  ]

(* Layer metrics: a busy share is Σ span time over (traced wall × jobs),
   so it reads at most 100%. *)
let per_layer =
  [
    spec "pinaccess.busy_pct" "%" Lower;
    spec "pinaccess.lr.busy_pct" "%" Lower;
    spec "pinaccess.lr.iterations" "count" Lower;
    spec "pinaccess.lr.us_per_iteration" "us" Lower;
    spec "pinaccess.lr.iterations_per_solve" "count" Lower;
    spec "pinaccess.intervals.busy_pct" "%" Lower;
    spec "pinaccess.refine.busy_pct" "%" Lower;
    spec "pinaccess.intervals_per_pin" "count" Lower;
    spec "rgrid.maze.expansions" "count" Lower;
    spec "rgrid.maze.pushes_per_expansion" "count" Lower;
    spec "rgrid.maze.alloc_words_per_expansion" "words" Lower;
    spec "router.busy_pct" "%" Lower;
    spec "router.route_net.busy_pct" "%" Lower;
    spec "router.route_net.kexpansions_per_s" "kexp/s" Higher;
    spec "router.negotiation.busy_pct" "%" Lower;
    spec "router.finish.busy_pct" "%" Lower;
    spec "router.reroutes" "count" Lower;
    spec "router.routed_per_attempt" "ratio" Higher;
    spec "exec.pao_efficiency" "ratio" Higher;
    spec "exec.steal_ratio" "ratio" Lower;
    spec "exec.steal_misses_per_job" "count" Lower;
    spec "exec.tasks_per_job" "count" Higher;
    spec "eco.apply.busy_pct" "%" Lower;
    spec "eco.create.busy_pct" "%" Lower;
    spec "eco.cache_hits" "count" Higher;
    spec "eco.cache_misses" "count" Lower;
    spec "eco.cache_hit_ratio" "ratio" Higher;
    spec "eco.solves_per_edit" "count" Lower;
    spec "serve.overhead_pct" "%" Lower;
    spec "serve.checkpoints" "count" Lower;
    spec "serve.wal_bytes_per_edit" "B" Lower;
    spec "libcheck.cell.busy_pct" "%" Lower;
    spec "libcheck.harness.busy_pct" "%" Lower;
    spec "libcheck.pao_calls_per_cell" "count" Lower;
    spec "gc.minor_words_per_op" "words" Lower;
    spec "gc.major_collections" "count" Lower;
    spec "obs.trace_overhead" "ratio" Lower;
  ]

(* Workload-specific figures, printed and recorded with --json but not
   declared in BENCHMARK.json, which asks every workload for every
   metric. *)
let detail =
  [
    spec "routability_pct" "%" Higher ~bound:0.01;
    spec "via_count" "count" Lower ~bound:0.01;
    spec "wirelength" "grids" Lower ~bound:0.01;
    spec "drc_violations" "count" Lower ~bound:0.01;
    spec "pao_objective" "sqrt-grid" Higher ~bound:0.01;
    spec "edits_per_s" "edits/s" Higher ~bound:0.25;
    spec "edit_tail_ms" "ms" Lower ~bound:0.25;
    spec "cells_per_s" "cells/s" Higher ~bound:0.25;
    spec "failed_ratio" "ratio" Lower ~bound:0.0;
  ]

let find name =
  List.find_opt (fun s -> s.name = name) (end_to_end @ per_layer @ detail)
