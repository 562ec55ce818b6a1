(* The --trace half of a run: spans and Obs.Metrics counters the
   library already emits, folded over the traced repetitions, plus the
   figures the workload drivers note themselves. *)

type t = {
  fold : Fold.t;
  counters : (string, int) Hashtbl.t;
  hists : (string, int * float) Hashtbl.t;  (* count, sum *)
  notes : (string, float) Hashtbl.t;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable traced_walls : float list;
  mutable plain_walls : float list;
}

let create () =
  {
    fold = Fold.create ();
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    notes = Hashtbl.create 8;
    minor_words = 0.0;
    major_collections = 0;
    traced_walls = [];
    plain_walls = [];
  }

let bump tbl key f default =
  Hashtbl.replace tbl key (f (Option.value ~default (Hashtbl.find_opt tbl key)))

let note t key v = bump t.notes key (fun x -> x +. v) 0.0

(* Run [f] under the fold sink and add its metric and GC window. *)
let traced t f =
  let m0 = Obs.Metrics.snapshot () and g0 = Gc.quick_stat () in
  let x = Obs.Trace.with_sink (Fold.sink t.fold) f in
  let g1 = Gc.quick_stat () and m1 = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff ~before:m0 ~after:m1 in
  List.iter (fun (k, v) -> bump t.counters k (( + ) v) 0) d.Obs.Metrics.counters;
  List.iter
    (fun (k, (h : Obs.Metrics.histogram_stats)) ->
      bump t.hists k (fun (c, s) -> (c + h.count, s +. h.sum)) (0, 0.0))
    d.Obs.Metrics.histograms;
  t.minor_words <- t.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  t.major_collections <-
    t.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  Fold.clear_roots t.fold;
  x

type 'a rep = note:(string -> float -> unit) -> float * 'a

(* Repetition [i] of a traced run: odd ones traced, even ones plain, so
   both halves see the same warm-up and machine drift.  A repetition
   returns its wall and whatever must run after the traced window. *)
let rep t i (f : 'a rep) =
  if i mod 2 = 1 then begin
    let wall, after = traced t (fun () -> f ~note:(note t)) in
    t.traced_walls <- wall :: t.traced_walls;
    after
  end
  else begin
    let wall, after = f ~note:(fun _ _ -> ()) in
    t.plain_walls <- wall :: t.plain_walls;
    after
  end

let ratio a b = if b > 0.0 then a /. b else 0.0

(* [fanout] is the span whose [tasks] spans the pool runs in parallel.
   Fan-out figures come from per-name busy totals: self times around a
   fan-out are unreliable (see Fold). *)
let layers t ~jobs ~fanout ~tasks =
  let span = Fold.span t.fold in
  let busy name = (span name).Fold.busy in
  let count name = float_of_int (span name).Fold.count in
  let counter k =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counters k))
  in
  let noted k = Option.value ~default:0.0 (Hashtbl.find_opt t.notes k) in
  let reps = float_of_int (max 1 (List.length t.traced_walls)) in
  let per_rep x = x /. reps in
  let domain_time =
    List.fold_left ( +. ) 0.0 t.traced_walls *. float_of_int jobs
  in
  let pct x = 100.0 *. ratio x domain_time in
  let expansions = counter "maze.expansions" in
  let lr_iterations = counter "lr.iterations" in
  let intervals, intervals_sum =
    Option.value ~default:(0, 0.0)
      (Hashtbl.find_opt t.hists "pao.intervals_per_pin")
  in
  let hits = counter "eco.panel_cache.hits"
  and misses = counter "eco.panel_cache.misses" in
  let edits = noted "edits" and edit_latency = noted "edit_latency_s" in
  let exec_jobs = counter "exec.jobs" and steals = counter "exec.steals" in
  let reroutes = counter "negotiation.reroutes" in
  let cells = busy "libcheck.cell" in
  let overhead =
    match (t.traced_walls, t.plain_walls) with
    | [], _ | _, [] -> 0.0
    | traced, plain -> (Stats.median traced /. Stats.median plain) -. 1.0
  in
  [
    ("pinaccess.busy_pct", pct (busy "pao.panel"));
    ("pinaccess.lr.busy_pct", pct (busy "pao.tier.lr"));
    ("pinaccess.lr.iterations", per_rep lr_iterations);
    ( "pinaccess.lr.us_per_iteration",
      1e6 *. ratio (busy "lr.iteration") (count "lr.iteration") );
    ( "pinaccess.lr.iterations_per_solve",
      ratio lr_iterations (count "pao.tier.lr") );
    ("pinaccess.intervals.busy_pct", pct (busy "pao.intervals"));
    ("pinaccess.refine.busy_pct", pct (busy "pao.refine"));
    ( "pinaccess.intervals_per_pin",
      ratio intervals_sum (float_of_int intervals) );
    ("rgrid.maze.expansions", per_rep expansions);
    ( "rgrid.maze.pushes_per_expansion",
      ratio (counter "maze.pushes") expansions );
    ( "rgrid.maze.alloc_words_per_expansion",
      ratio (counter "maze.alloc_words") expansions );
    ("router.busy_pct", pct (busy "cpr.route"));
    ("router.route_net.busy_pct", pct (busy "route.net"));
    ( "router.route_net.kexpansions_per_s",
      ratio expansions (busy "route.net") /. 1000.0 );
    ( "router.negotiation.busy_pct",
      pct (busy "negotiation.round" +. busy "negotiation.drc_round") );
    ("router.finish.busy_pct", pct (span "cpr.route").Fold.self);
    ("router.reroutes", per_rep reroutes);
    ("router.routed_per_attempt", ratio (noted "routed") reroutes);
    ( "exec.pao_efficiency",
      ratio
        (List.fold_left (fun acc n -> acc +. busy n) 0.0 tasks)
        (busy fanout *. float_of_int jobs) );
    ("exec.steal_ratio", ratio steals (counter "exec.chunks" +. steals));
    ("exec.steal_misses_per_job", ratio (counter "exec.steal_misses") exec_jobs);
    ("exec.tasks_per_job", ratio (counter "exec.tasks") exec_jobs);
    ("eco.apply.busy_pct", pct (busy "eco.apply"));
    ("eco.create.busy_pct", pct (busy "eco.create"));
    ("eco.cache_hits", per_rep hits);
    ("eco.cache_misses", per_rep misses);
    ("eco.cache_hit_ratio", ratio hits (hits +. misses));
    ("eco.solves_per_edit", ratio (noted "solved") edits);
    ( "serve.overhead_pct",
      100.0 *. ratio (edit_latency -. busy "eco.apply") edit_latency );
    ("serve.checkpoints", per_rep (counter "serve.checkpoints"));
    ("serve.wal_bytes_per_edit", ratio (noted "wal_bytes") edits);
    ("libcheck.cell.busy_pct", pct cells);
    (* a cell's own time outside the pao.optimize calls it makes *)
    ( "libcheck.harness.busy_pct",
      if cells > 0.0 then pct (cells -. busy "pao.optimize") else 0.0 );
    ( "libcheck.pao_calls_per_cell",
      ratio (count "pao.optimize") (count "libcheck.cell") );
    ("gc.minor_words_per_op", ratio t.minor_words (noted "ops"));
    ("gc.major_collections", per_rep (float_of_int t.major_collections));
    ("obs.trace_overhead", overhead);
  ]
