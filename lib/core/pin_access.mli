(** Top-level concurrent pin access optimization: panel-by-panel (the
    paper's production mode) or over a combined multi-panel instance
    (the Fig. 6 scalability mode).

    Every entry point runs a per-panel degradation ladder under the
    optional {!Budget}: the requested solver first (ILP or LR), then —
    on a typed solver failure, an injected fault or budget pressure —
    the next tier down, ending at the shrink-to-minimum assignment that
    Theorem 1 guarantees feasible.  The serving tier and a [degraded]
    flag are recorded per panel, so callers always get a validated
    assignment within the budget plus an honest account of how it was
    obtained. *)

type solver_kind = Ilp | Lr

type tier =
  | Tier_ilp  (** exact branch-and-bound *)
  | Tier_lr  (** Lagrangian relaxation *)
  | Tier_minimum  (** shrink-to-minimum fallback (paper Sec. 3.1) *)

type config = {
  gen : Interval_gen.config;
  lr : Lagrangian.config;
      (** also seeds the ILP tier's incumbent with an LR solve *)
}

val default_config : config

type panel_report = {
  panel : int;
  pins : int;
  intervals : int;
  cliques : int;
  objective : float;
  lr_iterations : int;  (** 0 for the pure-ILP and minimum paths *)
  proven_optimal : bool;
      (** the serving tier ran to its own completion (ILP: optimality
          proved; LR: converged/plateaued before any budget expiry) *)
  served_by : tier;  (** which rung of the ladder produced the panel *)
  degraded : bool;
      (** the panel was not served by the requested solver running to
          completion — a lower tier answered or the budget cut in *)
}

type tpl_coloring = {
  tpl_params : Solver.Color_graph.params;  (** the deck that was on *)
  features : (int * int * int * int) array;
      (** distinct selected intervals as [(track, lo, hi, net)],
          canonically sorted — the coloring's input, independent of
          panel solve order (so independent of [j]) *)
  colors : Solver.Color_graph.assignment array;
      (** one assignment per feature, same indexing *)
  tpl_stitches : int;  (** features colored via a stitch *)
  tpl_residual : int;
      (** features left [Uncolored] — an honest residual, reported like
          [degraded] rather than hidden *)
}
(** Result of the global TPL coloring pass run after the panel merge
    when the [tpl] deck of {!Interval_gen.config} is on. *)

type solved = {
  assignments : (Netlist.Pin.id * Access_interval.t) list;
  report : panel_report;
  multipliers : float array;
      (** the LR tier's final vector, one entry per [Problem.cliques]
          clique ([[||]] when another tier served the panel) *)
  warm_started : bool;  (** the LR tier was offered a warm start *)
}
(** One panel as the walk solved it. *)

type t = {
  design : Netlist.Design.t;
  kind : solver_kind;  (** the *requested* solver *)
  assignments : (Netlist.Pin.id * Access_interval.t) list;
      (** conflict-free: one interval per pin of the design *)
  objective : float;  (** summed over panels *)
  reports : panel_report list;
  degraded : bool;  (** any panel degraded *)
  elapsed : float;  (** wall-clock seconds *)
  tpl : tpl_coloring option;
      (** [Some] iff the TPL deck was on in [config.gen.tpl] *)
}

val optimize :
  ?config:config ->
  ?budget:Budget.t ->
  ?j:int ->
  ?stream:bool ->
  kind:solver_kind ->
  Netlist.Design.t ->
  t
(** Solve every panel of the design independently, in one walk over
    the live (pin-bearing) panels.  Each panel's problem is built
    inside its solve task and dropped once the panel is solved, so no
    more problems are resident than are being solved — the memory
    contract large ([mega]-tier) designs need.

    The walk hands the live panels equal, isolated slices of the
    budget ({!Fanout.run}: work units split exactly, never more than
    the remainder; a deadline shared out as panels start).  A panel
    whose slice is already exhausted is served directly by the minimum
    tier, so the call still returns promptly with a feasible result.

    [j] (default 1) is the number of domains the walk is fanned out
    over, the paper's production-mode concurrency ([j > 1] reuses the
    process-wide {!Exec.shared} pool — no domain spawns per call).
    Per-panel results, metrics, spans and budget spend are merged back
    in panel order, so with no budget or a work-unit budget, [~j:n]
    returns bit-identical assignments, reports, objective and coloring
    to [~j:1] for any [n].

    [stream] is accepted and ignored: every run builds its panels in
    the task.
    @raise Cpr_error.Error ([Infeasible_panel]) when a pin has no
    access interval at all (blocked primary track) — no tier can serve
    such a design. *)

val optimize_combined :
  ?config:config ->
  ?budget:Budget.t ->
  kind:solver_kind ->
  Netlist.Design.t ->
  panels:int list ->
  t
(** Solve the given panels as a single instance (used by the Fig. 6
    sweep, where instance size is the experiment variable). *)

val build_panel : config -> Netlist.Design.t -> panel:int -> Problem.t
(** Build one panel's assignment problem (interval generation + conflict
    sweep) exactly as [optimize] does internally.
    @raise Cpr_error.Error ([Infeasible_panel]) when a pin of the panel
    has no access interval at all (blocked primary track). *)

(** {2 The walk for incremental callers} *)

val solve_panels :
  config ->
  budget:Budget.t ->
  pool:Exec.t ->
  kind:solver_kind ->
  warm:(panel:int -> Problem.t -> float array option) ->
  keep:(panel:int -> Problem.t -> solved -> 'a) ->
  Netlist.Design.t ->
  int list ->
  (solved * 'a) list
(** The walk of {!optimize} over the given live panels
    (ascending), on [pool] when it has more than one domain.  Inside
    each panel's task, once the problem is built, [warm] returns the
    LR warm start (one multiplier per clique, typically from a
    previous solve) and, after the ladder, [keep] packages whatever
    the caller needs from the problem before it is dropped.  The
    incremental engine's ([Eco.Engine]) entry point: it hands the walk
    its cache misses only. *)

val assemble :
  config ->
  kind:solver_kind ->
  Netlist.Design.t ->
  started:float ->
  ((Netlist.Pin.id * Access_interval.t) list * panel_report) list ->
  t
(** The result of a walk: per-panel assignments and reports in panel
    order, summed objective, and the global TPL coloring when the deck
    is on.  [elapsed] counts from [started] ({!Obs.Clock.now}).
    {!optimize} ends with it; incremental callers merging cached
    panels with solved ones call it on the merge. *)

val interval_of_pin : t -> Netlist.Pin.id -> Access_interval.t option

val validate : ?complete:bool -> t -> unit
(** Re-checks the global invariants: the interval of each assignment
    serves its pin, no pin is assigned twice, and no two assigned
    intervals of different nets overlap.  With [complete] (default)
    additionally every pin of the design must be assigned — pass
    [~complete:false] for [optimize_combined] over a panel subset.
    @raise Cpr_error.Error ([Solver_failure]) on violation. *)

val solver_kind_to_string : solver_kind -> string
val tier_to_string : tier -> string
val tier_of_kind : solver_kind -> tier
