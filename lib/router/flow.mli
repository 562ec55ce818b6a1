(** Shared routing-flow result and the common post-routing pipeline:
    line-end extension, DRC, and the paper's fair-comparison accounting
    (nets blamed for remaining violations count as unrouted). *)

type t = {
  design : Netlist.Design.t;
  routes : Rgrid.Route.t option array;
      (** per net, after line-end extension; [None] = not connected *)
  clean : bool array;
      (** per net: connected and free of blamed DRC violations — the
          nets the paper counts as routed *)
  initial_congestion : int;
  ripup_iterations : int;
  total_reroutes : int;
  violations : Drc.Check.violation list;
  extension : Drc.Line_end.stats;
  tpl : Drc.Tpl.t option;
      (** the TPL deck (when the flow ran color-constrained), recorded
          so an external audit can replay the exact same coloring *)
  tpl_stats : Drc.Tpl.stats option;
      (** the final coloring verdict over the extended metal; its
          blamed nets were folded into [clean] alongside DRC blame *)
  pao : Pinaccess.Pin_access.t option;
  reused_routes : int;
      (** nets whose previous route was frozen and carried over by an
          incremental (ECO) run; [0] for from-scratch flows *)
  elapsed : float;  (** cpu seconds for the whole flow *)
}

val finish :
  ?tpl:Drc.Tpl.t ->
  ?reused:int ->
  grid:Rgrid.Grid.t ->
  pao:Pinaccess.Pin_access.t option ->
  initial_congestion:int ->
  ripup_iterations:int ->
  total_reroutes:int ->
  started:float ->
  layout:Drc.Extract.layout ->
  Rgrid.Route.t option array ->
  t
(** Runs line-end extension over the routes, pushes its fills back
    into the routes and the grid, checks DRC ({!Drc.Rules.default}) on
    the extended metal and computes [clean].  The metal is extracted
    into [layout], the buffer the caller's rip-up probes used, so a
    flow holds one.  With [tpl] the extended metal is also colored and
    nets with uncolorable features are blamed (counted unrouted)
    alongside DRC blame.  [reused] (default 0) records how many routes
    an incremental caller froze. *)

val routed_count : t -> int
(** Number of clean nets. *)

val routability : t -> float
(** [routed_count / total nets]. *)

val degraded : t -> bool
(** [true] when the pin access stage fell back below its requested
    solver on some panel (or was cut short by its budget); [false] for
    flows without a PAO stage. *)
