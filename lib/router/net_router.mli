(** Multi-component net routing: connect a net's components — bare pin
    landings, or pin access intervals acting as partial routes — into
    one tree with repeated maze searches, then trim the metal the
    connection did not use.

    Trimming is what keeps the paper's WL comparable across flows: a
    maximum-length interval gives the router freedom (any of its grids
    is a legal via spot), but only the strip between its pins' V1
    landings and the points where paths attach becomes final metal
    (Fig. 5(a) shows the residual detour cost). *)

type anchor = {
  pin : Netlist.Pin.id;
  landing : Rgrid.Node.t option;
      (** [Some n]: the V1 must land at [n] (an interval covers the pin
          column there).  [None]: the V1 lands wherever a path touches
          the component (a bare pin reachable on any of its tracks). *)
}

type component = {
  nodes : Rgrid.Node.t list;  (** M2 nodes; non-empty *)
  anchors : anchor list;  (** pins connecting through this component *)
}

type spec = {
  net : Netlist.Net.id;
  components : component list;
  bbox : Geometry.Rect.t;  (** hull of component coordinates *)
}

val spec_of_components :
  space:Rgrid.Node.space -> net:Netlist.Net.id -> component list -> spec
(** Computes the bbox. @raise Invalid_argument on an empty net. *)

val route :
  ?budget:Pinaccess.Budget.t ->
  Rgrid.Maze.t ->
  cost:Rgrid.Cost.t ->
  pfac:float ->
  spec ->
  Rgrid.Route.t option
(** Components are connected in left-to-right order; each connection
    searches inside the spec bbox inflated by [cost.bbox_margin],
    retrying with [cost.retry_margins].  The result contains the path
    nodes, the trimmed component metal and the realized V1 landings;
    [None] when some component stays unreachable.  [budget] (default
    unlimited) bounds the maze searches per expanded node (expansions
    are spent back as work units); on exhaustion the net simply reports
    unroutable, which negotiation treats as any other failure. *)

type attempt =
  | Routed of Rgrid.Route.t
  | Stopped  (** the budget was exhausted before a search *)
  | Unreachable
      (** some component found no path inside the last margin's
          window *)

val attempt :
  budget:Pinaccess.Budget.t ->
  margins:int list ->
  Rgrid.Maze.t ->
  cost:Rgrid.Cost.t ->
  pfac:float ->
  spec ->
  attempt
(** The search behind {!route}, with its margins explicit: an
    exhausted [budget] ends the net before any margin's search, each
    search spends its expansions into [budget], and a component tries
    [margins] in order.  {!route} is [attempt] over
    [cost.bbox_margin :: cost.retry_margins]; a parallel caller passes
    the first margin alone, so a net that reads only inside its first
    window says so by not answering [Unreachable]. *)
