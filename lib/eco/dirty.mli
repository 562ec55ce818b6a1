(** The dependency index: which panels (and which regions of the
    routing grid) a batch of deltas invalidates.

    Pin access optimization is panel-local, but a pin's candidate
    intervals depend on more than its own panel slot (DESIGN.md §9):

    - the pin's own panel — its intervals live there, and the pin's
      edges define *cutting lines* that clip every other same-track
      candidate in that panel (paper Sec. 3.1);
    - every panel holding a pin of the same net, before and after the
      edit — interval generation clips candidates to the net bounding
      box, and moving any pin of the net can stretch or shrink that box
      for all of them;
    - for an M2 blockage edit, the blockage's panel (blocked column
      spans clip candidates);
    - for a rule change ([Set_clearance]), every panel.

    M3 blockages never dirty a panel (interval generation reads M2
    geometry only) but do dirty the routing region they cover.

    The index is advisory for the panel cache — the content-addressed
    key is the authority on whether a panel's solution can be reused —
    and authoritative for routing: a route is only reconsidered when
    its net changed or its bounding box meets a dirty rect. *)

type t = {
  panels : int list;  (** dirty panel indices, ascending, deduplicated *)
  rects : Geometry.Rect.t list;
      (** dirty routing regions: one full-width band per dirty panel,
          plus the footprint of every added/removed M3 blockage *)
}

val compute :
  before:Netlist.Design.t -> Delta.t list -> Netlist.Design.t * t
(** Apply the batch in one pass over the design's spec, marking each
    delta on the spec before and after it (so location references
    resolve against the state they were written for), then rebuild the
    design once; returns the edited design and the dirty set.  An empty
    batch returns [before] itself.
    @raise Delta.Invalid as {!Delta.apply_all} would, with the
    offending delta's index. *)

val clean : t -> bool
(** No dirty panels and no dirty rects. *)
