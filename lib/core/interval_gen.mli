(** Track-based pin access interval generation (paper Sec. 3.1).

    For each pin and each M2 track the pin overlaps, candidate
    intervals are enumerated inside the net bounding box, clipped at
    routing blockages, with left/right edges at the vertical cutting
    lines of diff-net pins (so [O(m*n)] candidates when [m] diff-net
    pins lie left and [n] right of the pin).  The minimum interval (the
    pin column itself, on the pin's primary track) is always produced:
    minimum intervals are pairwise disjoint, which is what makes
    Formula (1) feasible (Theorem 1). *)

type config = {
  weighting : Objective.weighting;
  m2_bbox_margin : int option;
      (** Footnote 1: when [Some k], clip interval generation to the
          estimated M2 box — the pin column inflated by [k] grids —
          instead of the full net bounding box.  [None] uses the net
          bounding box. *)
  max_per_pin : int;
      (** Cap on candidates per pin per track; longest candidates are
          kept (minimum and maximum intervals always survive). *)
  clearance : int;
      (** Design-rule-aware conflict slack: selected intervals keep
          [clearance + 1] grids of line-end room (see
          {!Conflict.detect}); default 2, matching the SADP deck's
          min line-end gap of 2 (gap >= clearance). *)
  min_window : int option;
      (** Library-check mode: grow each pin's generation bounds to at
          least [±window] grid columns around the pin column (clamped
          to the die), on top of the net bounding box.  A single-pin
          net — how the library checker models every cell pin — has a
          degenerate bounding box, so without a window its only
          candidate is the pin column itself.  [None] (default)
          reproduces the paper's net-bbox clipping exactly. *)
  tpl : Solver.Color_graph.params option;
      (** Triple-patterning mode: when [Some params],
          {!Problem.of_intervals} appends the color cliques of
          {!Conflict.detect_color} to the access cliques (so every
          solver tier prices color contention) and
          {!Pin_access.optimize} runs the deterministic global
          coloring pass over the selected intervals.  [None]
          (default) is bit-identical to the pre-TPL pipeline.  The
          field rides inside every [Problem.config], so ECO cache keys
          and audit certificates pick the deck up automatically. *)
}

val default_config : config

exception Pin_unreachable of Netlist.Pin.id
(** Raised when a pin's primary-track column is covered by an M2
    blockage: no minimum interval exists and the design is unroutable
    as placed. *)

val generate_pin :
  config -> Netlist.Design.t -> Netlist.Pin.t -> (Netlist.Pin.id list * int * Geometry.Interval.t * Access_interval.kind) list
(** Raw candidates for one pin as [(pins_served, track, span, kind)]:
    the minimum interval of every free track, then each free track's
    regular candidates in (left, right) edge order; [pins_served] is in
    column order.  Exposed for unit tests and the library checker.
    Candidates of several pins must still be deduplicated by
    [generate_panel], which runs the same kernel. *)

val generate_panel :
  config -> Netlist.Design.t -> panel:int -> Access_interval.t array
(** All access intervals of a panel, deduplicated ([(net, track, span)]
    identifies an interval, a minimum one when any duplicate is), with
    dense ids [0..n-1] in (track, lo, hi, net) order.  An interval's
    pins are in column order, or in ascending id order when several
    candidates merged into it.  Each pin records its candidate count in
    the [pao.intervals_per_pin] histogram, in the panel's pin order, up
    to the first pin whose primary track is blocked, which raises
    {!Pin_unreachable}. *)
