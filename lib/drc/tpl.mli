(** Triple-patterning (TPL) rule deck: layout-level color checking.

    A TPL deck assigns every M2 wire segment to one of [k] masks
    (colors); two features closer than the same-color spacing — in x,
    within a small track window — must land on different masks, and a
    feature that cannot take any single color may be split once at a
    stitch into two legally-colored pieces.  The deck wraps
    {!Solver.Color_graph.params}, the same record the pin-access
    solvers price ({!Pinaccess.Conflict.detect_color}) and the audit
    re-derives, so one parameter set drives selection, routing cost,
    checking and certification. *)

type t

val make : colors:int -> unit -> t
(** A deck with the given color count and the other knobs of
    {!Solver.Color_graph.default}; {!of_params} wraps any other
    record.
    @raise Invalid_argument when [colors < 2]. *)

val of_params : Solver.Color_graph.params -> t
(** Wrap an existing parameter record (e.g. the one stored in
    {!Pinaccess.Interval_gen.config}).
    @raise Invalid_argument when its color count is below 2. *)

val params : t -> Solver.Color_graph.params
val colors : t -> int
val stitch_cost : t -> float

val to_string : t -> string
(** Canonical one-line rendering of every knob — stable across runs, so
    safe as a cache-key component ({!Eco.Panel_cache}). *)

type feature = { track : int; span : Geometry.Interval.t; net : int }
(** An M2 wire segment as a mask feature. *)

type violation = {
  track : int;
  span : Geometry.Interval.t;
  net : int;  (** the net charged: its feature could not be colored *)
  neighbors : int list;
      (** nets of the conflicting features crowding it, sorted unique *)
  where : string;  (** human-readable location for reports *)
}

type stats = {
  features : int;
  solid : int;  (** features colored without a stitch *)
  stitched : int;
  uncolored : int;  (** = [List.length violations] *)
  violations : violation list;
}

val features_of_layout : Extract.layout -> feature array
(** Every real-net M2 segment of the layout in canonical
    (track, lo, hi) order; blockages are pre-existing shapes outside
    the decomposition problem and are skipped. *)

val color_features : t -> feature array -> Solver.Color_graph.coloring
(** The deterministic greedy coloring of {!Solver.Color_graph.color}
    over the given features. *)

val check_features : t -> feature array -> stats
(** Color the features and report: a feature left uncolored is a
    violation charged to its net (the layout packs more than [colors]
    mutually-conflicting features and no single stitch rescues it). *)

val check : t -> Extract.layout -> stats
(** {!check_features} over the layout's {!features_of_layout}. *)

val blamed_nets : stats -> int list
(** Sorted unique nets with uncolorable features — treated as unrouted
    by the evaluation, mirroring {!Check.blamed_nets}. *)

val clean : stats -> bool

val stats_to_string : stats -> string
