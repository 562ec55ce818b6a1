(** Flattened metal view of a routed design, the input to the DRC
    checker, the line-end extension pass and the TPL deck.

    Per routing layer, every track's segments (all nets plus
    blockages) lie in one run of three int arrays; per cut class, the
    via cuts lie in one run per column.  A layout is a reusable buffer:
    {!fill} rewrites it in place and allocates only when the design
    outgrows what the buffer already holds. *)

val blockage_net : int
(** Pseudo net id ([-2]) for blockage metal: rules apply against it but
    it can never be blamed, extended or merged. *)

type via_kind = V1 | V2

type tracks = private {
  mutable start : int array;
      (** [start.(t) .. start.(t + 1) - 1] index track [t]'s segments;
          one cell per track plus the total *)
  mutable lo : int array;
  mutable hi : int array;
  mutable net : int array;
}
(** One layer's segments: per track sorted by [lo] and disjoint.  The
    arrays may be longer than the segments they hold. *)

type cuts = private {
  mutable col : int array;
      (** [col.(x) .. col.(x + 1) - 1] index column [x]'s cuts *)
  mutable y : int array;
  mutable nets : int array;
}
(** One cut class: sorted by (x, y, net). *)

type layout

val create : unit -> layout
(** An empty buffer. *)

val fill :
  ?tolerate_shorts:bool ->
  layout ->
  Netlist.Design.t ->
  Rgrid.Route.t option array ->
  unit
(** Extract the routes into the buffer, replacing what it held.
    Blockages become [blockage_net] segments.  Per track, segments are
    ordered by (lo, hi), a later one first on a tie; a run overlapping
    the one before it merges into it when the two share a net or one
    is a blockage (the merged run keeps the first one's net).  Two
    different nets overlapping is a short: [Invalid_argument] — unless
    [tolerate_shorts] (used for in-negotiation DRC probes while rip-up
    is still resolving overuse), which drops the later segment.
    @raise Invalid_argument also for a via off the grid. *)

val of_routes :
  ?tolerate_shorts:bool ->
  Netlist.Design.t ->
  Rgrid.Route.t option array ->
  layout
(** {!fill} into a fresh buffer. *)

val tracks : layout -> Rgrid.Layer.t -> tracks
(** M2 (per y track) or M3 (per x column).
    @raise Invalid_argument on M1. *)

val cuts : layout -> via_kind -> cuts

val num_tracks : tracks -> int
val num_columns : cuts -> int
