(** The reference DRC: the list-based extraction and checker that the
    flat kernel in [lib/drc] replaced, kept apart from it so the audit
    and the tests can hold the kernel to an independent derivation.

    It rebuilds every route's segments and V2 vias from the route's
    sorted nodes (never from {!Rgrid.Route}'s stored views), collects
    each track's segments in a list, sorts them with [List.sort] and
    checks R1–R3 by plain enumeration: all gap pairs of adjacent tracks
    for R2, and every later via of a sorted cut class within
    [min_via_spacing] columns for R3.  Slow, simple, and the contract:
    {!Drc.Extract} and {!Drc.Check.run} must return exactly what this
    module returns, in the same order. *)

type layout
(** Per track a list of segments sorted by [lo] and disjoint, and the
    list of via cuts. *)

val of_routes :
  ?tolerate_shorts:bool ->
  Netlist.Design.t ->
  Rgrid.Route.t option array ->
  layout
(** The metal of the routes and the design's blockages, under the
    contract of {!Drc.Extract.fill}: same merges, same dropped segment
    on a tolerated short.
    @raise Invalid_argument on a short unless [tolerate_shorts]. *)

val check : Drc.Rules.t -> layout -> (Drc.Check.violation * string) list
(** Every violation with the location text reports print, in
    {!Drc.Check.run}'s order. *)

val tpl_features : layout -> Drc.Tpl.feature array
(** The real-net M2 segments in (track, lo) order, as
    {!Drc.Tpl.features_of_layout} lists them. *)
