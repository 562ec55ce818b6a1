(** Content-addressed cache of solved panels.

    The key digests everything a panel's assignment problem depends on
    — pin geometry against panel-local net indices, full net bounding
    boxes, M2 blockage spans on the panel's tracks, die width, and the
    whole rule deck / solver configuration (clearance, weighting, bbox
    margin, candidate cap, solver kind, LR schedule).  Two panels with
    equal keys have byte-identical assignment problems, so a cached
    solution can be re-served after re-mapping pin ids; net *names* are
    deliberately excluded (renaming nets must not miss).  DESIGN.md §9
    explains why the rule deck must be part of the key.

    An entry stores the selected interval per pin (in canonical pin
    order), the panel report numbers, and the final Lagrange
    multipliers keyed by clique signature [(track, cap, common_lo,
    common_hi)] — served directly on a hit, used to warm-start
    {!Pinaccess.Lagrangian.solve} on a near-miss (the panel changed,
    but many cliques survive under their signature).  The TPL deck is
    part of the key (it changes the clique set), and [cap] in the
    signature keeps an access clique from donating its multiplier to a
    same-geometry color clique. *)

type slot = { track : int; span : Geometry.Interval.t; minimum : bool }
(** The interval selected for one pin, by physical identity. *)

type entry = {
  slots : slot array;  (** canonical pin order, see {!canonical_pins} *)
  intervals : int;  (** problem size, for the re-served report *)
  cliques : int;
  objective : float;
  lr_iterations : int;
  proven_optimal : bool;
  served_by : Pinaccess.Pin_access.tier;
  degraded : bool;
  multipliers : (int * int * int * int * float) array;
      (** final LR multipliers as
          [(track, cap, common_lo, common_hi, λ)]; empty when another
          tier served the panel *)
}

type t

val create : ?max_entries:int -> unit -> t
(** LRU-evicting cache, default capacity 4096 entries.  {!find} hits
    and {!store}s refresh an entry's recency; {!peek} does not, so
    warm-start probes of superseded entries never keep them alive.
    Hits, misses and evictions are also published to the {!Obs.Metrics}
    registry as [eco.panel_cache.hits]/[.misses]/[.evictions]. *)

val key :
  config:Pinaccess.Pin_access.config ->
  kind:Pinaccess.Pin_access.solver_kind ->
  Netlist.Design.t ->
  panel:int ->
  string
(** Content digest of the panel's assignment problem.  Apply it to
    [config] and [kind] once and the result to each panel: the rule-deck
    and solver part of the digested text is formatted at that first
    application. *)

val find : t -> string -> entry option
(** Bumps the hit/miss counters. *)

val peek : t -> string -> entry option
(** Lookup without touching the counters — used to fetch a panel's
    *previous* entry for its warm-start multipliers after [find] on the
    new key already missed. *)

val store : t -> string -> entry -> unit
val size : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries dropped by LRU eviction over this cache's lifetime. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val canonical_pins : Netlist.Design.t -> panel:int -> Netlist.Pin.t array
(** The panel's pins sorted by [(x, track_lo)] — a total order, since
    no two pins share a grid — the order [entry.slots] is stored in. *)

val entry_of_solution :
  problem:Pinaccess.Problem.t ->
  assignments:(Netlist.Pin.id * Pinaccess.Access_interval.t) list ->
  report:Pinaccess.Pin_access.panel_report ->
  multipliers:float array ->
  Netlist.Design.t ->
  panel:int ->
  entry
(** Package one panel's fresh solution ([multipliers] aligned with
    [problem.cliques]) for storage. *)

val materialize :
  entry ->
  Netlist.Design.t ->
  panel:int ->
  (Netlist.Pin.id * Pinaccess.Access_interval.t) list
  * Pinaccess.Pin_access.panel_report
(** Re-serve a cached solution against a design whose panel has the
    entry's key: reconstruct shared intervals (same-net pins assigned
    the same [(track, span)] share one interval, as the deduplicating
    generator would have produced) with fresh per-panel ids, and the
    panel report under the new panel index. *)

val warm_start_for : entry -> Pinaccess.Problem.t -> float array
(** Align the entry's multipliers with a (possibly different) problem's
    cliques by signature; cliques with no surviving signature start at
    [0] — exactly the cold value. *)
