(** Linear conflict set detection (paper Sec. 3.2).

    A conflict set is a maximal set of pin access intervals on one
    track whose common intersection is non-empty — a maximal clique of
    the interval overlap graph.  A left-to-right sweep emits each
    maximal clique exactly once, so the number of conflict sets is
    linear in the number of intervals (Fig. 4). *)

type clique = {
  track : int;
      (** access cliques: the shared track; color cliques: the lowest
          member track (the band root) *)
  cap : int;
      (** selection capacity: at most [cap] members may be selected.
          1 for access conflict sets (constraint (1c)); the color
          count [k] for TPL color cliques, where up to [k] mutually
          conflicting features still admit a legal coloring. *)
  members : int array;  (** interval ids, ascending *)
  common : Geometry.Interval.t;
      (** common intersection (of the gap-inflated spans for color
          cliques); its length is the paper's [L_m] used in the
          subgradient step size *)
}

val detect : ?clearance:int -> Access_interval.t array -> clique array
(** All maximal cliques of size >= 2 across every track, emitted in
    sweep order (tracks ascending, then by right edge).  Input
    intervals, in any order, must carry ids equal to their array
    index.

    [clearance] (default 0) makes the conflict relation design-rule
    aware: an interval is treated as extending [clearance] extra grids
    to the right, so two selected intervals end up at least
    [clearance + 1] grids apart — enough room for the line-end cut
    between them.  With [clearance > 0] the strict Theorem-1 guarantee
    (feasibility through minimum intervals) can fail for pins forced
    onto the same track at adjacent columns; callers fall back to
    [clearance = 0] (ILP) or leave the residual conflict to the
    router's DRC accounting (LR). *)

val detect_color :
  params:Solver.Color_graph.params -> Access_interval.t array -> clique array
(** TPL color cliques: maximal sets of intervals that pairwise
    conflict under the color relation of [params] (tracks within
    [track_window], x-spans within [same_color_gap]) with more than
    [colors] members, each carrying [cap = colors].  Appended to the
    access cliques by {!Problem.of_intervals} when the TPL deck is on,
    so every solver tier prices color contention alongside access
    conflicts.  Input intervals must carry dense ids. *)

val cliques_of_track :
  ?clearance:int -> Access_interval.t array -> track:int -> clique array
(** Sweep restricted to one track; exposed for tests. *)

val count_pairwise_conflicts : Access_interval.t array -> int
(** Number of overlapping interval pairs — the quadratic constraint
    count the clique formulation avoids; used in tests and benches. *)
