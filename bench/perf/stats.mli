(** Nearest-rank order statistics over benchmark samples. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted p] is the smallest sample of the ascending,
    non-empty array [sorted] with at least [p] percent of the samples at
    or below it ([p] in [0, 100]; [p = 0] gives the minimum).
    @raise Invalid_argument on an empty array. *)

val tail : float list -> float * float
(** [(p, x)]: the highest percentile [p] that leaves at least ten
    samples beyond it, [100 (n - 10) / n], and its sample [x], rank
    [n - 10] of [n].
    @raise Invalid_argument on ten samples or fewer. *)

type summary = {
  n : int;  (** sample count *)
  median : float;  (** nearest-rank p50 *)
  q1 : float;  (** nearest-rank p25 *)
  q3 : float;  (** nearest-rank p75 *)
}

val summary : float list -> summary
(** @raise Invalid_argument on an empty list. *)

val median : float list -> float
