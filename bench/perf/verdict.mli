(** Parent-versus-change verdicts for one metric on one workload.

    - [Better]: the change wins at least nine tenths of the paired runs
      (ties count for neither side) and its median beats the parent's
      by more than the parent's own spread (q3 − q1).
    - [Worse]: the median relative change over the pairs (runs of one
      seed, so of one input) is worse than [bound], a share of the
      parent's value.
    - [Unresolved]: the spread (q3 − q1) of those relative changes is
      wider than the bound, so a worsening within it cannot be told from
      noise — unless every change run beats every parent run.  A
      deterministic metric has no such spread.
    - [Unchanged]: none of the above.

    With no pairs, [Worse] and [Unresolved] fall back to the relative
    difference of the medians and the parent's relative spread. *)

type better = Lower | Higher
type t = Better | Worse | Unchanged | Unresolved

val to_string : t -> string
val better_to_string : better -> string
val better_of_string : string -> better option

val wins : better -> (float * float) list -> int * int
(** [(wins, losses)] of the change over [(parent, change)] pairs. *)

val judge :
  better:better ->
  bound:float ->
  parent:float list ->
  change:float list ->
  pairs:(float * float) list ->
  t
(** @raise Invalid_argument when [parent] or [change] is empty. *)
