(** Budgeted fan-out of independent tasks: the one slice → run →
    merge-and-spend discipline behind the panel walk of {!Pin_access}
    and the library sweep.

    The tasks of one call share equal {!Budget.isolated} slices of
    what [budget] has left:

    - work units are split exactly and up front: [w / n] each, plus
      one more unit for the first [w mod n] tasks in order, so the
      slices never sum past [w] and do not depend on scheduling.  A
      0-unit slice is exhausted from the start;
    - the deadline share is fixed when a task starts: an equal share
      of the time left over the tasks not yet started, never past the
      parent's deadline.

    The parent is charged each slice's [work_spent] in task order.
    With a work-unit budget the results therefore do not depend on
    [pool]; with no budget at all they never do.

    A call runs {e inline} — tasks directly on the caller, in order,
    with no observability buffering — when [pool] has one domain
    ({!Exec.sequential} does) or there is at most one task.  Otherwise
    tasks run on the pool with their metrics and spans buffered, and
    the buffers are merged back in task order. *)

val run :
  pool:Exec.t ->
  budget:Budget.t ->
  (budget:Budget.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [run ~pool ~budget f tasks] applies [f] to every task under its
    slice and returns the results in task order. *)
