(** Library sweep: fan the cells of a library across the domain pool.

    Cells are independent — each solves its own synthesized die — so
    the sweep runs them through {!Pinaccess.Fanout.run}, the same
    budgeted fan-out as the panel walk of [Pin_access]: every cell is
    metered by an equal, isolated {!Pinaccess.Budget} slice, and
    results, metrics and spans merge back in input order.  [-j 1] and
    [-j 4] runs therefore produce bit-identical results (and so
    bit-identical reports). *)

val run :
  ?j:int ->
  ?budget:Pinaccess.Budget.t ->
  Harness.config ->
  Workloads.Cell_lib.cell list ->
  Check.cell_result list
(** Check every cell, in input order.  [j] defaults to 1; the optional
    [budget] meters the whole sweep (split evenly across cells up
    front, see {!Pinaccess.Fanout}). *)
