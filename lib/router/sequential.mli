(** The [12]-style baseline (PARR): sequential routing with per-net
    greedy pin access planning and net deferring.

    Each net, in order, greedily grabs the longest currently-free M2
    strip over each of its pins (its planned pin access), then routes
    against *hard* blockages — everything already committed is
    untouchable.  Failing nets are deferred and retried once at the end
    with wider search windows.  There is no negotiation: resource
    competition is resolved first-come-first-served, which is exactly
    the behaviour the paper's concurrent formulation improves on. *)

val run :
  ?tpl:Drc.Tpl.t -> ?budget:Pinaccess.Budget.t -> Netlist.Design.t -> Flow.t
(** [tpl] is the TPL deck for the legalization rip-up and the final
    coloring verdict (see {!Cpr.config}).  [budget] bounds the maze
    searches and the legalization rip-up; on exhaustion remaining nets
    stay unrouted. *)
