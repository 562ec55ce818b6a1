(** The [21]-style baseline: the same negotiation-congestion engine as
    CPR but *without* pin access optimization — each pin is accessed
    directly over its shape, and other nets' pins are blockages.  This
    isolates the contribution of the PAO stage (Table 2, Fig. 7(b)). *)

val run :
  ?tpl:Drc.Tpl.t -> ?budget:Pinaccess.Budget.t -> Netlist.Design.t -> Flow.t
(** [tpl] is the TPL deck for the negotiation probe and the final
    coloring verdict (see {!Cpr.config}).  [budget] bounds negotiation
    and DRC rip-up; on exhaustion the best short-free routing found so
    far is returned. *)
