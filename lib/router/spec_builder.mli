(** Derives per-net routing specs from a design, with or without pin
    access optimization, and claims exclusive grid ownership for pins
    and partial routes (paper Sec. 4: while routing a net, pins and
    intervals of every other net are blockages). *)

val build :
  Rgrid.Grid.t ->
  pao:Pinaccess.Pin_access.t option ->
  Net_router.spec array
(** One spec per net (indexed by net id).

    Without PAO each pin is its own component: the M2 nodes directly
    over the pin shape.  With PAO each *assigned interval* is a
    component (a partial route) and the pin connects through a V1
    inside it; a shared interval makes its pins a single component.

    Ownership: interval nodes are claimed first (selected intervals
    never overlap), then pin nodes that are still free — a maximum
    interval of another net may legitimately cover a pin's column on
    one of its tracks, in which case the pin accesses through a
    different track (Fig. 2). *)

val claim_pins : Rgrid.Grid.t -> unit
(** Give every free, unblocked M2 node over a pin shape to the pin's
    net: the pin blockages every flow starts from, and the reclaim
    after a rip-up released a pin. *)
