(** The maze search's cost model (paper Sec. 5 settings plus the
    search windows).  The PathFinder schedule that grows the present
    and history terms round by round lives in
    [Router.Negotiation]. *)

type t = {
  base_cost : float;  (** metal and via grids; paper: 1 *)
  via_cost : float;
      (** extra cost of switching layers: a via consumes the cut
          landing plus adjacent-grid slack, so hopping to M3 must not
          be free (via minimization, paper Sec. 1/[23]) *)
  forbidden_via_cost : float;
      (** extra cost of a via grid flagged forbidden (near another
          net's via or a blockage edge); paper: 10 *)
  spacing_penalty : float;
      (** soft cost of a grid whose along-track neighbour carries
          another net's metal — discourages sub-minimum line-end gaps
          (the grid-cost design-rule mitigation of [21]) *)
  hard_spacing : bool;
      (** treat sub-minimum clearance and forbidden via grids as
          impassable instead of merely expensive: the conservative
          legalize-as-you-go behaviour of the sequential baseline
          [12] *)
  bbox_margin : int;  (** search-window inflation around the net bbox *)
  retry_margins : int list;
      (** additional inflations tried when a search fails *)
}

val default : t
