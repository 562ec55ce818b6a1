(** DRC checker for the rule deck in {!Rules}: linear sweeps over an
    {!Extract.layout}.  R1 walks each track's gaps, R2 pairs the cuts of
    adjacent tracks with a forward-only pointer, and R3 visits, per
    via, only the columns and rows within [min_via_spacing]. *)

type kind = Line_end_gap | Cut_alignment | Via_spacing

type violation = {
  kind : kind;
  layer : Rgrid.Layer.t;
  nets : int list;  (** real nets involved (blockages excluded) *)
  blame : int;
      (** the net charged with the violation (the highest real net id
          involved — "the later-routed net introduced it"); [-1] when
          only blockages are involved (cannot happen from [run]) *)
  sites : (int * int) list;
      (** offending grid positions [(x, y)]: a gap's grids from the line
          end before it to the one after it, a cut pair's two cuts
          (first track first), or two via landings; DRC-driven rip-up
          penalizes exactly these *)
}

val run : Rules.t -> Extract.layout -> violation list
(** Every violation, in a fixed order: R1 on M2 then M3, R2 on M2 then
    M3, R3 on V1 (reported on M2) then V2 (on M3); within a rule by
    track, then position. *)

val where : violation -> string
(** Human-readable location for reports, rebuilt from the kind, layer
    and sites: ["track 3 gap [5,5]"], ["tracks 2/3 cuts [9,10]/[10,11]"]
    or ["vias (13,3)/(14,3)"].
    @raise Invalid_argument when the sites cannot come from [run]. *)

val blamed_nets : violation list -> int list
(** Sorted unique blamed net ids — the nets the evaluation counts as
    unrouted (paper Sec. 5: nets introducing violations are treated as
    unrouted for fair comparison). *)

val kind_to_string : kind -> string
