(** DRC checker for the rule deck in {!Rules}. *)

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
      (** offending grid positions [(x, y)] — the gap/cut grids or the
          via landings; used by DRC-driven rip-up to penalize the exact
          trouble spots *)
  where : string;  (** human-readable location for reports *)
}

val run : Rules.t -> Extract.layout -> violation list

val blamed_nets : violation list -> int list
(** Sorted unique blamed net ids — the nets the evaluation counts as
    unrouted (paper Sec. 5: nets introducing violations are treated as
    unrouted for fair comparison). *)

val kind_to_string : kind -> string
