(** A net's realized routing: the set of M2/M3 grid nodes it occupies
    plus its V1 pin connections.  Its segments and V2 vias are derived
    once, by {!make} and {!add_nodes} (the only ways to build a route),
    and stored packed one int each; every view below reads them. *)

type seg = { layer : Layer.t; track : int; span : Geometry.Interval.t }
(** M2 segments: [track] is the y track, [span] the x columns.
    M3 segments: [track] is the x column, [span] the y rows. *)

type t = private {
  net : Netlist.Net.id;
  nodes : Node.t list;  (** sorted, unique *)
  pin_vias : (Netlist.Pin.id * int * int) list;
      (** V1 cut landings [(pin, x, y)] connecting M1 pins up to M2 *)
  segs : int array;
      (** one packed int per segment, M2 first, each layer in (track, lo)
          order; decode with {!seg_layer}, {!seg_track}, {!seg_lo} and
          {!seg_hi} *)
  v2 : int array;
      (** one packed int per V2 cut, in (x, y) order; decode with
          {!v2_x} and {!v2_y} *)
}

val make :
  space:Node.space ->
  net:Netlist.Net.id ->
  nodes:Node.t list ->
  pin_vias:(Netlist.Pin.id * int * int) list ->
  t
(** Sorts and dedupes [nodes] and derives the segments and V2 vias.
    @raise Invalid_argument when a grid dimension exceeds [2^20]. *)

val add_nodes : space:Node.space -> t -> Node.t list -> t
(** [make] over the union of the route's nodes and [nodes]. *)

val seg_layer : int -> Layer.t
val seg_track : int -> int
val seg_lo : int -> int
val seg_hi : int -> int
val v2_x : int -> int
val v2_y : int -> int

val segments : t -> seg list
(** Maximal straight runs, decoded from [segs]. *)

val v2_vias : t -> (int * int) list
(** Grid positions where the net occupies both M2 and M3 (a V2 cut),
    sorted. *)

val via_positions : t -> (int * int) list
(** V1 and V2 cut positions (with duplicates when stacked). *)

val wirelength : t -> int
(** Total grid edge length over all segments. *)

val via_count : t -> int
(** V1 count + V2 count. *)
