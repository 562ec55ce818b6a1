(** A net's realized routing: the set of M2/M3 grid nodes it occupies
    plus its V1 pin connections.  Segments, vias and wirelength are
    derived views used by the DRC checker and the metrics: one pass
    over the sorted nodes, which is why only {!make} and {!add_nodes}
    build a route. *)

type seg = { layer : Layer.t; track : int; span : Geometry.Interval.t }
(** M2 segments: [track] is the y track, [span] the x columns.
    M3 segments: [track] is the x column, [span] the y rows. *)

type t = private {
  net : Netlist.Net.id;
  nodes : Node.t list;  (** sorted, unique *)
  pin_vias : (Netlist.Pin.id * int * int) list;
      (** V1 cut landings [(pin, x, y)] connecting M1 pins up to M2 *)
}

val make :
  space:Node.space ->
  net:Netlist.Net.id ->
  nodes:Node.t list ->
  pin_vias:(Netlist.Pin.id * int * int) list ->
  t
(** Sorts and dedupes [nodes]. *)

val add_nodes : space:Node.space -> t -> Node.t list -> t
(** [make] over the union of the route's nodes and [nodes]. *)

val segments : space:Node.space -> t -> seg list
(** Maximal straight runs per layer, in deterministic order. *)

val v2_vias : space:Node.space -> t -> (int * int) list
(** Grid positions where the net occupies both M2 and M3 (a V2 cut),
    sorted. *)

val via_positions : space:Node.space -> t -> (int * int) list
(** V1 and V2 cut positions (with duplicates when stacked). *)

val wirelength : space:Node.space -> t -> int
(** Total grid edge length over all segments. *)

val via_count : space:Node.space -> t -> int
(** V1 count + V2 count. *)
