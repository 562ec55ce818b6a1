(** Packed node ids for the M2/M3 routing graph.

    A node is [(layer, x, y)] with [layer ∈ {M2, M3}]; ids are dense in
    [0 .. 2*width*height - 1] so per-node state lives in flat arrays.
    The id of [(layer, x, y)] is [y * width + x], plus {!plane} on M3:
    along-track neighbours are [±1] (M2) or [±width] (M3) ids away and
    the via partner is [±plane] away. *)

type space = { width : int; height : int }
type t = int

val space_of_design : Netlist.Design.t -> space
val count : space -> int

val plane : space -> int
(** [width * height]: the node count of one layer, and the first M3
    id. *)

val pack : space -> layer:Layer.t -> x:int -> y:int -> t
(** @raise Invalid_argument for M1 or off-grid coordinates. *)

val layer : space -> t -> Layer.t
val x : space -> t -> int
val y : space -> t -> int
val unpack : space -> t -> Layer.t * int * int

val in_bounds : space -> x:int -> y:int -> bool
val other_layer : space -> t -> t
(** The via partner: same [(x, y)] on the other routing layer. *)

val to_string : space -> t -> string
