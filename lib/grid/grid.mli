(** Mutable routing-grid state: static blockages, exclusive pin/partial-
    route ownership, per-node occupancy, via pressure and PathFinder
    history costs. *)

type t = private {
  design : Netlist.Design.t;
  space : Node.space;
  blocked : Bytes.t;  (** ['\001'] where a blockage sits *)
  solid : Bytes.t;  (** ['\001'] under real pre-placed metal, see {!solid} *)
  owner : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  users : int list array;  (** nets using each node; a net appears once *)
  occ : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  via_count : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** per [(x, y)] plane grid, at [y * width + x] *)
  history : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
}
(** The per-node planes are readable in place, so the maze router's
    relax loop reads them without a call per field; every write goes
    through the functions below. *)

val create : Netlist.Design.t -> t
(** Fresh grid with the design's M2/M3 blockages applied. *)

val space : t -> Node.space
val design : t -> Netlist.Design.t

(** {2 Static state} *)

val blocked : t -> Node.t -> bool
val set_blocked : t -> Node.t -> unit

val solid : t -> Node.t -> bool
(** Real pre-placed metal (assigned pin access intervals): owned *and*
    physically present, so clearance rules apply against it even before
    its net is routed.  Plain pin ownership is only a routing blockage
    — the M2 metal over a pin materializes where the V1 lands. *)

val set_solid : t -> Node.t -> unit

val owner : t -> Node.t -> int
(** Exclusive owner net of a node ([-1] = unowned).  Pins and assigned
    pin access intervals own their nodes: other nets treat them as
    blockages (paper Sec. 4). *)

val set_owner : t -> Node.t -> net:int -> unit
(** First owner wins; re-owning by the same net is a no-op.
    @raise Invalid_argument when owned by a different net. *)

val clear_owner : t -> Node.t -> net:int -> unit
(** Release a node owned by [net] (no-op when unowned or owned by
    another net); used when a hard-committed route is ripped up. *)

val passable : t -> net:int -> Node.t -> bool
(** Not blocked and not exclusively owned by a different net. *)

(** {2 Occupancy (routing usage)} *)

val occ : t -> Node.t -> int
val add_usage : t -> net:int -> Node.t -> unit
val remove_usage : t -> net:int -> Node.t -> unit
val overused : t -> Node.t -> bool
(** More than one distinct net uses the node (capacity 1). *)

val congested_nodes : t -> int
(** Number of overused nodes — the paper's "congested routing grids"
    (Fig. 7(b)). *)

val nets_using : t -> Node.t -> int list

(** {2 Via pressure and forbidden via grids} *)

val via_pressure : t -> x:int -> y:int -> int
val add_via : t -> x:int -> y:int -> unit
val remove_via : t -> x:int -> y:int -> unit

val via_forbidden : t -> x:int -> y:int -> bool
(** A via grid is forbidden when a neighbouring grid already carries a
    via (cut-mask spacing) or touches a blockage. *)

(** {2 History (negotiation)} *)

val history : t -> Node.t -> float
val add_history : t -> increment:float -> unit
(** Bump the history cost of every currently-overused node. *)

val add_history_at : t -> Node.t -> float -> unit
(** Bump one node's history cost (DRC-driven rip-up marks the exact
    violation grids this way). *)
