(** A fully assembled weighted interval assignment instance: the
    intervals, the per-pin candidate sets [S_j], the conflict cliques
    [C_m] and the objective coefficients of Formula (1). *)

type t = {
  design : Netlist.Design.t;
  config : Interval_gen.config;
  intervals : Access_interval.t array;
  pin_ids : Netlist.Pin.id array;  (** pins covered, ascending *)
  pin_slot : (Netlist.Pin.id, int) Hashtbl.t;
  pin_candidates : int array array;
      (** [S_j] per pin slot: interval ids, each serving that pin *)
  cliques : Conflict.clique array;
  profits : float array;  (** objective coefficient per interval *)
  npins : int array;  (** per interval, the number of pins it serves *)
  slot_start : int array;
  slot_ids : int array;
      (** flat per-interval slot table: the pin slots of interval [i],
          in [Access_interval.pins] order, are
          [slot_ids.(slot_start.(i)) .. slot_ids.(slot_start.(i+1) - 1)] *)
  clique_start : int array;
  clique_ids : int array;
      (** flat interval -> clique index, laid out like the slot table:
          the indices into [cliques] of the conflict sets containing
          interval [i], ascending *)
}

val of_intervals :
  Interval_gen.config -> Netlist.Design.t -> Access_interval.t array -> t
(** Assemble an instance from pre-generated intervals (the ids must be
    dense); used to re-derive conflict sets under a different clearance
    without regenerating intervals. *)

val build_panel : Interval_gen.config -> Netlist.Design.t -> panel:int -> t
(** Instance for one routing panel. *)

val build_panels : Interval_gen.config -> Netlist.Design.t -> panels:int list -> t
(** Combined instance over several panels (the paper's "multiple panels
    simultaneously" mode, used for the Fig. 6 scalability sweep).
    Interval ids are re-densified across panels. *)

val num_pins : t -> int
val num_intervals : t -> int
val num_cliques : t -> int

val slot_of_pin : t -> Netlist.Pin.id -> int

val minimum_interval : t -> slot:int -> int
(** Id of the pin's primary-track minimum interval (exists by
    construction).
    @raise Cpr_error.Error ([Infeasible_panel]) when absent. *)

val minimum_intervals : t -> slot:int -> int list
(** All of the pin's minimum intervals (one per free track), primary
    track first. *)

val cliques_of_interval : t -> int -> int list
(** Indices into [cliques] of the conflict sets containing the
    interval, ascending (a list view of [clique_ids]). *)

val summary : t -> string
