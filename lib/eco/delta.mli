(** The ECO delta language: typed, replayable edits against a placed
    design.

    An ECO (engineering change order) arrives as a batch of deltas —
    move a pin, swap a blockage, add a net — applied atomically between
    two optimization runs.  Pins are addressed by location [(x, track)]
    rather than id (ids are re-densified on every rebuild); nets are
    addressed by name.  Text serialization follows {!Netlist.Design_io}
    so edit streams can be saved, diffed and replayed
    ([bin/cpr_main --eco <file>]):

    {v
    add_pin <net> <x> <track_lo> <track_hi>
    remove_pin <x> <track>
    move_pin <x> <track> <to_x> <to_lo> <to_hi>
    add_net <name> <x>:<lo>:<hi> [<x>:<lo>:<hi> ...]
    remove_net <name>
    add_blockage <M2|M3> <track> <lo> <hi>
    remove_blockage <M2|M3> <track> <lo> <hi>
    set_clearance <n>
    step                                  # batch separator
    v}

    [#] comments and blank lines are ignored. *)

type pin_ref = { at_x : int; at_track : int }
(** A pin addressed by a grid location it covers: column [at_x], any
    track in its span. *)

type pin_shape = { x : int; tracks : Geometry.Interval.t }
(** The geometry of a (new) pin: column and contiguous track span. *)

type t =
  | Add_pin of { net : string; shape : pin_shape }
      (** grow an existing net by one pin *)
  | Remove_pin of pin_ref
      (** delete a pin; a net emptied by this is dropped with it *)
  | Move_pin of { from_ : pin_ref; shape : pin_shape }
      (** relocate a pin within its net (remove + add, same net) *)
  | Add_net of { name : string; pins : pin_shape list }
      (** a new net with a fresh name and [>= 1] pins *)
  | Remove_net of string  (** delete a net and all its pins *)
  | Add_blockage of Netlist.Blockage.t
  | Remove_blockage of Netlist.Blockage.t
      (** must match an existing blockage exactly (layer, track, span) *)
  | Set_clearance of int
      (** rule-deck change: the design-rule clearance used by interval
          generation (see {!apply_config}); a no-op on the design
          itself *)

exception Invalid of { index : int option; reason : string }
(** Raised by {!apply} / {!apply_all} when a delta does not apply to
    the design it is given (unknown net, ambiguous or missing pin,
    overlapping geometry, ...).  [index] is the position in the batch
    for {!apply_all}. *)

exception Parse_error of { line : int; reason : string }
(** Raised by the [of_string] / [load] family on malformed text. *)

val error_to_string : exn -> string
(** Render {!Invalid} or {!Parse_error} for user display.
    @raise Invalid_argument on any other exception. *)

(** {2 Serialization} *)

val to_string : t list -> string
val of_string : string -> t list
(** One batch; [step] separators are rejected here — use
    {!batches_of_string} for multi-batch streams. *)

val batches_to_string : t list list -> string
val batches_of_string : string -> t list list
(** Empty batches (consecutive [step] lines, or a trailing [step]) are
    dropped. *)

val save : string -> t list list -> unit
val load : string -> t list list
(** @raise Parse_error (also for file-system errors, with [line = 0]). *)

val pp : Format.formatter -> t -> unit

(** {2 Application} *)

val apply : Netlist.Design.t -> t -> Netlist.Design.t
(** Apply one delta, rebuilding the design (pin and net ids are
    re-densified; nets keep their names).  @raise Invalid when the
    delta does not fit the design, including when the edited design
    would violate {!Netlist.Design.create}'s invariants. *)

val apply_all : Netlist.Design.t -> t list -> Netlist.Design.t
(** Apply a batch left to right with a single rebuild at the end.
    @raise Invalid with the offending delta's [index]. *)

(** {2 The spec a batch edits}

    A design decomposes into the spec {!Netlist.Builder} consumes: named
    nets of pin shapes plus blockages.  Deltas edit the spec, and only a
    rebuild re-validates it and re-densifies ids, so a batch can be
    applied, and read back, on the spec alone. *)

type spec = {
  name : string;
  width : int;
  height : int;
  row_height : int;
  nets : (string * Netlist.Builder.pin_spec list) list;
      (** in net-id order, each net's pins in pin-id order *)
  blockages : Netlist.Blockage.t list;
}

val spec_of_design : Netlist.Design.t -> spec

val apply_spec : ?index:int -> spec -> t -> spec
(** One delta on the spec, with every check {!apply} makes short of the
    rebuild; a spec that went through them rebuilds without error.
    @raise Invalid as {!apply} would, carrying [index]. *)

val rebuild : ?index:int -> spec -> Netlist.Design.t
(** The design of a spec.  @raise Invalid when {!Netlist.Design.create}
    rejects it. *)

val apply_config :
  Pinaccess.Interval_gen.config -> t -> Pinaccess.Interval_gen.config
(** Fold rule-deck deltas ([Set_clearance]) into an interval-generation
    config; every other delta leaves it unchanged. *)
