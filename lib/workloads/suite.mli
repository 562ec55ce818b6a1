(** The paper's benchmark suite (Table 2): net counts and die sizes of
    the six PARR circuits, mapped to the repo's synthetic generator at
    10 grids per micron (one standard cell row = 10 M2 tracks = 1 um).

    [scale] shrinks a circuit (nets and die area together) for quick
    runs; 1.0 reproduces the paper's sizes. *)

type circuit = {
  id : string;  (** ecc, efc, ctl, alu, div, top *)
  nets : int;
  um_width : int;
  um_height : int;
  seed : int64;
}

val circuits : circuit list
(** The six Table-2 circuits only — {!mega} is deliberately excluded
    so suite-wide sweeps never pick it up by accident. *)

val mega : circuit
(** A synthetic scale tier at 10x [top] (222,010 nets, 180x177 um).
    Opt-in via [find "mega"] or directly; [Pin_access.optimize]
    builds its panel problems as they are solved, so they are never
    all resident. *)

val find : string -> circuit
(** Resolves the six suite ids plus ["mega"].
    @raise Not_found for unknown ids. *)

val design : ?scale:float -> circuit -> Netlist.Design.t

val sweep_design : pins:int -> Netlist.Design.t
(** A multi-panel instance with roughly [pins] I/O pins for the Fig. 6
    LR-vs-ILP scalability sweep. *)
