(** Typed error layer for the whole solve pipeline.

    Every failure mode a caller can act on is one of these three
    constructors; entry points raise [Error] instead of bare
    [Failure]/[Invalid_argument], so a CLI or a service wrapper can
    always render a clean message and pick the right fallback.  An
    expired {!Budget} is not an error: every stage returns its
    best-so-far result instead. *)

type t =
  | Malformed_design of { line : int option; reason : string }
      (** invalid input (bad file, inconsistent geometry) *)
  | Solver_failure of { solver : string; reason : string }
      (** a solver tier produced no usable result *)
  | Infeasible_panel of { panel : int option; reason : string }
      (** the instance violates the paper's feasibility precondition
          (Theorem 1), e.g. a pin column fully covered by blockages *)

exception Error of t

val to_string : t -> string

val error : t -> 'a
(** [error e] raises [Error e]. *)

val malformed : ?line:int -> ('a, unit, string, 'b) format4 -> 'a
val solver_failure : solver:string -> ('a, unit, string, 'b) format4 -> 'a
val infeasible : ?panel:int -> ('a, unit, string, 'b) format4 -> 'a

val of_exn : exn -> t option
(** Map this project's typed exceptions ([Error], {!Netlist.Design_io.Malformed},
    {!Netlist.Design.Invalid}, {!Interval_gen.Pin_unreachable},
    {!Solver.Milp.Infeasible}, {!Solver.Milp.Stopped}) to a {!t};
    [None] for anything else. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching exactly the exceptions {!of_exn} understands;
    unknown exceptions (genuine bugs) re-raise. *)

val recoverable : exn -> bool
(** Whether the degradation ladder may absorb this exception and fall
    back to the next solver tier.  Typed pipeline errors and classic
    OCaml failure exceptions are recoverable; asynchronous/fatal ones
    ([Out_of_memory], [Stack_overflow], ...) are not. *)
