(** Seeded differential fuzzing over generated designs.

    Each case draws a small random design from
    {!Workloads.Generator.random_params} and cross-examines every
    solver and flow in the repo against the independent checkers:

    - the LR pin access result, the ILP result (under a deterministic
      node budget) and the shrink-to-minimum assignment must all pass
      {!Certificate.certify} / {!Certificate.certify_pin_access};
    - per panel, both solver objectives must stay at or below the
      certified solver-independent {!Certificate.upper_bound}, the
      whole-design LR objective at or below their sum, and the
      proven-optimal ILP objective must dominate the feasible LR
      objective (the cross-solver sandwich);
    - a parallel [~j:2] LR run must be bit-identical to the sequential
      run (objective, reports and assignments);
    - the CPR and sequential routing flows must both certify clean
      under {!Flow_audit.run}; the flat DRC kernel must return
      {!Drc_reference}'s violations, in order and with the same text,
      on the final CPR metal (strict extraction) and on an overlay of
      CPR's even nets and the sequential flow's odd nets (tolerant:
      the overlay shorts); and CPR routed at [jobs = 2] must
      reproduce the [jobs = 1] flow (routes, clean verdicts, reroute
      count and violations), with the default costs and with a
      one-grid first search window, which makes searches outgrow it;
    - a seeded ECO delta stream replayed through {!Eco.Engine} must
      stay certificate-identical to from-scratch re-optimization
      ({!Eco_audit.check}); when [routing] is on, the engine also
      routes incrementally and every batch's flow must certify clean.

    On a violation the failing design is shrunk — delta-debugging over
    its nets, then its blockages — to a minimal design that still
    fails, ready to be written as a {!Netlist.Design_io} file; an ECO
    failure additionally ddmins its delta stream to a minimal
    [(design, deltas)] repro. *)

type config = {
  iterations : int;  (** cases to run *)
  seed : int64;  (** master seed; per-case seeds derive from it *)
  tolerance : float;  (** relative tolerance for objective comparisons *)
  max_nets : int;  (** upper bound on generated net count per case *)
  ilp : bool;  (** run the ILP cross-check (the slowest invariant) *)
  routing : bool;
      (** run and audit the CPR and sequential flows, and route the ECO
          differential's engine *)
  parallel : bool;
      (** check [~j:2] determinism: of the LR result, and with
          [routing] of the CPR flow *)
  shrink_rounds : int;  (** cap on candidate evaluations while shrinking *)
  eco : bool;
      (** run the ECO incremental-vs-scratch differential (3 batches of
          2 edits per case) *)
  tpl : int option;
      (** when [Some k], additionally rerun each case under a
          [k]-coloring TPL deck ({!Drc.Tpl.make}): the LR result must
          carry a certified coloring
          ({!Certificate.certify_pin_access}'s [Tpl_*] checks), the
          [~j:2] run must be bit-identical coloring included, and the
          TPL-aware CPR flow must certify clean under
          {!Flow_audit.run}'s TPL replay *)
}

val default_config : config
(** 200 iterations, seed [0xC0FFEE], tolerance [1e-6], every invariant
    enabled; [tpl = None] (the TPL campaign is opt-in). *)

type failure = {
  case : int;  (** 1-based index of the failing case *)
  case_seed : int64;  (** seed that regenerates the original design *)
  reason : string;  (** first violated invariant on the original design *)
  shrunk_reason : string;  (** violated invariant on the shrunk design *)
  design : Netlist.Design.t;  (** the shrunk minimal repro *)
  deltas : Eco.Delta.t list list;
      (** the shrunk delta stream when the violation is the ECO
          differential ([[]] otherwise) — replaying it against [design]
          reproduces the failure *)
  shrink_steps : int;  (** successful reduction steps *)
}

type outcome = {
  cases : int;  (** cases executed (= iterations unless a case failed) *)
  skipped : int;  (** cases whose generation was infeasible *)
  outgrown : int;
      (** clean cases in which a parallel route outgrew its first
          search window, so the rest of its phase routed in order (the
          [exec.route_outgrown] counter moved) *)
  failure : failure option;
}

val check_design : config -> Netlist.Design.t -> (unit, string) result
(** Run every enabled invariant on one design; [Error] names the first
    violated one.  Unexpected solver exceptions are reported as
    failures, not re-raised. *)

val shrink :
  config -> Netlist.Design.t -> Netlist.Design.t * int
(** Delta-debug a failing design to a smaller one that still fails
    {!check_design} (nets first, then blockages), returning the shrunk
    design and the number of successful reduction steps.  The input
    design is returned unchanged when it does not fail. *)

val run : ?progress:(int -> unit) -> config -> outcome
(** Run the campaign, stopping at (and shrinking) the first failure.
    [progress] is called with the 1-based case index after each
    completed case. *)
