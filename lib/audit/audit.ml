(** Independent solution certification and differential fuzzing.

    The solvers and routers grade their own homework; this library is
    the external examiner.  {!Certificate} (included here, so
    [Audit.certify] works) re-verifies a pin access assignment from
    scratch against Formula (1); {!Drc_reference} is the list-based
    DRC the flat kernel must match; {!Flow_audit} replays DRC (with
    that reference) and electrical connectivity over a finished
    routing flow; {!Fuzz} runs
    the seeded differential campaign that cross-checks every solver
    against these auditors and shrinks failures to minimal repro
    designs. *)

include Certificate

module Ddmin = Ddmin
module Drc_reference = Drc_reference
module Flow_audit = Flow_audit
module Eco_audit = Eco_audit
module Fuzz = Fuzz
