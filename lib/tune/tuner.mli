(** The glue: turn a tuning mode into the hooks the solver stack
    already exposes — {!Pinaccess.Pin_access.optimize}'s [tune] hook
    for per-panel LR scheduling, {!Router.Negotiation.run}'s [order],
    and {!Eco.Engine}'s warm-start policy.

    [Off] hands back no hook and the default order, so the stack runs
    its untouched (bit-identical) default paths; a fixed or bandit
    mode is deterministic under its seed — policy selection reads only
    panel features and previously observed work-unit rewards, never
    the clock — so two runs, at any [-j], produce the same policy
    trace and the same solution bytes. *)

type mode =
  | Off
  | Fixed of Policy.t  (** one policy for every panel / the whole run *)
  | Bandit of int64  (** seeded UCB1 over the LR schedules, per panel *)

val mode_of_string : string -> mode option
(** ["off"], ["bandit"], ["fixed:<id>"] (any {!Policy.id});
    the CLI's [--tune] syntax.  [Bandit] parses with seed 0 — callers
    override via [--tune-seed]. *)

val mode_to_string : mode -> string

type t

val create : ?seed:int64 -> mode -> t
(** [seed] (default 0) replaces the seed of a [Bandit] mode — the
    CLI's [--tune-seed]. *)

val mode : t -> mode

val pa_hook : t -> Pinaccess.Pin_access.tune_hook option
(** The per-panel scheduling hook: [None] for [Off] and for fixed
    policies of the ordering/warm axes (they do not touch the PAO
    walk).  A [Fixed (Lr_step _)] hook applies that schedule to every
    panel; a [Bandit] hook buckets each panel by
    {!Features.signature}, asks UCB1 for an arm, and feeds back the
    reward [q - 0.1 w] where [q] is the objective as a fraction of the
    panel's conflict-free upper bound ({!Features.profit_ub}) and [w]
    is LR iterations (from the panel's {!Obs.Metrics.diff} window) as
    a fraction of the iteration cap — quality leads, work breaks ties,
    and everything is work units and objective, never wall clock, so
    the reward (and thus the whole trace) is deterministic. *)

val replay_hook : (int * string) list -> Pinaccess.Pin_access.tune_hook
(** A hook that replays a recorded policy trace: panel [p] solves
    under the policy whose id the trace assigns it (baseline for
    unlisted panels or unknown ids).  What the fuzzer's repro files
    feed back in. *)

val negotiation_order : t -> Router.Negotiation.order
(** [Fixed (Order _)] maps to its ordering; everything else routes
    under the default {!Router.Negotiation.Hp}. *)

val warm_policy : t -> Eco.Engine.warm_policy
(** [Fixed (Warm _)] maps to its ECO reuse policy; everything else to
    the engine's default, [Warm_always]. *)

val bandit : t -> Bandit.t option
(** The underlying bandit of a [Bandit] tuner ([None] otherwise) —
    read-only access for telemetry (pulls, regret, histogram). *)

val trace : t -> (int * string) list
(** The policy trace so far: [(panel, policy id)] in ascending panel
    order, one entry per panel the hook selected for. *)

val stats_line : t -> string
(** One-line tuner report: mode, arms pulled, regret proxy and the
    chosen-policy histogram for a bandit; mode and panel count for a
    fixed policy; ["tune: off"] otherwise. *)
