(** Lagrangian relaxation for the weighted interval assignment problem
    (paper Sec. 3.4, Algorithms 1 and 2).

    The clique constraints (1c) are relaxed into the objective with
    multipliers [λ_m]; each subproblem keeps only the one-interval-per-
    pin constraints and is solved by the greedy [maxGains]; multipliers
    follow the subgradient step [λ ← max(0, λ + t_k (Σx − 1))] with
    [t_k = L_m / k^α] where [L_m] is the length of the clique's common
    intersection.  The minimum-violation iterate is kept and finished
    by greedy conflict removal. *)

type config = {
  max_iterations : int;  (** the paper's UB, 200 *)
  alpha : float;  (** step-size exponent, 0.95 *)
  constant_step : float option;
      (** ablation: [Some t] replaces the decaying [t_k] by a constant
          step [t * L_m]; [None] is the paper's schedule *)
  full_subgradient : bool;
      (** [true] (default) applies Eq. (3) to every clique with a
          positive multiplier or a violation, letting multipliers of
          resolved cliques decay; [false] reproduces Algorithm 1
          literally and only increases multipliers of violated
          cliques. *)
  plateau_exit : int option;
      (** engineering addition: stop after this many iterations without
          a new best (min-violation) iterate; [None] reproduces the
          paper exactly (run to UB) *)
}

val default_config : config

type iterate = { iteration : int; violations : int; relaxed_objective : float }

type result = {
  solution : Solution.t;
      (** conflict-free after refinement, except for unrepairable
          all-minimum cliques introduced by a non-zero design-rule
          clearance (physically disjoint; counted by
          [Solution.num_violations]) *)
  iterations : int;  (** LR iterations actually run *)
  best_violations : int;  (** violations of the best iterate, pre-refinement *)
  shrinks : int;  (** refinement shrink operations *)
  budget_expired : bool;
      (** the budget stopped the subgradient loop before its own exit
          criteria (UB, plateau or zero violations); the solution is
          the refined best-so-far iterate *)
  history : iterate list;  (** per-iteration trace, oldest first *)
  multipliers : float array;
      (** final multiplier vector [λ], one per clique in
          [Problem.cliques] order — the state a later solve of a
          similar problem can warm-start from *)
}

val multipliers : result -> float array
(** [multipliers r] is the final multiplier vector of the solve (the
    [multipliers] field; exposed as a function for pipelining). *)

val dual_bound : result -> float option
(** The solver's claimed Lagrangian upper bound on the optimum: the
    smallest relaxed objective over the subgradient history, [None]
    when no iteration ran.  Claimed, not certified: the relaxed
    subproblems are solved by the greedy [maxGains], which is exact
    only when every interval serves a single pin — an independent
    audit should treat this as the solver's self-reported bound and
    pair it with a bound it derives itself (e.g.
    [Audit.upper_bound]). *)

val solve :
  ?config:config ->
  ?budget:Budget.t ->
  ?warm_start:float array ->
  Problem.t ->
  result
(** [budget] is checked once per subgradient iteration (one work unit
    each); on expiry the best-so-far iterate is refined and returned —
    the solver never raises on exhaustion.

    [warm_start] initializes the multiplier vector (and the derived
    per-interval penalties) from a previous solve's [multipliers]
    instead of zeros — one entry per clique in [Problem.cliques] order,
    clamped to [>= 0].  Raises [Invalid_argument] on a length mismatch.
    Warm-starting from the converged multipliers of a nearby problem
    typically re-converges in far fewer subgradient iterations; the
    result is still a valid (refined, conflict-free) solution either
    way, though not necessarily the same optimum a cold solve finds. *)

val max_gains : Problem.t -> gains:float array -> int array
(** One greedy subproblem solve (Algorithm 1, [maxGains]): per pin
    slot, the selected interval id.  Intervals are scanned by
    non-increasing gain, ties broken by the number of same-net pins
    served; an interval is selected only if all its pins are still
    unassigned.  Exposed for tests and benches.

    The choices are exactly those of that scan, but only part of it is
    ranked.  Per slot, only the top-ranked one-pin candidate can ever
    be selected, since the slot is taken by the time any other comes
    up; and a multi-pin interval ranked after it on one of its slots
    finds that slot taken.  The top singles never compete with each
    other (one per slot), and every remaining multi-pin interval ranks
    ahead of the top single of each slot it serves.  So the greedy
    ranks and scans only those multi-pin intervals, then gives every
    slot they left free its top single. *)
