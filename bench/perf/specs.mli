(** The benchmark's metric table: name, unit, direction and, for gated
    metrics, the bound (a share of the parent's median) by which the
    metric may worsen before a change counts as a regression.
    [BENCHMARK.json] declares the same {!end_to_end} and {!per_layer}
    lists; a test keeps the two in step. *)

type spec = {
  name : string;
  unit_ : string;
  better : Verdict.better;
  bound : float option;
}

val end_to_end : spec list
(** Reported by every workload's untraced run. *)

val per_layer : spec list
(** Reported by every workload's [--trace] run. *)

val detail : spec list
(** Workload-specific figures of the untraced run (e.g. [via_count] on
    [flow], [edit_tail_ms] on [eco-serve]). *)

val find : string -> spec option
