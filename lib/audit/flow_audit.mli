(** Independent audit of a finished routing flow.

    {!Router.Flow.finish} computes the DRC verdicts and per-net [clean]
    flags the evaluation metrics are built on; this module replays that
    bookkeeping from the raw routes and flags every divergence:

    - the final metal is re-extracted from the routes by the reference
      extractor ({!Drc_reference}, not the flow's kernel) and must be
      short-free;
    - the reference rule deck is re-run on that layout under
      {!Drc.Rules.default}, the deck every flow runs under, and the
      per-kind violation counts must match what the flow reported;
    - when the flow recorded a TPL deck, the metal is re-colored under
      it and the recorded stats must reproduce;
    - the [clean] flag of every net is re-derived (connected and not
      blamed by the replayed DRC or TPL coloring) and must match;
    - every clean net must be electrically sound: one connected
      component reaching every pin ({!Router.Verify.check_flow}), so
      the routability the paper reports counts only truly routed nets.

    An empty issue list means the flow's claims survive independent
    re-derivation. *)

type issue =
  | Short of { detail : string }
      (** re-extraction found two nets on one grid — the routes are not
          even a legal layout *)
  | Violation_miscount of { kind : string; recorded : int; replayed : int }
      (** the flow reported a different number of DRC violations of
          this kind than an independent re-run finds *)
  | Clean_mismatch of { net : Netlist.Net.id; recorded : bool }
      (** the flow's [clean] flag for the net disagrees with the
          re-derived verdict ([recorded] is the flow's claim) *)
  | Tpl_miscount of { field : string; recorded : int; replayed : int }
      (** the flow ran color-constrained and its recorded TPL stats
          (feature/stitch/uncolored counts) disagree with re-coloring
          the re-extracted metal under the recorded deck *)
  | Electrical of Router.Verify.issue
      (** a net counted as routed is not electrically connected *)

val issue_to_string : issue -> string

val run : Router.Flow.t -> issue list
(** All divergences between the flow's claims and the independent
    replay, in deterministic order; [[]] certifies the flow clean. *)
