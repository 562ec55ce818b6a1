module Flow = Router.Flow

type issue =
  | Short of { detail : string }
  | Violation_miscount of { kind : string; recorded : int; replayed : int }
  | Clean_mismatch of { net : Netlist.Net.id; recorded : bool }
  | Tpl_miscount of { field : string; recorded : int; replayed : int }
  | Electrical of Router.Verify.issue

let issue_to_string = function
  | Short { detail } -> Printf.sprintf "short in final routes: %s" detail
  | Violation_miscount { kind; recorded; replayed } ->
    Printf.sprintf "%s violations: flow reported %d, replay found %d" kind
      recorded replayed
  | Clean_mismatch { net; recorded } ->
    Printf.sprintf "net %d: flow marked it %s, replay disagrees" net
      (if recorded then "clean" else "dirty")
  | Tpl_miscount { field; recorded; replayed } ->
    Printf.sprintf "TPL %s: flow reported %d, replay found %d" field recorded
      replayed
  | Electrical i -> "electrical: " ^ Router.Verify.issue_to_string i

let kinds = [ Drc.Check.Line_end_gap; Drc.Check.Cut_alignment; Drc.Check.Via_spacing ]

let count_kind violations kind =
  List.length
    (List.filter (fun (v : Drc.Check.violation) -> v.Drc.Check.kind = kind)
       violations)

let run (flow : Flow.t) =
  let issues = ref [] in
  let issue i = issues := i :: !issues in
  (* 1. re-extract the final metal with the reference extractor; a
     short here means the routes never formed a legal layout, which
     voids every downstream claim *)
  match Drc_reference.of_routes flow.Flow.design flow.Flow.routes with
  | exception Invalid_argument detail ->
    [ Short { detail } ]
  | layout ->
    (* 2. replay the full DRC deck every flow runs under, with the
       reference checker rather than the kernel the flow ran *)
    let replayed =
      List.map fst (Drc_reference.check Drc.Rules.default layout)
    in
    List.iter
      (fun kind ->
        let recorded = count_kind flow.Flow.violations kind in
        let found = count_kind replayed kind in
        if recorded <> found then
          issue
            (Violation_miscount
               {
                 kind = Drc.Check.kind_to_string kind;
                 recorded;
                 replayed = found;
               }))
      kinds;
    (* 2b. replay the TPL deck the flow recorded: the re-colored metal
       must reproduce the recorded stitch/uncolored counts, and its
       blame joins the clean re-derivation below *)
    let tpl_blamed =
      match flow.Flow.tpl with
      | None -> []
      | Some deck ->
        let stats =
          Drc.Tpl.check_features deck (Drc_reference.tpl_features layout)
        in
        (match flow.Flow.tpl_stats with
        | None ->
          issue
            (Tpl_miscount
               {
                 field = "stats";
                 recorded = 0;
                 replayed = stats.Drc.Tpl.features;
               })
        | Some recorded ->
          let cmp field r p =
            if r <> p then issue (Tpl_miscount { field; recorded = r; replayed = p })
          in
          cmp "feature" recorded.Drc.Tpl.features stats.Drc.Tpl.features;
          cmp "stitch" recorded.Drc.Tpl.stitched stats.Drc.Tpl.stitched;
          cmp "uncolored" recorded.Drc.Tpl.uncolored stats.Drc.Tpl.uncolored);
        Drc.Tpl.blamed_nets stats
    in
    (* 3. re-derive the clean verdicts: connected and not blamed *)
    let blamed =
      List.sort_uniq Int.compare (Drc.Check.blamed_nets replayed @ tpl_blamed)
    in
    Array.iteri
      (fun net recorded ->
        let rederived =
          Option.is_some flow.Flow.routes.(net) && not (List.mem net blamed)
        in
        if recorded <> rederived then issue (Clean_mismatch { net; recorded }))
      flow.Flow.clean;
    (* 4. clean nets must be electrically sound *)
    List.iter (fun i -> issue (Electrical i)) (Router.Verify.check_flow flow);
    List.rev !issues
