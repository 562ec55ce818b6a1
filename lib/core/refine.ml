let m_shrinks = Obs.Metrics.counter "refine.shrinks"

let remove_conflicts ?gains (sol : Solution.t) =
  Obs.Trace.with_span "pao.refine" @@ fun () ->
  let problem = sol.Solution.problem in
  let gains = Option.value ~default:problem.Problem.profits gains in
  let assignment = Array.copy sol.Solution.assignment in
  let shrinks = ref 0 in
  let slot_start = problem.Problem.slot_start in
  let slot_ids = problem.Problem.slot_ids in
  let cliques = problem.Problem.cliques in
  let clique_start = problem.Problem.clique_start in
  let clique_ids = problem.Problem.clique_ids in
  (* per interval, the number of slots assigned to it, kept in step
     with [assignment] by [assign] *)
  let sel_count = Array.make (Problem.num_intervals problem) 0 in
  Array.iter (fun id -> sel_count.(id) <- sel_count.(id) + 1) assignment;
  let assign slot id =
    let old = assignment.(slot) in
    sel_count.(old) <- sel_count.(old) - 1;
    sel_count.(id) <- sel_count.(id) + 1;
    assignment.(slot) <- id
  in
  let is_selected id = sel_count.(id) > 0 in
  (* the selected members of a clique, ascending *)
  let selected_members (clique : Conflict.clique) =
    List.filter is_selected (Array.to_list clique.Conflict.members)
  in
  let violated () =
    List.filter
      (fun (clique : Conflict.clique) ->
        Array.fold_left
          (fun acc id -> if is_selected id then acc + 1 else acc)
          0 clique.Conflict.members
        > clique.Conflict.cap)
      (Array.to_list cliques)
  in
  (* the slots of interval [id], in [pins] order *)
  let iter_slots f id =
    for k = slot_start.(id) to slot_start.(id + 1) - 1 do
      f slot_ids.(k)
    done
  in
  (* how much selecting [candidate] would overflow its cliques: for
     each clique through the candidate, the members beyond capacity
     once the candidate joins the already-selected ones (the selection
     of every slot but [slot]).  With every cap at 1 this is exactly
     the old "selected members sharing a clique" count. *)
  let conflict_count candidate ~slot =
    let at_slot = assignment.(slot) in
    let selected_elsewhere id =
      sel_count.(id) - (if id = at_slot then 1 else 0) > 0
    in
    let total = ref 0 in
    for k = clique_start.(candidate) to clique_start.(candidate + 1) - 1 do
      let clique = cliques.(clique_ids.(k)) in
      let others =
        Array.fold_left
          (fun acc member ->
            if member <> candidate && selected_elsewhere member then acc + 1
            else acc)
          0 clique.Conflict.members
      in
      total := !total + max 0 (others + 1 - clique.Conflict.cap)
    done;
    !total
  in
  (* shrink to the pin's least-conflicting minimum (the primary-track
     minimum on ties), so repairs spread across the pin's tracks rather
     than pile onto one *)
  let shrink_pin slot =
    let candidates = Problem.minimum_intervals problem ~slot in
    let best =
      List.fold_left
        (fun best id ->
          let c = conflict_count id ~slot in
          match best with
          | Some (_, bc) when bc <= c -> best
          | Some _ | None -> Some (id, c))
        None candidates
    in
    match best with
    | Some (min_id, _) when assignment.(slot) <> min_id ->
      assign slot min_id;
      incr shrinks;
      true
    | Some _ | None -> false
  in
  (* Each sweep shrinks the non-minimum members of every violated
     clique; a clique whose selected members are all minimums cannot be
     repaired by shrinking (a design-rule-clearance residual) and is
     left for the router's DRC accounting.  Every sweep with progress
     strictly reduces the number of non-minimum selections, so at most
     [num_pins] sweeps run. *)
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (clique : Conflict.clique) ->
        (* recompute against the evolving assignment *)
        let selected = selected_members clique in
        if List.length selected > clique.Conflict.cap then begin
          let is_min id =
            Access_interval.is_minimum problem.Problem.intervals.(id)
          in
          let minimums = List.filter is_min selected in
          (* up to [cap] members stay selected: minimum intervals
             cannot shrink so they claim keep slots first; remaining
             slots go to the highest-gain members (stable sort keeps
             the earliest id on gain ties, matching the cap = 1
             fold) *)
          let keep =
            let others =
              List.filter (fun id -> not (is_min id)) selected
              |> List.stable_sort (fun a b ->
                     Float.compare gains.(b) gains.(a))
            in
            List.filteri
              (fun i _ -> i < clique.Conflict.cap)
              (minimums @ others)
          in
          List.iter
            (fun id ->
              if (not (List.mem id keep)) && not (is_min id) then
                iter_slots
                  (fun slot ->
                    if assignment.(slot) = id && shrink_pin slot then
                      progress := true)
                  id)
            selected
        end)
      (violated ())
  done;
  (* Residual repair: cliques that shrinking could not fix (their
     members are all minimums) sometimes dissolve by moving one of the
     involved pins to a *different* candidate with no conflict at all
     against the current selection. *)
  let conflict_free candidate ~slot = conflict_count candidate ~slot = 0 in
  let repair_pass () =
    let repaired = ref false in
    let single id = problem.Problem.npins.(id) = 1 in
    List.iter
      (fun (clique : Conflict.clique) ->
        let selected = selected_members clique in
        if List.length selected > clique.Conflict.cap then
          List.iter
            (fun id ->
              iter_slots
                (fun slot ->
                  if
                    assignment.(slot) = id && single id
                    && not (conflict_free id ~slot)
                  then begin
                    let candidates =
                      Array.to_list problem.Problem.pin_candidates.(slot)
                      |> List.filter (fun c -> c <> id && single c)
                      |> List.sort (fun a b ->
                             Float.compare problem.Problem.profits.(b)
                               problem.Problem.profits.(a))
                    in
                    match
                      List.find_opt (fun c -> conflict_free c ~slot) candidates
                    with
                    | Some c ->
                      assign slot c;
                      repaired := true
                    | None -> ()
                  end)
                id)
            selected)
      (violated ());
    !repaired
  in
  let rounds = ref 0 in
  while repair_pass () && !rounds < 4 do
    incr rounds
  done;
  Obs.Metrics.add m_shrinks !shrinks;
  (Solution.make problem ~assignment, !shrinks)
