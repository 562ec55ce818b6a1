type row =
  | Choose_one of int list
  | At_most_one of int list
  | At_most of int * int list

type problem = { num_vars : int; profit : float array; rows : row list }

type stats = {
  nodes : int;
  proven_optimal : bool;
  root_lp_bound : float option;
}

type solution = { objective : float; values : bool array; stats : stats }

exception Infeasible of { nodes : int }
exception Stopped of { nodes : int }

let objective_of p values =
  let total = ref 0.0 in
  Array.iteri (fun v b -> if b then total := !total +. p.profit.(v)) values;
  !total

let check p values =
  let count vars = List.fold_left (fun k v -> if values.(v) then k + 1 else k) 0 vars in
  List.for_all
    (fun row ->
      match row with
      | Choose_one vars -> count vars = 1
      | At_most_one vars -> count vars <= 1
      | At_most (cap, vars) -> count vars <= cap)
    p.rows

(* conflict rows carry their capacity: [At_most_one] is capacity 1 *)
let split_rows p =
  let choose = ref [] and conflict = ref [] in
  List.iter
    (fun row ->
      match row with
      | Choose_one vars -> choose := Array.of_list vars :: !choose
      | At_most_one vars -> conflict := (1, Array.of_list vars) :: !conflict
      | At_most (cap, vars) -> conflict := (cap, Array.of_list vars) :: !conflict)
    p.rows;
  (Array.of_list (List.rev !choose), Array.of_list (List.rev !conflict))

let validate p choose conflict =
  let n = p.num_vars in
  if Array.length p.profit <> n then
    invalid_arg "Milp.solve: profit array size mismatch";
  let in_choose = Array.make n 0 in
  let check_row vars =
    let sorted = Array.copy vars in
    Array.sort Int.compare sorted;
    Array.iteri
      (fun i v ->
        if v < 0 || v >= n then invalid_arg "Milp.solve: variable out of range";
        if i > 0 && sorted.(i - 1) = sorted.(i) then
          invalid_arg "Milp.solve: duplicate variable in a row")
      sorted
  in
  Array.iter
    (fun vars ->
      check_row vars;
      Array.iter (fun v -> in_choose.(v) <- in_choose.(v) + 1) vars)
    choose;
  Array.iter
    (fun (cap, vars) ->
      if cap < 1 then invalid_arg "Milp.solve: At_most capacity must be >= 1";
      check_row vars)
    conflict;
  Array.iteri
    (fun v k ->
      if k = 0 then
        invalid_arg
          (Printf.sprintf "Milp.solve: variable %d in no Choose_one row" v))
    in_choose;
  in_choose

type undo = U_var of int | U_choose_sat of int | U_choose_free of int | U_conflict of int

let root_lp_bound p choose conflict =
  let objective = Array.to_list (Array.mapi (fun v k -> (v, k)) p.profit) in
  let row_to_constr rel rhs vars =
    Lp.constr (Array.to_list (Array.map (fun v -> (v, 1.0)) vars)) rel rhs
  in
  let constraints =
    Array.to_list (Array.map (row_to_constr Lp.Eq 1.0) choose)
    @ Array.to_list
        (Array.map
           (fun (cap, vars) -> row_to_constr Lp.Le (float_of_int cap) vars)
           conflict)
  in
  let lp =
    { Lp.num_vars = p.num_vars; maximize = true; objective; constraints }
  in
  match Lp.solve lp with
  | Lp.Optimal s -> Some s.Lp.objective_value
  | Lp.Infeasible | Lp.Unbounded | Lp.Iteration_limit -> None

let m_nodes = Obs.Metrics.counter "milp.nodes"

let branch_and_bound ?(should_stop = fun () -> false) ?(node_limit = max_int)
    ?warm_start ?(root_lp = false) p =
  let n = p.num_vars in
  let choose, conflict_rows = split_rows p in
  let in_choose = validate p choose conflict_rows in
  let cf_cap = Array.map fst conflict_rows in
  let conflict = Array.map snd conflict_rows in
  (* share.(v): per-choose-row profit share used by the decomposable
     bound; summing the best free share over unsatisfied rows bounds the
     best completion. *)
  let share = Array.mapi (fun v k -> p.profit.(v) /. float_of_int k) in_choose in
  let ncr = Array.length choose in
  let var_choose = Array.make n [] and var_conflict = Array.make n [] in
  Array.iteri
    (fun r vars -> Array.iter (fun v -> var_choose.(v) <- r :: var_choose.(v)) vars)
    choose;
  Array.iteri
    (fun r vars ->
      Array.iter (fun v -> var_conflict.(v) <- r :: var_conflict.(v)) vars)
    conflict;
  let vstate = Array.make n 0 in
  let ch_sat = Array.make ncr false in
  let ch_free = Array.map Array.length choose in
  let cf_count = Array.make (Array.length conflict) 0 in
  let cur_profit = ref 0.0 in
  let trail = ref [] in
  let push u = trail := u :: !trail in
  (* Invariants: ch_sat.(r) holds iff some variable of the row is 1
     (hence inside set_one no *other* variable of a newly satisfied
     choose row can already be 1); cf_count.(r) counts the row's
     variables currently at 1 and never exceeds cf_cap.(r). *)
  let rec set_zero v =
    match vstate.(v) with
    | -1 -> true
    | 1 -> false
    | _ ->
      vstate.(v) <- -1;
      push (U_var v);
      List.for_all
        (fun r ->
          ch_free.(r) <- ch_free.(r) - 1;
          push (U_choose_free r);
          if ch_sat.(r) then true
          else if ch_free.(r) = 0 then false
          else if ch_free.(r) = 1 then begin
            let forced = ref (-1) in
            Array.iter
              (fun u -> if vstate.(u) = 0 then forced := u)
              choose.(r);
            !forced >= 0 && set_one !forced
          end
          else true)
        var_choose.(v)
  and set_one v =
    match vstate.(v) with
    | 1 -> true
    | -1 -> false
    | _ ->
      vstate.(v) <- 1;
      push (U_var v);
      cur_profit := !cur_profit +. p.profit.(v);
      List.for_all
        (fun r ->
          if ch_sat.(r) then false
          else begin
            ch_sat.(r) <- true;
            push (U_choose_sat r);
            Array.for_all (fun u -> u = v || set_zero u) choose.(r)
          end)
        var_choose.(v)
      && List.for_all
           (fun r ->
             if cf_count.(r) >= cf_cap.(r) then false
             else begin
               cf_count.(r) <- cf_count.(r) + 1;
               push (U_conflict r);
               (* at capacity: every still-free variable of the row is
                  forced to 0 (members already at 1 stay) *)
               if cf_count.(r) = cf_cap.(r) then
                 Array.for_all
                   (fun u -> u = v || vstate.(u) = 1 || set_zero u)
                   conflict.(r)
               else true
             end)
           var_conflict.(v)
  in
  let unwind mark =
    while !trail != mark do
      match !trail with
      | [] -> assert false
      | u :: rest ->
        trail := rest;
        (match u with
        | U_var v ->
          if vstate.(v) = 1 then cur_profit := !cur_profit -. p.profit.(v);
          vstate.(v) <- 0
        | U_choose_sat r -> ch_sat.(r) <- false
        | U_choose_free r -> ch_free.(r) <- ch_free.(r) + 1
        | U_conflict r -> cf_count.(r) <- cf_count.(r) - 1)
    done
  in
  let bound () =
    let b = ref !cur_profit in
    for r = 0 to ncr - 1 do
      if not ch_sat.(r) then begin
        let best = ref 0.0 in
        Array.iter
          (fun v -> if vstate.(v) = 0 && share.(v) > !best then best := share.(v))
          choose.(r);
        b := !b +. !best
      end
    done;
    !b
  in
  let incumbent = ref neg_infinity in
  let best_values = Array.make n false in
  (match warm_start with
  | Some values when Array.length values = n && check p values ->
    incumbent := objective_of p values;
    Array.blit values 0 best_values 0 n
  | Some _ | None -> ());
  let lp_bound = if root_lp then root_lp_bound p choose conflict_rows else None in
  let nodes = ref 0 in
  let limited = ref false in
  let out_of_budget () =
    !nodes >= node_limit || (!nodes land 255 = 0 && should_stop ())
  in
  let record_solution () =
    if !cur_profit > !incumbent +. 1e-12 then begin
      incumbent := !cur_profit;
      Array.iteri (fun v s -> best_values.(v) <- s = 1) vstate
    end
  in
  let pick_branch_row () =
    let best = ref (-1) and best_free = ref max_int in
    for r = 0 to ncr - 1 do
      if (not ch_sat.(r)) && ch_free.(r) < !best_free then begin
        best := r;
        best_free := ch_free.(r)
      end
    done;
    !best
  in
  let rec dfs () =
    incr nodes;
    if out_of_budget () then limited := true
    else begin
      let r = pick_branch_row () in
      if r < 0 then record_solution ()
      else if bound () > !incumbent +. 1e-9 then begin
        let candidates =
          Array.to_list choose.(r)
          |> List.filter (fun v -> vstate.(v) = 0)
          |> List.sort (fun a b -> Float.compare p.profit.(b) p.profit.(a))
        in
        let mark_row = !trail in
        (* Try each candidate as the row's selection; after exploring a
           candidate, fix it to 0 so later siblings propagate the
           exclusion.  A failing exclusion means no sibling can work;
           an exclusion may also *force* the row's last candidate to 1,
           in which case that implied subtree is explored directly. *)
        (try
           List.iter
             (fun v ->
               if !limited then raise Exit;
               if ch_sat.(r) then begin
                 dfs ();
                 raise Exit
               end;
               if vstate.(v) = 0 then begin
                 let mark = !trail in
                 if set_one v && bound () > !incumbent +. 1e-9 then dfs ();
                 unwind mark;
                 if (not !limited) && not (set_zero v) then raise Exit
               end)
             candidates;
           if (not !limited) && ch_sat.(r) then dfs ()
         with Exit -> ());
        unwind mark_row
      end
    end
  in
  (* Initial propagation: force singleton pins. *)
  let ok = ref true in
  Array.iteri
    (fun r vars ->
      if !ok && (not ch_sat.(r)) && ch_free.(r) = 1 then begin
        let v = ref (-1) in
        Array.iter (fun u -> if vstate.(u) = 0 then v := u) vars;
        if !v >= 0 then ok := set_one !v else ok := false
      end)
    choose;
  if not !ok then raise (Infeasible { nodes = 0 });
  let lp_closes_gap =
    match lp_bound with
    | Some b -> !incumbent >= b -. 1e-6
    | None -> false
  in
  let root_mark = !trail in
  if not lp_closes_gap then dfs ();
  if !incumbent = neg_infinity && !limited then begin
    (* Budget exhausted before reaching any leaf: greedy dive so the
       anytime contract still returns a feasible assignment. *)
    unwind root_mark;
    let progress = ref true in
    while !progress do
      progress := false;
      let r = pick_branch_row () in
      if r >= 0 then begin
        let candidates =
          Array.to_list choose.(r)
          |> List.filter (fun v -> vstate.(v) = 0)
          |> List.sort (fun a b -> Float.compare p.profit.(b) p.profit.(a))
        in
        List.iter
          (fun v ->
            if (not !progress) && vstate.(v) = 0 then begin
              let mark = !trail in
              if set_one v then progress := true else unwind mark
            end)
          candidates
      end
    done;
    if pick_branch_row () < 0 then record_solution ()
  end;
  (* only a finished search proves infeasibility *)
  if !incumbent = neg_infinity then
    raise
      (if !limited then Stopped { nodes = !nodes }
       else Infeasible { nodes = !nodes });
  {
    objective = !incumbent;
    values = Array.copy best_values;
    stats =
      {
        nodes = !nodes;
        proven_optimal = not !limited;
        root_lp_bound = lp_bound;
      };
  }

let solve ?should_stop ?node_limit ?warm_start ?root_lp p =
  Obs.Trace.with_span "milp.solve" @@ fun () ->
  match branch_and_bound ?should_stop ?node_limit ?warm_start ?root_lp p with
  | sol ->
    Obs.Metrics.add m_nodes sol.stats.nodes;
    sol
  | exception ((Infeasible { nodes } | Stopped { nodes }) as e) ->
    (* a search without an answer still did its nodes' work *)
    Obs.Metrics.add m_nodes nodes;
    raise e
