type config = {
  max_iterations : int;
  alpha : float;
  constant_step : float option;
  full_subgradient : bool;
  plateau_exit : int option;
}

let default_config =
  {
    max_iterations = 200;
    alpha = 0.95;
    constant_step = None;
    full_subgradient = true;
    plateau_exit = Some 50;
  }

(* metered in lockstep with [Budget.spend]: one LR iteration is one
   work unit and one tick of [lr.iterations] *)
let m_iterations = Obs.Metrics.counter "lr.iterations"
let m_step_size = Obs.Metrics.histogram "lr.step_size"
let m_violations = Obs.Metrics.histogram "lr.violations"

type iterate = { iteration : int; violations : int; relaxed_objective : float }

type result = {
  solution : Solution.t;
  iterations : int;
  best_violations : int;
  shrinks : int;
  budget_expired : bool;
  history : iterate list;
  multipliers : float array;
}

let multipliers r = r.multipliers

let dual_bound r =
  match r.history with
  | [] -> None
  | history ->
    Some
      (List.fold_left
         (fun acc it -> Float.min acc it.relaxed_objective)
         infinity history)

(* Per-solve scratch of [max_gains], allocated once so an iteration
   allocates nothing. *)
type scratch = {
  best_single : int array;  (* per slot, its top-ranked one-pin candidate *)
  order : int array;  (* the surviving multi-pin candidates, then sorted *)
  tmp : int array;  (* merge buffer *)
  assignment : int array;
  multi : int array;  (* ids of the intervals serving several pins *)
}

let scratch (problem : Problem.t) =
  let npins = problem.Problem.npins in
  let multi =
    Array.of_list
      (List.filter (fun id -> npins.(id) > 1) (List.init (Array.length npins) Fun.id))
  in
  let num_pins = Problem.num_pins problem in
  {
    best_single = Array.make num_pins (-1);
    order = Array.make (Array.length multi) 0;
    tmp = Array.make (Array.length multi) 0;
    assignment = Array.make num_pins (-1);
    multi;
  }

(* The greedy's rank: [a] comes strictly before [b] by non-increasing
   gain, ties broken by same-net pins served (prefer intra-panel
   connections), then id for determinism.  A total order. *)
let before gains npins a b =
  let c = Float.compare gains.(b) gains.(a) in
  if c <> 0 then c < 0
  else
    let c = Int.compare npins.(b) npins.(a) in
    if c <> 0 then c < 0 else a < b

(* In-place merge sort of [a.(lo) .. a.(hi-1)] under [before]; [tmp] is
   as long as [a].  The order is total, so the result is the unique
   sorted permutation whatever the algorithm. *)
let rec sort_range gains npins a tmp lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before gains npins x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_range gains npins a tmp lo mid;
    sort_range gains npins a tmp mid hi;
    Array.blit a lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !i < mid && (!j >= hi || not (before gains npins tmp.(!j) tmp.(!i)))
      then begin
        a.(k) <- tmp.(!i);
        incr i
      end
      else begin
        a.(k) <- tmp.(!j);
        incr j
      end
    done
  end

(* The greedy visits intervals in [before] order.  Only a slot's
   top-ranked one-pin candidate [s_p] can ever take it alone: every
   other one-pin candidate of the slot comes after [s_p], by which time
   the slot is taken.  Likewise a multi-pin interval ranked after [s_p]
   for any of its slots finds that slot taken.  So the greedy over the
   survivors — each slot's [s_p] plus the multi-pin intervals ranked
   ahead of [s_p] on every slot they serve — makes exactly the choices
   of the greedy over all intervals.  Among the survivors the singles
   never compete: [s_p] is the only one on slot [p], and every
   surviving multi-pin interval that serves [p] ranks ahead of it.  So
   [p] ends with [s_p] exactly when no multi-pin survivor took it, and
   only the multi-pin survivors need ranking. *)
let max_gains_into ws (problem : Problem.t) ~gains =
  let npins = problem.Problem.npins in
  let slot_start = problem.Problem.slot_start in
  let slot_ids = problem.Problem.slot_ids in
  let best = ws.best_single in
  Array.fill best 0 (Array.length best) (-1);
  for id = 0 to Array.length npins - 1 do
    if npins.(id) = 1 then begin
      let slot = slot_ids.(slot_start.(id)) in
      let b = best.(slot) in
      if b < 0 || before gains npins id b then best.(slot) <- id
    end
  done;
  let order = ws.order and multi = ws.multi in
  let len = ref 0 in
  for i = 0 to Array.length multi - 1 do
    let id = multi.(i) in
    let ok = ref true and k = ref slot_start.(id) in
    while !ok && !k < slot_start.(id + 1) do
      let b = best.(slot_ids.(!k)) in
      if b >= 0 && not (before gains npins id b) then ok := false;
      incr k
    done;
    if !ok then begin
      order.(!len) <- id;
      incr len
    end
  done;
  sort_range gains npins order ws.tmp 0 !len;
  let assignment = ws.assignment in
  Array.fill assignment 0 (Array.length assignment) (-1);
  for i = 0 to !len - 1 do
    let id = order.(i) in
    let lo = slot_start.(id) and hi = slot_start.(id + 1) in
    let free = ref true and k = ref lo in
    while !free && !k < hi do
      if assignment.(slot_ids.(!k)) >= 0 then free := false;
      incr k
    done;
    if !free then
      for k = lo to hi - 1 do
        assignment.(slot_ids.(k)) <- id
      done
  done;
  for slot = 0 to Array.length assignment - 1 do
    if assignment.(slot) < 0 then begin
      assert (best.(slot) >= 0);
      assignment.(slot) <- best.(slot)
    end
  done

let max_gains (problem : Problem.t) ~gains =
  let ws = scratch problem in
  max_gains_into ws problem ~gains;
  ws.assignment

let solve ?(config = default_config) ?(budget = Budget.unlimited ())
    ?warm_start (problem : Problem.t) =
  let intervals = problem.Problem.intervals in
  let cliques = problem.Problem.cliques in
  let n = Array.length intervals in
  let profits = problem.Problem.profits in
  let lambda =
    match warm_start with
    | None -> Array.make (Array.length cliques) 0.0
    | Some w ->
      if Array.length w <> Array.length cliques then
        invalid_arg
          (Printf.sprintf
             "Lagrangian.solve: warm_start has %d multipliers, problem has \
              %d cliques"
             (Array.length w) (Array.length cliques));
      Array.map (Float.max 0.0) w
  in
  let penalties = Array.make n 0.0 in
  Array.iteri
    (fun m (clique : Conflict.clique) ->
      if lambda.(m) <> 0.0 then
        Array.iter
          (fun id -> penalties.(id) <- penalties.(id) +. lambda.(m))
          clique.Conflict.members)
    cliques;
  let gains = Array.make n 0.0 in
  let chosen = Array.make n false in
  let ws = scratch problem in
  let counts = Array.make (Array.length cliques) 0 in
  let clique_start = problem.Problem.clique_start in
  let clique_ids = problem.Problem.clique_ids in
  let common_len =
    Array.map
      (fun (clique : Conflict.clique) ->
        float_of_int (Geometry.Interval.length clique.Conflict.common))
      cliques
  in
  let step_size = Obs.Metrics.recorder m_step_size in
  let violations = Obs.Metrics.recorder m_violations in
  let best_assignment = ref None in
  let best_gains = Array.make n 0.0 in
  let min_vio = ref max_int in
  let history = ref [] in
  let iterations = ref 0 in
  let k = ref 0 in
  let since_best = ref 0 in
  let stalled () =
    match config.plateau_exit with
    | Some limit -> !since_best >= limit
    | None -> false
  in
  let want_more () =
    !min_vio > 0 && !k < config.max_iterations && not (stalled ())
  in
  while want_more () && not (Budget.exhausted budget) do
    Obs.Trace.with_span "lr.iteration" @@ fun () ->
    incr k;
    Budget.spend budget 1;
    Obs.Metrics.incr m_iterations;
    for i = 0 to n - 1 do
      gains.(i) <- profits.(i) -. penalties.(i)
    done;
    max_gains_into ws problem ~gains;
    let assignment = ws.assignment in
    Array.fill chosen 0 n false;
    Array.fill counts 0 (Array.length counts) 0;
    for slot = 0 to Array.length assignment - 1 do
      let id = assignment.(slot) in
      if not chosen.(id) then begin
        chosen.(id) <- true;
        for k = clique_start.(id) to clique_start.(id + 1) - 1 do
          let m = clique_ids.(k) in
          counts.(m) <- counts.(m) + 1
        done
      end
    done;
    (* penalize: walk every clique in order, move multipliers along the
       subgradient (Eq. 3); the step of clique [m] is [common_len.(m)]
       times a factor fixed for the whole iteration *)
    let denom = Float.pow (float_of_int !k) config.alpha in
    let vio = ref 0 in
    for m = 0 to Array.length cliques - 1 do
      let cnt = counts.(m) and cap = cliques.(m).Conflict.cap in
      if cnt > cap then incr vio;
      if cnt > cap || (config.full_subgradient && lambda.(m) > 0.0) then begin
        let s =
          match config.constant_step with
          | Some t -> t *. common_len.(m)
          | None -> common_len.(m) /. denom
        in
        Obs.Metrics.record step_size s;
        let g = float_of_int (cnt - cap) in
        let lam' = Float.max 0.0 (lambda.(m) +. (s *. g)) in
        let delta = lam' -. lambda.(m) in
        if delta <> 0.0 then begin
          lambda.(m) <- lam';
          let members = cliques.(m).Conflict.members in
          for i = 0 to Array.length members - 1 do
            penalties.(members.(i)) <- penalties.(members.(i)) +. delta
          done
        end
      end
    done;
    (* the selected gains, then the sum of lambda_m * cap_m (cap = 1
       keeps the original sum) *)
    let relaxed = ref 0.0 in
    for id = 0 to n - 1 do
      if chosen.(id) then relaxed := !relaxed +. gains.(id)
    done;
    for m = 0 to Array.length lambda - 1 do
      let cap = float_of_int cliques.(m).Conflict.cap in
      relaxed := !relaxed +. (lambda.(m) *. cap)
    done;
    let relaxed = !relaxed in
    Obs.Metrics.record violations (float_of_int !vio);
    history :=
      { iteration = !k; violations = !vio; relaxed_objective = relaxed }
      :: !history;
    if !vio < !min_vio then begin
      min_vio := !vio;
      best_assignment := Some (Array.copy assignment);
      Array.blit gains 0 best_gains 0 n;
      since_best := 0
    end
    else incr since_best;
    iterations := !k
  done;
  (* expired: the budget cut the loop short of its own exit criteria *)
  let budget_expired = want_more () && Budget.exhausted budget in
  let assignment =
    match !best_assignment with
    | Some a -> a
    | None ->
      (* max_iterations = 0: fall back to pure profits *)
      min_vio := max_int;
      max_gains problem ~gains:profits
  in
  let raw = Solution.make problem ~assignment in
  let solution, shrinks = Refine.remove_conflicts ~gains:best_gains raw in
  {
    solution;
    iterations = !iterations;
    best_violations = (if !min_vio = max_int then Solution.num_violations raw else !min_vio);
    shrinks;
    budget_expired;
    history = List.rev !history;
    multipliers = lambda;
  }
