module PA = Pinaccess.Pin_access

type mode = Off | Fixed of Policy.t | Bandit of int64

let mode_of_string s =
  match s with
  | "off" -> Some Off
  | "bandit" -> Some (Bandit 0L)
  | _ ->
    (match String.index_opt s ':' with
     | Some i when String.sub s 0 i = "fixed" ->
       let id = String.sub s (i + 1) (String.length s - i - 1) in
       Option.map (fun p -> Fixed p) (Policy.of_id id)
     | _ -> None)

let mode_to_string = function
  | Off -> "off"
  | Fixed p -> "fixed:" ^ Policy.id p
  | Bandit seed -> Printf.sprintf "bandit(seed=%Ld)" seed

type t = {
  mode : mode;
  bandit : Bandit.t option;
  (* panel -> (bucket, arm, profit_ub, max_iterations) of the in-flight
     bandit selection; resolved by tune_observe.  Selections and
     observations both run on the coordinating domain, so no locking is
     needed. *)
  in_flight : (int, string * int * float * int) Hashtbl.t;
  mutable trace_rev : (int * string) list;  (* descending panels *)
}

let create ?(seed = 0L) mode =
  let mode = match mode with Bandit _ -> Bandit seed | m -> m in
  let bandit =
    match mode with
    | Bandit s ->
      (* explore well below UCB1's canonical 1.0: rewards here are
         deterministic per panel (the only variance is panel
         heterogeneity inside a bucket), and arm gaps are a few points
         of a ~0.9-scale reward — a full-size confidence bonus would
         round-robin for hundreds of pulls instead of exploiting *)
      Some
        (Bandit.create ~explore:0.02
           ~arms:(Array.map Policy.lr_id Policy.lr_arms)
           ~seed:s ())
    | _ -> None
  in
  { mode; bandit; in_flight = Hashtbl.create 64; trace_rev = [] }

let mode t = t.mode

(* Reward: work units and objective, never wall clock — both are
   deterministic, so the whole policy trace is.  Quality leads, work
   breaks ties: [q] is the objective as a fraction of the panel's
   conflict-free upper bound ({!Features.profit_ub}), a panel-size-free
   number near 1.0, and [w] is LR iterations as a fraction of the
   iteration cap.  [q - 0.1 w] prices a full sweep of the iteration
   budget at ten points of normalized quality — equivalently, one
   point of quality costs a tenth of the budget — so an arm that trims
   a plateau tail at equal objective wins, while an arm that converges
   fast by giving up percent-level objective loses to the baseline. *)
let work_weight = 0.1

let reward ~ub ~max_iter ~objective delta =
  let work = Obs.Metrics.counter_delta delta "lr.iterations" in
  let q =
    if ub <= 0.0 then 0.0
    else Float.min 1.0 (Float.max 0.0 (objective /. ub))
  in
  let w = float_of_int work /. float_of_int (max 1 max_iter) in
  Float.max 0.0 (q -. (work_weight *. w))

let fixed_lr_hook t step =
  let policy = Policy.lr_id step in
  {
    PA.tune_select =
      (fun ~panel _problem config ->
        t.trace_rev <- (panel, policy) :: t.trace_rev;
        (Policy.apply_lr step config, policy));
    PA.tune_observe = (fun ~panel:_ ~policy:_ ~objective:_ ~delta:_ -> ());
  }

let bandit_hook t bandit =
  {
    PA.tune_select =
      (fun ~panel problem config ->
        let features = Features.of_problem ~panel problem in
        let bucket = Features.signature features in
        let arm = Bandit.select bandit ~bucket in
        let step = Policy.lr_arms.(arm) in
        let policy = Policy.lr_id step in
        Hashtbl.replace t.in_flight panel
          ( bucket,
            arm,
            features.Features.profit_ub,
            config.PA.lr.Pinaccess.Lagrangian.max_iterations );
        t.trace_rev <- (panel, policy) :: t.trace_rev;
        (Policy.apply_lr step config, policy));
    PA.tune_observe =
      (fun ~panel ~policy:_ ~objective ~delta ->
        match Hashtbl.find_opt t.in_flight panel with
        | None -> ()
        | Some (bucket, arm, ub, max_iter) ->
          Hashtbl.remove t.in_flight panel;
          Bandit.observe bandit ~bucket ~arm
            ~reward:(reward ~ub ~max_iter ~objective delta));
  }

let pa_hook t =
  match t.mode with
  | Off -> None
  | Fixed (Policy.Lr_step step) -> Some (fixed_lr_hook t step)
  | Fixed (Policy.Order _ | Policy.Warm _) -> None
  | Bandit _ ->
    (match t.bandit with Some b -> Some (bandit_hook t b) | None -> None)

let replay_hook assignments =
  let table = Hashtbl.create (List.length assignments) in
  List.iter (fun (panel, id) -> Hashtbl.replace table panel id) assignments;
  {
    PA.tune_select =
      (fun ~panel _problem config ->
        match Option.bind (Hashtbl.find_opt table panel) Policy.of_id with
        | Some (Policy.Lr_step step) ->
          (Policy.apply_lr step config, Policy.lr_id step)
        | Some _ | None -> (config, Policy.lr_id Policy.Lr_k95));
    PA.tune_observe = (fun ~panel:_ ~policy:_ ~objective:_ ~delta:_ -> ());
  }

let negotiation_order t =
  match t.mode with
  | Fixed (Policy.Order o) -> Policy.order_of o
  | _ -> Router.Negotiation.Hp

let warm_policy t =
  match t.mode with
  | Fixed (Policy.Warm w) -> Policy.warm_of w
  | _ -> Eco.Engine.Warm_always

let bandit t = t.bandit

let trace t =
  List.sort (fun (a, _) (b, _) -> compare a b) (List.rev t.trace_rev)

let stats_line t =
  match t.mode with
  | Off -> "tune: off"
  | Fixed p ->
    Printf.sprintf "tune: fixed:%s panels=%d" (Policy.id p)
      (List.length t.trace_rev)
  | Bandit seed ->
    (match t.bandit with
     | None -> "tune: bandit (inactive)"
     | Some b ->
       let hist =
         Bandit.histogram b
         |> List.map (fun (arm, n) -> Printf.sprintf "%s=%d" arm n)
         |> String.concat " "
       in
       Printf.sprintf
         "tune: bandit seed=%Ld pulls=%d buckets=%d regret=%.3f | %s" seed
         (Bandit.pulls b)
         (List.length (Bandit.buckets b))
         (Bandit.regret_proxy b) hist)
