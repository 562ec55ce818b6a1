type t = {
  deadline : float; (* absolute; [infinity] = no deadline *)
  work_limit : int; (* absolute count; [max_int] = no limit *)
  work : int ref; (* shared with sub-budgets *)
}

let unlimited () = { deadline = infinity; work_limit = max_int; work = ref 0 }

let start ?seconds ?work_units () =
  {
    deadline =
      (match seconds with Some s -> Obs.Clock.now () +. s | None -> infinity);
    work_limit = Option.value ~default:max_int work_units;
    work = ref 0;
  }

(* the clock is read only for a deadline share: the panel walk carves
   a slice per panel, and most runs have no deadline *)
let tighten t seconds =
  match seconds with
  | Some s -> Float.min t.deadline (Obs.Clock.now () +. s)
  | None -> t.deadline

let sub t ?seconds ?work_units () =
  {
    t with
    deadline = tighten t seconds;
    work_limit =
      (match work_units with
      | Some w -> min t.work_limit (!(t.work) + w)
      | None -> t.work_limit);
  }

let isolated t ?seconds ?work_units () =
  let remaining =
    if t.work_limit = max_int then max_int
    else max 0 (t.work_limit - !(t.work))
  in
  {
    deadline = tighten t seconds;
    work_limit =
      (match work_units with
      | Some w -> min remaining w
      | None -> remaining);
    work = ref 0;
  }

let spend t n = t.work := !(t.work) + n
let work_spent t = !(t.work)

let exhausted t =
  !(t.work) >= t.work_limit
  || (t.deadline < infinity && Obs.Clock.now () >= t.deadline)

let remaining_seconds t =
  if t.deadline = infinity then None
  else Some (Float.max 0.0 (t.deadline -. Obs.Clock.now ()))

let remaining_work t =
  if t.work_limit = max_int then None
  else Some (max 0 (t.work_limit - !(t.work)))
