type span = { count : int; busy : float; self : float }
type acc = { mutable n : int; mutable busy_s : float; mutable self_s : float }

type t = {
  spans : (string, acc) Hashtbl.t;
  (* completed spans at each depth still waiting for their parent, as
     [(start, stop)] intervals *)
  pending : (int, (float * float) list) Hashtbl.t;
}

let create () = { spans = Hashtbl.create 32; pending = Hashtbl.create 8 }

(* Length of the union of [intervals] inside [lo, hi]: children that
   ran concurrently on different domains cover the parent's interval
   once, not once per domain. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let take t depth =
  let l = Option.value ~default:[] (Hashtbl.find_opt t.pending depth) in
  Hashtbl.remove t.pending depth;
  l

(* Events arrive children first, so when a span completes every child
   it had is already pending one level below it. *)
let add t (e : Obs.Trace.event) =
  let stop = e.ts +. e.dur in
  let children = take t (e.depth + 1) in
  let s =
    match Hashtbl.find_opt t.spans e.name with
    | Some s -> s
    | None ->
      let s = { n = 0; busy_s = 0.0; self_s = 0.0 } in
      Hashtbl.replace t.spans e.name s;
      s
  in
  s.n <- s.n + 1;
  s.busy_s <- s.busy_s +. e.dur;
  s.self_s <- s.self_s +. (e.dur -. covered ~lo:e.ts ~hi:stop children);
  Hashtbl.replace t.pending e.depth
    ((e.ts, stop) :: Option.value ~default:[] (Hashtbl.find_opt t.pending e.depth))

let sink t = Obs.Trace.make_sink ~on_event:(add t) ~flush:ignore

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> { count = s.n; busy = s.busy_s; self = s.self_s }
  | None -> { count = 0; busy = 0.0; self = 0.0 }

let clear_roots t = Hashtbl.reset t.pending
