module I = Geometry.Interval

type clique = {
  track : int;
  cap : int;
  members : int array;
  common : Geometry.Interval.t;
}

(* Sweep one track's intervals, the positions [order.(first) ..
   order.(stop - 1)] of [intervals] sorted by left edge.  A maximal
   clique of an interval graph is the active set at the smallest right
   edge of its members; emitting at each distinct "some interval ends
   next" point after at least one new interval started yields every
   maximal clique exactly once.  Intervals are inflated by [clearance]
   on the right so the selection keeps line-end-cut room.  The active
   set lives in one array kept in ascending id order; intervals that
   ended are dropped from it only when a clique is emitted, whose
   members are then a copy of it. *)
let sweep_track ~clearance intervals order ~first ~stop emit =
  let eff_hi pos = I.hi intervals.(pos).Access_interval.span + clearance in
  let id pos = intervals.(pos).Access_interval.id in
  let track = intervals.(order.(first)).Access_interval.track in
  let n = stop - first in
  let ends = Array.init n (fun k -> eff_hi order.(first + k)) in
  Array.stable_sort Int.compare ends;
  let active = Array.make n 0 and nactive = ref 0 in
  let next = ref first and fresh = ref false in
  for e = 0 to n - 1 do
    let x = ends.(e) in
    if e = 0 || x <> ends.(e - 1) then begin
      (* admit intervals starting at or before x *)
      while
        !next < stop && I.lo intervals.(order.(!next)).Access_interval.span <= x
      do
        let pos = order.(!next) in
        incr next;
        if eff_hi pos >= x then begin
          let j = ref !nactive in
          while !j > 0 && id active.(!j - 1) > id pos do
            active.(!j) <- active.(!j - 1);
            decr j
          done;
          active.(!j) <- pos;
          incr nactive;
          fresh := true
        end
      done;
      if !fresh then begin
        (* retire intervals ending before x; the fresh ones stay *)
        let kept = ref 0 and lo = ref min_int in
        for k = 0 to !nactive - 1 do
          let pos = active.(k) in
          if eff_hi pos >= x then begin
            active.(!kept) <- pos;
            incr kept;
            lo := max !lo (I.lo intervals.(pos).Access_interval.span)
          end
        done;
        nactive := !kept;
        let members = Array.init !kept (fun k -> id active.(k)) in
        emit { track; cap = 1; members; common = I.make ~lo:!lo ~hi:x };
        fresh := false
      end
    end
  done

(* Sweep every track of [positions] (any order) in ascending track
   order; the generator's output is already sorted, so the sort is
   skipped for it. *)
let sweep_tracks ~clearance intervals positions emit =
  let compare a b =
    let ia = intervals.(a) and ib = intervals.(b) in
    let c = Int.compare ia.Access_interval.track ib.Access_interval.track in
    if c <> 0 then c
    else
      let c =
        Int.compare (I.lo ia.Access_interval.span) (I.lo ib.Access_interval.span)
      in
      if c <> 0 then c else Int.compare a b
  in
  let n = Array.length positions in
  let sorted = ref true in
  for k = 1 to n - 1 do
    if compare positions.(k - 1) positions.(k) > 0 then sorted := false
  done;
  if not !sorted then Array.sort compare positions;
  let first = ref 0 in
  while !first < n do
    let track = intervals.(positions.(!first)).Access_interval.track in
    let stop = ref (!first + 1) in
    while
      !stop < n && intervals.(positions.(!stop)).Access_interval.track = track
    do
      incr stop
    done;
    sweep_track ~clearance intervals positions ~first:!first ~stop:!stop emit;
    first := !stop
  done

let collect sweep =
  let out = ref [] in
  sweep (fun c -> out := c :: !out);
  Array.of_list (List.rev !out)

let detect ?(clearance = 0) intervals =
  Array.iteri
    (fun i (iv : Access_interval.t) ->
      if iv.id <> i then invalid_arg "Conflict.detect: ids must be dense")
    intervals;
  collect (fun emit ->
      sweep_tracks ~clearance intervals
        (Array.init (Array.length intervals) Fun.id)
        (fun c -> if Array.length c.members >= 2 then emit c))

let cliques_of_track ?(clearance = 0) intervals ~track =
  let on_track = ref [] in
  Array.iteri
    (fun pos (iv : Access_interval.t) ->
      if iv.track = track then on_track := pos :: !on_track)
    intervals;
  collect
    (sweep_tracks ~clearance intervals (Array.of_list (List.rev !on_track)))

(* Color cliques: maximal sets of intervals that pairwise conflict
   under the TPL color relation (tracks within the window, x-spans
   within the same-color gap), with more than [colors] members.  Each
   gets capacity [colors]: the solver tiers price selecting more than
   [k] of them exactly as they price access conflicts, so a TPL-aware
   selection spreads contended intervals before the coloring pass even
   runs.  [Solver.Color_graph.cliques] does the band sweep; here the
   indices are mapped back onto interval ids and the clique record. *)
let detect_color ~(params : Solver.Color_graph.params) intervals =
  Array.iteri
    (fun i (iv : Access_interval.t) ->
      if iv.id <> i then invalid_arg "Conflict.detect_color: ids must be dense")
    intervals;
  let feats =
    Array.map
      (fun (iv : Access_interval.t) ->
        Solver.Color_graph.feature ~track:iv.track ~lo:(I.lo iv.span)
          ~hi:(I.hi iv.span))
      intervals
  in
  Solver.Color_graph.cliques params feats
  |> List.map (fun (members, lo, hi) ->
         let track =
           Array.fold_left
             (fun acc id -> min acc intervals.(id).Access_interval.track)
             max_int members
         in
         {
           track;
           cap = params.Solver.Color_graph.colors;
           members;
           common = I.make ~lo ~hi;
         })
  |> Array.of_list

let count_pairwise_conflicts intervals =
  let count = ref 0 in
  let n = Array.length intervals in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Access_interval.overlaps intervals.(i) intervals.(j) then incr count
    done
  done;
  !count
