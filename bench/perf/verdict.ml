type better = Lower | Higher
type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* Improvement of [b] over [a] in the metric's own direction. *)
let gain better a b = match better with Lower -> a -. b | Higher -> b -. a

let wins better pairs =
  List.fold_left
    (fun (w, l) (a, b) ->
      let g = gain better a b in
      if g > 0.0 then (w + 1, l) else if g < 0.0 then (w, l + 1) else (w, l))
    (0, 0) pairs

(* Relative gain of [b] over [a]. *)
let relative better a b =
  let g = gain better a b in
  if g = 0.0 then 0.0 else g /. Float.abs a

let judge ~better ~bound ~parent ~change ~pairs =
  let pa = Stats.summary parent and ch = Stats.summary change in
  let iqr = pa.Stats.q3 -. pa.Stats.q1 in
  let g = gain better pa.Stats.median ch.Stats.median in
  let w, _ = wins better pairs in
  let n = List.length pairs in
  let all_better =
    List.for_all
      (fun b -> List.for_all (fun a -> gain better a b > 0.0) parent)
      change
  in
  (* The relative change and its noise.  Runs of one seed share their
     inputs, so the spread of the paired changes is the run-to-run noise;
     across seeds the inputs differ, and the parent's own spread is only
     the fallback when no run pairs up. *)
  let change_share, noise =
    match pairs with
    | [] ->
      ( relative better pa.Stats.median ch.Stats.median,
        iqr /. Float.abs pa.Stats.median )
    | _ ->
      let d =
        Stats.summary (List.map (fun (a, b) -> relative better a b) pairs)
      in
      (d.Stats.median, d.Stats.q3 -. d.Stats.q1)
  in
  if n > 0 && w * 10 >= n * 9 && g > iqr then Better
  else if all_better then Unchanged
  else if noise > bound then Unresolved
  else if -.change_share > bound then Worse
  else Unchanged
