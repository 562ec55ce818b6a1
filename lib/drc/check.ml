module Layer = Rgrid.Layer

type kind = Line_end_gap | Cut_alignment | Via_spacing

type violation = {
  kind : kind;
  layer : Rgrid.Layer.t;
  nets : int list;
  blame : int;
  sites : (int * int) list;
}

let kind_to_string = function
  | Line_end_gap -> "line-end-gap"
  | Cut_alignment -> "cut-alignment"
  | Via_spacing -> "via-spacing"

(* Gaps wider than this need no cut shape (the block mask handles them)
   and are exempt from the alignment rule R2; gaps of width
   [1 .. cut_width_max] are cuts. *)
let cut_width_max (rules : Rules.t) = (2 * rules.Rules.min_line_end_gap) - 1

(* [n] into the sorted unique net list [ns], unless it is the
   blockage *)
let rec add n ns =
  if n = Extract.blockage_net then ns
  else
    match ns with
    | [] -> [ n ]
    | m :: rest ->
      if n < m then n :: ns else if n = m then ns else m :: add n rest

let mk kind layer nets ~sites =
  { kind; layer; nets; blame = List.fold_left max (-1) nets; sites }

(* grid (x, y) positions of a run of track grids, before [tail] *)
let track_sites layer track lo hi tail =
  let rec go i acc =
    if i < lo then acc
    else
      go (i - 1)
        ((match layer with
         | Layer.M2 -> (i, track)
         | Layer.M3 -> (track, i)
         | Layer.M1 -> assert false)
        :: acc)
  in
  go hi tail

(* The gap after segment [i] of a track, up to segment [i + 1]: empty
   when the two touch.  R1 checks every gap between different nets;
   R2 checks every gap narrow enough to be a cut. *)
let check_line_end_gaps rules layer (s : Extract.tracks) acc =
  let acc = ref acc in
  for track = 0 to Extract.num_tracks s - 1 do
    for i = s.start.(track) to s.start.(track + 1) - 2 do
      let xl = s.hi.(i) + 1 and xr = s.lo.(i + 1) - 1 in
      let l = s.net.(i) and r = s.net.(i + 1) in
      if xl <= xr && l <> r && xr - xl + 1 < rules.Rules.min_line_end_gap then
        acc :=
          mk Line_end_gap layer (add l (add r []))
            ~sites:(track_sites layer track (xl - 1) (xr + 1) [])
          :: !acc
    done
  done;
  !acc

(* R2: cuts on adjacent tracks must be aligned or x-disjoint.  Gaps on
   a track are disjoint and ascending, so for each cut of track [t]
   the cuts of [t + 1] it overlaps are one run, found by a pointer
   that only moves forward. *)
let check_cut_alignment rules layer (s : Extract.tracks) acc =
  let cut_max = cut_width_max rules in
  let is_cut i = s.lo.(i + 1) - s.hi.(i) - 1 in
  let acc = ref acc in
  for t = 0 to Extract.num_tracks s - 2 do
    let last2 = s.start.(t + 2) - 1 in
    let j = ref s.start.(t + 1) in
    for i = s.start.(t) to s.start.(t + 1) - 2 do
      let w1 = is_cut i in
      if w1 >= 1 && w1 <= cut_max then begin
        let xl1 = s.hi.(i) + 1 and xr1 = s.lo.(i + 1) - 1 in
        while !j < last2 && s.lo.(!j + 1) - 1 < xl1 do
          incr j
        done;
        let k = ref !j in
        while !k < last2 && s.hi.(!k) + 1 <= xr1 do
          let w2 = is_cut !k in
          let xl2 = s.hi.(!k) + 1 and xr2 = s.lo.(!k + 1) - 1 in
          if w2 >= 1 && w2 <= cut_max && not (xl1 = xl2 && xr1 = xr2) then begin
            let nets =
              add s.net.(i)
                (add s.net.(i + 1) (add s.net.(!k) (add s.net.(!k + 1) [])))
            in
            if nets <> [] then
              acc :=
                mk Cut_alignment layer nets
                  ~sites:
                    (track_sites layer t xl1 xr1
                       (track_sites layer (t + 1) xl2 xr2 []))
                :: !acc
          end;
          incr k
        done
      end
    done
  done;
  !acc

(* R3: two cuts of different nets closer than [min_via_spacing]
   (Manhattan).  In (x, y, net) order, the cuts after [i] within reach
   lie in its own column above it and in the next [spacing - 1]
   columns, inside a y window that narrows with the column distance. *)
let check_via_spacing rules layer (c : Extract.cuts) acc =
  let spacing = rules.Rules.min_via_spacing in
  let columns = Extract.num_columns c in
  (* first cut of column [x] at or above row [y] *)
  let lower_bound x y =
    let lo = ref c.col.(x) and hi = ref c.col.(x + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if c.y.(mid) < y then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let acc = ref acc in
  for x1 = 0 to columns - 1 do
    for i = c.col.(x1) to c.col.(x1 + 1) - 1 do
      let y1 = c.y.(i) and n1 = c.nets.(i) in
      for d = 0 to min (spacing - 1) (columns - 1 - x1) do
        let x2 = x1 + d and reach = spacing - d - 1 in
        let j = ref (if d = 0 then i + 1 else lower_bound x2 (y1 - reach)) in
        while !j < c.col.(x2 + 1) && c.y.(!j) <= y1 + reach do
          let y2 = c.y.(!j) and n2 = c.nets.(!j) in
          if n1 <> n2 then
            acc :=
              mk Via_spacing layer (add n1 (add n2 []))
                ~sites:[ (x1, y1); (x2, y2) ]
              :: !acc;
          incr j
        done
      done
    done
  done;
  !acc

let run rules layout =
  let m2 = Extract.tracks layout Layer.M2
  and m3 = Extract.tracks layout Layer.M3 in
  []
  |> check_line_end_gaps rules Layer.M2 m2
  |> check_line_end_gaps rules Layer.M3 m3
  |> check_cut_alignment rules Layer.M2 m2
  |> check_cut_alignment rules Layer.M3 m3
  |> check_via_spacing rules Layer.M2 (Extract.cuts layout Extract.V1)
  |> check_via_spacing rules Layer.M3 (Extract.cuts layout Extract.V2)
  |> List.rev

(* The text reports print, rebuilt from the sites: a gap's sites run
   from the grid before it to the grid after it, a cut pair's from the
   first track's cut to the second's. *)
let where v =
  let track (x, y) = if v.layer = Layer.M3 then x else y in
  let pos (x, y) = if v.layer = Layer.M3 then y else x in
  match (v.kind, v.sites) with
  | Line_end_gap, first :: _ ->
    let last = List.nth v.sites (List.length v.sites - 1) in
    Printf.sprintf "track %d gap [%d,%d]" (track first)
      (pos first + 1)
      (pos last - 1)
  | Cut_alignment, first :: _ ->
    let t = track first in
    let a, b = List.partition (fun s -> track s = t) v.sites in
    let span sites =
      (pos (List.hd sites), pos (List.nth sites (List.length sites - 1)))
    in
    let xl1, xr1 = span a and xl2, xr2 = span b in
    Printf.sprintf "tracks %d/%d cuts [%d,%d]/[%d,%d]" t (t + 1) xl1 xr1 xl2
      xr2
  | Via_spacing, [ (x1, y1); (x2, y2) ] ->
    Printf.sprintf "vias (%d,%d)/(%d,%d)" x1 y1 x2 y2
  | (Line_end_gap | Cut_alignment | Via_spacing), _ ->
    invalid_arg "Check.where: sites do not match the violation kind"

let blamed_nets violations =
  List.filter_map
    (fun v -> if v.blame >= 0 then Some v.blame else None)
    violations
  |> List.sort_uniq Int.compare
