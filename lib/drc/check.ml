module I = Geometry.Interval

type kind = Line_end_gap | Cut_alignment | Via_spacing

type violation = {
  kind : kind;
  layer : Rgrid.Layer.t;
  nets : int list;
  blame : int;
  sites : (int * int) list;
  where : string;
}

let kind_to_string = function
  | Line_end_gap -> "line-end-gap"
  | Cut_alignment -> "cut-alignment"
  | Via_spacing -> "via-spacing"

(* Gaps wider than this need no cut shape (the block mask handles them)
   and are exempt from the alignment rule R2; gaps of width
   [1 .. cut_width_max] are cuts. *)
let cut_width_max (rules : Rules.t) = (2 * rules.Rules.min_line_end_gap) - 1

let real_nets nets =
  List.sort_uniq Int.compare
    (List.filter (fun n -> n <> Extract.blockage_net) nets)

let blame_of nets =
  match real_nets nets with [] -> -1 | ns -> List.fold_left max (-1) ns

let mk kind layer nets ~sites where =
  { kind; layer; nets = real_nets nets; blame = blame_of nets; sites; where }

(* grid (x, y) positions of a run of track grids *)
let track_sites layer track lo hi =
  List.init (hi - lo + 1) (fun i ->
      match layer with
      | Rgrid.Layer.M2 -> (lo + i, track)
      | Rgrid.Layer.M3 -> (track, lo + i)
      | Rgrid.Layer.M1 -> assert false)

(* Gaps between consecutive segments on one track; a gap is a *cut*
   when narrow enough to need a cut shape. *)
type gap = { xl : int; xr : int; left_net : int; right_net : int }

let gaps_of_track segs =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
      let g =
        {
          xl = a.Extract.hi + 1;
          xr = b.Extract.lo - 1;
          left_net = a.Extract.net;
          right_net = b.Extract.net;
        }
      in
      walk (if g.xl <= g.xr then g :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] segs

let gap_width g = g.xr - g.xl + 1
let gap_nets g = [ g.left_net; g.right_net ]

let check_line_end_gaps rules layer tracks acc =
  let out = ref acc in
  Array.iteri
    (fun track segs ->
      List.iter
        (fun g ->
          if
            g.left_net <> g.right_net
            && gap_width g < rules.Rules.min_line_end_gap
            && real_nets (gap_nets g) <> []
          then
            out :=
              mk Line_end_gap layer (gap_nets g)
                ~sites:(track_sites layer track (g.xl - 1) (g.xr + 1))
                (Printf.sprintf "track %d gap [%d,%d]" track g.xl g.xr)
              :: !out)
        (gaps_of_track segs))
    tracks;
  !out

(* R2: cuts on adjacent tracks must be aligned or x-disjoint. *)
let check_cut_alignment rules layer tracks acc =
  let cuts_per_track =
    Array.map
      (fun segs ->
        gaps_of_track segs
        |> List.filter (fun g -> gap_width g <= cut_width_max rules))
      tracks
  in
  let out = ref acc in
  for t = 0 to Array.length tracks - 2 do
    List.iter
      (fun g1 ->
        List.iter
          (fun g2 ->
            let aligned = g1.xl = g2.xl && g1.xr = g2.xr in
            let disjoint = g1.xr < g2.xl || g2.xr < g1.xl in
            if (not aligned) && not disjoint then begin
              let nets = gap_nets g1 @ gap_nets g2 in
              if real_nets nets <> [] then
                out :=
                  mk Cut_alignment layer nets
                    ~sites:
                      (track_sites layer t g1.xl g1.xr
                      @ track_sites layer (t + 1) g2.xl g2.xr)
                    (Printf.sprintf "tracks %d/%d cuts [%d,%d]/[%d,%d]" t
                       (t + 1) g1.xl g1.xr g2.xl g2.xr)
                  :: !out
            end)
          cuts_per_track.(t + 1))
      cuts_per_track.(t)
  done;
  !out

(* one cut class at a time, so (x, y, net) is the whole order *)
let compare_via (x1, y1, _, n1) (x2, y2, _, n2) =
  let c = Int.compare x1 x2 in
  if c <> 0 then c
  else
    let c = Int.compare y1 y2 in
    if c <> 0 then c else Int.compare n1 n2

let check_via_spacing rules (layout : Extract.layout) acc =
  let classes = [ Extract.V1; Extract.V2 ] in
  List.fold_left
    (fun acc cls ->
      let vias =
        List.filter (fun (_, _, k, _) -> k = cls) layout.Extract.vias
        |> List.sort compare_via
      in
      let arr = Array.of_list vias in
      let out = ref acc in
      Array.iteri
        (fun i (x1, y1, _, n1) ->
          let j = ref (i + 1) in
          let continue_ = ref true in
          while !continue_ && !j < Array.length arr do
            let x2, y2, _, n2 = arr.(!j) in
            if x2 - x1 >= rules.Rules.min_via_spacing then continue_ := false
            else begin
              if n1 <> n2 && abs (x2 - x1) + abs (y2 - y1) < rules.Rules.min_via_spacing
              then
                out :=
                  mk Via_spacing
                    (match cls with
                    | Extract.V1 -> Rgrid.Layer.M2
                    | Extract.V2 -> Rgrid.Layer.M3)
                    [ n1; n2 ]
                    ~sites:[ (x1, y1); (x2, y2) ]
                    (Printf.sprintf "vias (%d,%d)/(%d,%d)" x1 y1 x2 y2)
                  :: !out;
              incr j
            end
          done)
        arr;
      !out)
    acc classes

let run rules (layout : Extract.layout) =
  []
  |> check_line_end_gaps rules Rgrid.Layer.M2 layout.Extract.m2
  |> check_line_end_gaps rules Rgrid.Layer.M3 layout.Extract.m3
  |> check_cut_alignment rules Rgrid.Layer.M2 layout.Extract.m2
  |> check_cut_alignment rules Rgrid.Layer.M3 layout.Extract.m3
  |> check_via_spacing rules layout
  |> List.rev

let blamed_nets violations =
  List.filter_map
    (fun v -> if v.blame >= 0 then Some v.blame else None)
    violations
  |> List.sort_uniq Int.compare
