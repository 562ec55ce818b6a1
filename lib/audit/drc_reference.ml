module I = Geometry.Interval
module Node = Rgrid.Node
module Layer = Rgrid.Layer
module Route = Rgrid.Route
module Design = Netlist.Design
module Check = Drc.Check

let blockage_net = Drc.Extract.blockage_net

type segment = { net : int; lo : int; mutable hi : int }
type via_kind = V1 | V2

type layout = {
  m2 : segment list array;
  m3 : segment list array;
  vias : (int * int * via_kind * int) list;
}

(* ----- route views, straight from the sorted nodes ----- *)

(* Maximal runs of consecutive positions on one track, from keys
   sorted by (track, position). *)
let runs ~track_of ~pos_of keys =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: rest ->
      let track = track_of k in
      let rec extend hi = function
        | k' :: rest' when track_of k' = track && pos_of k' = hi + 1 ->
          extend (hi + 1) rest'
        | rest' -> (hi, rest')
      in
      let lo = pos_of k in
      let hi, rest = extend lo rest in
      go ((track, lo, hi) :: acc) rest
  in
  go [] keys

(* A node id is [y * width + x], plus the plane on M3: the M2 nodes
   come first in (track, position) order; the M3 nodes are re-keyed
   [x * height + y] to read the same way. *)
let route_segments space (r : Route.t) =
  let plane = Node.plane space and w = space.Node.width and h = space.Node.height in
  let m2, m3 = List.partition (fun n -> n < plane) r.Route.nodes in
  let m3 =
    List.sort Int.compare
      (List.map
         (fun n ->
           let p = n - plane in
           ((p mod w) * h) + (p / w))
         m3)
  in
  List.map
    (fun seg -> (Layer.M2, seg))
    (runs ~track_of:(fun n -> n / w) ~pos_of:(fun n -> n mod w) m2)
  @ List.map
      (fun seg -> (Layer.M3, seg))
      (runs ~track_of:(fun k -> k / h) ~pos_of:(fun k -> k mod h) m3)

(* both layers list their plane indices ascending: merge them *)
let route_v2_vias space (r : Route.t) =
  let plane = Node.plane space and w = space.Node.width in
  let rec common acc m2 m3 =
    match (m2, m3) with
    | a :: m2', b :: m3' when a < plane ->
      let b = b - plane in
      if a = b then common ((a mod w, a / w) :: acc) m2' m3'
      else if a < b then common acc m2' m3
      else common acc m2 m3'
    | _ -> acc
  in
  let m3 = List.filter (fun n -> n >= plane) r.Route.nodes in
  List.sort compare (common [] r.Route.nodes m3)

(* ----- extraction ----- *)

let finalize_track ~tolerate_shorts segs =
  let sorted =
    List.sort
      (fun a b ->
        let c = Int.compare a.lo b.lo in
        if c <> 0 then c else Int.compare a.hi b.hi)
      segs
  in
  (* merge same-net touching/overlapping runs; different-net overlaps
     are shorts: rejected, or dropped when the caller knows rip-up is
     still running *)
  let rec merge = function
    | a :: b :: rest ->
      if b.lo <= a.hi then
        if a.net = b.net || a.net = blockage_net || b.net = blockage_net then begin
          a.hi <- max a.hi b.hi;
          merge (a :: rest)
        end
        else if tolerate_shorts then merge (a :: rest)
        else
          invalid_arg
            (Printf.sprintf "Drc_reference.of_routes: short between nets %d and %d"
               a.net b.net)
      else a :: merge (b :: rest)
    | ([ _ ] | []) as done_ -> done_
  in
  merge sorted

let of_routes ?(tolerate_shorts = false) design routes =
  let space = Node.space_of_design design in
  let m2 = Array.make space.Node.height [] in
  let m3 = Array.make space.Node.width [] in
  let vias = ref [] in
  let add layer track seg =
    match layer with
    | Layer.M2 -> m2.(track) <- seg :: m2.(track)
    | Layer.M3 -> m3.(track) <- seg :: m3.(track)
    | Layer.M1 -> assert false
  in
  List.iter
    (fun (b : Netlist.Blockage.t) ->
      let seg = { net = blockage_net; lo = I.lo b.span; hi = I.hi b.span } in
      match b.layer with
      | Netlist.Blockage.M2 ->
        if b.track >= 0 && b.track < space.Node.height then add Layer.M2 b.track seg
      | Netlist.Blockage.M3 ->
        if b.track >= 0 && b.track < space.Node.width then add Layer.M3 b.track seg)
    (Design.blockages design);
  Array.iter
    (function
      | None -> ()
      | Some (r : Route.t) ->
        List.iter
          (fun (layer, (track, lo, hi)) ->
            add layer track { net = r.Route.net; lo; hi })
          (route_segments space r);
        List.iter
          (fun (_pin, x, y) -> vias := (x, y, V1, r.Route.net) :: !vias)
          r.Route.pin_vias;
        List.iter
          (fun (x, y) -> vias := (x, y, V2, r.Route.net) :: !vias)
          (route_v2_vias space r))
    routes;
  Array.iteri (fun i segs -> m2.(i) <- finalize_track ~tolerate_shorts segs) m2;
  Array.iteri (fun i segs -> m3.(i) <- finalize_track ~tolerate_shorts segs) m3;
  { m2; m3; vias = !vias }

(* ----- the rule deck ----- *)

let cut_width_max (rules : Drc.Rules.t) = (2 * rules.Drc.Rules.min_line_end_gap) - 1

let real_nets nets =
  List.sort_uniq Int.compare (List.filter (fun n -> n <> blockage_net) nets)

let blame_of nets =
  match real_nets nets with [] -> -1 | ns -> List.fold_left max (-1) ns

let mk kind layer nets ~sites where =
  ( { Check.kind; layer; nets = real_nets nets; blame = blame_of nets; sites },
    where )

(* grid (x, y) positions of a run of track grids *)
let track_sites layer track lo hi =
  List.init (hi - lo + 1) (fun i ->
      match layer with
      | Layer.M2 -> (lo + i, track)
      | Layer.M3 -> (track, lo + i)
      | Layer.M1 -> assert false)

(* Gaps between consecutive segments on one track; a gap is a *cut*
   when narrow enough to need a cut shape. *)
type gap = { xl : int; xr : int; left_net : int; right_net : int }

let gaps_of_track segs =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
      let g = { xl = a.hi + 1; xr = b.lo - 1; left_net = a.net; right_net = b.net } in
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
            && gap_width g < rules.Drc.Rules.min_line_end_gap
            && real_nets (gap_nets g) <> []
          then
            out :=
              mk Check.Line_end_gap layer (gap_nets g)
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
                  mk Check.Cut_alignment layer nets
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

let check_via_spacing rules layout acc =
  List.fold_left
    (fun acc cls ->
      let vias =
        List.filter (fun (_, _, k, _) -> k = cls) layout.vias
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
            if x2 - x1 >= rules.Drc.Rules.min_via_spacing then continue_ := false
            else begin
              if
                n1 <> n2
                && abs (x2 - x1) + abs (y2 - y1) < rules.Drc.Rules.min_via_spacing
              then
                out :=
                  mk Check.Via_spacing
                    (match cls with V1 -> Layer.M2 | V2 -> Layer.M3)
                    [ n1; n2 ]
                    ~sites:[ (x1, y1); (x2, y2) ]
                    (Printf.sprintf "vias (%d,%d)/(%d,%d)" x1 y1 x2 y2)
                  :: !out;
              incr j
            end
          done)
        arr;
      !out)
    acc [ V1; V2 ]

let check rules layout =
  []
  |> check_line_end_gaps rules Layer.M2 layout.m2
  |> check_line_end_gaps rules Layer.M3 layout.m3
  |> check_cut_alignment rules Layer.M2 layout.m2
  |> check_cut_alignment rules Layer.M3 layout.m3
  |> check_via_spacing rules layout
  |> List.rev

let tpl_features layout =
  Array.of_list
    (List.concat
       (List.mapi
          (fun track segs ->
            List.filter_map
              (fun s ->
                if s.net = blockage_net then None
                else
                  Some
                    { Drc.Tpl.track; span = I.make ~lo:s.lo ~hi:s.hi; net = s.net })
              segs)
          (Array.to_list layout.m2)))
