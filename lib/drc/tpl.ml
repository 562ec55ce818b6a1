module I = Geometry.Interval
module CG = Solver.Color_graph

type t = { params : CG.params }

let make ~colors () =
  if colors < 2 then invalid_arg "Tpl.make: need at least 2 colors";
  { params = CG.default ~colors }

let of_params params =
  if params.CG.colors < 2 then invalid_arg "Tpl.of_params: need at least 2 colors";
  { params }

let params t = t.params
let colors t = t.params.CG.colors
let stitch_cost t = t.params.CG.stitch_cost
let to_string t = CG.params_to_string t.params

type feature = { track : int; span : Geometry.Interval.t; net : int }

type violation = {
  track : int;
  span : Geometry.Interval.t;
  net : int;
  neighbors : int list;
  where : string;
}

(* The M2 features of a layout in canonical (track, lo, hi) order:
   every real-net wire segment is one mask feature.  Blockages are
   pre-existing shapes outside the decomposition problem. *)
let features_of_layout layout =
  let s = Extract.tracks layout Rgrid.Layer.M2 in
  let out = ref [] in
  for track = Extract.num_tracks s - 1 downto 0 do
    for i = s.start.(track + 1) - 1 downto s.start.(track) do
      if s.net.(i) <> Extract.blockage_net then
        out :=
          { track; span = I.make ~lo:s.lo.(i) ~hi:s.hi.(i); net = s.net.(i) }
          :: !out
    done
  done;
  Array.of_list !out

let cg_feature (f : feature) =
  CG.feature ~track:f.track ~lo:(I.lo f.span) ~hi:(I.hi f.span)

let color_features t feats = CG.color t.params (Array.map cg_feature feats)

type stats = {
  features : int;
  solid : int;
  stitched : int;
  uncolored : int;
  violations : violation list;
}

let check_features t feats =
  let coloring = color_features t feats in
  let solid = ref 0 and stitched = ref 0 in
  let violations = ref [] in
  let cg_feats = Array.map cg_feature feats in
  Array.iteri
    (fun i a ->
      match a with
      | CG.Solid _ -> incr solid
      | CG.Stitched _ -> incr stitched
      | CG.Uncolored ->
        let f : feature = feats.(i) in
        let neighbors =
          (* the nets crowding this feature past k colors *)
          Array.to_list feats
          |> List.filteri (fun j _ ->
                 j <> i && CG.conflicts t.params cg_feats.(i) cg_feats.(j))
          |> List.map (fun (g : feature) -> g.net)
          |> List.sort_uniq Int.compare
        in
        violations :=
          {
            track = f.track;
            span = f.span;
            net = f.net;
            neighbors;
            where =
              Printf.sprintf "track %d [%d, %d] net %d" f.track (I.lo f.span)
                (I.hi f.span) f.net;
          }
          :: !violations)
    coloring.CG.assignment;
  {
    features = Array.length feats;
    solid = !solid;
    stitched = !stitched;
    uncolored = coloring.CG.residual;
    violations = List.rev !violations;
  }

let check t layout = check_features t (features_of_layout layout)

let blamed_nets stats =
  List.sort_uniq Int.compare (List.map (fun v -> v.net) stats.violations)

let clean stats = stats.violations = []

let stats_to_string s =
  Printf.sprintf "%d features: %d solid, %d stitched, %d uncolored" s.features
    s.solid s.stitched s.uncolored
