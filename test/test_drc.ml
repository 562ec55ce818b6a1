module B = Netlist.Builder
module Node = Rgrid.Node
module Layer = Rgrid.Layer
module Route = Rgrid.Route
module I = Geometry.Interval
module Extract = Drc.Extract
module Check = Drc.Check
module Line_end = Drc.Line_end

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rules = Drc.Rules.default

let design () =
  B.design ~width:30 ~height:10
    ~nets:
      [
        ("a", [ B.pin_at 2 3; B.pin_at 27 3 ]);
        ("b", [ B.pin_at 5 6; B.pin_at 25 6 ]);
        ("c", [ B.pin_at 10 8; B.pin_at 20 8 ]);
      ]
    ()

let m2_run space ~net ~track ~lo ~hi =
  Route.make ~space ~net
    ~nodes:
      (List.init (hi - lo + 1) (fun i ->
           Node.pack space ~layer:Layer.M2 ~x:(lo + i) ~y:track))
    ~pin_vias:[]

let routes_of d list =
  let n = Array.length (Netlist.Design.nets d) in
  let routes = Array.make n None in
  List.iter (fun (r : Route.t) -> routes.(r.Route.net) <- Some r) list;
  routes

(* a track's segments as (lo, hi, net) *)
let segments_on layout layer track =
  let s = Extract.tracks layout layer in
  List.init
    (s.Extract.start.(track + 1) - s.Extract.start.(track))
    (fun k ->
      let i = s.Extract.start.(track) + k in
      (s.Extract.lo.(i), s.Extract.hi.(i), s.Extract.net.(i)))

(* ----- Extract ----- *)

let test_extract_segments () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [ m2_run space ~net:0 ~track:2 ~lo:3 ~hi:8; m2_run space ~net:1 ~track:2 ~lo:12 ~hi:15 ]
  in
  let layout = Extract.of_routes d routes in
  check "two segments on track 2" true
    (segments_on layout Layer.M2 2 = [ (3, 8, 0); (12, 15, 1) ]);
  check_int "none elsewhere" 0 (List.length (segments_on layout Layer.M2 3))

let test_extract_rejects_shorts () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [ m2_run space ~net:0 ~track:2 ~lo:3 ~hi:8; m2_run space ~net:1 ~track:2 ~lo:7 ~hi:10 ]
  in
  (match Extract.of_routes d routes with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short must be rejected");
  (* tolerant mode drops the later segment instead *)
  let layout = Extract.of_routes ~tolerate_shorts:true d routes in
  check "tolerant keeps the first" true
    (segments_on layout Layer.M2 2 = [ (3, 8, 0) ])

let test_extract_blockages () =
  let blockages =
    [
      Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:4
        ~span:(I.make ~lo:0 ~hi:5);
    ]
  in
  let d =
    B.design ~width:30 ~height:10
      ~nets:[ ("a", [ B.pin_at 2 2; B.pin_at 8 2 ]) ]
      ~blockages ()
  in
  let layout = Extract.of_routes d (routes_of d []) in
  match segments_on layout Layer.M2 4 with
  | [ (_, _, net) ] -> check_int "blockage pseudo-net" Extract.blockage_net net
  | _ -> Alcotest.fail "expected one blockage segment"

(* ----- Check: R1 line-end gap ----- *)

let test_r1_detects_small_gap () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [ m2_run space ~net:0 ~track:2 ~lo:3 ~hi:8; m2_run space ~net:1 ~track:2 ~lo:10 ~hi:14 ]
  in
  let viols = Check.run rules (Extract.of_routes d routes) in
  check_int "one violation" 1 (List.length viols);
  let v = List.hd viols in
  check "kind" true (v.Check.kind = Check.Line_end_gap);
  check_int "blames the later net" 1 v.Check.blame;
  check "sites include both ends" true (List.length v.Check.sites >= 3)

let test_r1_accepts_legal_gap () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [ m2_run space ~net:0 ~track:2 ~lo:3 ~hi:8; m2_run space ~net:1 ~track:2 ~lo:11 ~hi:14 ]
  in
  check_int "gap 2 is legal" 0
    (List.length (Check.run rules (Extract.of_routes d routes)))

let test_r1_same_net_exempt () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(7 + i) ~y:2))
          ~pin_vias:[];
      ]
  in
  let viols =
    Check.run rules (Extract.of_routes d routes)
    |> List.filter (fun v -> v.Check.kind = Check.Line_end_gap)
  in
  check_int "same-net gap exempt from R1" 0 (List.length viols)

(* ----- Check: R2 cut alignment ----- *)

let test_r2_misaligned_cuts () =
  let d = design () in
  let space = Node.space_of_design d in
  (* track 2: cut at [9,10]; track 3: cut at [10,11] — partial overlap *)
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(11 + i) ~y:2))
          ~pin_vias:[];
        Route.make ~space ~net:1
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(4 + i) ~y:3)
            @ List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(12 + i) ~y:3))
          ~pin_vias:[];
      ]
  in
  let viols =
    Check.run rules (Extract.of_routes d routes)
    |> List.filter (fun v -> v.Check.kind = Check.Cut_alignment)
  in
  check "misaligned overlapping cuts flagged" true (viols <> [])

let test_r2_aligned_cuts_legal () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(11 + i) ~y:2))
          ~pin_vias:[];
        Route.make ~space ~net:1
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:3)
            @ List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(11 + i) ~y:3))
          ~pin_vias:[];
      ]
  in
  let viols =
    Check.run rules (Extract.of_routes d routes)
    |> List.filter (fun v -> v.Check.kind = Check.Cut_alignment)
  in
  check_int "aligned cuts legal" 0 (List.length viols)

(* ----- Check: R3 via spacing ----- *)

let test_r3_via_spacing () =
  let d = design () in
  let space = Node.space_of_design d in
  let mk net x y =
    Route.make ~space ~net
      ~nodes:[ Node.pack space ~layer:Layer.M2 ~x ~y ]
      ~pin_vias:[ (net, x, y) ]
  in
  let routes = routes_of d [ mk 0 5 2; mk 1 6 2 ] in
  let viols =
    Check.run rules (Extract.of_routes ~tolerate_shorts:true d routes)
    |> List.filter (fun v -> v.Check.kind = Check.Via_spacing)
  in
  check "adjacent V1 cuts flagged" true (viols <> []);
  (* diagonal is legal (manhattan distance 2) *)
  let routes = routes_of d [ mk 0 5 2; mk 1 6 3 ] in
  let viols =
    Check.run rules (Extract.of_routes d routes)
    |> List.filter (fun v -> v.Check.kind = Check.Via_spacing)
  in
  check_int "diagonal legal" 0 (List.length viols)

let test_blamed_nets () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [ m2_run space ~net:0 ~track:2 ~lo:3 ~hi:8; m2_run space ~net:1 ~track:2 ~lo:10 ~hi:14 ]
  in
  let viols = Check.run rules (Extract.of_routes d routes) in
  check "blamed = [1]" true (Check.blamed_nets viols = [ 1 ])

(* ----- Line-end extension ----- *)

let test_extension_merges_same_net () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(8 + i) ~y:2))
          ~pin_vias:[];
      ]
  in
  let layout = Extract.of_routes d routes in
  let fills, stats = Line_end.extend rules layout in
  check_int "one merge" 1 stats.Line_end.merges;
  check "fill covers the gap" true
    (List.exists
       (fun (f : Line_end.fill) ->
         f.Line_end.net = 0 && I.equal f.Line_end.span (I.make ~lo:6 ~hi:7))
       fills);
  check "track is one merged segment" true
    (segments_on layout Layer.M2 2 = [ (3, 10, 0) ])

let test_extension_aligns_cuts () =
  let d = design () in
  let space = Node.space_of_design d in
  (* cut [9,10] on track 2 vs cut [10,11] on track 3: intersection
     [10,10] is too narrow (min gap 2), but extending can align to a
     2-wide cut... the aligner needs intersection >= 2, so use cuts
     [9,11] and [10,12] with intersection [10,11] *)
  let seg net track lo hi =
    Route.make ~space ~net
      ~nodes:
        (List.init (hi - lo + 1) (fun i ->
             Node.pack space ~layer:Layer.M2 ~x:(lo + i) ~y:track))
      ~pin_vias:[]
  in
  (* four distinct net segments so nothing merges: track 2 holds nets
     0|2, track 3 holds nets 1|0 *)
  let r0 = Route.add_nodes ~space (seg 0 2 3 8) (seg 0 3 13 18).Route.nodes in
  let r1 = seg 1 3 4 9 in
  let r2 = seg 2 2 12 17 in
  let routes = routes_of d [ r0; r1; r2 ] in
  let layout = Extract.of_routes d routes in
  let viols_before =
    Check.run rules layout
    |> List.filter (fun v -> v.Check.kind = Check.Cut_alignment)
  in
  check "misaligned before" true (viols_before <> []);
  let layout = Extract.of_routes d routes in
  let _fills, stats = Line_end.extend rules layout in
  check "alignment performed" true (stats.Line_end.alignments >= 1);
  let viols_after =
    Check.run rules layout
    |> List.filter (fun v -> v.Check.kind = Check.Cut_alignment)
  in
  check_int "aligned after extension" 0 (List.length viols_after)

let test_extension_respects_can_fill () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 3 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(8 + i) ~y:2))
          ~pin_vias:[];
      ]
  in
  let layout = Extract.of_routes d routes in
  let can_fill _layer ~track:_ ~x:_ ~net:_ = false in
  let fills, stats = Line_end.extend ~can_fill rules layout in
  check_int "vetoed: no merges" 0 stats.Line_end.merges;
  check "no fills" true (fills = [])

(* ----- The kernel against the reference ----- *)

module Ref = Audit.Drc_reference

(* A random case on a small grid: blockages on both layers, and per
   net a few M2 and M3 runs (one of them may copy the previous net's
   run span for span) plus V1 cuts crowded into one corner, some
   stacked on the net's own metal.  Overlapping runs of different
   nets are shorts. *)
type case = {
  width : int;
  height : int;
  blockages : (bool * int * int * int) list;  (** (on M3, track, lo, hi) *)
  nets : ((bool * int * int * int) list * (int * int) list) list;
      (** per net: runs (on M3, track, lo, hi) and V1 positions *)
  gap : int;
  spacing : int;
}

let case_gen =
  QCheck.Gen.(
    let* width = int_range 8 16 in
    let* height = oneofl [ 10; 20 ] in
    let run =
      let* m3 = bool in
      let tracks, along = if m3 then (width, height) else (height, width) in
      (* mostly in one corner of three adjacent tracks, where line
         ends meet *)
      let* track =
        frequency [ (4, int_range 0 2); (1, int_range 0 (tracks - 1)) ]
      in
      let* lo = frequency [ (3, int_range 0 6); (1, int_range 0 (along - 1)) ] in
      let* len = int_range 0 3 in
      return (m3, track, lo, min (along - 1) (lo + len))
    in
    (* a run, or two on one track a cut apart *)
    let runs =
      let* ((m3, track, _, hi) as first) = run in
      let* split = bool in
      let* cut = frequency [ (1, return 1); (3, int_range 2 3) ] in
      let* len = int_range 0 3 in
      let along = if m3 then height else width in
      let lo2 = hi + cut + 1 in
      return
        (if split && lo2 < along then
           [ first; (m3, track, lo2, min (along - 1) (lo2 + len)) ]
         else [ first ])
    in
    let* blockages = list_size (int_range 0 4) run in
    let* count = int_range 2 5 in
    let rec nets k previous =
      if k = 0 then return []
      else
        let* runs = map List.concat (list_size (int_range 0 3) runs) in
        (* the previous net's first run span for span, or all its runs
           one track over and one grid along: misaligned cuts *)
        let* copy = int_range 0 2 in
        let shift (m3, track, lo, hi) =
          let tracks, along = if m3 then (width, height) else (height, width) in
          if track + 1 < tracks && hi + 1 < along then
            [ (m3, track + 1, lo + 1, hi + 1) ]
          else []
        in
        let runs =
          match (copy, previous) with
          | 1, r :: _ -> r :: runs
          | 2, _ -> List.concat_map shift previous @ runs
          | _ -> runs
        in
        let* cuts =
          list_size (int_range 0 3)
            (pair (int_range 0 (min 4 (width - 1))) (int_range 0 4))
        in
        let* stacked = bool in
        let cuts =
          match runs with
          | (true, x, lo, _) :: _ when stacked -> (x, lo) :: cuts
          | (false, y, lo, _) :: _ when stacked -> (lo, y) :: cuts
          | _ -> cuts
        in
        let* rest = nets (k - 1) runs in
        return ((runs, cuts) :: rest)
    in
    let* nets = nets count [] in
    let* gap = int_range 1 3 in
    let* spacing = int_range 1 3 in
    return { width; height; blockages; nets; gap; spacing })

let print_case c =
  let run (m3, t, lo, hi) =
    Printf.sprintf "%s@%d[%d,%d]" (if m3 then "M3" else "M2") t lo hi
  in
  Printf.sprintf "%dx%d gap %d spacing %d; blockages %s; %s" c.width c.height
    c.gap c.spacing
    (String.concat " " (List.map run c.blockages))
    (String.concat "; "
       (List.mapi
          (fun net (runs, cuts) ->
            Printf.sprintf "net %d: %s cuts %s" net
              (String.concat " " (List.map run runs))
              (String.concat " "
                 (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) cuts)))
          c.nets))

let arbitrary_case = QCheck.make ~print:print_case case_gen

let build_case c =
  let blockage (m3, track, lo, hi) =
    Netlist.Blockage.make
      ~layer:(if m3 then Netlist.Blockage.M3 else Netlist.Blockage.M2)
      ~track ~span:(I.make ~lo ~hi)
  in
  let d =
    B.design ~width:c.width ~height:c.height
      ~nets:
        (List.mapi (fun k _ -> (Printf.sprintf "n%d" k, [ B.pin_at k 9 ])) c.nets)
      ~blockages:(List.map blockage c.blockages)
      ()
  in
  let space = Node.space_of_design d in
  let route net (runs, cuts) =
    let nodes =
      List.concat_map
        (fun (m3, track, lo, hi) ->
          List.init (hi - lo + 1) (fun i ->
              if m3 then Node.pack space ~layer:Layer.M3 ~x:track ~y:(lo + i)
              else Node.pack space ~layer:Layer.M2 ~x:(lo + i) ~y:track))
        runs
    in
    Route.make ~space ~net ~nodes
      ~pin_vias:(List.mapi (fun k (x, y) -> ((net * 10) + k, x, y)) cuts)
  in
  let rules =
    {
      Drc.Rules.default with
      min_line_end_gap = c.gap;
      min_via_spacing = c.spacing;
    }
  in
  (d, Array.of_list (List.mapi (fun net n -> Some (route net n)) c.nets), rules)

let kernel ?layout ~tolerate_shorts rules d routes =
  let layout =
    match layout with
    | Some l ->
      Extract.fill ~tolerate_shorts l d routes;
      l
    | None -> Extract.of_routes ~tolerate_shorts d routes
  in
  (Check.run rules layout, Drc.Tpl.features_of_layout layout)

let reference ~tolerate_shorts rules d routes =
  let layout = Ref.of_routes ~tolerate_shorts d routes in
  (Ref.check rules layout, Ref.tpl_features layout)

(* same violations in the same order, the same report text and the
   same TPL features *)
let agrees (found, feats) (expected, ref_feats) =
  List.map fst expected = found
  && List.map snd expected = List.map Check.where found
  && feats = ref_feats

let prop_tolerant =
  QCheck.Test.make ~name:"kernel = reference, tolerating shorts" ~count:1000
    arbitrary_case (fun c ->
      let d, routes, rules = build_case c in
      agrees
        (kernel ~tolerate_shorts:true rules d routes)
        (reference ~tolerate_shorts:true rules d routes))

let prop_strict =
  QCheck.Test.make ~name:"kernel = reference, strict" ~count:1000 arbitrary_case
    (fun c ->
      let d, routes, rules = build_case c in
      let outcome f =
        match f ~tolerate_shorts:false rules d routes with
        | x -> Some x
        | exception Invalid_argument _ -> None
      in
      match (outcome (kernel ?layout:None), outcome reference) with
      | None, None -> true
      | Some k, Some r -> agrees k r
      | Some _, None | None, Some _ -> false)

(* one buffer for every case and step: cases differ in grid size, so
   it also grows and shrinks between fills *)
let shared = Extract.create ()

let prop_refill =
  let step = QCheck.Gen.(pair (int_range 0 5) bool) in
  QCheck.Test.make ~name:"one buffer refilled across adds and removes"
    ~count:300
    (QCheck.make
       ~print:(fun (c, steps) ->
         Printf.sprintf "%s; steps %s" (print_case c)
           (String.concat " "
              (List.map
                 (fun (n, add) -> Printf.sprintf "%c%d" (if add then '+' else '-') n)
                 steps)))
       QCheck.Gen.(pair case_gen (list_size (int_range 1 12) step)))
    (fun (c, steps) ->
      let d, all, rules = build_case c in
      let routes = Array.make (Array.length all) None in
      List.for_all
        (fun (net, add) ->
          let net = net mod Array.length all in
          routes.(net) <- (if add then all.(net) else None);
          agrees
            (kernel ~layout:shared ~tolerate_shorts:true rules d routes)
            (reference ~tolerate_shorts:true rules d routes))
        steps)

let test_where_text () =
  let d = design () in
  let space = Node.space_of_design d in
  let routes =
    routes_of d
      [
        Route.make ~space ~net:0
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(3 + i) ~y:2)
            @ List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(11 + i) ~y:2))
          ~pin_vias:[ (0, 3, 2) ];
        Route.make ~space ~net:1
          ~nodes:
            (List.init 6 (fun i -> Node.pack space ~layer:Layer.M2 ~x:(4 + i) ~y:3))
          ~pin_vias:[ (1, 4, 3) ];
        m2_run space ~net:2 ~track:3 ~lo:11 ~hi:16;
      ]
  in
  Alcotest.(check (list string))
    "report text"
    [
      "track 3 gap [10,10]";
      "tracks 2/3 cuts [9,10]/[10,10]";
      "vias (3,2)/(4,3)";
    ]
    (List.map Check.where
       (Check.run
          { rules with Drc.Rules.min_via_spacing = 3 }
          (Extract.of_routes d routes)))

let () =
  Alcotest.run "drc"
    [
      ( "extract",
        [
          Alcotest.test_case "segments" `Quick test_extract_segments;
          Alcotest.test_case "shorts rejected" `Quick test_extract_rejects_shorts;
          Alcotest.test_case "blockages" `Quick test_extract_blockages;
        ] );
      ( "check",
        [
          Alcotest.test_case "R1 small gap" `Quick test_r1_detects_small_gap;
          Alcotest.test_case "R1 legal gap" `Quick test_r1_accepts_legal_gap;
          Alcotest.test_case "R1 same-net exempt" `Quick test_r1_same_net_exempt;
          Alcotest.test_case "R2 misaligned" `Quick test_r2_misaligned_cuts;
          Alcotest.test_case "R2 aligned" `Quick test_r2_aligned_cuts_legal;
          Alcotest.test_case "R3 via spacing" `Quick test_r3_via_spacing;
          Alcotest.test_case "blamed nets" `Quick test_blamed_nets;
          Alcotest.test_case "where text" `Quick test_where_text;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_tolerant;
          QCheck_alcotest.to_alcotest prop_strict;
          QCheck_alcotest.to_alcotest prop_refill;
        ] );
      ( "line_end",
        [
          Alcotest.test_case "merges same net" `Quick test_extension_merges_same_net;
          Alcotest.test_case "aligns cuts" `Quick test_extension_aligns_cuts;
          Alcotest.test_case "respects can_fill" `Quick test_extension_respects_can_fill;
        ] );
    ]
