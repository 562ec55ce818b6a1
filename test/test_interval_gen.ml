module I = Geometry.Interval
module B = Netlist.Builder
module AI = Pinaccess.Access_interval
module Gen = Pinaccess.Interval_gen
module Design = Netlist.Design

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cfg = Gen.default_config

(* The paper's Figure 3(a) setup: pin a1 spans three tracks; diff-net
   pins b1 and d1 sit inside the net bounding box on one of them. *)
let fig3_design () =
  B.design ~width:20 ~height:10
    ~nets:
      [
        ("a", [ B.pin_span 6 ~lo:2 ~hi:4; B.pin_at 2 7; B.pin_at 17 6 ]);
        ("b", [ B.pin_at 9 3; B.pin_at 9 8 ]);
        ("c", [ B.pin_at 3 2; B.pin_at 13 2 ]);
        ("d", [ B.pin_at 14 3; B.pin_at 15 8 ]);
      ]
    ()

let test_min_interval_always_present () =
  let d = fig3_design () in
  Array.iter
    (fun (p : Netlist.Pin.t) ->
      let cands = Gen.generate_pin cfg d p in
      let mins =
        List.filter (fun (_, _, _, kind) -> kind = AI.Minimum) cands
      in
      check "has a minimum" true (mins <> []);
      List.iter
        (fun (_pins, track, span, _) ->
          check "minimum covers exactly the pin column" true
            (I.equal span (I.point p.Netlist.Pin.x));
          check "minimum on a pin track" true
            (Netlist.Pin.covers_track p track))
        mins)
    (Design.pins d)

let test_all_intervals_cover_pin_column () =
  let d = fig3_design () in
  Array.iter
    (fun (p : Netlist.Pin.t) ->
      List.iter
        (fun (_pins, track, span, _kind) ->
          check "interval on pin track" true (Netlist.Pin.covers_track p track);
          check "span covers pin column" true (I.contains span p.Netlist.Pin.x))
        (Gen.generate_pin cfg d p))
    (Design.pins d)

let test_cutting_lines () =
  let d = fig3_design () in
  (* pin a1 (id 0) at x=6, track 3 hosts diff-net pins b1 (x=9) and
     d1 (x=14): interval right edges on track 3 must include 8 (stop
     before b1), 13 (stop before d1) and the bbox edge *)
  let p = Design.pin d 0 in
  let track3 =
    Gen.generate_pin cfg d p
    |> List.filter (fun (_, t, _, k) -> t = 3 && k = AI.Regular)
    |> List.map (fun (_, _, span, _) -> I.hi span)
    |> List.sort_uniq Int.compare
  in
  check "stops before b1" true (List.mem 8 track3);
  check "stops before d1" true (List.mem 13 track3);
  check "reaches bbox right edge" true (List.mem 17 track3)

let test_count_o_mn () =
  (* pin with m diff-net pins left and n right on its track: the number
     of (left, right) edge combinations on that track is (m+1)*(n+1) *)
  let d =
    B.design ~width:30 ~height:10
      ~nets:
        [
          ("target", [ B.pin_at 15 3; B.pin_at 2 7; B.pin_at 28 7 ]);
          ("l1", [ B.pin_at 5 3 ]);
          ("l2", [ B.pin_at 8 3 ]);
          ("r1", [ B.pin_at 20 3 ]);
        ]
      ()
  in
  let p = Design.pin d 0 in
  let track3_regular =
    Gen.generate_pin cfg d p
    |> List.filter (fun (_, t, _, k) -> t = 3 && k = AI.Regular)
  in
  (* m = 2 (x=5, 8), n = 1 (x=20): (2+1) * (1+1) = 6 *)
  check_int "O(m*n) combinations" 6 (List.length track3_regular)

let test_blockage_clipping () =
  let blockages =
    [
      Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:3
        ~span:(I.make ~lo:10 ~hi:12);
    ]
  in
  let d =
    B.design ~width:30 ~height:10
      ~nets:[ ("a", [ B.pin_at 5 3; B.pin_at 25 3 ]) ]
      ~blockages ()
  in
  let p = Design.pin d 0 in
  List.iter
    (fun (_, _track, span, _) ->
      check "clipped before blockage" true (I.hi span < 10))
    (Gen.generate_pin cfg d p)

let test_pin_unreachable () =
  let blockages =
    [
      Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:3
        ~span:(I.make ~lo:4 ~hi:6);
    ]
  in
  let d =
    B.design ~width:30 ~height:10
      ~nets:[ ("a", [ B.pin_at 5 3; B.pin_at 25 3 ]) ]
      ~blockages ()
  in
  match Gen.generate_pin cfg d (Design.pin d 0) with
  | exception Gen.Pin_unreachable 0 -> ()
  | _ -> Alcotest.fail "expected Pin_unreachable"

let test_shared_intervals () =
  (* two same-net pins on one track: some interval serves both *)
  let d =
    B.design ~width:20 ~height:10
      ~nets:[ ("c", [ B.pin_at 3 2; B.pin_at 13 2 ]) ]
      ()
  in
  let intervals = Gen.generate_panel cfg d ~panel:0 in
  let shared =
    Array.to_list intervals
    |> List.filter (fun (iv : AI.t) -> List.length iv.AI.pins = 2)
  in
  check "a shared interval exists" true (shared <> []);
  List.iter
    (fun (iv : AI.t) ->
      check "covers both pin columns" true
        (I.contains iv.AI.span 3 && I.contains iv.AI.span 13))
    shared

let test_panel_dedupe () =
  let d = fig3_design () in
  let intervals = Gen.generate_panel cfg d ~panel:0 in
  (* ids dense, geometry unique per net *)
  Array.iteri (fun i (iv : AI.t) -> check_int "dense id" i iv.AI.id) intervals;
  let keys =
    Array.to_list intervals
    |> List.map (fun (iv : AI.t) ->
           (iv.AI.net, iv.AI.track, I.lo iv.AI.span, I.hi iv.AI.span))
  in
  check_int "no duplicate geometry" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_m2_bbox_margin () =
  let d =
    B.design ~width:60 ~height:10
      ~nets:[ ("a", [ B.pin_at 10 3; B.pin_at 50 3 ]) ]
      ()
  in
  let narrow = { cfg with Gen.m2_bbox_margin = Some 5 } in
  let p = Design.pin d 0 in
  List.iter
    (fun (_, _t, span, _) ->
      check "clipped to estimated M2 box" true (I.hi span <= 15 && I.lo span >= 5))
    (Gen.generate_pin narrow d p);
  let wide = Gen.generate_pin cfg d p in
  check "net bbox reaches the far pin" true
    (List.exists (fun (_, _, span, _) -> I.hi span = 50) wide)

let test_max_per_pin_cap () =
  let nets =
    ("target", [ B.pin_at 25 3; B.pin_at 2 7; B.pin_at 48 7 ])
    :: List.init 10 (fun i -> (Printf.sprintf "l%d" i, [ B.pin_at (2 + (2 * i)) 3 ]))
    @ List.init 10 (fun i -> (Printf.sprintf "r%d" i, [ B.pin_at (28 + (2 * i)) 3 ]))
  in
  let d = B.design ~width:50 ~height:10 ~nets () in
  let capped = { cfg with Gen.max_per_pin = 8 } in
  let p = Design.pin d 0 in
  let on_track3 =
    Gen.generate_pin capped d p
    |> List.filter (fun (_, t, _, k) -> t = 3 && k = AI.Regular)
  in
  check "capped" true (List.length on_track3 <= 8);
  (* the longest candidate (full free range) must survive the cap *)
  let max_len =
    List.fold_left (fun m (_, _, span, _) -> max m (I.length span)) 0 on_track3
  in
  let uncapped =
    Gen.generate_pin cfg d p
    |> List.filter (fun (_, t, _, k) -> t = 3 && k = AI.Regular)
    |> List.fold_left (fun m (_, _, span, _) -> max m (I.length span)) 0
  in
  check_int "maximum interval survives" uncapped max_len

(* ----------------------------------------------------------------- *)
(* qcheck: the degenerate shapes the library checker exercises —      *)
(* zero-width (single-track) pins, pins flush with the die edge, and  *)
(* single-track cells where every pin shares one track.               *)
(* ----------------------------------------------------------------- *)

(* a random degenerate single-row design: narrow die, pins allowed at
   x = 0 and x = width-1, optionally all forced onto one track *)
let degenerate_gen =
  QCheck.Gen.(
    let* width = int_range 3 16 in
    let* single_track = bool in
    let* shared_track = int_range 1 8 in
    let* npins = int_range 1 4 in
    let* raw =
      list_repeat npins
        (let* edge = int_range 0 2 in
         let* x = int_range 0 (width - 1) in
         let x = match edge with 0 -> 0 | 1 -> width - 1 | _ -> x in
         let* t = int_range 1 8 in
         let* h = int_range 1 2 in
         return (x, (if single_track then shared_track else t), h))
    in
    (* one pin per column keeps the builder happy *)
    let seen = Hashtbl.create 8 in
    let sites =
      List.filter
        (fun (x, _, _) ->
          if Hashtbl.mem seen x then false
          else begin
            Hashtbl.add seen x ();
            true
          end)
        raw
    in
    let nets =
      List.mapi
        (fun i (x, t, h) ->
          ( Printf.sprintf "n%d" i,
            [
              (if single_track || h = 1 then B.pin_at x t
               else B.pin_span x ~lo:t ~hi:(min 8 (t + h - 1)));
            ] ))
        sites
    in
    return (width, nets))

let arbitrary_degenerate =
  QCheck.make
    ~print:(fun (w, nets) ->
      Printf.sprintf "width=%d pins=%d" w (List.length nets))
    degenerate_gen

(* Theorem 1 at the boundary: whatever the degeneracy — a pin of one
   track, a pin at x = 0 or x = width-1, a whole cell on one track —
   generation must still produce the minimum interval, and every
   candidate must stay on the die, on a pin track, covering the pin
   column. *)
let prop_degenerate_candidates_sound =
  QCheck.Test.make ~name:"degenerate pins: candidates sound" ~count:200
    arbitrary_degenerate (fun (width, nets) ->
      let d = B.design ~width ~height:10 ~nets () in
      Array.for_all
        (fun (p : Netlist.Pin.t) ->
          let cands = Gen.generate_pin cfg d p in
          List.exists (fun (_, _, _, k) -> k = AI.Minimum) cands
          && List.for_all
               (fun (_, track, span, _) ->
                 Netlist.Pin.covers_track p track
                 && I.contains span p.Netlist.Pin.x
                 && I.lo span >= 0
                 && I.hi span <= width - 1)
               cands)
        (Design.pins d))

(* min_window (library-check mode) must widen, never shrink: every
   net-bbox candidate survives, every extra grid lies inside the
   window hull clipped to the die. *)
let prop_min_window_widens =
  QCheck.Test.make ~name:"degenerate pins: min_window widens" ~count:200
    arbitrary_degenerate (fun (width, nets) ->
      let d = B.design ~width ~height:10 ~nets () in
      let windowed = { cfg with Gen.min_window = Some 4 } in
      Array.for_all
        (fun (p : Netlist.Pin.t) ->
          let plain =
            Gen.generate_pin cfg d p
            |> List.map (fun (_, t, s, k) -> (t, I.lo s, I.hi s, k))
          in
          let wide = Gen.generate_pin windowed d p in
          let x = p.Netlist.Pin.x in
          List.for_all
            (fun (t, lo, hi, k) ->
              (* same-geometry candidate still generated, possibly wider *)
              List.exists
                (fun (_, t', s', k') ->
                  t' = t && k' = k && I.lo s' <= lo && I.hi s' >= hi)
                wide)
            plain
          && begin
               let bbox =
                 Geometry.Rect.xs (Design.net_bbox d p.Netlist.Pin.net)
               in
               List.for_all
                 (fun (_, _, span, _) ->
                   I.lo span >= max 0 (min (x - 4) (I.lo bbox))
                   && I.hi span <= min (width - 1) (max (x + 4) (I.hi bbox)))
                 wide
             end)
        (Design.pins d))

(* ----------------------------------------------------------------- *)
(* oracle: the flat panel build against the list-based reference      *)
(* ----------------------------------------------------------------- *)

module P = Pinaccess.Problem
module Ref = Pao_reference

(* A random one- or two-panel design built to hit what the flat kernel
   reorganizes: same-net pins sharing a track, multi-track pins, M2
   blockages on and beside pin columns, diff-net pins on both sides,
   and a random rule deck (clearance 0-3, candidate cap 1-8 so the cap
   path runs, window, bbox margin, TPL on and off). *)
let oracle_gen =
  QCheck.Gen.(
    let* width = int_range 6 36 in
    let* panels = int_range 1 2 in
    let* nnets = int_range 1 6 in
    let* nets =
      list_repeat nnets
        (let* npins = int_range 1 4 in
         list_repeat npins
           (let* x = int_range 0 (width - 1) in
            let* panel = int_range 0 (panels - 1) in
            let* lo = int_range 0 9 in
            let* h = int_range 1 3 in
            return (x, (panel * 10) + lo, (panel * 10) + min 9 (lo + h - 1))))
    in
    let* blockages =
      list_size (int_range 0 5)
        (let* track = int_range 0 ((panels * 10) - 1) in
         let* lo = int_range 0 (width - 1) in
         let* len = int_range 0 3 in
         return (track, lo, min (width - 1) (lo + len)))
    in
    let* clearance = int_range 0 3 in
    let* max_per_pin = int_range 1 8 in
    let* min_window = opt (int_range 0 6) in
    let* m2_bbox_margin = opt (int_range 0 6) in
    let* tpl = bool in
    return
      ( (width, panels, nets, blockages),
        {
          cfg with
          Gen.clearance;
          max_per_pin;
          min_window;
          m2_bbox_margin;
          tpl =
            (if tpl then Some (Solver.Color_graph.default ~colors:3) else None);
        } ))

(* keep the first pin of every occupied grid, drop emptied nets *)
let oracle_design (width, panels, nets, blockages) =
  let taken = Hashtbl.create 32 in
  let nets =
    List.mapi
      (fun i pins ->
        ( Printf.sprintf "n%d" i,
          List.filter_map
            (fun (x, lo, hi) ->
              let cells = List.init (hi - lo + 1) (fun k -> (x, lo + k)) in
              if List.exists (Hashtbl.mem taken) cells then None
              else begin
                List.iter (fun c -> Hashtbl.replace taken c ()) cells;
                Some (B.pin_span x ~lo ~hi)
              end)
            pins ))
      nets
    |> List.filter (fun (_, pins) -> pins <> [])
  in
  let blockages =
    List.map
      (fun (track, lo, hi) ->
        Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track
          ~span:(I.make ~lo ~hi))
      blockages
  in
  B.design ~width ~height:(panels * 10) ~nets ~blockages ()

let m_per_pin = Obs.Metrics.histogram "pao.intervals_per_pin"

(* the build's outcome with the [pao.intervals_per_pin] samples it took *)
let observed build =
  Obs.Metrics.reset ();
  let outcome =
    match build () with
    | problem -> Ok problem
    | exception Gen.Pin_unreachable pid -> Error pid
  in
  let s = Obs.Metrics.stats m_per_pin in
  (outcome, (s.Obs.Metrics.count, s.Obs.Metrics.sum, s.Obs.Metrics.min, s.Obs.Metrics.max))

let bindings (p : P.t) =
  Hashtbl.fold (fun pid slot acc -> (pid, slot) :: acc) p.P.pin_slot []
  |> List.sort compare

(* [Problem.t] field by field; the design is the same value *)
let same_problem (a : P.t) (b : P.t) =
  a.P.design == b.P.design && a.P.config = b.P.config
  && a.P.intervals = b.P.intervals && a.P.pin_ids = b.P.pin_ids
  && bindings a = bindings b
  && a.P.pin_candidates = b.P.pin_candidates
  && a.P.cliques = b.P.cliques && a.P.profits = b.P.profits
  && a.P.npins = b.P.npins && a.P.slot_start = b.P.slot_start
  && a.P.slot_ids = b.P.slot_ids && a.P.clique_start = b.P.clique_start
  && a.P.clique_ids = b.P.clique_ids

let same_build config design ~panel =
  let flat, flat_stats = observed (fun () -> P.build_panel config design ~panel)
  and reference, ref_stats =
    observed (fun () -> Ref.build_panel config design ~panel)
  in
  flat_stats = ref_stats
  &&
  match flat, reference with
  | Ok a, Ok b -> same_problem a b
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_panel_build_matches_reference =
  QCheck.Test.make ~name:"flat panel build = list-based reference" ~count:400
    (QCheck.make
       ~print:(fun ((w, panels, nets, blockages), (c : Gen.config)) ->
         Printf.sprintf "width=%d panels=%d nets=%d blockages=%d clearance=%d cap=%d"
           w panels (List.length nets) (List.length blockages) c.Gen.clearance
           c.Gen.max_per_pin)
       oracle_gen)
    (fun (shape, config) ->
      match oracle_design shape with
      | exception Design.Invalid _ -> QCheck.assume_fail ()
      | design ->
        List.for_all
          (fun panel -> same_build config design ~panel)
          (List.init (Design.num_panels design) Fun.id)
        && Array.for_all
             (fun (p : Netlist.Pin.t) ->
               let pin f =
                 match f config design p with
                 | c -> Ok c
                 | exception Gen.Pin_unreachable pid -> Error pid
               in
               pin Gen.generate_pin = pin Ref.generate_pin)
             (Design.pins design))

(* the generator's real designs, under the default and the TPL deck *)
let test_suite_panels_match_reference () =
  List.iter
    (fun (name, scale) ->
      let d = Workloads.Suite.design ~scale (Workloads.Suite.find name) in
      List.iter
        (fun config ->
          for panel = 0 to Design.num_panels d - 1 do
            check
              (Printf.sprintf "%s@%g panel %d" name scale panel)
              true
              (same_build config d ~panel)
          done)
        [ cfg; { cfg with Gen.tpl = Some (Solver.Color_graph.default ~colors:3) } ])
    [ ("ecc", 0.05); ("div", 0.03) ]

(* the sweep over hand-built arrays in no particular order *)
let prop_sweep_matches_reference =
  QCheck.Test.make ~name:"flat sweep = list-based reference, any order"
    ~count:300
    QCheck.(
      pair (int_range 0 3)
        (list_of_size Gen.(int_range 1 14)
           (triple (int_range 0 2) (int_range 0 20) (int_range 0 6))))
    (fun (clearance, specs) ->
      let intervals =
        Array.of_list
          (List.mapi
             (fun id (track, lo, len) ->
               AI.make ~id ~net:id ~pins:[ id ] ~track
                 ~span:(I.make ~lo ~hi:(lo + len)) ~kind:AI.Regular)
             specs)
      in
      Pinaccess.Conflict.detect ~clearance intervals
      = Ref.detect ~clearance intervals
      && List.for_all
           (fun track ->
             Pinaccess.Conflict.cliques_of_track ~clearance intervals ~track
             = Ref.cliques_of_track ~clearance intervals ~track)
           [ 0; 1; 2 ])

let () =
  Alcotest.run "interval_gen"
    [
      ( "generation",
        [
          Alcotest.test_case "minimum present" `Quick test_min_interval_always_present;
          Alcotest.test_case "covers pin column" `Quick test_all_intervals_cover_pin_column;
          Alcotest.test_case "cutting lines" `Quick test_cutting_lines;
          Alcotest.test_case "O(m*n) count" `Quick test_count_o_mn;
          Alcotest.test_case "blockage clipping" `Quick test_blockage_clipping;
          Alcotest.test_case "pin unreachable" `Quick test_pin_unreachable;
          Alcotest.test_case "shared intervals" `Quick test_shared_intervals;
          Alcotest.test_case "panel dedupe" `Quick test_panel_dedupe;
          Alcotest.test_case "m2 bbox margin" `Quick test_m2_bbox_margin;
          Alcotest.test_case "max_per_pin cap" `Quick test_max_per_pin_cap;
        ] );
      ( "degenerate",
        [
          QCheck_alcotest.to_alcotest prop_degenerate_candidates_sound;
          QCheck_alcotest.to_alcotest prop_min_window_widens;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_panel_build_matches_reference;
          Alcotest.test_case "suite panels" `Quick
            test_suite_panels_match_reference;
          QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
        ] );
    ]
