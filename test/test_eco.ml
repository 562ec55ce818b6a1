(* The ECO subsystem end to end: the delta language round-trips and
   applies with precise errors, the dirty index marks exactly the
   dependent panels, cache keys hash content (never names), and the
   incremental engine lands on the from-scratch answer — bit-identical
   with warm starting off, certified equivalent with it on, routed
   flows audited clean. *)

module I = Geometry.Interval
module B = Netlist.Builder
module Design = Netlist.Design
module Blockage = Netlist.Blockage
module Delta = Eco.Delta
module Dirty = Eco.Dirty
module PC = Eco.Panel_cache
module Engine = Eco.Engine
module PA = Pinaccess.Pin_access

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* three panels (row_height 10): nets a/b/c are panel-local, x spans
   panels 0 and 2 *)
let multi_panel () =
  B.design ~width:24 ~height:30
    ~nets:
      [
        ("a", [ B.pin_at 2 2; B.pin_at 9 6 ]);
        ("b", [ B.pin_at 4 12; B.pin_at 11 17 ]);
        ("c", [ B.pin_at 6 22; B.pin_at 15 27 ]);
        ("x", [ B.pin_at 18 4; B.pin_at 18 24 ]);
      ]
    ()

let ecc ?(scale = 0.05) () =
  Workloads.Suite.design ~scale (Workloads.Suite.find "ecc")

let net_names design =
  Design.nets design |> Array.to_list
  |> List.map (fun (n : Netlist.Net.t) -> n.Netlist.Net.name)
  |> List.sort compare

let has_pin design ~x ~track =
  Design.pins design
  |> Array.exists (fun (p : Netlist.Pin.t) ->
         p.Netlist.Pin.x = x && Netlist.Pin.covers_track p track)

(* ------------------------------------------------------------------ *)
(* Delta language                                                      *)
(* ------------------------------------------------------------------ *)

let every_kind =
  [
    Delta.Add_pin
      { net = "a"; shape = { Delta.x = 5; tracks = I.make ~lo:3 ~hi:4 } };
    Delta.Remove_pin { Delta.at_x = 9; at_track = 6 };
    Delta.Move_pin
      {
        from_ = { Delta.at_x = 2; at_track = 2 };
        shape = { Delta.x = 3; tracks = I.point 2 };
      };
    Delta.Add_net
      {
        name = "fresh";
        pins =
          [
            { Delta.x = 1; tracks = I.point 8 };
            { Delta.x = 7; tracks = I.make ~lo:0 ~hi:1 };
          ];
      };
    Delta.Remove_net "b";
    Delta.Add_blockage
      (Blockage.make ~layer:Blockage.M2 ~track:5 ~span:(I.make ~lo:0 ~hi:3));
    Delta.Remove_blockage
      (Blockage.make ~layer:Blockage.M3 ~track:2 ~span:(I.make ~lo:1 ~hi:2));
    Delta.Set_clearance 1;
  ]

let test_round_trip () =
  check "every kind survives to_string/of_string" true
    (Delta.of_string (Delta.to_string every_kind) = every_kind);
  let batches = [ every_kind; [ Delta.Set_clearance 0 ] ] in
  check "batches survive the step separator" true
    (Delta.batches_of_string (Delta.batches_to_string batches) = batches)

let test_parse_tolerance () =
  let text =
    "# an ECO from the editor\n\n\
     move_pin 2 2 3 2 2\n\
     step\n\n\
     step\n\
     remove_net b\n\
     step\n"
  in
  let batches = Delta.batches_of_string text in
  check "comments, blanks and empty batches are dropped" true
    (batches
    = [
        [
          Delta.Move_pin
            {
              from_ = { Delta.at_x = 2; at_track = 2 };
              shape = { Delta.x = 3; tracks = I.point 2 };
            };
        ];
        [ Delta.Remove_net "b" ];
      ])

let test_parse_errors () =
  let rejects text =
    match Delta.of_string text with
    | exception Delta.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed %S" text
  in
  rejects "bogus 1 2";
  rejects "move_pin 1";
  rejects "add_blockage M4 0 0 1";
  (* single-batch parser refuses multi-batch streams *)
  rejects "set_clearance 1\nstep\nset_clearance 0"

let test_apply_move () =
  let design = fig3_design () in
  let moved =
    Delta.apply design
      (Delta.Move_pin
         {
           from_ = { Delta.at_x = 9; at_track = 3 };
           shape = { Delta.x = 10; tracks = I.point 3 };
         })
  in
  check "pin left the old grid" false (has_pin moved ~x:9 ~track:3);
  check "pin arrived at the new grid" true (has_pin moved ~x:10 ~track:3);
  check "net names survive the rebuild" true
    (net_names moved = net_names design)

let test_apply_net_lifecycle () =
  let design = fig3_design () in
  let with_solo =
    Delta.apply design
      (Delta.Add_net
         { name = "solo"; pins = [ { Delta.x = 1; tracks = I.point 1 } ] })
  in
  check "net added" true (List.mem "solo" (net_names with_solo));
  (* removing a net's last pin drops the net with it *)
  let emptied =
    Delta.apply with_solo (Delta.Remove_pin { Delta.at_x = 1; at_track = 1 })
  in
  check "emptied net dropped" true (net_names emptied = net_names design)

let test_apply_all_indexes_failures () =
  let design = fig3_design () in
  let batch =
    [
      Delta.Set_clearance 1;
      (* fine *)
      Delta.Remove_net "no-such-net";
    ]
  in
  match Delta.apply_all design batch with
  | exception Delta.Invalid { index; _ } ->
    check "offending delta is indexed" true (index = Some 1)
  | _ -> Alcotest.fail "unknown net accepted"

let test_remove_blockage_exact_match () =
  let b = Blockage.make ~layer:Blockage.M2 ~track:5 ~span:(I.make ~lo:0 ~hi:3)
  in
  let design = Delta.apply (fig3_design ()) (Delta.Add_blockage b) in
  check_int "blockage added" 1 (List.length (Design.blockages design));
  let near =
    Blockage.make ~layer:Blockage.M2 ~track:5 ~span:(I.make ~lo:0 ~hi:2)
  in
  (match Delta.apply design (Delta.Remove_blockage near) with
  | exception Delta.Invalid _ -> ()
  | _ -> Alcotest.fail "inexact blockage removal accepted");
  let removed = Delta.apply design (Delta.Remove_blockage b) in
  check_int "exact removal works" 0 (List.length (Design.blockages removed))

let test_clearance_is_config_only () =
  let design = fig3_design () in
  let after = Delta.apply design (Delta.Set_clearance 2) in
  check "design untouched by a rule delta" true
    (Design.stats after = Design.stats design);
  let cfg =
    Delta.apply_config Pinaccess.Interval_gen.default_config
      (Delta.Set_clearance 2)
  in
  check_int "config picked up the clearance" 2
    cfg.Pinaccess.Interval_gen.clearance

(* ------------------------------------------------------------------ *)
(* Dirty index                                                         *)
(* ------------------------------------------------------------------ *)

let dirty_panels design deltas =
  let _, d = Dirty.compute ~before:design deltas in
  d.Dirty.panels

let test_dirty_local_move () =
  let d =
    dirty_panels (multi_panel ())
      [
        Delta.Move_pin
          {
            from_ = { Delta.at_x = 2; at_track = 2 };
            shape = { Delta.x = 3; tracks = I.point 2 };
          };
      ]
  in
  check "a panel-local move dirties only its panel" true (d = [ 0 ])

let test_dirty_follows_net_bbox () =
  (* net x has pins in panels 0 and 2: moving the panel-0 pin reshapes
     the net bbox that clips candidates in panel 2 as well *)
  let d =
    dirty_panels (multi_panel ())
      [
        Delta.Move_pin
          {
            from_ = { Delta.at_x = 18; at_track = 4 };
            shape = { Delta.x = 17; tracks = I.point 4 };
          };
      ]
  in
  check "both of the net's panels are dirty" true (d = [ 0; 2 ])

let test_dirty_blockages () =
  let design = multi_panel () in
  let m3 =
    [
      Delta.Add_blockage
        (Blockage.make ~layer:Blockage.M3 ~track:20
           ~span:(I.make ~lo:3 ~hi:14));
    ]
  in
  let _, d3 = Dirty.compute ~before:design m3 in
  check "M3 blockages dirty no panel" true (d3.Dirty.panels = []);
  check "but do dirty their routing footprint" true (d3.Dirty.rects <> []);
  let m2 =
    [
      Delta.Add_blockage
        (Blockage.make ~layer:Blockage.M2 ~track:13
           ~span:(I.make ~lo:20 ~hi:23));
    ]
  in
  check "an M2 blockage dirties its panel" true
    (dirty_panels design m2 = [ 1 ])

let test_dirty_rule_change () =
  check "a clearance flip dirties every panel" true
    (dirty_panels (multi_panel ()) [ Delta.Set_clearance 1 ] = [ 0; 1; 2 ]);
  let _, d = Dirty.compute ~before:(multi_panel ()) [] in
  check "an empty batch is clean" true (Dirty.clean d)

(* The per-delta replay that one-pass marking replaced, kept as the
   oracle: every delta is marked on the design it meets and on the
   design it produces, with one rebuild per delta. *)
module Dirty_reference = struct
  module Rect = Geometry.Rect
  module Pin = Netlist.Pin
  module Net = Netlist.Net

  let mark_panel ~panels design p =
    if p >= 0 && p < Design.num_panels design then Hashtbl.replace panels p ()

  let mark_track ~panels design track =
    mark_panel ~panels design (Design.panel_of_track design track)

  let mark_net_by_name ~panels design name =
    Array.iter
      (fun (n : Net.t) ->
        if n.Net.name = name then
          List.iter
            (fun pid ->
              mark_track ~panels design (Pin.primary_track (Design.pin design pid)))
            n.Net.pins)
      (Design.nets design)

  let net_name_of_pin design { Delta.at_x; at_track } =
    let found = ref None in
    Array.iter
      (fun (p : Pin.t) ->
        if p.Pin.x = at_x && Pin.covers_track p at_track then
          found := Some (Design.net design p.Pin.net).Net.name)
      (Design.pins design);
    !found

  let mark_shape ~panels design ({ Delta.x = _; tracks } : Delta.pin_shape) =
    mark_track ~panels design (I.lo tracks)

  let compute ~before deltas =
    let panels = Hashtbl.create 16 and rects = ref [] in
    let mark_blockage design (b : Blockage.t) =
      match b.Blockage.layer with
      | Blockage.M2 -> mark_track ~panels design b.Blockage.track
      | Blockage.M3 ->
        rects :=
          Rect.make ~xs:(I.point b.Blockage.track) ~ys:b.Blockage.span
          :: !rects
    in
    let mark_delta design delta =
      match delta with
      | Delta.Add_pin { net; shape } ->
        mark_net_by_name ~panels design net;
        mark_shape ~panels design shape
      | Delta.Remove_pin r -> (
        mark_track ~panels design r.Delta.at_track;
        match net_name_of_pin design r with
        | Some name -> mark_net_by_name ~panels design name
        | None -> ())
      | Delta.Move_pin { from_; shape } -> (
        mark_track ~panels design from_.Delta.at_track;
        mark_shape ~panels design shape;
        match net_name_of_pin design from_ with
        | Some name -> mark_net_by_name ~panels design name
        | None -> ())
      | Delta.Add_net { name; pins } ->
        mark_net_by_name ~panels design name;
        List.iter (mark_shape ~panels design) pins
      | Delta.Remove_net name -> mark_net_by_name ~panels design name
      | Delta.Add_blockage b | Delta.Remove_blockage b -> mark_blockage design b
      | Delta.Set_clearance _ ->
        for p = 0 to Design.num_panels design - 1 do
          Hashtbl.replace panels p ()
        done
    in
    let after, _ =
      List.fold_left
        (fun (design, i) delta ->
          mark_delta design delta;
          let design' =
            try Delta.apply design delta
            with Delta.Invalid { reason; _ } ->
              raise (Delta.Invalid { index = Some i; reason })
          in
          mark_delta design' delta;
          (design', i + 1))
        (before, 0) deltas
    in
    let dirty_panels =
      Hashtbl.fold (fun p () acc -> p :: acc) panels [] |> List.sort Int.compare
    in
    let band p =
      Rect.make
        ~xs:(I.make ~lo:0 ~hi:(Design.width after - 1))
        ~ys:(Design.panel_tracks after p)
    in
    (after, (dirty_panels, List.map band dirty_panels @ !rects))
end

(* the outcome of a batch, comparable across the two implementations *)
let dirty_outcome compute before batch =
  match compute ~before batch with
  | after, dirt -> Ok (Netlist.Design_io.to_string after, dirt)
  | exception Delta.Invalid { index; reason } -> Error (index, reason)

let same_dirt before batch =
  let one_pass =
    dirty_outcome
      (fun ~before batch ->
        let after, d = Dirty.compute ~before batch in
        (after, (d.Dirty.panels, d.Dirty.rects)))
      before batch
  in
  one_pass = dirty_outcome Dirty_reference.compute before batch

let test_dirty_matches_replay () =
  List.iter
    (fun (name, design, seed) ->
      let stream =
        Workloads.Eco_stream.random ~seed ~steps:40 ~edits_per_step:4 design
      in
      ignore
        (List.fold_left
           (fun (cur, i) batch ->
             check (Printf.sprintf "%s batch %d" name i) true (same_dirt cur batch);
             (Delta.apply_all cur batch, i + 1))
           (design, 0) stream))
    [ ("fig3", fig3_design (), 3L); ("ecc@0.05", ecc (), 11L); ("ecc@0.05", ecc (), 12L) ]

let test_dirty_failures_match_replay () =
  let design = fig3_design () in
  let move ~x ~track ~to_x ~lo ~hi =
    Delta.Move_pin
      {
        from_ = { Delta.at_x = x; at_track = track };
        shape = { Delta.x = to_x; tracks = I.make ~lo ~hi };
      }
  in
  let shape x lo hi = { Delta.x; tracks = I.make ~lo ~hi } in
  let b = Blockage.make ~layer:Blockage.M2 ~track:5 ~span:(I.make ~lo:0 ~hi:3) in
  let m3 = Blockage.make ~layer:Blockage.M3 ~track:11 ~span:(I.make ~lo:1 ~hi:4) in
  List.iter
    (fun (what, batch) -> check what true (same_dirt design batch))
    [
      ( "unknown net at index 2",
        [
          move ~x:9 ~track:3 ~to_x:10 ~lo:3 ~hi:3;
          Delta.Add_blockage m3;
          Delta.Add_pin { net = "nope"; shape = shape 1 1 1 };
        ] );
      ("overlapping add_pin", [ Delta.Add_pin { net = "a"; shape = shape 6 4 5 } ]);
      ( "off-die pin",
        [ Delta.Set_clearance 1; Delta.Add_pin { net = "b"; shape = shape 20 0 0 } ] );
      ( "inexact remove_blockage",
        [
          Delta.Add_blockage b;
          Delta.Remove_blockage
            (Blockage.make ~layer:Blockage.M2 ~track:5 ~span:(I.make ~lo:0 ~hi:2));
        ] );
      ( "moving a net's only pin",
        [
          Delta.Add_net { name = "solo"; pins = [ shape 11 6 7 ] };
          move ~x:11 ~track:7 ~to_x:12 ~lo:5 ~hi:5;
          move ~x:2 ~track:7 ~to_x:1 ~lo:7 ~hi:8;
        ] );
      ( "a removed pin, then its location reused",
        [
          Delta.Remove_pin { Delta.at_x = 13; at_track = 2 };
          Delta.Add_pin { net = "d"; shape = shape 13 1 2 };
          Delta.Remove_blockage m3;
        ] );
      ("an empty batch", []);
    ]

(* ------------------------------------------------------------------ *)
(* Panel cache keys                                                    *)
(* ------------------------------------------------------------------ *)

let key ?(config = PA.default_config) design panel =
  PC.key ~config ~kind:PA.Lr design ~panel

let test_key_ignores_net_names () =
  let renamed =
    B.design ~width:24 ~height:30
      ~nets:
        [
          ("alpha", [ B.pin_at 2 2; B.pin_at 9 6 ]);
          ("beta", [ B.pin_at 4 12; B.pin_at 11 17 ]);
          ("gamma", [ B.pin_at 6 22; B.pin_at 15 27 ]);
          ("delta", [ B.pin_at 18 4; B.pin_at 18 24 ]);
        ]
      ()
  in
  let design = multi_panel () in
  for panel = 0 to 2 do
    check "renaming every net keeps the key" true
      (key design panel = key renamed panel)
  done

let test_key_tracks_rule_deck () =
  let design = multi_panel () in
  let loose =
    {
      PA.default_config with
      PA.gen =
        { Pinaccess.Interval_gen.default_config with clearance = 1 };
    }
  in
  check "a clearance change misses" false
    (key design 0 = key ~config:loose design 0)

let test_key_tracks_tpl_deck () =
  let design = multi_panel () in
  let with_colors k =
    {
      PA.default_config with
      PA.gen =
        {
          Pinaccess.Interval_gen.default_config with
          tpl = Some (Solver.Color_graph.default ~colors:k);
        };
    }
  in
  check "turning TPL on misses" false
    (key design 0 = key ~config:(with_colors 3) design 0);
  check "a different deck misses" false
    (key ~config:(with_colors 3) design 0 = key ~config:(with_colors 4) design 0);
  check "the same deck hits" true
    (key ~config:(with_colors 3) design 0 = key ~config:(with_colors 3) design 0)

let test_key_is_panel_local () =
  let design = multi_panel () in
  let moved =
    Delta.apply design
      (Delta.Move_pin
         {
           from_ = { Delta.at_x = 2; at_track = 2 };
           shape = { Delta.x = 3; tracks = I.point 2 };
         })
  in
  check "the edited panel's key changes" false (key design 0 = key moved 0);
  check "untouched panels keep their keys" true
    (key design 1 = key moved 1 && key design 2 = key moved 2)

(* ------------------------------------------------------------------ *)
(* Panel cache LRU                                                     *)
(* ------------------------------------------------------------------ *)

let dummy_entry =
  {
    PC.slots = [||];
    intervals = 0;
    cliques = 0;
    objective = 0.0;
    lr_iterations = 0;
    proven_optimal = false;
    served_by = PA.Tier_lr;
    degraded = false;
    multipliers = [||];
  }

let test_cache_lru_eviction () =
  let c = PC.create ~max_entries:2 () in
  PC.store c "k1" dummy_entry;
  PC.store c "k2" dummy_entry;
  check_int "at capacity" 2 (PC.size c);
  check_int "nothing evicted yet" 0 (PC.evictions c);
  (* touch k1 so k2 becomes the least recently used *)
  check "k1 hit refreshes" true (PC.find c "k1" <> None);
  PC.store c "k3" dummy_entry;
  check_int "capacity held" 2 (PC.size c);
  check_int "one eviction" 1 (PC.evictions c);
  check "the LRU entry was dropped" true (PC.find c "k2" = None);
  check "the refreshed entry survived" true (PC.find c "k1" <> None);
  check "the new entry is present" true (PC.find c "k3" <> None)

let test_cache_peek_does_not_refresh () =
  let c = PC.create ~max_entries:2 () in
  PC.store c "old" dummy_entry;
  PC.store c "new" dummy_entry;
  let hits0 = PC.hits c and misses0 = PC.misses c in
  check "peek sees the entry" true (PC.peek c "old" <> None);
  check "peek leaves the counters alone" true
    (PC.hits c = hits0 && PC.misses c = misses0);
  (* [peek] did not refresh "old", so it is still the eviction victim *)
  PC.store c "newer" dummy_entry;
  check "a peeked entry is not kept alive" true (PC.find c "old" = None);
  check "the stored-later entry survived" true (PC.find c "new" <> None)

let test_cache_metrics_published () =
  Obs.Metrics.reset ();
  let c = PC.create ~max_entries:1 () in
  check "miss" true (PC.find c "a" = None);
  PC.store c "a" dummy_entry;
  check "hit" true (PC.find c "a" <> None);
  (* over capacity: storing "b" evicts "a" *)
  PC.store c "b" dummy_entry;
  let counters = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
  let v name = List.assoc_opt name counters in
  check "hits published" true (v "eco.panel_cache.hits" = Some 1);
  check "misses published" true (v "eco.panel_cache.misses" = Some 1);
  check "evictions published" true (v "eco.panel_cache.evictions" = Some 1)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_differential () =
  (* the audit replays every batch: incremental certifies, from-scratch
     certifies, and (warm starting off) the two agree bit for bit *)
  let design = ecc () in
  let stream =
    Workloads.Eco_stream.random ~seed:7L ~steps:4 ~edits_per_step:2 design
  in
  check "fixture stream is non-trivial" true (stream <> []);
  match Audit.Eco_audit.check design stream with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_engine_differential_warm () =
  let design = ecc () in
  let stream =
    Workloads.Eco_stream.random ~seed:11L ~steps:3 ~edits_per_step:2 design
  in
  let config =
    { Engine.default_config with Engine.warm_policy = Engine.Warm_always }
  in
  match Audit.Eco_audit.check ~config design stream with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The engine hands its misses to the same walk as [PA.optimize], so a
   pool changes nothing — not a step report, not the pin access state —
   warm or cold, with or without a work budget. *)
let test_engine_pool_identity () =
  let design = ecc () in
  let stream =
    Workloads.Eco_stream.random ~seed:17L ~steps:3 ~edits_per_step:2 design
  in
  let replay ?pool warm_policy work =
    let config = { Engine.default_config with Engine.warm_policy } in
    let budget () =
      Option.map (fun w -> Pinaccess.Budget.start ~work_units:w ()) work
    in
    let state engine =
      let pao = Engine.pao engine in
      ( pao.PA.assignments,
        pao.PA.reports,
        pao.PA.objective,
        pao.PA.tpl,
        pao.PA.degraded )
    in
    let engine = Engine.create ~config ?budget:(budget ()) ?pool design in
    let cold = state engine in
    let steps =
      List.map
        (fun batch ->
          let r = Engine.apply ?budget:(budget ()) ?pool engine batch in
          ({ r with Engine.pao_wall = 0.0; route_wall = 0.0 }, state engine))
        stream
    in
    (cold, steps)
  in
  let pool = Exec.shared ~domains:4 in
  List.iter
    (fun warm_policy ->
      List.iter
        (fun work ->
          let name =
            Printf.sprintf "%s, budget %s"
              (Engine.warm_policy_to_string warm_policy)
              (match work with Some w -> string_of_int w | None -> "none")
          in
          check name true
            (replay warm_policy work = replay ~pool warm_policy work))
        [ None; Some 60 ])
    [ Engine.Warm_always; Engine.Warm_never ]

let test_stream_batches_apply () =
  (* every batch a generator emits must apply cleanly in sequence *)
  let design = ecc () in
  let stream =
    Workloads.Eco_stream.random ~seed:5L ~steps:5 ~edits_per_step:3 design
  in
  ignore (List.fold_left Delta.apply_all design stream)

let test_engine_cache_accounting () =
  let design = ecc () in
  let engine = Engine.create design in
  let stream =
    Workloads.Eco_stream.local_moves ~seed:3L ~steps:2 ~dirty_fraction:0.2
      design
  in
  List.iter
    (fun batch ->
      let r = Engine.apply engine batch in
      check "hits + re-solves cover the panels" true
        (r.Engine.cache_hits + r.Engine.solved = r.Engine.panels);
      check "a local move leaves clean panels cached" true
        (r.Engine.cache_hits > 0);
      check "dirty panels re-solve" true (r.Engine.solved >= 1))
    stream;
  let rate = Engine.cache_hit_rate engine in
  check "lifetime hit rate is a rate" true (rate >= 0.0 && rate <= 1.0);
  check "and saw some hits" true (rate > 0.0)

let test_engine_invalid_leaves_state () =
  let design = fig3_design () in
  let engine = Engine.create design in
  let objective = (Engine.pao engine).PA.objective in
  let size = Engine.cache_size engine in
  (match Engine.apply engine [ Delta.Remove_net "no-such-net" ] with
  | exception Delta.Invalid _ -> ()
  | _ -> Alcotest.fail "invalid batch accepted");
  check "objective unchanged after a rejected batch" true
    ((Engine.pao engine).PA.objective = objective);
  check_int "cache unchanged after a rejected batch" size
    (Engine.cache_size engine);
  check "design unchanged after a rejected batch" true
    (Design.stats (Engine.design engine) = Design.stats design)

let test_engine_routed () =
  let design = ecc ~scale:0.1 () in
  let config = { Engine.default_config with Engine.routing = true } in
  let engine = Engine.create ~config design in
  check "cold start routes" true (Engine.flow engine <> None);
  let stream =
    Workloads.Eco_stream.local_moves ~seed:13L ~steps:2 ~dirty_fraction:0.1
      design
  in
  let frozen = ref 0 in
  List.iter
    (fun batch ->
      let r = Engine.apply engine batch in
      frozen := !frozen + r.Engine.frozen_nets;
      match Engine.flow engine with
      | None -> Alcotest.fail "flow dropped by an incremental step"
      | Some flow ->
        check "incremental flow audits clean" true
          (Audit.Flow_audit.run flow = []))
    stream;
  check "clean routes were frozen across steps" true (!frozen > 0)

(* The deck in the PA config reaches every routed flow, cold and
   incremental: each reports its coloring and audits clean. *)
let test_engine_routed_tpl () =
  let design = ecc ~scale:0.1 () in
  let pao = PA.default_config in
  let gen =
    {
      pao.PA.gen with
      Pinaccess.Interval_gen.tpl =
        Some (Drc.Tpl.params (Drc.Tpl.make ~colors:3 ()));
    }
  in
  let config =
    { Engine.default_config with Engine.routing = true; pao = { pao with PA.gen } }
  in
  let engine = Engine.create ~config design in
  List.iteri
    (fun i batch ->
      ignore (Engine.apply engine batch);
      match Engine.flow engine with
      | None -> Alcotest.fail "flow dropped by an incremental step"
      | Some flow ->
        check
          (Printf.sprintf "step %d: flow colored under the deck" (i + 1))
          true
          (Option.is_some flow.Router.Flow.tpl_stats);
        check
          (Printf.sprintf "step %d: flow audits clean" (i + 1))
          true
          (Audit.Flow_audit.run flow = []))
    (Workloads.Eco_stream.local_moves ~seed:13L ~steps:2 ~dirty_fraction:0.1
       design)

(* ------------------------------------------------------------------ *)
(* Audit plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let test_stream_seed_deterministic () =
  check "seed derives from the design text" true
    (Audit.Eco_audit.stream_seed (fig3_design ())
    = Audit.Eco_audit.stream_seed (fig3_design ()));
  check "different designs get different seeds" false
    (Audit.Eco_audit.stream_seed (fig3_design ())
    = Audit.Eco_audit.stream_seed (multi_panel ()))

let test_shrink_keeps_clean_streams () =
  let design = fig3_design () in
  let stream = [ [ Delta.Set_clearance 1 ]; [ Delta.Set_clearance 0 ] ] in
  let shrunk, steps = Audit.Eco_audit.shrink_stream design stream in
  check "a passing stream is returned unchanged" true (shrunk = stream);
  check_int "with zero reduction steps" 0 steps

let () =
  Alcotest.run "eco"
    [
      ( "delta",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "parse tolerance" `Quick test_parse_tolerance;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "move pin" `Quick test_apply_move;
          Alcotest.test_case "net lifecycle" `Quick test_apply_net_lifecycle;
          Alcotest.test_case "batch failure index" `Quick
            test_apply_all_indexes_failures;
          Alcotest.test_case "blockage exact match" `Quick
            test_remove_blockage_exact_match;
          Alcotest.test_case "clearance is config-only" `Quick
            test_clearance_is_config_only;
        ] );
      ( "dirty",
        [
          Alcotest.test_case "local move" `Quick test_dirty_local_move;
          Alcotest.test_case "net bbox" `Quick test_dirty_follows_net_bbox;
          Alcotest.test_case "blockages" `Quick test_dirty_blockages;
          Alcotest.test_case "rule change" `Quick test_dirty_rule_change;
          Alcotest.test_case "one pass = per-delta replay" `Quick
            test_dirty_matches_replay;
          Alcotest.test_case "failures = per-delta replay" `Quick
            test_dirty_failures_match_replay;
        ] );
      ( "cache",
        [
          Alcotest.test_case "names excluded" `Quick test_key_ignores_net_names;
          Alcotest.test_case "rule deck included" `Quick
            test_key_tracks_rule_deck;
          Alcotest.test_case "tpl deck included" `Quick
            test_key_tracks_tpl_deck;
          Alcotest.test_case "panel locality" `Quick test_key_is_panel_local;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "peek is recency-neutral" `Quick
            test_cache_peek_does_not_refresh;
          Alcotest.test_case "counters published" `Quick
            test_cache_metrics_published;
        ] );
      ( "engine",
        [
          Alcotest.test_case "differential (cold)" `Quick
            test_engine_differential;
          Alcotest.test_case "differential (warm)" `Quick
            test_engine_differential_warm;
          Alcotest.test_case "pool is output-neutral" `Quick
            test_engine_pool_identity;
          Alcotest.test_case "streams apply" `Quick test_stream_batches_apply;
          Alcotest.test_case "cache accounting" `Quick
            test_engine_cache_accounting;
          Alcotest.test_case "invalid batch is atomic" `Quick
            test_engine_invalid_leaves_state;
          Alcotest.test_case "routed increments" `Quick test_engine_routed;
          Alcotest.test_case "routed increments keep the TPL deck" `Quick
            test_engine_routed_tpl;
        ] );
      ( "audit",
        [
          Alcotest.test_case "stream seed" `Quick test_stream_seed_deterministic;
          Alcotest.test_case "shrink keeps clean" `Quick
            test_shrink_keeps_clean_streams;
        ] );
    ]
