module B = Netlist.Builder
module Node = Rgrid.Node
module Grid = Rgrid.Grid
module Heap = Rgrid.Heap
module Maze = Rgrid.Maze
module Layer = Rgrid.Layer
module I = Geometry.Interval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let design ?blockages () =
  B.design ~width:20 ~height:10
    ~nets:[ ("a", [ B.pin_at 2 3; B.pin_at 17 6 ]) ]
    ?blockages ()

(* ----- Node packing ----- *)

let test_node_roundtrip () =
  let d = design () in
  let space = Node.space_of_design d in
  check_int "count" (2 * 20 * 10) (Node.count space);
  List.iter
    (fun layer ->
      for x = 0 to 19 do
        for y = 0 to 9 do
          let n = Node.pack space ~layer ~x ~y in
          let l', x', y' = Node.unpack space n in
          if not (Layer.equal l' layer && x' = x && y' = y) then
            Alcotest.failf "roundtrip failed at %s (%d,%d)"
              (Layer.to_string layer) x y
        done
      done)
    [ Layer.M2; Layer.M3 ]

let test_node_other_layer () =
  let d = design () in
  let space = Node.space_of_design d in
  let n = Node.pack space ~layer:Layer.M2 ~x:5 ~y:5 in
  let m = Node.other_layer space n in
  check "other layer is M3" true (Layer.equal (Node.layer space m) Layer.M3);
  check_int "same x" 5 (Node.x space m);
  check "involutive" true (Node.other_layer space m = n);
  (match Node.pack space ~layer:Layer.M1 ~x:0 ~y:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "M1 pack must be rejected")

(* ----- Heap ----- *)

let test_heap_sorts () =
  let h = Heap.create ~capacity:4 () in
  let input = [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5; 9.0 ] in
  List.iteri (fun i p -> Heap.push h p i) input;
  check_int "size" (List.length input) (Heap.size h);
  let rec drain acc =
    match Heap.pop h with
    | Some (p, _) -> drain (p :: acc)
    | None -> List.rev acc
  in
  let sorted = drain [] in
  check "non-decreasing" true
    (List.sort compare sorted = sorted);
  check "empty after drain" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (float_range 0.0 100.0))
    (fun floats ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h p i) floats;
      let rec drain acc =
        match Heap.pop h with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare out && List.length out = List.length floats)

(* ----- Grid state ----- *)

let test_grid_occupancy () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let n = Node.pack space ~layer:Layer.M2 ~x:5 ~y:5 in
  check_int "initially free" 0 (Grid.occ g n);
  Grid.add_usage g ~net:0 n;
  Grid.add_usage g ~net:1 n;
  check_int "two users" 2 (Grid.occ g n);
  check "overused" true (Grid.overused g n);
  check_int "congested count" 1 (Grid.congested_nodes g);
  check "users listed" true
    (List.sort compare (Grid.nets_using g n) = [ 0; 1 ]);
  Grid.remove_usage g ~net:0 n;
  check "no longer overused" false (Grid.overused g n);
  (match Grid.add_usage g ~net:1 n with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double add by one net must be rejected")

let test_grid_ownership () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let n = Node.pack space ~layer:Layer.M2 ~x:3 ~y:3 in
  check "passable when free" true (Grid.passable g ~net:7 n);
  Grid.set_owner g n ~net:7;
  check "owner passable" true (Grid.passable g ~net:7 n);
  check "foreign blocked" false (Grid.passable g ~net:8 n);
  Grid.set_owner g n ~net:7 (* idempotent *);
  (match Grid.set_owner g n ~net:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stealing ownership must be rejected");
  Grid.clear_owner g n ~net:8 (* wrong net: no-op *);
  check "still owned" true (Grid.owner g n = 7);
  Grid.clear_owner g n ~net:7;
  check "released" true (Grid.owner g n = -1)

let test_grid_blockages_applied () =
  let blockages =
    [
      Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:5
        ~span:(I.make ~lo:4 ~hi:6);
    ]
  in
  let d = design ~blockages () in
  let g = Grid.create d in
  let space = Grid.space g in
  check "blocked node" true
    (Grid.blocked g (Node.pack space ~layer:Layer.M2 ~x:5 ~y:5));
  check "M3 unaffected" false
    (Grid.blocked g (Node.pack space ~layer:Layer.M3 ~x:5 ~y:5))

let test_via_pressure () =
  let d = design () in
  let g = Grid.create d in
  Grid.add_via g ~x:5 ~y:5;
  check_int "pressure" 1 (Grid.via_pressure g ~x:5 ~y:5);
  check "neighbour forbidden" true (Grid.via_forbidden g ~x:6 ~y:5);
  check "distant not forbidden" false (Grid.via_forbidden g ~x:8 ~y:5);
  Grid.remove_via g ~x:5 ~y:5;
  check "released" false (Grid.via_forbidden g ~x:6 ~y:5)

let test_history () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let n = Node.pack space ~layer:Layer.M3 ~x:1 ~y:1 in
  Grid.add_usage g ~net:0 n;
  Grid.add_usage g ~net:1 n;
  Grid.add_history g ~increment:2.5;
  Alcotest.(check (float 1e-9)) "bumped" 2.5 (Grid.history g n);
  Grid.add_history_at g n 1.0;
  Alcotest.(check (float 1e-9)) "bumped again" 3.5 (Grid.history g n)

(* ----- Maze ----- *)

let test_maze_straight_line () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:5 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:10 ~y:5 in
  match
    Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
      ~targets:[ dst ] ~window:(Netlist.Design.die d)
  with
  | Maze.Found { path; cost } ->
    check_int "9 nodes" 9 (List.length path);
    check "cost = 8 steps" true (Float.abs (cost -. 8.0) < 1e-9);
    check "starts at src" true (List.hd path = src)
  | Maze.Unreachable -> Alcotest.fail "straight line must route"

let test_maze_layer_change () =
  (* different tracks force M3 (vertical) plus vias *)
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:2 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:2 ~y:7 in
  match
    Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
      ~targets:[ dst ] ~window:(Netlist.Design.die d)
  with
  | Maze.Found { path; _ } ->
    let layers =
      List.map (fun n -> Node.layer space n) path
      |> List.filter (fun l -> Layer.equal l Layer.M3)
    in
    check "uses M3" true (layers <> []);
    check "unidirectional: no M2 vertical step" true
      (let ok = ref true in
       let rec walk = function
         | a :: (b :: _ as rest) ->
           (if
              Layer.equal (Node.layer space a) Layer.M2
              && Layer.equal (Node.layer space b) Layer.M2
              && Node.y space a <> Node.y space b
            then ok := false);
           walk rest
         | _ -> ()
       in
       walk path;
       !ok)
  | Maze.Unreachable -> Alcotest.fail "must route via M3"

let test_maze_respects_blockage () =
  let blockages =
    [
      Netlist.Blockage.make ~layer:Netlist.Blockage.M2 ~track:5
        ~span:(I.make ~lo:5 ~hi:5);
    ]
  in
  let d = design ~blockages () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:5 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:10 ~y:5 in
  match
    Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
      ~targets:[ dst ] ~window:(Netlist.Design.die d)
  with
  | Maze.Found { path; _ } ->
    check "detours around blockage" true (List.length path > 9);
    check "blocked node not used" true
      (not (List.mem (Node.pack space ~layer:Layer.M2 ~x:5 ~y:5) path))
  | Maze.Unreachable -> Alcotest.fail "detour exists"

let test_maze_window_limits () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:2 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:2 ~y:7 in
  (* window excluding everything but track 2: unreachable *)
  let window =
    Geometry.Rect.make ~xs:(I.make ~lo:0 ~hi:19) ~ys:(I.make ~lo:2 ~hi:2)
  in
  check "window blocks vertical" true
    (Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
       ~targets:[ dst ] ~window
    = Maze.Unreachable)

let test_maze_owner_exclusion () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  (* wall off column 5's M2 and M3 for a foreign net *)
  for y = 0 to 9 do
    Grid.set_owner g (Node.pack space ~layer:Layer.M2 ~x:5 ~y) ~net:99;
    Grid.set_owner g (Node.pack space ~layer:Layer.M3 ~x:5 ~y) ~net:99
  done;
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:5 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:10 ~y:5 in
  check "owned wall unreachable" true
    (Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
       ~targets:[ dst ] ~window:(Netlist.Design.die d)
    = Maze.Unreachable);
  check "owner itself may pass" true
    (match
       Maze.search maze ~cost:Rgrid.Cost.default ~net:99 ~pfac:0.0
         ~sources:[ src ] ~targets:[ dst ] ~window:(Netlist.Design.die d)
     with
    | Maze.Found _ -> true
    | Maze.Unreachable -> false)

let test_maze_spacing_penalty () =
  let d = design () in
  let g = Grid.create d in
  let space = Grid.space g in
  let maze = Maze.create g in
  (* foreign solid metal right of the straight path's end *)
  let wall = Node.pack space ~layer:Layer.M2 ~x:12 ~y:5 in
  Grid.set_owner g wall ~net:99;
  Grid.set_solid g wall;
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:5 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:10 ~y:5 in
  match
    Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:0.0 ~sources:[ src ]
      ~targets:[ dst ] ~window:(Netlist.Design.die d)
  with
  | Maze.Found { cost; _ } ->
    (* ending 2 away from solid foreign metal pays the near penalty *)
    check "clearance penalty charged" true (cost > 8.0 +. 1e-9)
  | Maze.Unreachable -> Alcotest.fail "must still route"

(* The relax loop's allocation bound: a present-sharing search beside
   foreign metal, over thousands of expansions, allocates at most 8
   minor words per expansion — the boxed heap priorities and the
   per-search path, nothing per relaxation. *)
let test_maze_allocation_bound () =
  let width = 160 and height = 40 in
  let d =
    B.design ~width ~height ~nets:[ ("a", [ B.pin_at 2 20 ]) ] ()
  in
  let g = Grid.create d in
  let space = Grid.space g in
  (* net 1 runs wires two and three tracks off the straight path, and
     a shared stretch leaves history behind *)
  for x = 0 to width - 1 do
    Grid.add_usage g ~net:1 (Node.pack space ~layer:Layer.M2 ~x ~y:22);
    Grid.add_usage g ~net:1 (Node.pack space ~layer:Layer.M2 ~x ~y:17);
    if x mod 7 = 0 then begin
      let node = Node.pack space ~layer:Layer.M3 ~x ~y:20 in
      Grid.add_usage g ~net:1 node;
      Grid.add_usage g ~net:2 node;
      Grid.add_via g ~x ~y:19
    end
  done;
  Grid.add_history g ~increment:1.0;
  let maze = Maze.create g in
  let src = Node.pack space ~layer:Layer.M2 ~x:2 ~y:20 in
  let dst = Node.pack space ~layer:Layer.M2 ~x:(width - 3) ~y:21 in
  let search () =
    Maze.search maze ~cost:Rgrid.Cost.default ~net:0 ~pfac:1.5
      ~sources:[ src ] ~targets:[ dst ] ~window:(Netlist.Design.die d)
  in
  (* the first search grows the heap to its working size *)
  ignore (search ());
  let before = Gc.minor_words () in
  let outcome = search () in
  let words = Gc.minor_words () -. before in
  let expansions = Maze.expansions maze in
  check "found" true (outcome <> Maze.Unreachable);
  check "several thousand expansions" true (expansions >= 3000);
  let per_expansion = words /. float_of_int expansions in
  if per_expansion > 8.0 then
    Alcotest.failf "%.1f minor words per expansion over %d expansions (bound 8)"
      per_expansion expansions

(* ----- The fused relax loop against the reference kernel ----- *)

(* The maze kernel as it was before its relax step was fused: cost
   helpers returning boxed floats, closures per probe and the grid read
   through accessors.  It is kept verbatim as the oracle the fused loop
   must match bit for bit, down to the push and expansion counts. *)
module Reference = struct
  open Bigarray
  module Cost = Rgrid.Cost

  module Grid = struct
    include Grid

    let plane_index t ~x ~y = (y * t.space.Node.width) + x

    let via_forbidden t ~x ~y =
      let neighbour dx dy =
        let nx = x + dx and ny = y + dy in
        Node.in_bounds t.space ~x:nx ~y:ny
        && (t.via_count.{plane_index t ~x:nx ~y:ny} > 0
           || blocked t (Node.pack t.space ~layer:Layer.M2 ~x:nx ~y:ny)
           || blocked t (Node.pack t.space ~layer:Layer.M3 ~x:nx ~y:ny))
      in
      neighbour 1 0 || neighbour (-1) 0 || neighbour 0 1 || neighbour 0 (-1)
  end

  type t = {
    grid : Grid.t;
    space : Node.space;
    dist : (float, float64_elt, c_layout) Array1.t;
    parent : (int, int_elt, c_layout) Array1.t;
    gen : (int, int_elt, c_layout) Array1.t;
        (* generation stamps avoid clearing arrays per search *)
    target_gen : (int, int_elt, c_layout) Array1.t;
    mutable cur : int;
    heap : Heap.t;
    mutable expansions : int;
    mutable pushes : int;
  }

  let create grid =
    let n = Node.count (Grid.space grid) in
    let t =
      {
        grid;
        space = Grid.space grid;
        dist = Array1.create float64 c_layout n;
        parent = Array1.create int c_layout n;
        gen = Array1.create int c_layout n;
        target_gen = Array1.create int c_layout n;
        cur = 0;
        heap = Heap.create ~capacity:1024 ();
        expansions = 0;
        pushes = 0;
      }
    in
    Array1.fill t.dist infinity;
    Array1.fill t.parent (-1);
    Array1.fill t.gen 0;
    Array1.fill t.target_gen 0;
    t

  type outcome = Maze.outcome =
    | Found of { path : Node.t list; cost : float }
    | Unreachable

  (* Another net's metal (or a blockage) sits on [node].  During the
     independent stage ([pfac = 0]) only static metal counts — pins,
     intervals, blockages — so nets route blind to each other's wires,
     as PathFinder's first iteration requires. *)
  let foreign t ~net ~pfac node =
    Grid.blocked t.grid node
    || (Grid.solid t.grid node
       &&
       let o = Grid.owner t.grid node in
       o >= 0 && o <> net)
    || (pfac > 0.0
       && List.exists (fun k -> k <> net) (Grid.nets_using t.grid node))

  (* Soft clearance: grids whose along-track neighbour carries foreign
     metal would create a sub-minimum line-end gap if a wire ended there,
     so they carry an extra cost (the [21]-style rule mitigation). *)
  let spacing_cost t ~(cost : Cost.t) ~net ~pfac node =
    let x = Node.x t.space node and y = Node.y t.space node in
    let nb dx dy =
      Node.in_bounds t.space ~x:(x + dx) ~y:(y + dy)
      &&
      let layer = Node.layer t.space node in
      foreign t ~net ~pfac (Node.pack t.space ~layer ~x:(x + dx) ~y:(y + dy))
    in
    let adjacent, near =
      match Node.layer t.space node with
      | Layer.M2 -> (nb 1 0 || nb (-1) 0, nb 2 0 || nb (-2) 0)
      | Layer.M3 -> (nb 0 1 || nb 0 (-1), nb 0 2 || nb 0 (-2))
      | Layer.M1 -> (false, false)
    in
    if adjacent then cost.Cost.spacing_penalty
    else if near then cost.Cost.spacing_penalty /. 2.0
    else 0.0

  (* Cost of stepping onto [node]: base + history, inflated by present
     sharing, plus the soft clearance term.  [via] adds the via-grid cost
     (and the forbidden-grid penalty) of landing the cut at (x, y). *)
  let entry_cost t ~(cost : Cost.t) ~net ~pfac ~via node =
    let congestion = float_of_int (Grid.occ t.grid node) in
    let negotiated =
      (cost.Cost.base_cost +. Grid.history t.grid node)
      *. (1.0 +. (pfac *. congestion))
    in
    let clearance = spacing_cost t ~cost ~net ~pfac node in
    if cost.Cost.hard_spacing && clearance > 0.0 then infinity
    else begin
      let negotiated = negotiated +. clearance in
      if via then begin
        let x = Node.x t.space node and y = Node.y t.space node in
        let penalty =
          if Grid.via_forbidden t.grid ~x ~y then
            if cost.Cost.hard_spacing then infinity
            else cost.Cost.forbidden_via_cost
          else 0.0
        in
        negotiated +. cost.Cost.via_cost +. penalty
      end
      else negotiated
    end

  let search_impl ?(should_stop = fun () -> false) t ~cost ~net ~pfac ~sources
      ~targets ~window =
    t.cur <- t.cur + 1;
    t.expansions <- 0;
    t.pushes <- 0;
    Heap.clear t.heap;
    let xs = Geometry.Rect.xs window and ys = Geometry.Rect.ys window in
    let in_window node =
      I.contains xs (Node.x t.space node) && I.contains ys (Node.y t.space node)
    in
    let any_target = ref false in
    List.iter
      (fun node ->
        if Grid.passable t.grid ~net node then begin
          t.target_gen.{node} <- t.cur;
          any_target := true
        end)
      targets;
    if not !any_target then Unreachable
    else begin
      List.iter
        (fun node ->
          if Grid.passable t.grid ~net node && in_window node then begin
            (* a landing next to foreign metal pays the clearance cost up
               front, steering the connection towards clean grids *)
            let d0 = spacing_cost t ~cost ~net ~pfac node in
            if t.gen.{node} <> t.cur || d0 < t.dist.{node} then begin
              t.dist.{node} <- d0;
              t.parent.{node} <- -1;
              t.gen.{node} <- t.cur;
              t.pushes <- t.pushes + 1;
              Heap.push t.heap d0 node
            end
          end)
        sources;
      let relax ~from ~via node =
        if
          Node.in_bounds t.space ~x:(Node.x t.space node) ~y:(Node.y t.space node)
          && in_window node
          && Grid.passable t.grid ~net node
        then begin
          let d = t.dist.{from} +. entry_cost t ~cost ~net ~pfac ~via node in
          if
            d < infinity
            && (t.gen.{node} <> t.cur || d < t.dist.{node} -. 1e-12)
          then begin
            t.gen.{node} <- t.cur;
            t.dist.{node} <- d;
            t.parent.{node} <- from;
            t.pushes <- t.pushes + 1;
            Heap.push t.heap d node
          end
        end
      in
      let rec loop () =
        if Heap.is_empty t.heap then Unreachable
        else begin
          let d = Heap.min_prio t.heap in
          let node = Heap.pop_payload t.heap in
          if t.gen.{node} = t.cur && d > t.dist.{node} +. 1e-12 then loop ()
          else begin
            t.expansions <- t.expansions + 1;
            (* periodic deadline probe: abandoning mid-search is safe —
               the caller treats it like an unreachable target *)
            if t.expansions land 1023 = 0 && should_stop () then Unreachable
            else if t.target_gen.{node} = t.cur then begin
              let rec walk acc n =
                if n < 0 then acc else walk (n :: acc) t.parent.{n}
              in
              Found { path = walk [] node; cost = d }
            end
            else begin
              let x = Node.x t.space node and y = Node.y t.space node in
              (match Node.layer t.space node with
              | Layer.M2 ->
                if x + 1 < t.space.Node.width then
                  relax ~from:node ~via:false
                    (Node.pack t.space ~layer:Layer.M2 ~x:(x + 1) ~y);
                if x - 1 >= 0 then
                  relax ~from:node ~via:false
                    (Node.pack t.space ~layer:Layer.M2 ~x:(x - 1) ~y)
              | Layer.M3 ->
                if y + 1 < t.space.Node.height then
                  relax ~from:node ~via:false
                    (Node.pack t.space ~layer:Layer.M3 ~x ~y:(y + 1));
                if y - 1 >= 0 then
                  relax ~from:node ~via:false
                    (Node.pack t.space ~layer:Layer.M3 ~x ~y:(y - 1))
              | Layer.M1 -> assert false);
              relax ~from:node ~via:true (Node.other_layer t.space node);
              loop ()
            end
          end
        end
      in
      loop ()
    end
end

(* A random small grid: blockages, owned and solid nodes, usage by 0–3
   overlapping routes of nets 0..3 (so [users] holds zero, one or
   several nets), history bumps and vias; then three searches on the
   same mazes with random nets, present-sharing factors, spacing
   modes, windows, sources and targets. *)
let fused_matches_reference seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let width = 3 + int 14 and height = 2 + int 9 in
  let d =
    B.design ~width ~height ~row_height:height
      ~nets:[ ("a", [ B.pin_at 0 0 ]) ]
      ()
  in
  let g = Grid.create d in
  let space = Grid.space g in
  let n = Node.count space in
  let nets = 4 in
  for node = 0 to n - 1 do
    let r = int 100 in
    if r < 4 then Grid.set_blocked g node
    else if r < 10 then Grid.set_owner g node ~net:(int (nets + 1));
    if int 100 < 12 then Grid.set_solid g node
  done;
  for _ = 1 to int 4 do
    let net = int nets and density = 10 + int 60 in
    for node = 0 to n - 1 do
      if int 100 < density && not (List.mem net (Grid.nets_using g node))
      then Grid.add_usage g ~net node
    done
  done;
  if int 2 = 0 then Grid.add_history g ~increment:(pick [ 0.5; 1.0; 2.5 ]);
  for _ = 1 to int 8 do
    Grid.add_history_at g (int n) (Random.State.float rng 4.0)
  done;
  for _ = 1 to int 6 do
    Grid.add_via g ~x:(int width) ~y:(int height)
  done;
  let maze = Maze.create g and reference = Reference.create g in
  let span len =
    let a = int len and b = int len in
    I.make ~lo:(min a b) ~hi:(max a b)
  in
  let search () =
    (* costs off the integers too, so a changed float association
       shows in the last bits *)
    let cost =
      {
        Rgrid.Cost.default with
        Rgrid.Cost.hard_spacing = int 2 = 0;
        base_cost = pick [ 1.0; 1.3 ];
        via_cost = pick [ 3.0; 2.7 ];
        spacing_penalty = pick [ 4.0; 16.0; 1.7 ];
        forbidden_via_cost = pick [ 10.0; 24.0; 7.3 ];
      }
    in
    let net = int nets in
    let pfac = pick [ 0.0; 0.0; 0.5; 4.0; Random.State.float rng 3.0 ] in
    let window =
      if int 2 = 0 then Netlist.Design.die d
      else Geometry.Rect.make ~xs:(span width) ~ys:(span height)
    in
    (* mostly inside the window, sometimes anywhere *)
    let nodes () =
      List.init (1 + int 3) (fun _ ->
          if int 5 = 0 then int n
          else
            let within i = I.lo i + int (I.length i) in
            Node.pack space ~layer:(pick [ Layer.M2; Layer.M3 ])
              ~x:(within (Geometry.Rect.xs window))
              ~y:(within (Geometry.Rect.ys window)))
    in
    let sources = nodes () and targets = nodes () in
    let got = Maze.search maze ~cost ~net ~pfac ~sources ~targets ~window in
    let want =
      Reference.search_impl reference ~cost ~net ~pfac ~sources ~targets
        ~window
    in
    (match (got, want) with
    | Maze.Found a, Maze.Found b ->
      a.path = b.path
      && Int64.bits_of_float a.cost = Int64.bits_of_float b.cost
    | Maze.Unreachable, Maze.Unreachable -> true
    | _, _ -> false)
    && Maze.expansions maze = reference.Reference.expansions
    && Maze.pushes maze = reference.Reference.pushes
  in
  search () && search () && search ()

let prop_fused_matches_reference =
  QCheck.Test.make ~name:"fused relax loop equals the reference kernel"
    ~count:500 QCheck.int fused_matches_reference

let () =
  Alcotest.run "grid"
    [
      ( "node",
        [
          Alcotest.test_case "roundtrip" `Quick test_node_roundtrip;
          Alcotest.test_case "other layer" `Quick test_node_other_layer;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "grid",
        [
          Alcotest.test_case "occupancy" `Quick test_grid_occupancy;
          Alcotest.test_case "ownership" `Quick test_grid_ownership;
          Alcotest.test_case "blockages" `Quick test_grid_blockages_applied;
          Alcotest.test_case "via pressure" `Quick test_via_pressure;
          Alcotest.test_case "history" `Quick test_history;
        ] );
      ( "maze",
        [
          Alcotest.test_case "straight line" `Quick test_maze_straight_line;
          Alcotest.test_case "layer change" `Quick test_maze_layer_change;
          Alcotest.test_case "blockage detour" `Quick test_maze_respects_blockage;
          Alcotest.test_case "window" `Quick test_maze_window_limits;
          Alcotest.test_case "owner exclusion" `Quick test_maze_owner_exclusion;
          Alcotest.test_case "spacing penalty" `Quick test_maze_spacing_penalty;
          Alcotest.test_case "allocation bound" `Quick test_maze_allocation_bound;
          QCheck_alcotest.to_alcotest prop_fused_matches_reference;
        ] );
    ]
