module I = Geometry.Interval
open Bigarray

(* Search state lives in Bigarray.Array1: dist is raw float64 and
   parent/gen/target_gen raw ints, so relaxations read and write
   unboxed cells.  The [maze.alloc_words] counter (minor words per
   search) is the regression tripwire for the relax loop's allocation
   bound, checked by test_grid and the bench's [parallel] rows. *)
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

let m_expansions = Obs.Metrics.counter "maze.expansions"
let m_pushes = Obs.Metrics.counter "maze.pushes"
let m_alloc_words = Obs.Metrics.counter "maze.alloc_words"

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

type outcome = Found of { path : Node.t list; cost : float } | Unreachable

let grid t = t.grid
let expansions t = t.expansions
let pushes t = t.pushes

(* [users] holds a net other than [net]. *)
let rec other_user net = function
  | [] -> false
  | k :: rest -> k <> net || other_user net rest

(* Another net's metal (or a blockage) sits on [node].  During the
   independent stage ([shared = false], i.e. [pfac = 0]) only static
   metal counts — pins, intervals, blockages — so nets route blind to
   each other's wires, as PathFinder's first iteration requires. *)
let foreign_at (g : Grid.t) ~net ~shared node =
  Bytes.get g.blocked node <> '\000'
  || (Bytes.get g.solid node <> '\000'
     &&
     let o = g.owner.{node} in
     o >= 0 && o <> net)
  || (shared && other_user net g.users.(node))

(* Foreign metal [d] grids along the track from [node], whose
   along-track coordinate is [pos] on a track of [len] grids, one grid
   being [step] ids. *)
let foreign_along g ~net ~shared ~pos ~len ~step node d =
  let p = pos + d in
  p >= 0 && p < len && foreign_at g ~net ~shared (node + (d * step))

(* Soft clearance: a grid whose along-track neighbour carries foreign
   metal would leave a sub-minimum line-end gap if a wire ended there
   (the [21]-style rule mitigation).  Level 2: foreign metal adjacent,
   1: two grids away, 0: clear.  Ints and bools only, so nothing is
   boxed per probe. *)
let clearance_level (g : Grid.t) ~net ~shared ~m3 ~x ~y node =
  let s = g.space in
  let pos = if m3 then y else x
  and len = if m3 then s.Node.height else s.Node.width
  and step = if m3 then s.Node.width else 1 in
  if
    foreign_along g ~net ~shared ~pos ~len ~step node 1
    || foreign_along g ~net ~shared ~pos ~len ~step node (-1)
  then 2
  else if
    foreign_along g ~net ~shared ~pos ~len ~step node 2
    || foreign_along g ~net ~shared ~pos ~len ~step node (-2)
  then 1
  else 0

let rec walk_back t acc node =
  if node < 0 then acc else walk_back t (node :: acc) t.parent.{node}

(* Dijkstra over the window.  Each popped node is decoded once (one
   division); its along-track neighbours are [±1] (M2) or [±width]
   (M3) ids away and its via partner [±plane].  [relax] prices the step
   onto [node] at (x, y) inline: the PathFinder term
   [(base + history) * (1 + pfac * occupancy)], plus the clearance
   term, plus for a via the via cost and the forbidden-via-grid
   penalty, summed in that order.  The loop allocates only the heap's
   boxed priorities; per search, its closures, the clearance table and
   the path. *)
let search_impl ?(should_stop = fun () -> false) t ~(cost : Cost.t) ~net
    ~pfac ~sources ~targets ~window =
  t.cur <- t.cur + 1;
  t.expansions <- 0;
  t.pushes <- 0;
  Heap.clear t.heap;
  let g = t.grid and cur = t.cur in
  let width = t.space.Node.width and height = t.space.Node.height in
  let plane = Node.plane t.space in
  let shared = pfac > 0.0 in
  let xs = Geometry.Rect.xs window and ys = Geometry.Rect.ys window in
  let xlo = I.lo xs and xhi = I.hi xs and ylo = I.lo ys and yhi = I.hi ys in
  let in_window ~x ~y = xlo <= x && x <= xhi && ylo <= y && y <= yhi in
  (* the clearance term, indexed by [clearance_level] *)
  let clearance =
    [| 0.0; cost.spacing_penalty /. 2.0; cost.spacing_penalty |]
  in
  let any_target = ref false in
  List.iter
    (fun node ->
      if Grid.passable g ~net node then begin
        t.target_gen.{node} <- cur;
        any_target := true
      end)
    targets;
  if not !any_target then Unreachable
  else begin
    List.iter
      (fun node ->
        let x = Node.x t.space node and y = Node.y t.space node in
        if Grid.passable g ~net node && in_window ~x ~y then begin
          (* a landing next to foreign metal pays the clearance cost up
             front, steering the connection towards clean grids *)
          let m3 = node >= plane in
          let d0 = clearance.(clearance_level g ~net ~shared ~m3 ~x ~y node) in
          if t.gen.{node} <> cur || d0 < t.dist.{node} then begin
            t.dist.{node} <- d0;
            t.parent.{node} <- -1;
            t.gen.{node} <- cur;
            t.pushes <- t.pushes + 1;
            Heap.push t.heap d0 node
          end
        end)
      sources;
    let relax ~from ~via ~m3 ~x ~y node =
      if in_window ~x ~y && Grid.passable g ~net node then begin
        let clearance =
          clearance.(clearance_level g ~net ~shared ~m3 ~x ~y node)
        in
        let entry =
          if cost.hard_spacing && clearance > 0.0 then infinity
          else begin
            let negotiated =
              ((cost.base_cost +. g.history.{node})
              *. (1.0 +. (pfac *. float_of_int g.occ.{node})))
              +. clearance
            in
            if via then
              let penalty =
                if Grid.via_forbidden g ~x ~y then
                  if cost.hard_spacing then infinity
                  else cost.forbidden_via_cost
                else 0.0
              in
              negotiated +. cost.via_cost +. penalty
            else negotiated
          end
        in
        let d = t.dist.{from} +. entry in
        if d < infinity && (t.gen.{node} <> cur || d < t.dist.{node} -. 1e-12)
        then begin
          t.gen.{node} <- cur;
          t.dist.{node} <- d;
          t.parent.{node} <- from;
          t.pushes <- t.pushes + 1;
          Heap.push t.heap d node
        end
      end
    in
    let result = ref Unreachable and searching = ref true in
    while !searching && not (Heap.is_empty t.heap) do
      let d = Heap.min_prio t.heap in
      let node = Heap.pop_payload t.heap in
      if t.gen.{node} = cur && d > t.dist.{node} +. 1e-12 then ()
      else begin
        t.expansions <- t.expansions + 1;
        (* periodic deadline probe: abandoning mid-search is safe —
           the caller treats it like an unreachable target *)
        if t.expansions land 1023 = 0 && should_stop () then
          searching := false
        else if t.target_gen.{node} = cur then begin
          result := Found { path = walk_back t [] node; cost = d };
          searching := false
        end
        else begin
          let m3 = node >= plane in
          let p = if m3 then node - plane else node in
          let y = p / width in
          let x = p - (y * width) in
          if m3 then begin
            if y + 1 < height then
              relax ~from:node ~via:false ~m3 ~x ~y:(y + 1) (node + width);
            if y - 1 >= 0 then
              relax ~from:node ~via:false ~m3 ~x ~y:(y - 1) (node - width);
            relax ~from:node ~via:true ~m3:false ~x ~y (node - plane)
          end
          else begin
            if x + 1 < width then
              relax ~from:node ~via:false ~m3 ~x:(x + 1) ~y (node + 1);
            if x - 1 >= 0 then
              relax ~from:node ~via:false ~m3 ~x:(x - 1) ~y (node - 1);
            relax ~from:node ~via:true ~m3:true ~x ~y (node + plane)
          end
        end
      end
    done;
    !result
  end

(* [maze.alloc_words] leaves out the heap's doublings: each maze pays
   them once per capacity, so with one maze per domain they would
   depend on which domain ran the largest searches. *)
let search ?should_stop t ~cost ~net ~pfac ~sources ~targets ~window =
  let before = Gc.minor_words () and grown = Heap.growth_words t.heap in
  let outcome =
    search_impl ?should_stop t ~cost ~net ~pfac ~sources ~targets ~window
  in
  let allocated = Gc.minor_words () -. before in
  Obs.Metrics.add m_expansions t.expansions;
  Obs.Metrics.add m_pushes t.pushes;
  Obs.Metrics.add m_alloc_words
    (int_of_float allocated - (Heap.growth_words t.heap - grown));
  outcome
