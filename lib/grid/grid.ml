module I = Geometry.Interval
open Bigarray

(* The per-node scalar state (owner, occupancy, via pressure, history)
   lives in Bigarray.Array1 — raw int / float64 cells, so the maze
   router's cost reads touch unboxed memory; the interface exposes the
   record read-only for that loop.  [users] stays a list array: it is
   read only on the pfac>0 path and by rip-up. *)
type t = {
  design : Netlist.Design.t;
  space : Node.space;
  blocked : Bytes.t;
  solid : Bytes.t;
  owner : (int, int_elt, c_layout) Array1.t;
  users : int list array; (* nets using each node; a net appears once *)
  occ : (int, int_elt, c_layout) Array1.t;
  via_count : (int, int_elt, c_layout) Array1.t; (* per (x, y) plane grid *)
  history : (float, float64_elt, c_layout) Array1.t;
}

let space t = t.space
let design t = t.design

let create design =
  let space = Node.space_of_design design in
  let n = Node.count space in
  let t =
    {
      design;
      space;
      blocked = Bytes.make n '\000';
      solid = Bytes.make n '\000';
      owner = Array1.create int c_layout n;
      users = Array.make n [];
      occ = Array1.create int c_layout n;
      via_count =
        Array1.create int c_layout (space.Node.width * space.Node.height);
      history = Array1.create float64 c_layout n;
    }
  in
  Array1.fill t.owner (-1);
  Array1.fill t.occ 0;
  Array1.fill t.via_count 0;
  Array1.fill t.history 0.0;
  List.iter
    (fun (b : Netlist.Blockage.t) ->
      let layer =
        match b.layer with
        | Netlist.Blockage.M2 -> Layer.M2
        | Netlist.Blockage.M3 -> Layer.M3
      in
      for i = I.lo b.span to I.hi b.span do
        let x, y =
          match layer with
          | Layer.M2 -> (i, b.track)
          | Layer.M3 -> (b.track, i)
          | Layer.M1 -> assert false
        in
        if Node.in_bounds space ~x ~y then
          Bytes.set t.blocked (Node.pack space ~layer ~x ~y) '\001'
      done)
    (Netlist.Design.blockages design);
  t

let blocked t node = Bytes.get t.blocked node <> '\000'
let set_blocked t node = Bytes.set t.blocked node '\001'
let solid t node = Bytes.get t.solid node <> '\000'
let set_solid t node = Bytes.set t.solid node '\001'
let owner t node = t.owner.{node}

let set_owner t node ~net =
  let cur = t.owner.{node} in
  if cur = -1 then t.owner.{node} <- net
  else if cur <> net then
    invalid_arg
      (Printf.sprintf "Grid.set_owner: node %d owned by net %d, wanted %d"
         node cur net)

let clear_owner t node ~net = if t.owner.{node} = net then t.owner.{node} <- -1

let passable t ~net node =
  (not (blocked t node)) && (t.owner.{node} = -1 || t.owner.{node} = net)

let occ t node = t.occ.{node}

let add_usage t ~net node =
  if List.mem net t.users.(node) then
    invalid_arg "Grid.add_usage: net already uses node";
  t.users.(node) <- net :: t.users.(node);
  t.occ.{node} <- t.occ.{node} + 1

let remove_usage t ~net node =
  if not (List.mem net t.users.(node)) then
    invalid_arg "Grid.remove_usage: net does not use node";
  t.users.(node) <- List.filter (fun k -> k <> net) t.users.(node);
  t.occ.{node} <- t.occ.{node} - 1

let overused t node = t.occ.{node} > 1

let congested_nodes t =
  let count = ref 0 in
  for node = 0 to Array1.dim t.occ - 1 do
    if t.occ.{node} > 1 then incr count
  done;
  !count

let nets_using t node = t.users.(node)

let plane_index t ~x ~y = (y * t.space.Node.width) + x

let via_pressure t ~x ~y = t.via_count.{plane_index t ~x ~y}
let add_via t ~x ~y =
  let i = plane_index t ~x ~y in
  t.via_count.{i} <- t.via_count.{i} + 1

let remove_via t ~x ~y =
  let i = plane_index t ~x ~y in
  assert (t.via_count.{i} > 0);
  t.via_count.{i} <- t.via_count.{i} - 1

(* Plane grid (x, y) holds a via or a blockage on either layer: a via
   beside it would break cut-mask spacing.  Off-grid never does. *)
let via_obstacle t ~x ~y =
  Node.in_bounds t.space ~x ~y
  &&
  let i = plane_index t ~x ~y in
  t.via_count.{i} > 0
  || blocked t i
  || blocked t (Node.plane t.space + i)

let via_forbidden t ~x ~y =
  via_obstacle t ~x:(x + 1) ~y
  || via_obstacle t ~x:(x - 1) ~y
  || via_obstacle t ~x ~y:(y + 1)
  || via_obstacle t ~x ~y:(y - 1)

let history t node = t.history.{node}

(* negotiation-cost telemetry: targeted DRC blame bumps vs the blanket
   per-round congestion sweep *)
let m_history_bumps = Obs.Metrics.counter "grid.history_bumps"
let m_history_sweeps = Obs.Metrics.counter "grid.history_sweeps"

let add_history_at t node increment =
  Obs.Metrics.incr m_history_bumps;
  t.history.{node} <- t.history.{node} +. increment

let add_history t ~increment =
  Obs.Metrics.incr m_history_sweeps;
  for node = 0 to Array1.dim t.occ - 1 do
    if t.occ.{node} > 1 then t.history.{node} <- t.history.{node} +. increment
  done
