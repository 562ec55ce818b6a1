module I = Geometry.Interval

type seg = { layer : Layer.t; track : int; span : Geometry.Interval.t }

type t = {
  net : Netlist.Net.id;
  nodes : Node.t list;
  pin_vias : (Netlist.Pin.id * int * int) list;
}

let make ~space:_ ~net ~nodes ~pin_vias =
  { net; nodes = List.sort_uniq Int.compare nodes; pin_vias }

let add_nodes ~space:_ t nodes =
  { t with nodes = List.sort_uniq Int.compare (List.rev_append nodes t.nodes) }

(* Maximal runs of consecutive positions on one track, from keys
   sorted by (track, position). *)
let runs layer ~track_of ~pos_of keys =
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
      go ({ layer; track; span = I.make ~lo ~hi } :: acc) rest
  in
  go [] keys

(* [nodes] is sorted, and a node id is [y * width + x] (plus the plane
   on M3): the M2 nodes come first, in (y, x) order, which is (track,
   position) on M2, and the M3 nodes follow in the same (y, x) order. *)
let rec m3_nodes plane = function
  | n :: rest when n < plane -> m3_nodes plane rest
  | m3 -> m3

(* M3 nodes re-keyed as [x * height + y] and sorted: (track, position)
   on M3. *)
let by_column space m3 =
  let plane = Node.plane space
  and w = space.Node.width
  and h = space.Node.height in
  List.sort Int.compare
    (List.map
       (fun n ->
         let p = n - plane in
         ((p mod w) * h) + (p / w))
       m3)

let segments ~space t =
  let plane = Node.plane space
  and w = space.Node.width
  and h = space.Node.height in
  let m3 = m3_nodes plane t.nodes in
  runs Layer.M2
    ~track_of:(fun n -> n / w)
    ~pos_of:(fun n -> n mod w)
    (List.filter (fun n -> n < plane) t.nodes)
  @ runs Layer.M3
      ~track_of:(fun k -> k / h)
      ~pos_of:(fun k -> k mod h)
      (by_column space m3)

let compare_position (x1, y1) (x2, y2) =
  let c = Int.compare x1 x2 in
  if c <> 0 then c else Int.compare y1 y2

(* both layers list their plane indices ascending: merge them *)
let v2_vias ~space t =
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
  List.sort compare_position (common [] t.nodes (m3_nodes plane t.nodes))

let via_positions ~space t =
  List.map (fun (_pin, x, y) -> (x, y)) t.pin_vias @ v2_vias ~space t

let wirelength ~space t =
  List.fold_left
    (fun acc seg -> acc + (I.length seg.span - 1))
    0 (segments ~space t)

let via_count ~space t =
  List.length t.pin_vias + List.length (v2_vias ~space t)
