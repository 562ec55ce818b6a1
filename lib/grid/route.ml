module I = Geometry.Interval

type seg = { layer : Layer.t; track : int; span : Geometry.Interval.t }

type t = {
  net : Netlist.Net.id;
  nodes : Node.t list;
  pin_vias : (Netlist.Pin.id * int * int) list;
  segs : int array;
  v2 : int array;
}

(* A segment is one int: the layer bit (M3 = 1), then track, lo and hi
   in [bits] each, so sorted ints are sorted (layer, track, lo).  A V2
   position is [x lsl bits lor y], so sorted ints are sorted (x, y). *)
let bits = 20
let field = (1 lsl bits) - 1
let pack_seg ~m3 track lo hi =
  ((if m3 then 1 else 0) lsl (3 * bits))
  lor (track lsl (2 * bits))
  lor (lo lsl bits) lor hi

let seg_layer s = if s lsr (3 * bits) = 1 then Layer.M3 else Layer.M2
let seg_track s = (s lsr (2 * bits)) land field
let seg_lo s = (s lsr bits) land field
let seg_hi s = s land field
let v2_x p = p lsr bits
let v2_y p = p land field

(* Segments and V2 vias from the sorted nodes.  A node id is
   [y * width + x] (plus the plane on M3): the M2 nodes come first, in
   (y, x) order, which is (track, position) on M2; the M3 nodes follow
   in the same (y, x) order and are re-keyed [x * height + y] to read
   as (track, position) on M3. *)
let derive space nodes =
  let w = space.Node.width and h = space.Node.height in
  if w > field + 1 || h > field + 1 then
    invalid_arg "Route.make: grid dimension above 2^20";
  let plane = Node.plane space in
  let all = Array.of_list nodes in
  let n = Array.length all in
  let k = ref 0 in
  while !k < n && all.(!k) < plane do
    incr k
  done;
  let k = !k in
  let m3 =
    Array.init (n - k) (fun i ->
        let p = all.(k + i) - plane in
        ((p mod w) * h) + (p / w))
  in
  Array.sort Int.compare m3;
  (* maximal runs of consecutive positions on one track *)
  let segs = ref [] in
  let runs ~m3:on_m3 keys first last dim =
    let i = ref first in
    while !i < last do
      let track = keys.(!i) / dim and lo = keys.(!i) mod dim in
      let hi = ref lo in
      incr i;
      while !i < last && !hi + 1 < dim && keys.(!i) = (track * dim) + !hi + 1 do
        incr hi;
        incr i
      done;
      segs := pack_seg ~m3:on_m3 track lo !hi :: !segs
    done
  in
  runs ~m3:false all 0 k w;
  runs ~m3:true m3 0 (n - k) h;
  let segs = Array.of_list (List.rev !segs) in
  (* V2 cuts: plane indices both layers hold, merged ascending *)
  let v2 = ref [] in
  let i = ref 0 and j = ref k in
  while !i < k && !j < n do
    let a = all.(!i) and b = all.(!j) - plane in
    if a = b then begin
      v2 := (((a mod w) lsl bits) lor (a / w)) :: !v2;
      incr i;
      incr j
    end
    else if a < b then incr i
    else incr j
  done;
  let v2 = Array.of_list !v2 in
  Array.sort Int.compare v2;
  (segs, v2)

let make ~space ~net ~nodes ~pin_vias =
  let nodes = List.sort_uniq Int.compare nodes in
  let segs, v2 = derive space nodes in
  { net; nodes; pin_vias; segs; v2 }

let add_nodes ~space t nodes =
  make ~space ~net:t.net ~nodes:(List.rev_append nodes t.nodes)
    ~pin_vias:t.pin_vias

let segments t =
  Array.fold_right
    (fun s acc ->
      {
        layer = seg_layer s;
        track = seg_track s;
        span = I.make ~lo:(seg_lo s) ~hi:(seg_hi s);
      }
      :: acc)
    t.segs []

let v2_vias t = Array.fold_right (fun p acc -> (v2_x p, v2_y p) :: acc) t.v2 []

let via_positions t =
  List.map (fun (_pin, x, y) -> (x, y)) t.pin_vias @ v2_vias t

let wirelength t =
  Array.fold_left (fun acc s -> acc + seg_hi s - seg_lo s) 0 t.segs

let via_count t = List.length t.pin_vias + Array.length t.v2
