module Node = Rgrid.Node
module Route = Rgrid.Route
module Layer = Rgrid.Layer
module Design = Netlist.Design
module I = Geometry.Interval

let blockage_net = -2

type via_kind = V1 | V2

type tracks = {
  mutable start : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable net : int array;
}

type cuts = {
  mutable col : int array;
  mutable y : int array;
  mutable nets : int array;
}

(* One class of raw input (a layer's segments or a cut class's vias):
   items in arrival order, each with its bucket (track or column), two
   sort keys and a payload; then [order], the items bucket by bucket,
   each bucket stably sorted by (key1, key2) from reverse arrival
   order, with [first] the bucket offsets into it. *)
type bucket = {
  mutable n : int;
  mutable at : int array;
  mutable key1 : int array;
  mutable key2 : int array;
  mutable payload : int array;
  mutable first : int array;
  mutable cursor : int array;
  mutable order : int array;
}

type layout = {
  m2 : tracks;
  m3 : tracks;
  v1 : cuts;
  v2 : cuts;
  raw : bucket array;  (** M2, M3, V1, V2 *)
  mutable tmp : int array;  (** merge scratch *)
}

let create () =
  let tracks () = { start = [| 0 |]; lo = [||]; hi = [||]; net = [||] } in
  let cuts () = { col = [| 0 |]; y = [||]; nets = [||] } in
  let bucket () =
    {
      n = 0;
      at = [||];
      key1 = [||];
      key2 = [||];
      payload = [||];
      first = [| 0 |];
      cursor = [||];
      order = [||];
    }
  in
  {
    m2 = tracks ();
    m3 = tracks ();
    v1 = cuts ();
    v2 = cuts ();
    raw = Array.init 4 (fun _ -> bucket ());
    tmp = [||];
  }

let tracks t = function
  | Layer.M2 -> t.m2
  | Layer.M3 -> t.m3
  | Layer.M1 -> invalid_arg "Extract.tracks: M1 has no routing tracks"

let cuts t = function V1 -> t.v1 | V2 -> t.v2
let num_tracks (s : tracks) = Array.length s.start - 1
let num_columns (c : cuts) = Array.length c.col - 1

(* an int array of at least [n] cells, [a] itself when it is *)
let ensure a n =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let grown a = Array.append a (Array.make (max 16 (Array.length a)) 0)

let push b at k1 k2 payload =
  let i = b.n in
  if i = Array.length b.at then begin
    b.at <- grown b.at;
    b.key1 <- grown b.key1;
    b.key2 <- grown b.key2;
    b.payload <- grown b.payload
  end;
  b.at.(i) <- at;
  b.key1.(i) <- k1;
  b.key2.(i) <- k2;
  b.payload.(i) <- payload;
  b.n <- i + 1

(* Every input item, in arrival order: blockages in design order, then
   each route's segments, V1 and V2 cuts, in route order. *)
let collect t space design routes =
  let m2 = t.raw.(0) and m3 = t.raw.(1) and v1 = t.raw.(2) and v2 = t.raw.(3) in
  Array.iter (fun b -> b.n <- 0) t.raw;
  List.iter
    (fun (b : Netlist.Blockage.t) ->
      let lo = I.lo b.span and hi = I.hi b.span in
      match b.layer with
      | Netlist.Blockage.M2 ->
        if b.track >= 0 && b.track < space.Node.height then
          push m2 b.track lo hi blockage_net
      | Netlist.Blockage.M3 ->
        if b.track >= 0 && b.track < space.Node.width then
          push m3 b.track lo hi blockage_net)
    (Design.blockages design);
  let via b x y net =
    if not (Node.in_bounds space ~x ~y) then
      invalid_arg (Printf.sprintf "Extract.fill: via (%d,%d) off-grid" x y);
    push b x y net 0
  in
  let rec v1s net = function
    | [] -> ()
    | (_pin, x, y) :: rest ->
      via v1 x y net;
      v1s net rest
  in
  Array.iter
    (function
      | None -> ()
      | Some (r : Route.t) ->
        let net = r.Route.net and segs = r.Route.segs and cuts = r.Route.v2 in
        for i = 0 to Array.length segs - 1 do
          let s = segs.(i) in
          push
            (if Route.seg_layer s = Layer.M3 then m3 else m2)
            (Route.seg_track s) (Route.seg_lo s) (Route.seg_hi s) net
        done;
        v1s net r.Route.pin_vias;
        for i = 0 to Array.length cuts - 1 do
          via v2 (Route.v2_x cuts.(i)) (Route.v2_y cuts.(i)) net
        done)
    routes

let gt k1 k2 i j =
  let a = k1.(i) and b = k1.(j) in
  a > b || (a = b && k2.(i) > k2.(j))

(* Stable sort of [order.(a .. b-1)] by ([k1], [k2]): insertion sort
   on short runs, merged through [tmp]. *)
let rec sort_range k1 k2 order tmp a b =
  if b - a <= 16 then
    for i = a + 1 to b - 1 do
      let x = order.(i) in
      let j = ref (i - 1) in
      while !j >= a && gt k1 k2 order.(!j) x do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done
  else begin
    let m = (a + b) / 2 in
    sort_range k1 k2 order tmp a m;
    sort_range k1 k2 order tmp m b;
    if gt k1 k2 order.(m - 1) order.(m) then begin
      Array.blit order a tmp a (m - a);
      let i = ref a and j = ref m and k = ref a in
      while !i < m && !j < b do
        if gt k1 k2 tmp.(!i) order.(!j) then begin
          order.(!k) <- order.(!j);
          incr j
        end
        else begin
          order.(!k) <- tmp.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit tmp !i order !k (m - !i)
    end
  end

(* Bucket the items by a counting pass, each bucket filled from the
   last arrival back, then sort every bucket. *)
let bucketize t b buckets =
  if Array.length b.first <> buckets + 1 then begin
    b.first <- Array.make (buckets + 1) 0;
    b.cursor <- Array.make buckets 0
  end
  else Array.fill b.first 0 (buckets + 1) 0;
  for i = 0 to b.n - 1 do
    b.first.(b.at.(i) + 1) <- b.first.(b.at.(i) + 1) + 1
  done;
  for k = 1 to buckets do
    b.first.(k) <- b.first.(k) + b.first.(k - 1)
  done;
  Array.blit b.first 0 b.cursor 0 buckets;
  b.order <- ensure b.order b.n;
  t.tmp <- ensure t.tmp b.n;
  for i = b.n - 1 downto 0 do
    let k = b.at.(i) in
    b.order.(b.cursor.(k)) <- i;
    b.cursor.(k) <- b.cursor.(k) + 1
  done;
  for k = 0 to buckets - 1 do
    sort_range b.key1 b.key2 b.order t.tmp b.first.(k) b.first.(k + 1)
  done

let put (out : tracks) w lo hi net =
  out.lo.(w) <- lo;
  out.hi.(w) <- hi;
  out.net.(w) <- net

(* Merge same-net overlapping runs, and runs overlapping a blockage
   (the merged run keeps the first one's net); a different-net overlap
   is a short: rejected, or the later run in the sort dropped. *)
let finalize ~tolerate_shorts b (out : tracks) =
  let buckets = Array.length b.cursor in
  if Array.length out.start <> buckets + 1 then
    out.start <- Array.make (buckets + 1) 0;
  out.lo <- ensure out.lo b.n;
  out.hi <- ensure out.hi b.n;
  out.net <- ensure out.net b.n;
  let w = ref 0 in
  for track = 0 to buckets - 1 do
    out.start.(track) <- !w;
    let first = b.first.(track) and last = b.first.(track + 1) in
    if first < last then begin
      let o = b.order.(first) in
      let lo = ref b.key1.(o)
      and hi = ref b.key2.(o)
      and net = ref b.payload.(o) in
      for p = first + 1 to last - 1 do
        let o = b.order.(p) in
        let blo = b.key1.(o) and bhi = b.key2.(o) and bnet = b.payload.(o) in
        if blo <= !hi then begin
          if !net = bnet || !net = blockage_net || bnet = blockage_net then
            hi := max !hi bhi
          else if not tolerate_shorts then
            invalid_arg
              (Printf.sprintf "Extract.fill: short between nets %d and %d" !net
                 bnet)
        end
        else begin
          put out !w !lo !hi !net;
          incr w;
          lo := blo;
          hi := bhi;
          net := bnet
        end
      done;
      put out !w !lo !hi !net;
      incr w
    end
  done;
  out.start.(buckets) <- !w

let sorted_cuts b (out : cuts) =
  let buckets = Array.length b.cursor in
  if Array.length out.col <> buckets + 1 then
    out.col <- Array.make (buckets + 1) 0;
  Array.blit b.first 0 out.col 0 (buckets + 1);
  out.y <- ensure out.y b.n;
  out.nets <- ensure out.nets b.n;
  for p = 0 to b.n - 1 do
    let o = b.order.(p) in
    out.y.(p) <- b.key1.(o);
    out.nets.(p) <- b.key2.(o)
  done

let fill ?(tolerate_shorts = false) t design routes =
  let space = Node.space_of_design design in
  collect t space design routes;
  bucketize t t.raw.(0) space.Node.height;
  bucketize t t.raw.(1) space.Node.width;
  bucketize t t.raw.(2) space.Node.width;
  bucketize t t.raw.(3) space.Node.width;
  finalize ~tolerate_shorts t.raw.(0) t.m2;
  finalize ~tolerate_shorts t.raw.(1) t.m3;
  sorted_cuts t.raw.(2) t.v1;
  sorted_cuts t.raw.(3) t.v2

let of_routes ?tolerate_shorts design routes =
  let t = create () in
  fill ?tolerate_shorts t design routes;
  t
