module I = Geometry.Interval
module Pin = Netlist.Pin
module Design = Netlist.Design

type config = {
  weighting : Objective.weighting;
  m2_bbox_margin : int option;
  max_per_pin : int;
  clearance : int;
  min_window : int option;
  tpl : Solver.Color_graph.params option;
}

let default_config =
  {
    weighting = Objective.default;
    m2_bbox_margin = None;
    max_per_pin = 64;
    clearance = 2;
    min_window = None;
    tpl = None;
  }

exception Pin_unreachable of Netlist.Pin.id

let m_intervals_per_pin = Obs.Metrics.histogram "pao.intervals_per_pin"

(* Horizontal extent that bounds interval generation for a pin: the net
   bounding box (paper default), or the estimated M2 box of footnote 1. *)
let gen_bounds config design (p : Pin.t) =
  let die_x = Geometry.Rect.xs (Design.die design) in
  let net_x = Geometry.Rect.xs (Design.net_bbox design p.net) in
  let base =
    match config.m2_bbox_margin with
    | None -> net_x
    | Some k ->
      let est = I.make ~lo:(p.x - k) ~hi:(p.x + k) in
      (match I.clamp est ~within:die_x with
      | Some est ->
        (* never smaller than the pin column itself *)
        I.hull (I.point p.x) (match I.intersect est net_x with
          | Some both -> both
          | None -> I.point p.x)
      | None -> I.point p.x)
  in
  (* the library checker's access window: a single-pin net has a
     degenerate bounding box (the pin column), so candidates are grown
     to at least the window the router could approach from *)
  match config.min_window with
  | None -> base
  | Some w ->
    (match I.clamp (I.make ~lo:(p.x - w) ~hi:(p.x + w)) ~within:die_x with
    | Some want -> I.hull base want
    | None -> base)

(* Maximal blockage-free column range around [p.x] on [track], clipped
   to [bounds]; [None] when the pin column itself is blocked. *)
let free_range design ~track ~bounds (p : Pin.t) =
  let spans = Design.m2_blockages_on_track design track in
  if List.exists (fun s -> I.contains s p.x) spans then None
  else begin
    let lo = ref (I.lo bounds) and hi = ref (I.hi bounds) in
    List.iter
      (fun s ->
        if I.hi s < p.x then lo := max !lo (I.hi s + 1)
        else if I.lo s > p.x then hi := min !hi (I.lo s - 1))
      spans;
    Some (I.make ~lo:(min !lo p.x) ~hi:(max !hi p.x))
  end

(* first index of the ascending [a] holding a value >= [v]; the length
   of [a] when there is none *)
let lower_bound a v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* The pins covering one M2 track, as flat arrays: [xs] and [nets] in
   column order (no two pins of a track share a column), and the same
   pins keyed [net * width + x] in ascending order in [by_net], with
   their ids in [net_ids], so the same-net pins inside a span are one
   binary search away. *)
type track_pins = {
  width : int;
  xs : int array;
  nets : int array;
  by_net : int array;
  net_ids : int array;
}

let track_pins design track =
  let pins = Array.of_list (Design.pins_on_track design track) in
  let width = Design.width design and n = Array.length pins in
  (* each key carries its column-order index below it *)
  let grouped =
    Array.mapi (fun i (q : Pin.t) -> ((((q.net * width) + q.x) * n) + i)) pins
  in
  Array.stable_sort Int.compare grouped;
  {
    width;
    xs = Array.map (fun (q : Pin.t) -> q.x) pins;
    nets = Array.map (fun (q : Pin.t) -> q.net) pins;
    by_net = Array.map (fun k -> k / n) grouped;
    net_ids = Array.map (fun k -> pins.(k mod n).id) grouped;
  }

(* The pins a candidate [(net, lo, hi)] on the track serves: the
   same-net pins whose column lies in the span, in column order.  A
   minimum interval serves its own pin alone, since no other pin shares
   its grid. *)
let served tp ~net ~lo ~hi =
  let base = net * tp.width in
  let first = lower_bound tp.by_net (base + lo) in
  let rec collect i acc =
    if i < first then acc else collect (i - 1) (tp.net_ids.(i) :: acc)
  in
  collect (lower_bound tp.by_net (base + hi + 1) - 1) []

(* The regular candidates of pin [p] on one track inside its free
   [range]: every (left, right) pair of cutting lines, the lefts being
   the range start and one grid right of each diff-net pin left of [p],
   the rights one grid left of each diff-net pin right of [p] and the
   range end — [O(m*n)] of them.  [emit lo hi] receives them in (left,
   right) order or, above [max_per_pin], the [max_per_pin] longest in
   that order among equals.  Returns how many were emitted. *)
let enumerate config tp (p : Pin.t) range emit =
  let rlo = I.lo range and rhi = I.hi range in
  let xs = tp.xs and nets = tp.nets in
  let first = lower_bound xs rlo
  and at = lower_bound xs p.x
  and stop = lower_bound xs (rhi + 1) in
  let diff_net_between a b =
    let n = ref 0 in
    for i = a to b - 1 do
      if nets.(i) <> p.net then incr n
    done;
    !n
  in
  let nl = 1 + diff_net_between first at
  and nr = 1 + diff_net_between (at + 1) stop in
  let lefts = Array.make nl rlo and rights = Array.make nr rhi in
  let k = ref 1 in
  for i = first to at - 1 do
    if nets.(i) <> p.net then begin
      lefts.(!k) <- xs.(i) + 1;
      incr k
    end
  done;
  let k = ref 0 in
  for i = at + 1 to stop - 1 do
    if nets.(i) <> p.net then begin
      rights.(!k) <- xs.(i) - 1;
      incr k
    end
  done;
  let total = nl * nr in
  if total <= config.max_per_pin then begin
    for i = 0 to nl - 1 do
      for j = 0 to nr - 1 do
        emit lefts.(i) rights.(j)
      done
    done;
    total
  end
  else begin
    (* combination [c] pairs left [c / nr] with right [c mod nr]; sort
       on (shortfall from the longest, c) packed into one int *)
    let longest = rhi - rlo + 1 in
    let order =
      Array.init total (fun c ->
          let len = rights.(c mod nr) - lefts.(c / nr) + 1 in
          ((longest - len) * total) + c)
    in
    Array.stable_sort Int.compare order;
    let keep = max 0 config.max_per_pin in
    for k = 0 to keep - 1 do
      let c = order.(k) mod total in
      emit lefts.(c / nr) rights.(c mod nr)
    done;
    keep
  end

(* The one candidate kernel.  Per track of [p], in ascending order: a
   blocked track yields nothing (or raises [Pin_unreachable] when it is
   the primary one), a free track its minimum interval ([minimum
   track]) and its regular candidates ([regular track pins lo hi]).
   Returns the number of candidates. *)
let pin_candidates config design ~pins_on (p : Pin.t) ~minimum ~regular =
  let bounds = gen_bounds config design p in
  let primary = Pin.primary_track p in
  let count = ref 0 in
  for track = I.lo p.tracks to I.hi p.tracks do
    match free_range design ~track ~bounds p with
    | None -> if track = primary then raise (Pin_unreachable p.id)
    | Some range ->
      minimum track;
      let tp = pins_on track in
      count := !count + 1 + enumerate config tp p range (regular track tp)
  done;
  !count

let generate_pin config design (p : Pin.t) =
  let minimums = ref [] and regulars = ref [] in
  let n =
    pin_candidates config design ~pins_on:(track_pins design) p
      ~minimum:(fun track ->
        minimums := ([ p.id ], track, I.point p.x, Access_interval.Minimum)
                    :: !minimums)
      ~regular:(fun track tp lo hi ->
        regulars :=
          ( served tp ~net:p.net ~lo ~hi,
            track,
            I.make ~lo ~hi,
            Access_interval.Regular )
          :: !regulars)
  in
  Obs.Metrics.observe m_intervals_per_pin (float_of_int n);
  List.rev_append !minimums (List.rev !regulars)

(* growable int array *)
type buf = { mutable data : int array; mutable len : int }

let push b v =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

(* The panel's candidates, merged per [(net, track, span)] and numbered
   in (track, lo, hi, net) order.  Each track's candidates are packed as
   [((lo * width + hi) * nets + net) * 2 + regular] and sorted once, so
   equal geometry lands side by side with a minimum first. *)
let generate_panel config design ~panel =
  Obs.Trace.with_span "pao.intervals" @@ fun () ->
  let tracks = Design.panel_tracks design panel in
  let first_track = I.lo tracks and ntracks = I.length tracks in
  let views = Array.init ntracks (fun i -> track_pins design (first_track + i)) in
  let width = Design.width design
  and nets = max 1 (Array.length (Design.nets design)) in
  if max_int / 2 / nets / width < width then
    invalid_arg "Interval_gen.generate_panel: die too large to pack keys";
  let keys = Array.init ntracks (fun _ -> { data = Array.make 64 0; len = 0 }) in
  let record = Obs.Metrics.recorder m_intervals_per_pin in
  List.iter
    (fun (p : Pin.t) ->
      let pack track lo hi regular =
        push keys.(track - first_track)
          (((((lo * width) + hi) * nets) + p.net) * 2 + regular)
      in
      let n =
        pin_candidates config design
          ~pins_on:(fun track -> views.(track - first_track))
          p
          ~minimum:(fun track -> pack track p.x p.x 0)
          ~regular:(fun track _ lo hi -> pack track lo hi 1)
      in
      Obs.Metrics.record record (float_of_int n))
    (Design.pins_of_panel design panel);
  (* one interval per distinct key, each track's keys sorted once *)
  let intervals = ref [] and id = ref 0 in
  Array.iteri
    (fun t b ->
      let keys = Array.sub b.data 0 b.len in
      Array.stable_sort Int.compare keys;
      let i = ref 0 in
      while !i < b.len do
        let key = keys.(!i) lsr 1 in
        let j = ref (!i + 1) in
        while !j < b.len && keys.(!j) lsr 1 = key do
          incr j
        done;
        let kind =
          if keys.(!i) land 1 = 0 then Access_interval.Minimum
          else Access_interval.Regular
        in
        let net = key mod nets and span = key / nets in
        let lo = span / width and hi = span mod width in
        let pins = served views.(t) ~net ~lo ~hi in
        let pins = if !j - !i > 1 then List.sort Int.compare pins else pins in
        intervals :=
          Access_interval.make ~id:!id ~net ~pins ~track:(first_track + t)
            ~span:(I.make ~lo ~hi) ~kind
          :: !intervals;
        incr id;
        i := !j
      done)
    keys;
  Array.of_list (List.rev !intervals)
