(* Reference panel build: the list-based candidate generator, the
   list-based clique sweep and the hash-table problem assembly that the
   flat kernels of [Interval_gen], [Conflict] and [Problem] replaced.
   Kept only as a test oracle: the flat build must reproduce it field by
   field, including the [pao.intervals_per_pin] observations and the
   pin named by [Pin_unreachable]. *)

module I = Geometry.Interval
module Pin = Netlist.Pin
module Design = Netlist.Design
module AI = Pinaccess.Access_interval
module Gen = Pinaccess.Interval_gen
module Conflict = Pinaccess.Conflict
module Problem = Pinaccess.Problem

let m_intervals_per_pin = Obs.Metrics.histogram "pao.intervals_per_pin"

let gen_bounds (config : Gen.config) design (p : Pin.t) =
  let die_x = Geometry.Rect.xs (Design.die design) in
  let net_x = Geometry.Rect.xs (Design.net_bbox design p.net) in
  let base =
    match config.Gen.m2_bbox_margin with
    | None -> net_x
    | Some k ->
      let est = I.make ~lo:(p.x - k) ~hi:(p.x + k) in
      (match I.clamp est ~within:die_x with
      | Some est ->
        I.hull (I.point p.x) (match I.intersect est net_x with
          | Some both -> both
          | None -> I.point p.x)
      | None -> I.point p.x)
  in
  match config.Gen.min_window with
  | None -> base
  | Some w ->
    (match I.clamp (I.make ~lo:(p.x - w) ~hi:(p.x + w)) ~within:die_x with
    | Some want -> I.hull base want
    | None -> base)

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

let dedupe_ints xs = List.sort_uniq Int.compare xs

let pins_served design ~track ~span (p : Pin.t) =
  Design.pins_on_track design track
  |> List.filter (fun (q : Pin.t) -> q.net = p.net && I.contains span q.x)
  |> List.map (fun (q : Pin.t) -> q.id)

let generate_pin (config : Gen.config) design (p : Pin.t) =
  let bounds = gen_bounds config design p in
  let primary = Pin.primary_track p in
  let candidates_on_track track =
    match free_range design ~track ~bounds p with
    | None -> if track = primary then raise (Gen.Pin_unreachable p.id) else []
    | Some range ->
      let diff_net =
        Design.pins_on_track design track
        |> List.filter (fun (q : Pin.t) ->
               q.net <> p.net && I.contains range q.x)
      in
      let lefts =
        I.lo range
        :: List.filter_map
             (fun (q : Pin.t) -> if q.x < p.x then Some (q.x + 1) else None)
             diff_net
        |> dedupe_ints
      in
      let rights =
        I.hi range
        :: List.filter_map
             (fun (q : Pin.t) -> if q.x > p.x then Some (q.x - 1) else None)
             diff_net
        |> dedupe_ints
      in
      let combos =
        List.concat_map
          (fun l ->
            List.filter_map
              (fun r -> if l <= r then Some (I.make ~lo:l ~hi:r) else None)
              rights)
          lefts
      in
      let keep =
        if List.length combos <= config.Gen.max_per_pin then combos
        else
          combos
          |> List.sort (fun a b -> Int.compare (I.length b) (I.length a))
          |> List.filteri (fun i _ -> i < config.Gen.max_per_pin)
      in
      List.map
        (fun span -> (pins_served design ~track ~span p, track, span, AI.Regular))
        keep
  in
  let tracks = List.init (I.length p.tracks) (fun i -> I.lo p.tracks + i) in
  let regular = List.concat_map candidates_on_track tracks in
  let minimums =
    List.filter_map
      (fun track ->
        match free_range design ~track ~bounds p with
        | Some _ -> Some ([ p.id ], track, I.point p.x, AI.Minimum)
        | None -> None)
      tracks
  in
  let candidates = minimums @ regular in
  Obs.Metrics.observe m_intervals_per_pin
    (float_of_int (List.length candidates));
  candidates

let generate_panel config design ~panel =
  let pins = Design.pins_of_panel design panel in
  let table : (int * int * int * int, Pin.id list * AI.kind) Hashtbl.t =
    Hashtbl.create 256
  in
  let order = ref [] in
  List.iter
    (fun (p : Pin.t) ->
      List.iter
        (fun (served, track, span, kind) ->
          let key = (p.net, track, I.lo span, I.hi span) in
          match Hashtbl.find_opt table key with
          | None ->
            Hashtbl.add table key (served, kind);
            order := key :: !order
          | Some (served0, kind0) ->
            let merged =
              List.sort_uniq Int.compare (List.rev_append served served0)
            in
            let kind =
              match kind0, kind with
              | AI.Minimum, _ | _, AI.Minimum -> AI.Minimum
              | AI.Regular, AI.Regular -> AI.Regular
            in
            Hashtbl.replace table key (merged, kind))
        (generate_pin config design p))
    pins;
  let keys =
    List.sort
      (fun (n1, t1, l1, h1) (n2, t2, l2, h2) ->
        let c = Int.compare t1 t2 in
        if c <> 0 then c
        else
          let c = Int.compare l1 l2 in
          if c <> 0 then c
          else
            let c = Int.compare h1 h2 in
            if c <> 0 then c else Int.compare n1 n2)
      !order
  in
  Array.of_list
    (List.mapi
       (fun id ((net, track, lo, hi) as key) ->
         let pins, kind = Hashtbl.find table key in
         AI.make ~id ~net ~pins ~track ~span:(I.make ~lo ~hi) ~kind)
       keys)

let sweep_track ~clearance ~track intervals =
  let eff_hi (iv : AI.t) = I.hi iv.span + clearance in
  let sorted =
    List.sort (fun (a : AI.t) b -> I.compare a.span b.span) intervals
  in
  let ends =
    List.sort_uniq Int.compare (List.map (fun iv -> eff_hi iv) intervals)
  in
  let cliques = ref [] in
  let active = ref [] in
  let pending = ref sorted in
  let fresh = ref false in
  List.iter
    (fun x ->
      let rec admit () =
        match !pending with
        | (iv : AI.t) :: rest when I.lo iv.span <= x ->
          pending := rest;
          if eff_hi iv >= x then begin
            active := iv :: !active;
            fresh := true
          end;
          admit ()
        | _ -> ()
      in
      admit ();
      active := List.filter (fun iv -> eff_hi iv >= x) !active;
      if !fresh && !active <> [] then begin
        let members =
          !active
          |> List.map (fun (iv : AI.t) -> iv.id)
          |> List.sort Int.compare |> Array.of_list
        in
        let lo =
          List.fold_left
            (fun acc (iv : AI.t) -> max acc (I.lo iv.span))
            min_int !active
        in
        cliques :=
          { Conflict.track; cap = 1; members; common = I.make ~lo ~hi:x }
          :: !cliques;
        fresh := false
      end)
    ends;
  List.rev !cliques

let detect ?(clearance = 0) intervals =
  let table = Hashtbl.create 64 in
  Array.iter
    (fun (iv : AI.t) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt table iv.track) in
      Hashtbl.replace table iv.track (iv :: cur))
    intervals;
  let tracks = Hashtbl.fold (fun tr _ acc -> tr :: acc) table [] in
  List.sort Int.compare tracks
  |> List.concat_map (fun track ->
         sweep_track ~clearance ~track (Hashtbl.find table track)
         |> List.filter (fun (c : Conflict.clique) ->
                Array.length c.Conflict.members >= 2))
  |> Array.of_list

let cliques_of_track ?(clearance = 0) intervals ~track =
  let on_track =
    Array.to_list intervals |> List.filter (fun (iv : AI.t) -> iv.track = track)
  in
  Array.of_list (sweep_track ~clearance ~track on_track)

let csr rows ~length ~fill =
  let start = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    start.(i + 1) <- start.(i) + length i
  done;
  let ids = Array.make start.(rows) 0 in
  let next = Array.sub start 0 rows in
  fill (fun i v ->
      ids.(next.(i)) <- v;
      next.(i) <- next.(i) + 1);
  (start, ids)

let of_intervals (config : Gen.config) design intervals : Problem.t =
  let pin_set = Hashtbl.create 256 in
  Array.iter
    (fun (iv : AI.t) -> List.iter (fun pid -> Hashtbl.replace pin_set pid ()) iv.pins)
    intervals;
  let pin_ids =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pin_set []
    |> List.sort Int.compare |> Array.of_list
  in
  let pin_slot = Hashtbl.create (Array.length pin_ids) in
  Array.iteri (fun slot pid -> Hashtbl.add pin_slot pid slot) pin_ids;
  let candidates = Array.make (Array.length pin_ids) [] in
  Array.iter
    (fun (iv : AI.t) ->
      List.iter
        (fun pid ->
          let slot = Hashtbl.find pin_slot pid in
          candidates.(slot) <- iv.id :: candidates.(slot))
        iv.pins)
    intervals;
  let pin_candidates =
    Array.map (fun ids -> Array.of_list (List.sort Int.compare ids)) candidates
  in
  let cliques =
    let access = detect ~clearance:config.Gen.clearance intervals in
    match config.Gen.tpl with
    | None -> access
    | Some params -> Array.append access (Conflict.detect_color ~params intervals)
  in
  let profits = Array.map (Pinaccess.Objective.profit config.Gen.weighting) intervals in
  let n = Array.length intervals in
  let npins = Array.map (fun (iv : AI.t) -> List.length iv.pins) intervals in
  let slot_start, slot_ids =
    csr n ~length:(Array.get npins) ~fill:(fun push ->
        Array.iter
          (fun (iv : AI.t) ->
            List.iter (fun pid -> push iv.id (Hashtbl.find pin_slot pid)) iv.pins)
          intervals)
  in
  let clique_start, clique_ids =
    let degree = Array.make n 0 in
    Array.iter
      (fun (clique : Conflict.clique) ->
        Array.iter (fun id -> degree.(id) <- degree.(id) + 1) clique.Conflict.members)
      cliques;
    csr n ~length:(Array.get degree) ~fill:(fun push ->
        Array.iteri
          (fun m (clique : Conflict.clique) ->
            Array.iter (fun id -> push id m) clique.Conflict.members)
          cliques)
  in
  {
    Problem.design;
    config;
    intervals;
    pin_ids;
    pin_slot;
    pin_candidates;
    cliques;
    profits;
    npins;
    slot_start;
    slot_ids;
    clique_start;
    clique_ids;
  }

let build_panel config design ~panel =
  of_intervals config design (generate_panel config design ~panel)
