module Design = Netlist.Design

type t = {
  design : Netlist.Design.t;
  config : Interval_gen.config;
  intervals : Access_interval.t array;
  pin_ids : Netlist.Pin.id array;
  pin_slot : (Netlist.Pin.id, int) Hashtbl.t;
  pin_candidates : int array array;
  cliques : Conflict.clique array;
  profits : float array;
  npins : int array;
  slot_start : int array;
  slot_ids : int array;
  clique_start : int array;
  clique_ids : int array;
}

(* CSR layout: row [i] of a table is [ids.(start.(i)) .. ids.(start.(i+1)-1)] *)
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

let of_intervals config design intervals =
  let n = Array.length intervals in
  let npins =
    Array.map (fun (iv : Access_interval.t) -> List.length iv.pins) intervals
  in
  (* Number the pins by first appearance, one hash probe per pin
     reference, then rank the distinct ones: [pin_ids] ascending, and
     [slot_ids] (laid out as the interval-ordered references) through
     the first-appearance number. *)
  let slot_start = Array.make (n + 1) 0 in
  Array.iteri (fun i k -> slot_start.(i + 1) <- slot_start.(i) + k) npins;
  let slot_ids = Array.make slot_start.(n) 0 in
  let first_seen = Hashtbl.create 256 and seen = ref [] and distinct = ref 0 in
  let k = ref 0 in
  Array.iter
    (fun (iv : Access_interval.t) ->
      List.iter
        (fun pid ->
          let number =
            match Hashtbl.find_opt first_seen pid with
            | Some number -> number
            | None ->
              let number = !distinct in
              Hashtbl.add first_seen pid number;
              seen := pid :: !seen;
              incr distinct;
              number
          in
          slot_ids.(!k) <- number;
          incr k)
        iv.pins)
    intervals;
  let distinct = !distinct in
  let ranked = Array.make distinct 0 in
  List.iteri
    (fun i pid -> ranked.(i) <- (pid * distinct) + (distinct - 1 - i))
    !seen;
  Array.stable_sort Int.compare ranked;
  let pin_ids = Array.map (fun r -> r / distinct) ranked in
  let slot_of_number = Array.make distinct 0 in
  Array.iteri (fun slot r -> slot_of_number.(r mod distinct) <- slot) ranked;
  Array.iteri (fun k number -> slot_ids.(k) <- slot_of_number.(number)) slot_ids;
  let pin_slot = Hashtbl.create distinct in
  Array.iteri (fun slot pid -> Hashtbl.add pin_slot pid slot) pin_ids;
  (* per slot, the intervals serving it, ascending: the slot table
     transposed in interval order *)
  let pin_candidates =
    let count = Array.make (Array.length pin_ids) 0 in
    Array.iter (fun slot -> count.(slot) <- count.(slot) + 1) slot_ids;
    let rows = Array.map (fun c -> Array.make c 0) count in
    let fill = Array.make (Array.length pin_ids) 0 in
    for i = 0 to n - 1 do
      for k = slot_start.(i) to slot_start.(i + 1) - 1 do
        let slot = slot_ids.(k) in
        rows.(slot).(fill.(slot)) <- i;
        fill.(slot) <- fill.(slot) + 1
      done
    done;
    rows
  in
  let cliques =
    let access =
      Conflict.detect ~clearance:config.Interval_gen.clearance intervals
    in
    match config.Interval_gen.tpl with
    | None -> access
    | Some params ->
      Array.append access (Conflict.detect_color ~params intervals)
  in
  let profits =
    Array.map (Objective.profit config.Interval_gen.weighting) intervals
  in
  (* per interval, the indices of the cliques containing it, ascending *)
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
    design;
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
  of_intervals config design (Interval_gen.generate_panel config design ~panel)

let build_panels config design ~panels =
  let chunks =
    List.map (fun panel -> Interval_gen.generate_panel config design ~panel) panels
  in
  let total = List.fold_left (fun n a -> n + Array.length a) 0 chunks in
  let intervals = ref [] in
  let offset = ref 0 in
  List.iter
    (fun chunk ->
      Array.iter
        (fun (iv : Access_interval.t) ->
          intervals :=
            { iv with Access_interval.id = iv.Access_interval.id + !offset }
            :: !intervals)
        chunk;
      offset := !offset + Array.length chunk)
    chunks;
  assert (!offset = total);
  of_intervals config design (Array.of_list (List.rev !intervals))

let num_pins t = Array.length t.pin_ids
let num_intervals t = Array.length t.intervals
let num_cliques t = Array.length t.cliques
let slot_of_pin t pid = Hashtbl.find t.pin_slot pid

let minimum_intervals t ~slot =
  let pid = t.pin_ids.(slot) in
  let primary = Netlist.Pin.primary_track (Netlist.Design.pin t.design pid) in
  let mins =
    Array.to_list t.pin_candidates.(slot)
    |> List.filter (fun id ->
           let iv = t.intervals.(id) in
           Access_interval.is_minimum iv
           && iv.Access_interval.pins = [ pid ])
  in
  let is_primary id = t.intervals.(id).Access_interval.track = primary in
  List.filter is_primary mins @ List.filter (fun id -> not (is_primary id)) mins

let minimum_interval t ~slot =
  match minimum_intervals t ~slot with
  | id :: _ -> id
  | [] ->
    Cpr_error.infeasible "Problem.minimum_interval: pin %d has no minimum"
      t.pin_ids.(slot)

let cliques_of_interval t id =
  List.init
    (t.clique_start.(id + 1) - t.clique_start.(id))
    (fun i -> t.clique_ids.(t.clique_start.(id) + i))

let summary t =
  Printf.sprintf "%d pins, %d intervals, %d conflict sets" (num_pins t)
    (num_intervals t) (num_cliques t)
