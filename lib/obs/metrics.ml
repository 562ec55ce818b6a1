type counter = { c_name : string; mutable count : int }

(* cells.(0) = count, (1) = sum, (2) = min, (3) = max; a floatarray
   keeps the fields unboxed so [observe] never allocates. *)
type histogram = { h_name : string; cells : floatarray }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace counters name c;
    c

let empty_cells cells =
  Float.Array.set cells 0 0.0;
  Float.Array.set cells 1 0.0;
  Float.Array.set cells 2 infinity;
  Float.Array.set cells 3 neg_infinity

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = { h_name = name; cells = Float.Array.create 4 } in
    empty_cells h.cells;
    Hashtbl.replace histograms name h;
    h

(* Domain-local redirection.  The registry above is owned by the main
   domain; when a task runs under [buffered] (on any domain), its bumps
   land in a private buffer keyed by metric name instead of the shared
   records, so worker domains never touch shared mutable state.  The
   indirection is one DLS load plus an option test per bump. *)
type buffer = {
  bc : (string, int ref) Hashtbl.t;
  bh : (string, floatarray) Hashtbl.t;
}

let local_key : buffer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let observe_cells cells v =
  Float.Array.set cells 0 (Float.Array.get cells 0 +. 1.0);
  Float.Array.set cells 1 (Float.Array.get cells 1 +. v);
  if v < Float.Array.get cells 2 then Float.Array.set cells 2 v;
  if v > Float.Array.get cells 3 then Float.Array.set cells 3 v

let add c n =
  match Domain.DLS.get local_key with
  | None -> c.count <- c.count + n
  | Some b ->
    (match Hashtbl.find_opt b.bc c.c_name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace b.bc c.c_name (ref n))

let incr c = add c 1
let value c = c.count

let buffer_cells b name =
  match Hashtbl.find_opt b.bh name with
  | Some cells -> cells
  | None ->
    let cells = Float.Array.create 4 in
    empty_cells cells;
    Hashtbl.replace b.bh name cells;
    cells

let observe h v =
  match Domain.DLS.get local_key with
  | None -> observe_cells h.cells v
  | Some b -> observe_cells (buffer_cells b h.h_name) v

(* A recorder is the cells the current scope observes into: the
   histogram's own outside [buffered], else the buffer's, created empty
   if absent — an empty entry merges as a no-op at [flush]. *)
type recorder = floatarray

let recorder h =
  match Domain.DLS.get local_key with
  | None -> h.cells
  | Some b -> buffer_cells b h.h_name

let record = observe_cells

let buffered f =
  let b = { bc = Hashtbl.create 8; bh = Hashtbl.create 8 } in
  let prev = Domain.DLS.get local_key in
  Domain.DLS.set local_key (Some b);
  let v =
    Fun.protect ~finally:(fun () -> Domain.DLS.set local_key prev) f
  in
  (v, b)

let flush b =
  (* [add]/the cell merge below re-check the redirection, so flushing
     inside an enclosing [buffered] scope folds into that outer buffer:
     buffers nest like the tasks that filled them *)
  Hashtbl.iter (fun name r -> add (counter name) !r) b.bc;
  Hashtbl.iter
    (fun name src ->
      let merge dst =
        Float.Array.set dst 0 (Float.Array.get dst 0 +. Float.Array.get src 0);
        Float.Array.set dst 1 (Float.Array.get dst 1 +. Float.Array.get src 1);
        if Float.Array.get src 2 < Float.Array.get dst 2 then
          Float.Array.set dst 2 (Float.Array.get src 2);
        if Float.Array.get src 3 > Float.Array.get dst 3 then
          Float.Array.set dst 3 (Float.Array.get src 3)
      in
      match Domain.DLS.get local_key with
      | None -> merge (histogram name).cells
      | Some outer ->
        (match Hashtbl.find_opt outer.bh name with
        | Some dst -> merge dst
        | None ->
          let dst = Float.Array.create 4 in
          empty_cells dst;
          Hashtbl.replace outer.bh name dst;
          merge dst))
    b.bh

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

let stats h =
  let count = int_of_float (Float.Array.get h.cells 0) in
  let sum = Float.Array.get h.cells 1 in
  {
    count;
    sum;
    min = Float.Array.get h.cells 2;
    max = Float.Array.get h.cells 3;
    mean = (if count = 0 then nan else sum /. float_of_int count);
  }

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_stats) list;
}

let snapshot () =
  let cs =
    Hashtbl.fold
      (fun name (c : counter) acc ->
        if c.count = 0 then acc else (name, c.count) :: acc)
      counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let s = stats h in
        if s.count = 0 then acc else (name, s) :: acc)
      histograms []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counters = cs; histograms = hs }

(* Window delta between two snapshots of the same registry.  Counter
   deltas subtract; histogram count/sum subtract and the mean is
   recomputed over the window.  min/max are epoch extremes (they only
   widen), so a window cannot recover its own extremes — the diff
   reports the [after] values, honest as bounds on the window. *)
let diff ~before ~after =
  let assoc name entries = List.assoc_opt name entries in
  let cs =
    List.filter_map
      (fun (name, v) ->
        let prev = Option.value ~default:0 (assoc name before.counters) in
        if v - prev = 0 then None else Some (name, v - prev))
      after.counters
  in
  let hs =
    List.filter_map
      (fun (name, (s : histogram_stats)) ->
        let prev =
          Option.value
            ~default:
              { count = 0; sum = 0.0; min = infinity; max = neg_infinity;
                mean = nan }
            (assoc name before.histograms)
        in
        let count = s.count - prev.count in
        if count = 0 then None
        else
          let sum = s.sum -. prev.sum in
          Some
            ( name,
              {
                count;
                sum;
                min = s.min;
                max = s.max;
                mean = sum /. float_of_int count;
              } ))
      after.histograms
  in
  { counters = cs; histograms = hs }

let reset () =
  Hashtbl.iter (fun _ (c : counter) -> c.count <- 0) counters;
  Hashtbl.iter (fun _ h -> empty_cells h.cells) histograms

let summary snap =
  let buf = Buffer.create 256 in
  if snap.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 snap.counters
    in
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width name v))
      snap.counters
  end;
  if snap.histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 snap.histograms
    in
    List.iter
      (fun (name, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-*s n=%d mean=%.3f min=%.3f max=%.3f sum=%.3f\n"
             width name s.count s.mean s.min s.max s.sum))
      snap.histograms
  end;
  if snap.counters = [] && snap.histograms = [] then
    Buffer.add_string buf "no metrics recorded\n";
  Buffer.contents buf

let stats_json s =
  Json.Obj
    [
      ("count", Json.num_int s.count);
      ("sum", Json.Num s.sum);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("mean", Json.Num s.mean);
    ]

let to_json snap =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.num_int v)) snap.counters) );
      ( "histograms",
        Json.Obj (List.map (fun (n, s) -> (n, stats_json s)) snap.histograms) );
    ]

let jsonl snap =
  List.map
    (fun (n, v) ->
      Json.to_string
        (Json.Obj
           [
             ("type", Json.Str "counter");
             ("name", Json.Str n);
             ("value", Json.num_int v);
           ]))
    snap.counters
  @ List.map
      (fun (n, s) ->
        Json.to_string
          (Json.Obj
             [
               ("type", Json.Str "histogram");
               ("name", Json.Str n);
               ("count", Json.num_int s.count);
               ("sum", Json.Num s.sum);
               ("min", Json.Num s.min);
               ("max", Json.Num s.max);
               ("mean", Json.Num s.mean);
             ]))
      snap.histograms
