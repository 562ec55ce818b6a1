module I = Geometry.Interval
module Design = Netlist.Design
module Pin = Netlist.Pin
module PA = Pinaccess.Pin_access
module AI = Pinaccess.Access_interval
module Problem = Pinaccess.Problem
module Conflict = Pinaccess.Conflict

type slot = { track : int; span : I.t; minimum : bool }

type entry = {
  slots : slot array;
  intervals : int;
  cliques : int;
  objective : float;
  lr_iterations : int;
  proven_optimal : bool;
  served_by : PA.tier;
  degraded : bool;
  multipliers : (int * int * int * int * float) array;
}

(* shared across every cache instance: the registry is global, and a
   process hosts at most a handful of engines *)
let m_hits = Obs.Metrics.counter "eco.panel_cache.hits"
let m_misses = Obs.Metrics.counter "eco.panel_cache.misses"
let m_evictions = Obs.Metrics.counter "eco.panel_cache.evictions"

(* LRU recency list: intrusive doubly-linked nodes, most recent at the
   head.  A long-lived server session touches its hot panels on every
   batch; FIFO eviction (the PR 5 scheme) would throw those out purely
   by insertion age once the cache fills. *)
type node = {
  key : string;
  mutable prev : node option;  (* toward the head (more recent) *)
  mutable next : node option;  (* toward the tail (eviction end) *)
}

type t = {
  table : (string, entry * node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  max_entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_entries = 4096) () =
  {
    table = Hashtbl.create 256;
    head = None;
    tail = None;
    max_entries = max 1 max_entries;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let size t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let hit_rate t =
  let n = t.hits + t.misses in
  if n = 0 then 0.0 else float_of_int t.hits /. float_of_int n

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some (e, n) ->
    t.hits <- t.hits + 1;
    Obs.Metrics.incr m_hits;
    touch t n;
    Some e
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr m_misses;
    None

(* deliberately leaves both the counters and the recency order alone:
   a warm-start probe of a panel's *previous* entry must not protect
   that stale entry from eviction *)
let peek t k = Option.map fst (Hashtbl.find_opt t.table k)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some victim ->
    unlink t victim;
    Hashtbl.remove t.table victim.key;
    t.evictions <- t.evictions + 1;
    Obs.Metrics.incr m_evictions

let store t k e =
  match Hashtbl.find_opt t.table k with
  | Some (_, n) ->
    Hashtbl.replace t.table k (e, n);
    touch t n
  | None ->
    while Hashtbl.length t.table >= t.max_entries do
      evict_lru t
    done;
    let n = { key = k; prev = None; next = None } in
    push_front t n;
    Hashtbl.replace t.table k (e, n)

let canonical_pins design ~panel =
  let pins = Array.of_list (Design.pins_of_panel design panel) in
  Array.sort
    (fun (a : Pin.t) b ->
      let c = Int.compare a.Pin.x b.Pin.x in
      if c <> 0 then c else Int.compare (I.lo a.Pin.tracks) (I.lo b.Pin.tracks))
    pins;
  pins

(* [v] in decimal, the text [string_of_int] gives *)
let rec add_int buf v =
  if v < 0 then Buffer.add_string buf (string_of_int v)
  else begin
    if v >= 10 then add_int buf (v / 10);
    Buffer.add_char buf (Char.chr (48 + (v mod 10)))
  end

(* The digest covers, in a canonical order, every input of the panel's
   assignment problem: rule deck + solver config, die width, pins with
   panel-local net indices (names excluded on purpose), full net
   bounding boxes (interval generation clips to them), and the M2
   blockage spans on the panel's tracks.  The deck and solver prefix is
   formatted once, when [key] is applied to [config] and [kind]; the
   per-panel text is written number by number, the same bytes
   [Printf]'s [%d] would produce. *)
let key ~(config : PA.config) ~kind =
  let gen = config.PA.gen and lr = config.PA.lr in
  let prefix =
    Printf.sprintf "gen:%s,%s,%d,%d,%s,%s;kind:%s;lr:%d,%h,%s,%b,%s;"
      (Pinaccess.Objective.weighting_to_string
         gen.Pinaccess.Interval_gen.weighting)
      (match gen.Pinaccess.Interval_gen.m2_bbox_margin with
      | None -> "full-bbox"
      | Some k -> string_of_int k)
      gen.Pinaccess.Interval_gen.max_per_pin
      gen.Pinaccess.Interval_gen.clearance
      (match gen.Pinaccess.Interval_gen.min_window with
      | None -> "no-window"
      | Some w -> string_of_int w)
      (* the TPL deck changes the clique set (color cliques fold into the
         pricing), so distinct decks must miss each other's entries *)
      (match gen.Pinaccess.Interval_gen.tpl with
      | None -> "no-tpl"
      | Some p -> Solver.Color_graph.params_to_string p)
      (PA.solver_kind_to_string kind)
      lr.Pinaccess.Lagrangian.max_iterations lr.Pinaccess.Lagrangian.alpha
      (match lr.Pinaccess.Lagrangian.constant_step with
      | None -> "decay"
      | Some s -> Printf.sprintf "%h" s)
      lr.Pinaccess.Lagrangian.full_subgradient
      (match lr.Pinaccess.Lagrangian.plateau_exit with
      | None -> "none"
      | Some p -> string_of_int p)
  in
  fun design ~panel ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf prefix;
    (* [tag] then the numbers comma-separated, closed by ';' *)
    let record tag numbers =
      Buffer.add_string buf tag;
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_int buf v)
        numbers;
      Buffer.add_char buf ';'
    in
    record "die:" [ Design.width design; Design.row_height design ];
    let pins = canonical_pins design ~panel in
    (* panel-local net indices by first appearance in canonical order *)
    let local = Hashtbl.create 16 and nets = ref [] in
    let local_of net =
      match Hashtbl.find_opt local net with
      | Some i -> i
      | None ->
        let i = Hashtbl.length local in
        Hashtbl.add local net i;
        nets := net :: !nets;
        i
    in
    Array.iter
      (fun (p : Pin.t) ->
        record "p:"
          [ p.Pin.x; I.lo p.Pin.tracks; I.hi p.Pin.tracks; local_of p.Pin.net ])
      pins;
    (* each present net's full bbox, in local-index order *)
    List.iteri
      (fun idx net ->
        let bbox = Design.net_bbox design net in
        record "n:"
          [
            idx;
            I.lo (Geometry.Rect.xs bbox);
            I.hi (Geometry.Rect.xs bbox);
            I.lo (Geometry.Rect.ys bbox);
            I.hi (Geometry.Rect.ys bbox);
          ])
      (List.rev !nets);
    let tracks = Design.panel_tracks design panel in
    for track = I.lo tracks to I.hi tracks do
      List.iter
        (fun span -> record "b:" [ track; I.lo span; I.hi span ])
        (Design.m2_blockages_on_track design track)
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))

let entry_of_solution ~(problem : Problem.t) ~assignments
    ~(report : PA.panel_report) ~multipliers design ~panel =
  let pins = canonical_pins design ~panel in
  (* each pin's assigned interval, by its problem slot *)
  let assigned = Array.make (Problem.num_pins problem) None in
  List.iter
    (fun (pid, iv) ->
      match Hashtbl.find_opt problem.Problem.pin_slot pid with
      | Some slot when assigned.(slot) = None -> assigned.(slot) <- Some iv
      | Some _ | None -> ())
    assignments;
  let slots =
    Array.map
      (fun (p : Pin.t) ->
        match
          Option.bind
            (Hashtbl.find_opt problem.Problem.pin_slot p.Pin.id)
            (Array.get assigned)
        with
        | Some (iv : AI.t) ->
          {
            track = iv.AI.track;
            span = iv.AI.span;
            minimum = iv.AI.kind = AI.Minimum;
          }
        | None ->
          invalid_arg
            (Printf.sprintf
               "Panel_cache.entry_of_solution: pin %d of panel %d unassigned"
               p.Pin.id panel))
      pins
  in
  let cliques = problem.Problem.cliques in
  if Array.length multipliers <> 0 && Array.length multipliers <> Array.length cliques
  then
    invalid_arg "Panel_cache.entry_of_solution: multiplier/clique mismatch";
  let sigs =
    if Array.length multipliers = 0 then [||]
    else
      Array.mapi
        (fun m (c : Conflict.clique) ->
          ( c.Conflict.track,
            c.Conflict.cap,
            I.lo c.Conflict.common,
            I.hi c.Conflict.common,
            multipliers.(m) ))
        cliques
  in
  {
    slots;
    intervals = report.PA.intervals;
    cliques = report.PA.cliques;
    objective = report.PA.objective;
    lr_iterations = report.PA.lr_iterations;
    proven_optimal = report.PA.proven_optimal;
    served_by = report.PA.served_by;
    degraded = report.PA.degraded;
    multipliers = sigs;
  }

let materialize entry design ~panel =
  let pins = canonical_pins design ~panel in
  if Array.length pins <> Array.length entry.slots then
    invalid_arg
      (Printf.sprintf
         "Panel_cache.materialize: %d pins in panel %d, entry has %d slots"
         (Array.length pins) panel (Array.length entry.slots));
  (* same-net pins selecting the same (track, span) share one interval,
     as the deduplicating generator produces *)
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Pin.t) ->
      let s = entry.slots.(i) in
      let gkey = (p.Pin.net, s.track, I.lo s.span, I.hi s.span) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups gkey) in
      Hashtbl.replace groups gkey ((p, s) :: cur))
    pins;
  let next_id = ref 0 in
  let assignments =
    Hashtbl.fold
      (fun (net, track, _, _) members acc ->
        let members = List.rev members in
        let _, (s : slot) = List.hd members in
        let id = !next_id in
        incr next_id;
        let iv =
          AI.make ~id ~net
            ~pins:(List.map (fun ((p : Pin.t), _) -> p.Pin.id) members)
            ~track ~span:s.span
            ~kind:(if s.minimum then AI.Minimum else AI.Regular)
        in
        List.fold_left
          (fun acc ((p : Pin.t), _) -> (p.Pin.id, iv) :: acc)
          acc members)
      groups []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let report =
    {
      PA.panel;
      pins = Array.length pins;
      intervals = entry.intervals;
      cliques = entry.cliques;
      objective = entry.objective;
      lr_iterations = entry.lr_iterations;
      proven_optimal = entry.proven_optimal;
      served_by = entry.served_by;
      degraded = entry.degraded;
    }
  in
  (assignments, report)

let warm_start_for entry (problem : Problem.t) =
  let by_sig = Hashtbl.create 64 in
  Array.iter
    (fun (track, cap, lo, hi, lambda) ->
      Hashtbl.replace by_sig (track, cap, lo, hi) lambda)
    entry.multipliers;
  Array.map
    (fun (c : Conflict.clique) ->
      Option.value ~default:0.0
        (Hashtbl.find_opt by_sig
           ( c.Conflict.track,
             c.Conflict.cap,
             I.lo c.Conflict.common,
             I.hi c.Conflict.common )))
    problem.Problem.cliques
