module Node = Rgrid.Node
module Maze = Rgrid.Maze
module Grid = Rgrid.Grid
module Cost = Rgrid.Cost
module Budget = Pinaccess.Budget

type anchor = { pin : Netlist.Pin.id; landing : Rgrid.Node.t option }

type component = { nodes : Rgrid.Node.t list; anchors : anchor list }

type spec = {
  net : Netlist.Net.id;
  components : component list;
  bbox : Geometry.Rect.t;
}

let spec_of_components ~space ~net components =
  if components = [] then invalid_arg "Net_router.spec_of_components: empty";
  List.iter
    (fun c -> if c.nodes = [] then invalid_arg "Net_router: empty component")
    components;
  let points =
    List.concat_map
      (fun c ->
        List.map
          (fun n -> Geometry.Point.make ~x:(Node.x space n) ~y:(Node.y space n))
          c.nodes)
      components
  in
  { net; components; bbox = Geometry.Rect.of_points points }

(* Connect components in order of their leftmost node so the tree grows
   geographically, which keeps individual searches short. *)
let order_components space components =
  let key c =
    List.fold_left (fun acc n -> min acc (Node.x space n)) max_int c.nodes
  in
  List.sort (fun a b -> Int.compare (key a) (key b)) components

(* Trim one component against its keep points: per M2 track, the strip
   between the leftmost and rightmost keep point survives (that part is
   needed to connect the keep points through the strip); untouched
   tracks drop entirely. *)
let trim_component space (c : component) ~keeps =
  match keeps with
  | [] ->
    (* unreached and no fixed landing: keep the first node so the pin
       still has metal (single-pin nets) *)
    (match c.nodes with n :: _ -> [ n ] | [] -> [])
  | _ :: _ ->
    let by_track = Hashtbl.create 4 in
    List.iter
      (fun n ->
        let y = Node.y space n in
        let lo, hi =
          Option.value ~default:(max_int, min_int)
            (Hashtbl.find_opt by_track y)
        in
        let x = Node.x space n in
        Hashtbl.replace by_track y (min lo x, max hi x))
      keeps;
    List.filter
      (fun n ->
        match Hashtbl.find_opt by_track (Node.y space n) with
        | Some (lo, hi) ->
          let x = Node.x space n in
          lo <= x && x <= hi
        | None -> false)
      c.nodes

type attempt = Routed of Rgrid.Route.t | Stopped | Unreachable

let attempt_impl ~budget ~margins maze ~cost ~pfac spec =
  let should_stop () = Budget.exhausted budget in
  let grid = Maze.grid maze in
  let space = Grid.space grid in
  let die = Netlist.Design.die (Grid.design grid) in
  let window margin = Geometry.Rect.inflate spec.bbox ~by:margin ~within:die in
  let comp_arr = Array.of_list (order_components space spec.components) in
  let ncomp = Array.length comp_arr in
  (* a node may belong to several components (a pin landing inside a
     long strip): a touch there must credit all of them *)
  let node_comp = Hashtbl.create 64 in
  Array.iteri
    (fun i c -> List.iter (fun n -> Hashtbl.add node_comp n i) c.nodes)
    comp_arr;
  let touches = Array.make ncomp [] in
  let touch node =
    List.iter
      (fun i -> touches.(i) <- node :: touches.(i))
      (Hashtbl.find_all node_comp node)
  in
  let paths = ref [] in
  let tree = ref comp_arr.(0).nodes in
  let connect i =
    let component = comp_arr.(i) in
    let try_margin margin =
      let outcome =
        Maze.search ~should_stop maze ~cost ~net:spec.net ~pfac ~sources:!tree
          ~targets:component.nodes ~window:(window margin)
      in
      Budget.spend budget (Maze.expansions maze);
      match outcome with
      | Maze.Found { path; _ } -> Some path
      | Maze.Unreachable -> None
    in
    (* [None] once connected, else why the component stays apart *)
    let rec attempt = function
      | [] -> Some Unreachable
      | _ when should_stop () -> Some Stopped
      | margin :: more ->
        (match try_margin margin with
        | Some path ->
          (match path with
          | [] -> ()
          | first :: _ ->
            touch first;
            let last = List.nth path (List.length path - 1) in
            touch last);
          paths := path :: !paths;
          tree := List.rev_append path (List.rev_append component.nodes !tree);
          None
        | None -> attempt more)
    in
    attempt margins
  in
  let rec connect_all i =
    if i >= ncomp then None
    else match connect i with None -> connect_all (i + 1) | failed -> failed
  in
  match connect_all 1 with
  | Some failed -> failed
  | None -> begin
    (* keep points: fixed V1 landings plus path touch points *)
    let kept = ref [] in
    let pin_vias = ref [] in
    Array.iteri
      (fun i c ->
        let fixed = List.filter_map (fun a -> a.landing) c.anchors in
        let keeps = List.rev_append fixed touches.(i) in
        let kept_nodes = trim_component space c ~keeps in
        kept := List.rev_append kept_nodes !kept;
        (* realized V1 landings.  A fixed landing (interval) gets one
           cut; a bare pin gets a cut under *every* kept stub — stubs on
           different tracks are only joined through the M1 shape, and
           each needs its own cut to reach it. *)
        List.iter
          (fun a ->
            match a.landing with
            | Some n ->
              pin_vias := (a.pin, Node.x space n, Node.y space n) :: !pin_vias
            | None ->
              let stubs =
                match List.sort_uniq Int.compare kept_nodes with
                | [] -> (match c.nodes with n :: _ -> [ n ] | [] -> [])
                | ns -> ns
              in
              List.iter
                (fun n ->
                  pin_vias :=
                    (a.pin, Node.x space n, Node.y space n) :: !pin_vias)
                stubs)
          c.anchors)
      comp_arr;
    let nodes = List.concat (!kept :: !paths) in
    Routed (Rgrid.Route.make ~space ~net:spec.net ~nodes ~pin_vias:!pin_vias)
  end

let attempt ~budget ~margins maze ~cost ~pfac spec =
  Obs.Trace.with_span "route.net" @@ fun () ->
  attempt_impl ~budget ~margins maze ~cost ~pfac spec

let route ?(budget = Budget.unlimited ()) maze ~cost ~pfac spec =
  match
    attempt ~budget
      ~margins:(cost.Cost.bbox_margin :: cost.Cost.retry_margins)
      maze ~cost ~pfac spec
  with
  | Routed r -> Some r
  | Stopped | Unreachable -> None
