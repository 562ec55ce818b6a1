type circuit = {
  id : string;
  nets : int;
  um_width : int;
  um_height : int;
  seed : int64;
}

(* Net counts and die sizes from Table 2. *)
let circuits =
  [
    { id = "ecc"; nets = 1671; um_width = 21; um_height = 21; seed = 101L };
    { id = "efc"; nets = 2219; um_width = 20; um_height = 19; seed = 102L };
    { id = "ctl"; nets = 2706; um_width = 24; um_height = 24; seed = 103L };
    { id = "alu"; nets = 3108; um_width = 20; um_height = 19; seed = 104L };
    { id = "div"; nets = 5813; um_width = 31; um_height = 31; seed = 105L };
    { id = "top"; nets = 22201; um_width = 57; um_height = 56; seed = 106L };
  ]

(* Synthetic scale tier an order of magnitude past the suite: 10x the
   nets of [top] on a proportionally grown die.  Deliberately NOT in
   [circuits] — tests and experiments that sweep the whole suite must
   not pick up a 222k-net design by accident; callers opt in via
   [find "mega"] (or [mega] directly). *)
let mega =
  { id = "mega"; nets = 222010; um_width = 180; um_height = 177; seed = 777L }

let find id =
  if id = mega.id then mega else List.find (fun c -> c.id = id) circuits

let grids_per_um = 10

let design ?(scale = 1.0) c =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Suite.design: bad scale";
  let shrink dim =
    max 2 (int_of_float (Float.round (float_of_int dim *. sqrt scale)))
  in
  let nets = max 8 (int_of_float (Float.round (float_of_int c.nets *. scale))) in
  let width = shrink c.um_width * grids_per_um in
  let height = shrink c.um_height * grids_per_um in
  Generator.generate
    (Generator.with_size ~name:c.id ~nets ~width ~height ~seed:c.seed ())

(* Pin density matching the suite (~2.55 pins/net, ~7.4 nets/um^2). *)
let sweep_design ~pins =
  let nets = max 4 (pins * 100 / 218) in
  let um = max 3 (int_of_float (ceil (sqrt (float_of_int nets /. 3.8)))) in
  let width = um * grids_per_um and height = um * grids_per_um in
  Generator.generate
    (Generator.with_size
       ~name:(Printf.sprintf "sweep%d" pins)
       ~nets ~width ~height ~seed:(Int64.of_int (7000 + pins)) ())
