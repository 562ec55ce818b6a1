type t = {
  base_cost : float;
  via_cost : float;
  forbidden_via_cost : float;
  spacing_penalty : float;
  hard_spacing : bool;
  bbox_margin : int;
  retry_margins : int list;
}

let default =
  {
    base_cost = 1.0;
    via_cost = 3.0;
    forbidden_via_cost = 10.0;
    spacing_penalty = 4.0;
    hard_spacing = false;
    bbox_margin = 6;
    retry_margins = [ 16; 40; 120 ];
  }
