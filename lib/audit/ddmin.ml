let reduce fails xs =
  let cur = ref xs and steps = ref 0 in
  let rec sweep chunk =
    if chunk >= 1 && List.length !cur > 1 then begin
      let dropped_some = ref false in
      let pos = ref 0 in
      while !pos < List.length !cur && List.length !cur > 1 do
        let keep =
          List.filteri (fun i _ -> i < !pos || i >= !pos + chunk) !cur
        in
        if keep <> [] && fails keep then begin
          incr steps;
          cur := keep;
          dropped_some := true
        end
        else pos := !pos + chunk
      done;
      if chunk > 1 || !dropped_some then
        sweep (max 1 (min (chunk / 2) (List.length !cur / 2)))
    end
  in
  sweep (max 1 (List.length !cur / 2));
  (!cur, !steps)
