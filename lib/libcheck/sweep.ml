let run ?(j = 1) ?budget config cells =
  Obs.Trace.with_span "libcheck.sweep" @@ fun () ->
  let tasks = Array.of_list cells in
  let pool = if j > 1 then Some (Exec.shared ~domains:j) else None in
  Array.to_list
    (Pinaccess.Fanout.run ~pool
       ~budget:(Pinaccess.Budget.of_option budget)
       ~over:(Array.length tasks)
       ~join:(fun _ step -> step ())
       (fun ~budget cell -> Check.check_cell ~budget config cell)
       tasks)
