let run ?(j = 1) ?budget config cells =
  Obs.Trace.with_span "libcheck.sweep" @@ fun () ->
  let pool = if j > 1 then Some (Exec.shared ~domains:j) else None in
  Array.to_list
    (Pinaccess.Fanout.run ~pool
       ~budget:(Pinaccess.Budget.of_option budget)
       (fun ~budget cell -> Check.check_cell ~budget config cell)
       (Array.of_list cells))
