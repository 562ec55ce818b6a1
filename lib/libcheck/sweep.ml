let run ?(j = 1) ?(budget = Pinaccess.Budget.unlimited ()) config cells =
  Obs.Trace.with_span "libcheck.sweep" @@ fun () ->
  Array.to_list
    (Pinaccess.Fanout.run ~pool:(Exec.shared ~domains:j) ~budget
       (fun ~budget cell -> Check.check_cell ~budget config cell)
       (Array.of_list cells))
