let run ~pool ~budget f tasks =
  let n = Array.length tasks in
  let slices =
    let work = Budget.remaining_work budget in
    Array.init n (fun i ->
        let work_units =
          Option.map (fun w -> (w / n) + if i < w mod n then 1 else 0) work
        in
        Budget.isolated budget ?work_units ())
  in
  let started = Atomic.make 0 in
  let run_task i x =
    let budget =
      match Budget.remaining_seconds budget with
      | None -> slices.(i)
      | Some s ->
        let k = Atomic.fetch_and_add started 1 in
        Budget.sub slices.(i) ~seconds:(s /. float_of_int (n - k)) ()
    in
    f ~budget x
  in
  let charge i = Budget.spend budget (Budget.work_spent slices.(i)) in
  if Exec.domains pool > 1 && n > 1 then begin
    let trace_on = Obs.Trace.enabled () in
    let buffered i x =
      let task () = run_task i x in
      Obs.Metrics.buffered (fun () ->
          if trace_on then Obs.Trace.buffered task else (task (), []))
    in
    Array.mapi
      (fun i ((r, events), mbuf) ->
        Obs.Metrics.flush mbuf;
        Obs.Trace.replay events;
        charge i;
        r)
      (Exec.mapi pool buffered tasks)
  end
  else
    Array.mapi
      (fun i x ->
        let r = run_task i x in
        charge i;
        r)
      tasks
