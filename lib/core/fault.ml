type point =
  | Ilp
  | Lr
  | Wal_append
  | Wal_commit
  | Serve_apply
  | Worker
  | Report_write
  | Route_searched

let point_to_string = function
  | Ilp -> "ilp"
  | Lr -> "lr"
  | Wal_append -> "wal_append"
  | Wal_commit -> "wal_commit"
  | Serve_apply -> "serve_apply"
  | Worker -> "worker"
  | Report_write -> "report_write"
  | Route_searched -> "route_searched"

let hook : (point -> unit) ref = ref (fun _ -> ())

let trip p = !hook p
let set_hook h = hook := h

let with_hook h f =
  let old = !hook in
  hook := h;
  Fun.protect ~finally:(fun () -> hook := old) f

let with_failures points f =
  with_hook
    (fun p ->
      if List.mem p points then
        Cpr_error.solver_failure ~solver:(point_to_string p)
          "fault injection: tier disabled")
    f
