type t =
  | Malformed_design of { line : int option; reason : string }
  | Solver_failure of { solver : string; reason : string }
  | Infeasible_panel of { panel : int option; reason : string }

exception Error of t

let to_string = function
  | Malformed_design { line = Some l; reason } ->
    Printf.sprintf "malformed design (line %d): %s" l reason
  | Malformed_design { line = None; reason } ->
    Printf.sprintf "malformed design: %s" reason
  | Solver_failure { solver; reason } ->
    Printf.sprintf "solver %s failed: %s" solver reason
  | Infeasible_panel { panel = Some p; reason } ->
    Printf.sprintf "panel %d infeasible: %s" p reason
  | Infeasible_panel { panel = None; reason } ->
    Printf.sprintf "infeasible instance: %s" reason

let error e = raise (Error e)

let malformed ?line fmt =
  Printf.ksprintf (fun reason -> error (Malformed_design { line; reason })) fmt

let solver_failure ~solver fmt =
  Printf.ksprintf (fun reason -> error (Solver_failure { solver; reason })) fmt

let infeasible ?panel fmt =
  Printf.ksprintf (fun reason -> error (Infeasible_panel { panel; reason })) fmt

let of_exn = function
  | Error e -> Some e
  | Netlist.Design_io.Malformed { line; reason } ->
    Some (Malformed_design { line; reason })
  | Netlist.Design.Invalid reason ->
    Some (Malformed_design { line = None; reason })
  | Interval_gen.Pin_unreachable pid ->
    Some
      (Infeasible_panel
         {
           panel = None;
           reason =
             Printf.sprintf
               "pin %d unreachable: its primary track is blocked" pid;
         })
  | Solver.Milp.Infeasible _ ->
    Some
      (Solver_failure { solver = "milp"; reason = "instance proved infeasible" })
  | Solver.Milp.Stopped _ ->
    Some
      (Solver_failure
         { solver = "milp"; reason = "stopped before any feasible assignment" })
  | _ -> None

let protect f =
  match f () with
  | v -> Ok v
  | exception e ->
    (match of_exn e with Some t -> Result.Error t | None -> raise e)

let recoverable = function
  | Error _ | Solver.Milp.Infeasible _ | Solver.Milp.Stopped _
  | Interval_gen.Pin_unreachable _ | Failure _ | Invalid_argument _
  | Not_found | Assert_failure _ ->
    true
  | _ -> false
