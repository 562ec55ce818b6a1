module I = Geometry.Interval
module Design = Netlist.Design
module Pin = Netlist.Pin
module PA = Pinaccess.Pin_access
module AI = Pinaccess.Access_interval
module Engine = Eco.Engine
module Delta = Eco.Delta

(* [Hashtbl.hash] over the canonical design text is stable across runs
   and machines, which is all a replayable seed needs. *)
let stream_seed design =
  Int64.of_int (Hashtbl.hash (Netlist.Design_io.to_string design))

let default_config =
  { Engine.default_config with warm_policy = Engine.Warm_never }

(* The assignment by physical identity: interval ids are re-densified
   by cache materialization, so the comparison keys each pin by its
   shape and each interval by (track, span, minimum). *)
let physical (pao : PA.t) =
  List.map
    (fun (pid, (iv : AI.t)) ->
      let p = Design.pin pao.PA.design pid in
      ( (p.Pin.x, I.lo p.Pin.tracks, I.hi p.Pin.tracks),
        (iv.AI.track, I.lo iv.AI.span, I.hi iv.AI.span, iv.AI.kind = AI.Minimum)
      ))
    pao.PA.assignments
  |> List.sort compare

let certify ~tolerance ~what ~step (pao : PA.t) =
  PA.validate pao;
  match Certificate.certify_pin_access ~tolerance pao with
  | Ok () -> ()
  | Error r ->
    failwith
      (Printf.sprintf "step %d: %s rejected: %s" step what
         (Certificate.reason_to_string r))

let audit_flow ~step engine =
  match Engine.flow engine with
  | None -> ()
  | Some flow -> (
    match Flow_audit.run flow with
    | [] -> ()
    | issue :: _ ->
      failwith
        (Printf.sprintf "step %d: flow audit: %s" step
           (Flow_audit.issue_to_string issue)))

let check ?(tolerance = 1e-6) ?(config = default_config) design batches =
  match
    let engine = Engine.create ~config design in
    certify ~tolerance ~what:"cold engine state" ~step:0 (Engine.pao engine);
    audit_flow ~step:0 engine;
    List.iteri
      (fun i batch ->
        let step = i + 1 in
        ignore (Engine.apply engine batch : Engine.step_report);
        let pao = Engine.pao engine in
        certify ~tolerance ~what:"incremental state" ~step pao;
        audit_flow ~step engine;
        let scratch_config =
          { config.Engine.pao with PA.gen = Engine.gen_config engine }
        in
        let scratch =
          PA.optimize ~config:scratch_config ~kind:config.Engine.kind
            (Engine.design engine)
        in
        certify ~tolerance ~what:"from-scratch reference" ~step scratch;
        if config.Engine.warm_policy = Engine.Warm_never then begin
          if pao.PA.objective <> scratch.PA.objective then
            failwith
              (Printf.sprintf
                 "step %d: objective diverged: incremental %.9f, scratch %.9f"
                 step pao.PA.objective scratch.PA.objective);
          if pao.PA.reports <> scratch.PA.reports then
            failwith (Printf.sprintf "step %d: panel reports diverged" step);
          if physical pao <> physical scratch then
            failwith
              (Printf.sprintf "step %d: physical assignments diverged" step)
        end)
      batches
  with
  | () -> Ok ()
  | exception Delta.Invalid _ -> Ok () (* sub-stream no longer applies *)
  | exception Failure msg -> Error msg
  | exception e -> Error (Printf.sprintf "exception %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Stream shrinking (ddmin)                                            *)
(* ------------------------------------------------------------------ *)

let shrink_stream ?(tolerance = 1e-6) ?(config = default_config) ?(rounds = 60)
    design batches =
  let evals = ref rounds in
  let fails bs =
    bs <> [] && !evals > 0
    && begin
         decr evals;
         Result.is_error (check ~tolerance ~config design bs)
       end
  in
  if not (fails batches) then (batches, 0)
  else begin
    (* whole batches first *)
    let batches, batch_steps = Ddmin.reduce fails batches in
    (* then single deltas inside the survivors, preserving batch
       structure and dropping batches that empty out *)
    let flat =
      List.concat (List.mapi (fun b ds -> List.map (fun d -> (b, d)) ds) batches)
    in
    let rebuild flat =
      let by_batch = Hashtbl.create 8 in
      List.iter
        (fun (b, d) ->
          Hashtbl.replace by_batch b
            (d :: Option.value ~default:[] (Hashtbl.find_opt by_batch b)))
        (List.rev flat);
      List.filter_map
        (fun b -> Hashtbl.find_opt by_batch b)
        (List.init (List.length batches) Fun.id)
    in
    let flat, delta_steps = Ddmin.reduce (fun f -> fails (rebuild f)) flat in
    (rebuild flat, batch_steps + delta_steps)
  end
