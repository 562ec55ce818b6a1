(* Differential fuzzing driver: generate seeded random designs, run
   every solver and flow, cross-check them with the independent audit
   layer, and shrink the first failure to a minimal repro design.

     dune exec bin/cpr_fuzz.exe -- --iterations 200 --seed 7
     dune exec bin/cpr_fuzz.exe -- --iterations 2000 --out repro.design
     dune exec bin/cpr_fuzz.exe -- --replay repro.design
     dune exec bin/cpr_fuzz.exe -- --replay repro.design --deltas repro.design.deltas

   Exit codes: 0 all cases clean, 1 an invariant was violated (the
   shrunken repro is written to --out; an ECO failure also writes its
   minimal delta stream next to it), 2 usage errors. *)

open Cmdliner

let run_campaign iterations seed tolerance max_nets no_ilp no_routing
    no_parallel no_eco shrink_rounds tpl out replay deltas quiet =
  let config =
    {
      Audit.Fuzz.iterations;
      seed = Int64.of_int seed;
      tolerance;
      max_nets;
      ilp = not no_ilp;
      routing = not no_routing;
      parallel = not no_parallel;
      eco = not no_eco;
      shrink_rounds;
      tpl;
    }
  in
  match (replay, deltas) with
  | Some path, Some delta_path ->
    (* re-run the ECO differential on a saved (design, deltas) repro *)
    let design = Netlist.Design_io.load path in
    let stream = Eco.Delta.load delta_path in
    Format.printf "replaying %s + %s: %s, %d batches@." path delta_path
      (Netlist.Design.stats design)
      (List.length stream);
    (match Audit.Eco_audit.check ~tolerance design stream with
    | Ok () ->
      Format.printf "ECO differential holds@.";
      0
    | Error reason ->
      Format.printf "FAILURE: %s@." reason;
      1)
  | None, Some _ ->
    Format.printf "--deltas requires --replay@.";
    2
  | Some path, None ->
    (* re-run the invariants on a saved (typically shrunken) design *)
    let design = Netlist.Design_io.load path in
    Format.printf "replaying %s: %s@." path (Netlist.Design.stats design);
    (match Audit.Fuzz.check_design config design with
    | Ok () ->
      Format.printf "all invariants hold@.";
      0
    | Error reason ->
      Format.printf "FAILURE: %s@." reason;
      1)
  | None, None ->
    let progress =
      if quiet then fun _ -> ()
      else fun case ->
        if case mod 25 = 0 then Format.printf "  %d/%d cases clean@.%!" case iterations
    in
    let outcome = Audit.Fuzz.run ~progress config in
    (match outcome.Audit.Fuzz.failure with
    | None ->
      Format.printf
        "fuzz: %d cases clean (%d infertile skips, %d routed past a first \
         window at -j 2), seed %Ld — no invariant violated@."
        outcome.Audit.Fuzz.cases outcome.Audit.Fuzz.skipped
        outcome.Audit.Fuzz.outgrown config.Audit.Fuzz.seed;
      0
    | Some f ->
      Format.printf "fuzz: FAILURE at case %d (case seed %Ld)@."
        f.Audit.Fuzz.case f.Audit.Fuzz.case_seed;
      Format.printf "  original: %s@." f.Audit.Fuzz.reason;
      Format.printf "  shrunk (%d steps): %s@." f.Audit.Fuzz.shrink_steps
        f.Audit.Fuzz.shrunk_reason;
      Format.printf "  repro design: %s@."
        (Netlist.Design.stats f.Audit.Fuzz.design);
      Netlist.Design_io.save out f.Audit.Fuzz.design;
      Format.printf "  written to %s (replay with --replay %s)@." out out;
      if f.Audit.Fuzz.deltas <> [] then begin
        let delta_out = out ^ ".deltas" in
        Eco.Delta.save delta_out f.Audit.Fuzz.deltas;
        Format.printf
          "  minimal delta stream written to %s (replay with --replay %s \
           --deltas %s)@."
          delta_out out delta_out
      end;
      1)

let run_campaign iterations seed tolerance max_nets no_ilp no_routing
    no_parallel no_eco shrink_rounds tpl out replay deltas quiet =
  match
    Pinaccess.Cpr_error.protect (fun () ->
        run_campaign iterations seed tolerance max_nets no_ilp no_routing
          no_parallel no_eco shrink_rounds tpl out replay deltas quiet)
  with
  | Ok n -> Ok n
  | Error e -> Error (`Msg (Pinaccess.Cpr_error.to_string e))

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be positive, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let iterations =
  Arg.(
    value & opt positive_int 200
    & info [ "n"; "iterations" ] ~doc:"Number of random cases to run.")

let seed =
  Arg.(
    value & opt int 0xC0FFEE
    & info [ "seed" ] ~doc:"Master seed; each case derives its own from it.")

let tolerance =
  Arg.(
    value & opt float 1e-6
    & info [ "tolerance" ]
        ~doc:"Relative tolerance for objective comparisons.")

let max_nets =
  Arg.(
    value & opt positive_int 24
    & info [ "max-nets" ] ~doc:"Upper bound on nets per generated case.")

let no_ilp =
  Arg.(
    value & flag
    & info [ "no-ilp" ]
        ~doc:"Skip the exact-ILP cross-check (the slowest invariant).")

let no_routing =
  Arg.(
    value & flag
    & info [ "no-routing" ] ~doc:"Skip the CPR and sequential flow audits.")

let no_parallel =
  Arg.(
    value & flag
    & info [ "no-parallel" ] ~doc:"Skip the -j 2 determinism check.")

let no_eco =
  Arg.(
    value & flag
    & info [ "no-eco" ]
        ~doc:"Skip the incremental-vs-scratch ECO differential.")

let shrink_rounds =
  Arg.(
    value & opt positive_int 80
    & info [ "shrink-rounds" ]
        ~doc:"Candidate evaluations allowed while shrinking a failure.")

let tpl =
  let colors =
    let parse s =
      match int_of_string_opt s with
      | Some k when k >= 2 -> Ok k
      | Some k -> Error (`Msg (Printf.sprintf "need at least 2 colors, got %d" k))
      | None -> Error (`Msg (Printf.sprintf "not an integer: %S" s))
    in
    Arg.conv ~docv:"K" (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt (some colors) None
    & info [ "tpl" ]
        ~doc:
          "Also rerun every case under a $(docv)-coloring TPL deck: the \
           coloring must certify against the geometry, the -j 2 rerun must \
           be bit-identical coloring included, and the TPL-aware CPR flow \
           must pass its audit replay.")

let out =
  Arg.(
    value & opt string "fuzz-repro.design"
    & info [ "o"; "out" ]
        ~doc:"Where to write the shrunken failing design.")

let replay =
  Arg.(
    value & opt (some file) None
    & info [ "replay" ]
        ~doc:"Re-run the invariants on a saved design instead of fuzzing.")

let deltas =
  Arg.(
    value & opt (some file) None
    & info [ "deltas" ]
        ~doc:
          "With --replay: re-run only the ECO differential on this saved \
           delta stream against the replayed design.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output.")

let cmd =
  let doc = "differential fuzzer for the CPR solvers and routing flows" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random placed designs, solves pin access with \
         every tier (ILP, Lagrangian relaxation, shrink-to-minimum), routes \
         with the CPR and sequential flows, and cross-checks all of them \
         against the independent audit layer: certificates re-derived from \
         scratch, DRC and connectivity replays, solver-independent objective \
         bounds, bit-identical parallel execution, and an incremental ECO \
         replay that must stay certificate-identical to from-scratch \
         re-optimization. The first violation is shrunk to a minimal \
         failing design (plus a minimal delta stream for ECO failures) and \
         saved for replay.";
    ]
  in
  Cmd.v
    (Cmd.info "cpr_fuzz" ~version:"1.0.0" ~doc ~man)
    Term.(
      term_result
        (const run_campaign $ iterations $ seed $ tolerance $ max_nets $ no_ilp
       $ no_routing $ no_parallel $ no_eco $ shrink_rounds $ tpl $ out
       $ replay $ deltas $ quiet))

(* shared exit-code convention with cpr_main/cpr_serve: 0 ok, 1 a
   violation was found, 2 usage or I/O error (cmdliner's 123/124/125
   collapse onto 2) *)
let () = exit (match Cmd.eval' cmd with 0 -> 0 | 1 -> 1 | _ -> 2)
