(* cpr_perf: the repository benchmark.

     cpr_perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--json FILE]
     cpr_perf compare PARENT.json... -- CHANGE.json...

   [run] prints one line per metric (name, value, unit, sample count,
   quartiles) and, last, one JSON object with the keys correct,
   attempted, failed and metrics.  See bench/perf/README.md. *)

let usage =
  "usage: cpr_perf run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--json FILE]\n\
  \       cpr_perf compare PARENT.json... -- CHANGE.json...\n\
   workloads: flow, pao-stream, eco-serve, libcheck"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("cpr_perf: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

(* every metric cpr_perf reports is in the table *)
let spec_of name = Option.get (Specs.find name)

(* -- run ----------------------------------------------------------- *)

type options = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
}

let rec parse_run o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse_run { o with workload = Some w } rest
  | "--seed" :: n :: rest -> (
    match int_of_string_opt n with
    | Some seed when seed >= 0 -> parse_run { o with seed } rest
    | _ -> die "--seed wants a non-negative integer, got %S" n)
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some seconds when seconds > 0.0 -> parse_run { o with seconds } rest
    | _ -> die "--seconds wants a positive number, got %S" s)
  | "--trace" :: t :: rest -> (
    match t with
    | "0" -> parse_run { o with trace = false } rest
    | "1" -> parse_run { o with trace = true } rest
    | _ -> die "--trace wants 0 or 1, got %S" t)
  | "--json" :: f :: rest -> parse_run { o with json = Some f } rest
  | arg :: _ -> die "unexpected argument %S" arg

let metric_json ~name (v : Jobs.value) =
  let s = spec_of name in
  Obs.Json.(
    Obj
      ([
         ("value", Num v.Jobs.value);
         ("unit", Str s.Specs.unit_);
         ("n", num_int v.Jobs.n);
         ("q1", Num v.Jobs.q1);
         ("q3", Num v.Jobs.q3);
         ("better", Str (Verdict.better_to_string s.Specs.better));
       ]
      @ (match v.Jobs.percentile with
        | Some p -> [ ("percentile", Num p) ]
        | None -> [])
      @ match s.Specs.bound with Some b -> [ ("bound", Num b) ] | None -> []))

let run args =
  let o =
    parse_run
      { workload = None; seed = 0; seconds = 10.0; trace = false; json = None }
      args
  in
  let name =
    match o.workload with Some w -> w | None -> die "--workload is required"
  in
  let workload =
    match List.assoc_opt name Jobs.all with
    | Some w -> w
    | None -> die "unknown workload %S" name
  in
  (* Spans time with the wall clock: the default process-CPU clock
     sums over domains and would read a 2-domain second as two. *)
  Obs.Clock.set_source Unix.gettimeofday;
  let cores = Host.cores () in
  if cores < Jobs.jobs then
    Printf.eprintf
      "cpr_perf: warning: %d core(s) for %d jobs; walls are oversubscribed\n%!"
      cores Jobs.jobs;
  let work_dir = Printf.sprintf ".perf_work/%d" (Unix.getpid ()) in
  if not (Sys.file_exists ".perf_work") then Sys.mkdir ".perf_work" 0o755;
  Sys.mkdir work_dir 0o755;
  let capture = if o.trace then Some (Capture.create ()) else None in
  let ctx =
    {
      Jobs.seed = o.seed;
      seconds = o.seconds;
      capture;
      work_dir;
      attempted = 0;
      failed = 0;
    }
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Jobs.rm_rf work_dir;
        try Sys.rmdir ".perf_work" with Sys_error _ -> ())
      (fun () -> workload ctx)
  in
  let metrics =
    match capture with
    | Some cap ->
      List.map
        (fun (k, v) -> (k, Jobs.single v))
        (let fanout, tasks = result.Jobs.fanout in
         Capture.layers cap ~jobs:Jobs.jobs ~fanout ~tasks)
    | None ->
      let failed_ratio =
        float_of_int ctx.Jobs.failed /. float_of_int (max 1 ctx.Jobs.attempted)
      in
      result.Jobs.metrics
      @ [
          ("peak_rss_mb", Jobs.single (Host.peak_rss_mb ()));
          ("failed_ratio", Jobs.single failed_ratio);
        ]
  in
  let declared = if o.trace then Specs.per_layer else Specs.end_to_end in
  List.iter
    (fun (k, (v : Jobs.value)) ->
      Printf.printf "%-38s %14.6g %-10s n=%d %s\n" k v.Jobs.value
        (spec_of k).Specs.unit_ v.Jobs.n
        (match v.Jobs.percentile with
        | Some p -> Printf.sprintf "p=%.4g" p
        | None -> Printf.sprintf "q1=%.6g q3=%.6g" v.Jobs.q1 v.Jobs.q3))
    metrics;
  let correct = ctx.Jobs.failed = 0 && ctx.Jobs.attempted > 0 in
  Option.iter
    (fun file ->
      let record =
        Obs.Json.(
          Obj
            [
              ("workload", Str name);
              ("seed", num_int o.seed);
              ("seconds", Num o.seconds);
              ("trace", Bool o.trace);
              ("host", Host.json ~jobs:Jobs.jobs);
              ("correct", Bool correct);
              ("attempted", num_int ctx.Jobs.attempted);
              ("failed", num_int ctx.Jobs.failed);
              ( "metrics",
                Obj (List.map (fun (k, v) -> (k, metric_json ~name:k v)) metrics) );
            ])
      in
      Obs.Fsio.atomic_write file (Obs.Json.to_string_pretty record ^ "\n"))
    o.json;
  let line =
    Obs.Json.(
      Obj
        [
          ("correct", Bool correct);
          ("attempted", num_int ctx.Jobs.attempted);
          ("failed", num_int ctx.Jobs.failed);
          ( "metrics",
            Obj
              (List.map
                 (fun (s : Specs.spec) ->
                   let v = List.assoc s.Specs.name metrics in
                   ( s.Specs.name,
                     Obj
                       [
                         ("value", Num v.Jobs.value); ("unit", Str s.Specs.unit_);
                       ] ))
                 declared) );
        ])
  in
  print_endline (Obs.Json.to_string line)

(* -- compare ------------------------------------------------------- *)

type record = {
  r_workload : string;
  r_seed : int;
  r_metrics : (string * float) list;
}

let load file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let j =
    match Obs.Json.parse text with Ok j -> j | Error e -> die "%s: %s" file e
  in
  let get k = Obs.Json.member k j in
  match (get "workload", get "seed", get "metrics") with
  | Some (Obs.Json.Str w), Some (Obs.Json.Num s), Some (Obs.Json.Obj ms) ->
    {
      r_workload = w;
      r_seed = int_of_float s;
      r_metrics =
        List.filter_map
          (fun (k, v) ->
            match Obs.Json.member "value" v with
            | Some (Obs.Json.Num x) -> Some (k, x)
            | _ -> None)
          ms;
    }
  | _ -> die "%s: not a cpr_perf --json record" file

let compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> die "compare wants PARENT.json... -- CHANGE.json..."
  in
  let parent, change = split [] args in
  if parent = [] || change = [] then die "compare wants files on both sides of --";
  let parent = List.map load parent and change = List.map load change in
  let workloads =
    List.sort_uniq String.compare (List.map (fun r -> r.r_workload) parent)
  in
  List.iter
    (fun w ->
      let on side = List.filter (fun r -> r.r_workload = w) side in
      let pa = on parent and ch = on change in
      Printf.printf "== %s (parent %d runs, change %d runs)\n" w (List.length pa)
        (List.length ch);
      let names =
        List.sort_uniq String.compare
          (List.concat_map (fun r -> List.map fst r.r_metrics) pa)
      in
      List.iter
        (fun m ->
          let values rs =
            List.filter_map (fun r -> List.assoc_opt m r.r_metrics) rs
          in
          let a = values pa and b = values ch in
          match (Specs.find m, a, b) with
          | Some s, _ :: _, _ :: _ ->
            let pairs =
              List.filter_map
                (fun r ->
                  match
                    ( List.assoc_opt m r.r_metrics,
                      List.find_opt (fun c -> c.r_seed = r.r_seed) ch )
                  with
                  | Some x, Some c ->
                    Option.map (fun y -> (x, y)) (List.assoc_opt m c.r_metrics)
                  | _ -> None)
                pa
            in
            let sa = Stats.summary a and sb = Stats.summary b in
            let wins, losses = Verdict.wins s.Specs.better pairs in
            let delta =
              if sa.Stats.median = 0.0 then 0.0
              else 100.0 *. (sb.Stats.median -. sa.Stats.median) /. sa.Stats.median
            in
            (* layer metrics carry no bound: only a gain can be claimed *)
            let bound, verdict =
              let judge bound =
                Verdict.judge ~better:s.Specs.better ~bound ~parent:a
                  ~change:b ~pairs
              in
              match s.Specs.bound with
              | Some b ->
                (Printf.sprintf "%g%%" (100.0 *. b), Verdict.to_string (judge b))
              | None ->
                ( "none",
                  if judge infinity = Verdict.Better then "better" else "-" )
            in
            Printf.printf
              "  %-38s %-9s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  \
               %+.2f%% (bound %s, %s better)  wins %d/%d losses %d  %s\n"
              m s.Specs.unit_ sa.Stats.median sa.Stats.q1 sa.Stats.q3
              sb.Stats.median sb.Stats.q1 sb.Stats.q3 delta bound
              (Verdict.better_to_string s.Specs.better)
              wins (List.length pairs) losses verdict
          | _ -> ())
        names)
    workloads

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> compare args
  | _ -> die "expected a subcommand"
