(* What the run executed on, recorded next to its walls. *)

let status_field key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = key ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix line ->
        let n = String.length prefix in
        Some (String.trim (String.sub line n (String.length line - n)))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* CPUs this process may run on, as nproc counts them: the affinity
   list, e.g. "0-1,4". *)
let cores () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] when int_of_string_opt a <> None -> 1
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b >= a -> b - a + 1
      | _ -> 0)
    | _ -> 0
  in
  match status_field "Cpus_allowed_list" with
  | Some list ->
    List.fold_left (fun n r -> n + count_range r) 0 (String.split_on_char ',' list)
  | None -> Domain.recommended_domain_count ()

(* High-water resident set size (VmHWM, "1234 kB"), in MB. *)
let peak_rss_mb () =
  let kb =
    Option.bind (status_field "VmHWM") (fun v ->
        float_of_string_opt (List.hd (String.split_on_char ' ' v)))
  in
  match kb with
  | Some kb -> kb /. 1024.0
  | None -> failwith "no VmHWM in /proc/self/status"

let json ~jobs =
  let cores = cores () in
  Obs.Json.(
    Obj
      [
        ("cores", num_int cores);
        ("recommended_domains", num_int (Domain.recommended_domain_count ()));
        ("jobs", num_int jobs);
        ("oversubscribed", Bool (cores < jobs));
        ("ocaml", Str Sys.ocaml_version);
        ("flambda", Bool Build_info.flambda);
      ])
