type event = { name : string; ts : float; dur : float; depth : int }

type sink = { on_event : event -> unit; flush : unit -> unit }

let null = { on_event = ignore; flush = ignore }

let make_sink ~on_event ~flush = { on_event; flush }

let tee a b =
  {
    on_event =
      (fun e ->
        a.on_event e;
        b.on_event e);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }

let collect () =
  let events = ref [] in
  ( { on_event = (fun e -> events := e :: !events); flush = ignore },
    fun () -> List.rev !events )

let event_json e =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("name", Json.Str e.name);
      ("ts", Json.Num e.ts);
      ("dur", Json.Num e.dur);
      ("depth", Json.num_int e.depth);
    ]

let jsonl oc =
  {
    on_event =
      (fun e ->
        output_string oc (Json.to_string (event_json e));
        output_char oc '\n');
    flush = (fun () -> flush oc);
  }

let chrome oc =
  let first = ref true in
  output_string oc "[";
  {
    on_event =
      (fun e ->
        if !first then first := false else output_string oc ",";
        (* ts/dur in microseconds, per the trace_event format *)
        Printf.fprintf oc
          "\n\
           {\"name\":%s,\"cat\":\"cpr\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}"
          (Json.to_string (Json.Str e.name))
          (e.ts *. 1e6) (e.dur *. 1e6));
    flush =
      (fun () ->
        output_string oc "\n]\n";
        flush oc);
  }

(* The sink and nesting depth are domain-local: a freshly spawned
   worker domain starts silent even while the main domain is tracing,
   so parallel tasks never write to a shared channel.  Workers that
   should be heard run under [buffered] and the caller [replay]s their
   events at join.  [on] mirrors "a non-null sink is installed" so the
   disabled check on the hot path is one load and one test. *)
type state = { mutable active : sink; mutable on : bool; mutable depth : int }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = null; on = false; depth = 0 })

let set_sink s =
  let st = Domain.DLS.get state_key in
  st.active <- s;
  st.on <- s != null

let clear_sink () =
  let st = Domain.DLS.get state_key in
  st.active <- null;
  st.on <- false

let enabled () = (Domain.DLS.get state_key).on

let with_sink s f =
  let st = Domain.DLS.get state_key in
  let prev_active = st.active and prev_on = st.on in
  set_sink s;
  Fun.protect
    ~finally:(fun () ->
      s.flush ();
      st.active <- prev_active;
      st.on <- prev_on)
    f

let with_span name f =
  let st = Domain.DLS.get state_key in
  if not st.on then f ()
  else begin
    let d = st.depth in
    st.depth <- d + 1;
    let t0 = Clock.now () in
    let finish () =
      let dur = Clock.now () -. t0 in
      st.depth <- d;
      st.active.on_event { name; ts = t0; dur; depth = d }
    in
    match f () with
    | x ->
      finish ();
      x
    | exception e ->
      finish ();
      raise e
  end

(* events are recorded at depths relative to the task, so the task
   starts at depth 0 even when the calling domain runs it inside its
   own spans; [replay] adds the replaying domain's depth once *)
let buffered f =
  let sink, events = collect () in
  let st = Domain.DLS.get state_key in
  let d = st.depth in
  st.depth <- 0;
  let v =
    Fun.protect ~finally:(fun () -> st.depth <- d) (fun () -> with_sink sink f)
  in
  (v, events ())

let replay events =
  let st = Domain.DLS.get state_key in
  if st.on then
    List.iter
      (fun (e : event) ->
        st.active.on_event { e with depth = e.depth + st.depth })
      events
