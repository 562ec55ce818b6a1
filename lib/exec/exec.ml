(* One job cursor.  A [map] call is one job: every participant — the
   parked workers and the caller — claims the next contiguous chunk of
   indices with one fetch-and-add on the job's cursor until the range
   is drained, so a domain whose chunk ran short just claims the next
   one and skewed task costs rebalance by construction.  Between jobs
   the worker domains park on a condition variable, so a long-lived
   pool costs nothing while idle and a job dispatch is one broadcast —
   no domain is ever spawned per call. *)

let m_jobs = Obs.Metrics.counter "exec.jobs"
let m_tasks = Obs.Metrics.counter "exec.tasks"
let m_chunks = Obs.Metrics.counter "exec.chunks"

(* A job is one [map] call: [run] executes one task index and never
   raises (the wrapper in [mapi] stores results and exceptions into
   per-index slots). *)
type job = { run : int -> unit; total : int; chunk : int; next : int Atomic.t }

let participate job =
  let rec claim () =
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start < job.total then begin
      for i = start to min job.total (start + job.chunk) - 1 do
        job.run i
      done;
      claim ()
    end
  in
  claim ()

(* Workers park on [ready] between jobs.  An epoch counter tells a
   waking worker whether a new job was published since the one it last
   ran; [running] counts workers still inside the current job so the
   caller knows when the join is complete.  All fields are guarded by
   [m] except the job's cursor, which is atomic. *)
type pool_state = {
  size : int;
  m : Mutex.t;
  ready : Condition.t;
  finished : Condition.t;
  mutable epoch : int;
  mutable job : job option;
  mutable running : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

type t = Sequential | Pool of pool_state

let sequential = Sequential

let worker_loop state =
  let my_epoch = ref 0 in
  let rec loop () =
    Mutex.lock state.m;
    while (not state.stop) && state.epoch = !my_epoch do
      Condition.wait state.ready state.m
    done;
    if state.stop then Mutex.unlock state.m
    else begin
      my_epoch := state.epoch;
      let job = Option.get state.job in
      Mutex.unlock state.m;
      participate job;
      Mutex.lock state.m;
      state.running <- state.running - 1;
      if state.running = 0 then Condition.broadcast state.finished;
      Mutex.unlock state.m;
      loop ()
    end
  in
  loop ()

(* [size - 1] parked workers; the caller of [map] is the last
   participant *)
let spawn size =
  let state =
    {
      size;
      m = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      job = None;
      running = 0;
      stop = false;
      workers = [];
    }
  in
  state.workers <-
    List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop state));
  state

let join state =
  Mutex.lock state.m;
  state.stop <- true;
  Condition.broadcast state.ready;
  Mutex.unlock state.m;
  List.iter Domain.join state.workers;
  state.workers <- []

let domains = function Sequential -> 1 | Pool state -> state.size

let default_domains () = Domain.recommended_domain_count ()

(* One persistent pool per requested size, created on first use and
   parked between jobs; callers never pay a domain spawn per call.
   The pools are joined at process exit, so no domain outlives main. *)
let shared_pools : (int, pool_state) Hashtbl.t = Hashtbl.create 4
let shared_m = Mutex.create ()

let join_shared () =
  Mutex.lock shared_m;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) shared_pools [] in
  Hashtbl.reset shared_pools;
  Mutex.unlock shared_m;
  List.iter join pools

let shared ~domains =
  let size = max 1 domains in
  if size = 1 then Sequential
  else
    Mutex.protect shared_m (fun () ->
        (* the first pool registers the exit join *)
        if Hashtbl.length shared_pools = 0 then at_exit join_shared;
        match Hashtbl.find_opt shared_pools size with
        | Some p -> Pool p
        | None ->
          let p = spawn size in
          Hashtbl.add shared_pools size p;
          Pool p)

type 'b slot = Done of 'b | Failed of exn * Printexc.raw_backtrace

(* chunks per participant at even load; smaller chunks rebalance a
   skewed tail finer at slightly more cursor traffic *)
let chunks_per_domain = 8

let mapi t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else
    match t with
    | Sequential -> Array.mapi f xs
    | Pool state when state.workers = [] || n = 1 -> Array.mapi f xs
    | Pool state ->
      let out = Array.make n None in
      let run i =
        out.(i) <-
          Some
            (try Done (f i xs.(i))
             with e -> Failed (e, Printexc.get_raw_backtrace ()))
      in
      let chunk = max 1 (n / (state.size * chunks_per_domain)) in
      let job = { run; total = n; chunk; next = Atomic.make 0 } in
      Mutex.lock state.m;
      state.job <- Some job;
      state.running <- List.length state.workers;
      state.epoch <- state.epoch + 1;
      Condition.broadcast state.ready;
      Mutex.unlock state.m;
      participate job;
      Mutex.lock state.m;
      while state.running > 0 do
        Condition.wait state.finished state.m
      done;
      state.job <- None;
      Mutex.unlock state.m;
      (* the telemetry is the caller's, after the join, so the
         registry keeps its single-domain ownership *)
      Obs.Metrics.incr m_jobs;
      Obs.Metrics.add m_tasks n;
      Obs.Metrics.add m_chunks ((n + chunk - 1) / chunk);
      (* deterministic failure: surface the lowest-index exception,
         exactly what a left-to-right sequential run would raise first *)
      Array.iter
        (function
          | Some (Failed (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Done _) | None -> ())
        out;
      Array.map
        (function
          | Some (Done v) -> v
          | Some (Failed _) | None -> assert false)
        out

let map t f xs = mapi t (fun _ x -> f x) xs
