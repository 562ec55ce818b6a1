open Bigarray

(* Priorities and payloads live in Bigarray.Array1 so the floats stay
   unboxed in storage: a push or sift touches raw float64/int cells and
   never allocates.  The maze loop reads the minimum via min_prio /
   pop_payload; the option-returning [pop] survives as the convenient
   (allocating) face of the same heap. *)
type t = {
  mutable prio : (float, float64_elt, c_layout) Array1.t;
  mutable data : (int, int_elt, c_layout) Array1.t;
  mutable len : int;
  mutable growth_words : int;
}

let create ?(capacity = 256) () =
  {
    prio = Array1.create float64 c_layout capacity;
    data = Array1.create int c_layout capacity;
    len = 0;
    growth_words = 0;
  }

let clear t = t.len <- 0
let is_empty t = t.len = 0
let size t = t.len

let grow t =
  let before = Gc.minor_words () in
  let cap = Array1.dim t.prio * 2 in
  let prio = Array1.create float64 c_layout cap
  and data = Array1.create int c_layout cap in
  Array1.blit t.prio (Array1.sub prio 0 (Array1.dim t.prio));
  Array1.blit t.data (Array1.sub data 0 (Array1.dim t.data));
  t.prio <- prio;
  t.data <- data;
  t.growth_words <-
    t.growth_words + int_of_float (Gc.minor_words () -. before)

let growth_words t = t.growth_words

let swap t i j =
  let p = t.prio.{i} and d = t.data.{i} in
  t.prio.{i} <- t.prio.{j};
  t.data.{i} <- t.data.{j};
  t.prio.{j} <- p;
  t.data.{j} <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.{i} < t.prio.{parent} then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.prio.{l} < t.prio.{!smallest} then smallest := l;
  if r < t.len && t.prio.{r} < t.prio.{!smallest} then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t prio data =
  if t.len = Array1.dim t.prio then grow t;
  t.prio.{t.len} <- prio;
  t.data.{t.len} <- data;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_prio t = if t.len = 0 then infinity else t.prio.{0}

let pop_payload t =
  if t.len = 0 then -1
  else begin
    let d = t.data.{0} in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.prio.{0} <- t.prio.{t.len};
      t.data.{0} <- t.data.{t.len};
      sift_down t 0
    end;
    d
  end

let pop t =
  if t.len = 0 then None
  else begin
    let p = min_prio t in
    let d = pop_payload t in
    Some (p, d)
  end
