(* Order statistics for benchmark samples.  Every reported figure is an
   actual sample (nearest rank), never an interpolation, so a median of
   walls is a wall some run really took. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending, non-empty array: the
   smallest sample with at least [p] percent of the samples at or
   below it.  [p *. n /. 100.] keeps integer [p] exact (0.9 *. 10.
   would round up to rank 10). *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  a.(max 1 (min n r) - 1)

(* The highest percentile with at least ten samples beyond it: rank
   n - 10 of n, which is percentile 100 (n - 10) / n. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then invalid_arg "Stats.tail: ten samples or fewer";
  (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

type summary = { n : int; median : float; q1 : float; q3 : float }

let summary xs =
  let a = sorted xs in
  {
    n = Array.length a;
    median = nearest_rank a 50.0;
    q1 = nearest_rank a 25.0;
    q3 = nearest_rank a 75.0;
  }

let median xs = (summary xs).median
