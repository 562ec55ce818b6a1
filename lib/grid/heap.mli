(** Bigarray-backed binary min-heap of [(priority, payload)] pairs used
    by the maze router's Dijkstra loop.  Priorities are raw float64
    cells and payloads raw int cells, so pushes and sifts never
    allocate.  Stale entries are tolerated (decrease-key by
    reinsertion). *)

type t

val create : ?capacity:int -> unit -> t
val clear : t -> unit
val is_empty : t -> bool
val size : t -> int
val push : t -> float -> int -> unit

val min_prio : t -> float
(** Priority of the minimum element without removing it; [infinity]
    when empty.  Paired with {!pop_payload} this is the hot-loop pop:
    no option, no tuple. *)

val pop_payload : t -> int
(** Remove the minimum element and return its payload; [-1] when
    empty.  Read {!min_prio} {e first} if the priority is needed. *)

val pop : t -> (float * int) option
(** Convenience (allocating) pop of [(priority, payload)]. *)

val growth_words : t -> int
(** Minor-heap words the heap's doublings have allocated so far: the
    new arrays' headers, a one-time cost per capacity, not per push. *)
