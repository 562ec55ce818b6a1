(** Delta debugging over a list, the reduction both shrinkers run:
    {!Fuzz.shrink} over a design's nets and {!Eco_audit.shrink_stream}
    over delta batches and single deltas. *)

val reduce : ('a list -> bool) -> 'a list -> 'a list * int
(** [reduce fails xs] drops chunks of [xs] while [fails] still holds
    of what is left: chunks of half the list first, sliding left to
    right, then ever-smaller chunks down to single elements, with
    another single-element sweep after any sweep that dropped
    something.  [fails] is asked only about non-empty candidates and
    never about [xs] itself.  Returns the reduced list and the number
    of accepted drops. *)
