(** Deterministic event priority queue.

    A binary min-heap on event time; simultaneous events fire in scheduling
    order (FIFO tie-break), so simulations are reproducible. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:float -> 'a -> unit
(** Schedule a payload.  @raise Invalid_argument on NaN time. *)

val peek : 'a t -> (float * 'a) option

val due : 'a t -> until:float -> bool
(** Whether an event is pending at or before [until].  Allocates
    nothing. *)

val top_time : 'a t -> float
(** The earliest event's time (boxed when returned to another module).
    @raise Invalid_argument when empty. *)

val take : 'a t -> 'a
(** Remove the earliest event and return its payload, without
    allocating.  @raise Invalid_argument when empty. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val pop_exn : 'a t -> float * 'a
(** @raise Invalid_argument when empty. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Chronological snapshot; does not modify the queue. *)
