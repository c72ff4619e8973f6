(** Discrete-event simulation engine.

    Event-scheduling world view: handlers pop timestamped payloads in
    chronological order and may schedule further events.  Deterministic for
    a fixed input (FIFO tie-break on equal times, see {!Event_queue}). *)

type 'a t

exception Stop
(** Raise from a handler to end {!run} early. *)

val create : unit -> 'a t

val now : 'a t -> float
(** Current simulation time. *)

val events_handled : 'a t -> int
val pending : 'a t -> int

val schedule : 'a t -> at:float -> 'a -> unit
(** @raise Invalid_argument when [at] precedes the current time. *)

val schedule_after : 'a t -> delay:float -> 'a -> unit
(** @raise Invalid_argument on negative delay. *)

val stop : 'a t -> unit
(** Convenience: raises {!Stop}. *)

val run : 'a t -> until:float -> handler:('a t -> float -> 'a -> unit) -> unit
(** Process events up to and including time [until]; afterwards the clock
    rests at [until] (or at the last event if it raised {!Stop}). *)

val drain : 'a t -> handler:('a t -> float -> 'a -> unit) -> unit
(** Process events until none is pending, including those the handlers
    schedule; the clock rests at the last event's time.  Allocates
    nothing per event beyond a box for each new clock value. *)

val step : 'a t -> handler:('a t -> float -> 'a -> unit) -> float option
(** Process exactly one event; returns its time. *)

val reset : 'a t -> unit
