(* A small discrete-event simulation engine: a clock plus an event queue of
   thunk-producing payloads.  Handlers receive the engine so they can
   schedule follow-up events (the standard event-scheduling world view).
   Time never moves backwards; scheduling in the past is a programming
   error and raises. *)

type 'a t = {
  queue : 'a Event_queue.t;
  mutable now : float;
  mutable handled : int;
  mutable running : bool;
}

exception Stop

let create () = { queue = Event_queue.create (); now = 0.0; handled = 0; running = false }

let now t = t.now

let events_handled t = t.handled

let pending t = Event_queue.length t.queue

(* Both are inlined, with {!Event_queue.add}, at their call sites: the
   event's time is computed there and stored into the queue unboxed. *)
let[@inline] schedule t ~at payload =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before current time %g" at t.now);
  Event_queue.add t.queue ~time:at payload

let[@inline] schedule_after t ~delay payload =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now +. delay) payload

let stop _t = raise Stop

(* Take the earliest event and move the clock to its time.  [now] is a
   boxed float, so the clock is read out of the queue (and boxed) only
   when it moves: events at the instant it already shows (a broadcast's
   fan-out) are due by it, since nothing is ever scheduled in the
   past. *)
let take_next t =
  if not (Event_queue.due t.queue ~until:t.now) then t.now <- Event_queue.top_time t.queue;
  t.handled <- t.handled + 1;
  Event_queue.take t.queue

(* The one drain loop: handle events in time order while the earliest is
   due by [until].  [run] and [drain] are both this loop. *)
let rec drain_due t ~until ~handler =
  if Event_queue.due t.queue ~until then begin
    let payload = take_next t in
    handler t t.now payload;
    drain_due t ~until ~handler
  end

(* Run until [until] (inclusive of events at exactly [until]) or until the
   queue drains.  The handler may raise [Stop] to end early.  On normal
   completion the clock is advanced to [until] so callers can account for
   the trailing interval with no events. *)
let run t ~until ~handler =
  if t.running then invalid_arg "Engine.run: engine is already running";
  t.running <- true;
  (match drain_due t ~until ~handler with
  | () -> if t.now < until then t.now <- until
  | exception Stop -> ()
  | exception e ->
      t.running <- false;
      raise e);
  t.running <- false

let drain t ~handler = drain_due t ~until:infinity ~handler

(* Step a single event; [None] when the queue is empty. *)
let step t ~handler =
  if Event_queue.is_empty t.queue then None
  else begin
    let payload = take_next t in
    let time = t.now in
    handler t time payload;
    Some time
  end

let reset t =
  Event_queue.clear t.queue;
  t.now <- 0.0;
  t.handled <- 0;
  t.running <- false
