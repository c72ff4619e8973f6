(* Discrete-event engine: queue ordering, FIFO ties and engine
   semantics. *)

open Helpers
module Event_queue = Dynvote_des.Event_queue
module Engine = Dynvote_des.Engine

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  Alcotest.(check (list (pair (float 0.0) string)))
    "chronological"
    [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]
    (Event_queue.to_sorted_list q);
  Alcotest.(check int) "length" 3 (Event_queue.length q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iteri (fun i name -> Event_queue.add q ~time:5.0 (i, name))
    [ "first"; "second"; "third" ];
  let order = List.map snd (List.map snd (Event_queue.to_sorted_list q)) in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] order

let test_queue_pop () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty pop" true (Event_queue.pop q = None);
  Event_queue.add q ~time:1.0 "x";
  Alcotest.(check bool) "peek" true (Event_queue.peek q = Some (1.0, "x"));
  Alcotest.(check bool) "pop" true (Event_queue.pop q = Some (1.0, "x"));
  Alcotest.(check bool) "empty again" true (Event_queue.is_empty q);
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Event_queue.pop_exn: empty queue")
    (fun () -> ignore (Event_queue.pop_exn q))

let test_queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.add: time is NaN")
    (fun () -> Event_queue.add q ~time:Float.nan "bad")

let test_queue_stress_sorted () =
  (* 10k random inserts pop out sorted. *)
  let rng = Dynvote_prng.Rng.create ~seed:77L () in
  let q = Event_queue.create () in
  for i = 1 to 10_000 do
    Event_queue.add q ~time:(Dynvote_prng.Rng.float rng *. 1000.0) i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (t, _) ->
        if t < !last then Alcotest.failf "out of order: %f after %f" t !last;
        last := t;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all drained" 10_000 !count

let test_engine_run () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.schedule engine ~at:1.0 "a";
  Engine.schedule engine ~at:2.0 "b";
  Engine.schedule engine ~at:10.0 "late";
  Engine.run engine ~until:5.0 ~handler:(fun eng time payload ->
      seen := (time, payload) :: !seen;
      (* Handlers can schedule follow-ups. *)
      if payload = "a" then Engine.schedule_after eng ~delay:0.5 "a-child");
  Alcotest.(check (list (pair (float 0.0) string)))
    "processed in order, late event pending"
    [ (1.0, "a"); (1.5, "a-child"); (2.0, "b") ]
    (List.rev !seen);
  check_float "clock rests at until" 5.0 (Engine.now engine);
  Alcotest.(check int) "one event pending" 1 (Engine.pending engine)

let test_engine_stop () =
  let engine = Engine.create () in
  for i = 1 to 10 do
    Engine.schedule engine ~at:(float_of_int i) i
  done;
  let seen = ref 0 in
  Engine.run engine ~until:100.0 ~handler:(fun eng _ payload ->
      incr seen;
      if payload = 3 then Engine.stop eng);
  Alcotest.(check int) "stopped after three" 3 !seen;
  check_float "clock at stop point" 3.0 (Engine.now engine)

let test_engine_no_past_scheduling () =
  let engine = Engine.create () in
  Engine.schedule engine ~at:5.0 ();
  Engine.run engine ~until:5.0 ~handler:(fun eng _ () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule: time 1 is before current time 5") (fun () ->
          Engine.schedule eng ~at:1.0 ()))

let test_engine_step_and_reset () =
  let engine = Engine.create () in
  Engine.schedule engine ~at:1.0 "x";
  Alcotest.(check (option (float 0.0))) "step" (Some 1.0)
    (Engine.step engine ~handler:(fun _ _ _ -> ()));
  Alcotest.(check (option (float 0.0))) "step empty" None
    (Engine.step engine ~handler:(fun _ _ _ -> ()));
  Alcotest.(check int) "handled" 1 (Engine.events_handled engine);
  Engine.reset engine;
  check_float "reset clock" 0.0 (Engine.now engine);
  Alcotest.(check int) "reset handled" 0 (Engine.events_handled engine)

let suite =
  [
    Alcotest.test_case "queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "queue FIFO on ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue pop/peek" `Quick test_queue_pop;
    Alcotest.test_case "queue rejects NaN" `Quick test_queue_nan_rejected;
    Alcotest.test_case "queue stress sorted" `Quick test_queue_stress_sorted;
    Alcotest.test_case "engine run" `Quick test_engine_run;
    Alcotest.test_case "engine stop" `Quick test_engine_stop;
    Alcotest.test_case "engine rejects past" `Quick test_engine_no_past_scheduling;
    Alcotest.test_case "engine step/reset" `Quick test_engine_step_and_reset;
  ]
