(* Asynchronous message delivery over the simulated network.  Messages
   between connected sites arrive after a per-pair latency, in timestamp
   order (FIFO per channel follows from the deterministic event queue);
   messages to unreachable sites are silently dropped — exactly the
   paper's failure model, where "no answer" is how a site learns that a
   peer is down or partitioned away.

   On top of that friendly baseline sits an adversarial layer: a
   composable *fault plan* consulted on every send.  A plan may lose the
   message (per-link Bernoulli loss or a scheduled link flap), duplicate
   it, or add bounded extra delay (which reorders it past later traffic).
   Each injected fault is accounted separately from partition loss, so a
   chaos run can tell "the network ate it" apart from "the partition ate
   it". *)

type fault =
  | Loss        (* Bernoulli per-link loss *)
  | Flap        (* scheduled link outage window *)
  | Duplicate   (* extra copy injected *)
  | Delay       (* bounded extra latency (reordering) *)

let fault_name = function
  | Loss -> "loss"
  | Flap -> "flap"
  | Duplicate -> "duplicate"
  | Delay -> "delay"

type verdict =
  | Pass
  | Drop_it of fault          (* Loss or Flap *)
  | Deliver_copies of float list
      (* extra delay per delivered copy; [0.] is a normal delivery,
         [0.; 0.] a duplicate, [d] a delayed message *)

type plan = now:float -> Message.t -> verdict

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_partition : int;  (* destination unreachable *)
  mutable dropped_fault : int;      (* eaten by the fault plan *)
  mutable duplicated : int;         (* extra copies injected *)
  mutable delayed : int;            (* copies given extra latency *)
  mutable flapped : int;            (* share of dropped_fault due to flaps *)
  mutable bytes : int;
  by_kind : int array;              (* sends per Message.kind_index *)
}

type t = {
  engine : Message.t Dynvote_des.Engine.t;
  latency : Site_set.site -> Site_set.site -> float;
  mutable connected : Site_set.site -> Site_set.site -> bool;
  mutable plan : plan;
  handlers : (t -> Message.t -> unit) array; (* by destination site *)
  on_arrival : Message.t Dynvote_des.Engine.t -> float -> Message.t -> unit;
      (* the engine's handler, built once: [deliver] on this transport *)
  stats : stats;
}

let no_plan : plan = fun ~now:_ _ -> Pass

let no_handler _ _ = ()

(* Deliver only while the endpoints are still connected: a partition that
   forms mid-flight loses the affected messages. *)
let deliver t message =
  if t.connected message.Message.src message.Message.dst then begin
    t.stats.delivered <- t.stats.delivered + 1;
    t.handlers.(message.Message.dst) t message
  end
  else t.stats.dropped_partition <- t.stats.dropped_partition + 1

let create ?(latency = fun _ _ -> 0.001) ?(connected = fun _ _ -> true) () =
  let rec t =
    {
      engine = Dynvote_des.Engine.create ();
      latency;
      connected;
      plan = no_plan;
      handlers = Array.make Site_set.max_sites no_handler;
      on_arrival = (fun _engine _time message -> deliver t message);
      stats =
        {
          sent = 0;
          delivered = 0;
          dropped_partition = 0;
          dropped_fault = 0;
          duplicated = 0;
          delayed = 0;
          flapped = 0;
          bytes = 0;
          by_kind = Array.make (Array.length Message.kind_names) 0;
        };
    }
  in
  t

let set_connectivity t connected = t.connected <- connected

let set_plan t plan = t.plan <- plan
let clear_plan t = t.plan <- no_plan

(* The seed interface — a single drop predicate — is kept as sugar over
   the plan: matching messages are lost. *)
let set_fault t fault =
  t.plan <- (fun ~now:_ message -> if fault message then Drop_it Loss else Pass)

let clear_fault = clear_plan

let register t site handler =
  if site < 0 || site >= Site_set.max_sites then
    invalid_arg "Transport.register: site id out of range";
  t.handlers.(site) <- handler

let now t = Dynvote_des.Engine.now t.engine

let in_flight t = Dynvote_des.Engine.pending t.engine

let send t ~src ~dst payload =
  let message = { Message.src; dst; payload } in
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes <- t.stats.bytes + Message.nominal_size payload;
  let kind = Message.kind_index payload in
  t.stats.by_kind.(kind) <- t.stats.by_kind.(kind) + 1;
  if not (t.connected src dst) then
    t.stats.dropped_partition <- t.stats.dropped_partition + 1
  else
    match t.plan ~now:(now t) message with
    | Pass ->
        Dynvote_des.Engine.schedule_after t.engine ~delay:(t.latency src dst) message
    | Drop_it fault ->
        t.stats.dropped_fault <- t.stats.dropped_fault + 1;
        if fault = Flap then t.stats.flapped <- t.stats.flapped + 1
    | Deliver_copies [] ->
        (* A plan may also express loss as zero deliveries. *)
        t.stats.dropped_fault <- t.stats.dropped_fault + 1
    | Deliver_copies extras ->
        let base = t.latency src dst in
        List.iteri
          (fun i extra ->
            if i > 0 then t.stats.duplicated <- t.stats.duplicated + 1;
            if extra > 0.0 then t.stats.delayed <- t.stats.delayed + 1;
            Dynvote_des.Engine.schedule_after t.engine ~delay:(base +. extra) message)
          extras

let rec broadcast t ~src ~targets payload =
  if not (Site_set.is_empty targets) then begin
    let dst = Site_set.min_elt targets in
    if dst <> src then send t ~src ~dst payload;
    broadcast t ~src ~targets:(Site_set.remove dst targets) payload
  end

(* Deliver every in-flight message (and those they trigger) in timestamp
   order.  Connectivity is rechecked at delivery time, so a partition that
   forms mid-flight loses the affected messages. *)
let run_until_quiet t = Dynvote_des.Engine.drain t.engine ~handler:t.on_arrival

(* Deliver only what arrives within the next [timeout] simulated seconds
   and advance the clock to the deadline.  Later messages stay in flight:
   they may arrive during a subsequent round (stale — the protocol must
   tolerate them) or never be waited for again. *)
let run_for t ~timeout =
  if timeout < 0.0 then invalid_arg "Transport.run_for: negative timeout";
  let deadline = now t +. timeout in
  Dynvote_des.Engine.run t.engine ~until:deadline ~handler:t.on_arrival

let stats t = t.stats

let messages_sent t = t.stats.sent
let messages_delivered t = t.stats.delivered
let messages_dropped t = t.stats.dropped_partition + t.stats.dropped_fault
let messages_dropped_partition t = t.stats.dropped_partition
let messages_dropped_fault t = t.stats.dropped_fault
let bytes_sent t = t.stats.bytes

let kind_count t kind =
  match Array.find_index (String.equal kind) Message.kind_names with
  | Some i -> t.stats.by_kind.(i)
  | None -> 0

let fault_count t fault =
  match fault with
  | Loss -> t.stats.dropped_fault - t.stats.flapped
  | Flap -> t.stats.flapped
  | Duplicate -> t.stats.duplicated
  | Delay -> t.stats.delayed

let reset_stats t =
  t.stats.sent <- 0;
  t.stats.delivered <- 0;
  t.stats.dropped_partition <- 0;
  t.stats.dropped_fault <- 0;
  t.stats.duplicated <- 0;
  t.stats.delayed <- 0;
  t.stats.flapped <- 0;
  t.stats.bytes <- 0;
  Array.fill t.stats.by_kind 0 (Array.length t.stats.by_kind) 0
