(* One thread drives every client through an {!Evloop}; every completed
   call is recorded in its client's journal (no shared state on the hot
   path beyond the metrics registry) and the journals are merged once
   the run ends.  Percentiles are exact — the journals are sorted, not
   binned — and goodput gets a batch-means interval in the style of the
   paper's §4 methodology.

   All timing reads the monotonic {!Dynvote_obs.Clock}: latencies and
   goodput windows must not be corruptible by a wall-clock step. *)

module Welford = Dynvote_stats.Welford
module Batch_means = Dynvote_stats.Batch_means
module Rng = Dynvote_prng.Rng
module Splitmix64 = Dynvote_prng.Splitmix64
module Clock = Dynvote_obs.Clock
module Metrics = Dynvote_obs.Metrics
module Hub = Dynvote_obs.Hub
module Zipf = Dynvote_shard.Zipf

type config = {
  clients : int;
  duration : float;
  write_ratio : float;
  keys : int;
  zipf : float;
  value_bytes : int;
  rate : float option;
  seed : int;
  sites : Site_set.t option;
  retries : int;
}

let default =
  {
    clients = 4;
    duration = 5.0;
    write_ratio = 0.3;
    keys = 16;
    zipf = 0.0;
    value_bytes = 64;
    rate = None;
    seed = 1;
    sites = None;
    retries = 0;
  }

(* One key sampler shared by every client: {!Zipf.sample} is pure, and
   each client feeds it its own RNG stream.  [zipf = 0] through the
   sampler is exactly the uniform draw, but skipping it keeps the
   default hot path allocation-identical to before. *)
let key_sampler config =
  let n = max 1 config.keys in
  if config.zipf > 0.0 then
    let z = Zipf.create ~n ~s:config.zipf in
    fun rng -> Zipf.sample z (Rng.float rng)
  else fun rng -> Rng.int rng n

type op_stats = {
  issued : int;
  granted : int;
  denied : int;
  aborted : int;
  degraded : int;
  retried : int;
  dup_acks : int;
  latency : Welford.t;
  p50 : float;
  p95 : float;
  p99 : float;
}

type hotset = {
  distinct : int;  (** distinct keys at least one call touched *)
  top_share : float;
      (** fraction of all calls that went to the hottest 1% of the key
          space (at least one key); [nan] when nothing completed *)
}

type result = {
  wall : float;
  reads : op_stats;
  writes : op_stats;
  goodput : Batch_means.interval;
  late : int;
  hotset : hotset;
}

(* One completed call: kind, status, completion time, latency, how many
   sites it was retried at, and whether the grant was a dedup ack (the
   write had already committed under an earlier attempt). *)
type sample = {
  s_write : bool;
  s_status : Wire.status;
  s_finish : float;
  s_latency : float;
  s_retries : int;
  s_dup : bool;
  s_key : int;  (* key index drawn, for the hot-set report *)
}

(* The old scheme ([seed * 65599 + index]) made (seed, index) collide
   whenever seed' = seed - k and index' = index + 65599 k: workers of
   different runs replayed each other's streams.  Splitmix64's split
   gives every worker a statistically independent stream, and distinct
   (seed, index) pairs distinct streams. *)
let worker_seeds ~seed ~n =
  let master = Splitmix64.create (Int64.of_int seed) in
  Array.init n (fun _ -> Splitmix64.next_int64 (Splitmix64.split master))

type instruments = {
  i_read_h : Metrics.histogram;
  i_write_h : Metrics.histogram;
  i_issued : Metrics.counter;
  i_granted : Metrics.counter;
  i_retries : Metrics.counter;
  i_dup_acks : Metrics.counter;
  i_fenced : Metrics.counter;
}

let dup_info ~status ~info =
  status = Wire.Granted
  && String.length info >= 9
  && String.sub info 0 9 = "duplicate"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

let stats_of samples =
  let latency = Welford.create () in
  let granted = ref 0 and denied = ref 0 and aborted = ref 0 in
  let degraded = ref 0 and retried = ref 0 and dup_acks = ref 0 in
  List.iter
    (fun s ->
      Welford.add latency s.s_latency;
      retried := !retried + s.s_retries;
      if s.s_dup then incr dup_acks;
      match s.s_status with
      | Wire.Granted -> incr granted
      | Wire.Denied -> incr denied
      | Wire.Aborted -> incr aborted
      | Wire.Degraded -> incr degraded)
    samples;
  let sorted = Array.of_list (List.map (fun s -> s.s_latency) samples) in
  Array.sort compare sorted;
  {
    issued = List.length samples;
    granted = !granted;
    denied = !denied;
    aborted = !aborted;
    degraded = !degraded;
    retried = !retried;
    dup_acks = !dup_acks;
    latency;
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

(* --- the client herd -----------------------------------------------------

   Every client is a nonblocking socket with an {!Evconn} framing layer
   and at most one call out; ten thousand clients are ten thousand
   descriptors, not threads.  A client is closed loop (its next call
   goes out the moment the previous one completes — measures capacity)
   or open loop (Poisson arrivals at rate/clients per client, latency
   measured from the {e intended} start, so queueing delay is charged
   to the service rather than hidden).

   A call completes on a definitive reply, or — answered [Aborted] or
   [Degraded], or unanswered by its deadline — moves to the next up
   site under {!Cluster.retry_site}, with the same request number.  A
   target already down is denied without sending.  Each client holds
   one timer: its next arrival while idle, its call's deadline while a
   call is out. *)

module Timers = Set.Make (struct
  type t = float * int

  let compare (a, i) (b, j) =
    match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

type call = {
  start : float;
  is_write : bool;
  key : int;  (* key index drawn, for the hot-set report *)
  payload : Wire.payload;  (* resent unchanged by a retry *)
  mutable at : Site_set.site;
  mutable tries : int;  (* retries so far *)
}

type client = {
  index : int;
  fd : Unix.file_descr;
  conn : Evconn.t;
  rng : Rng.t;
  mutable id : int;  (* endpoint id; 0 until Welcome *)
  mutable req : int;
  mutable call : call option;
  mutable next_arrival : float;  (* open loop: the intended start *)
  mutable timer : float;  (* [infinity]: none armed *)
  mutable writing : bool;  (* current write-interest registration *)
  mutable finished : bool;
  journal : sample list ref;
}

let herd ~port ~universe ~up ~timeout config ~ins ~sample_key ~t_start ~t_end =
  let targets =
    match config.sites with
    | Some sites -> Array.of_list (Site_set.to_list sites)
    | None -> Array.of_list (Site_set.to_list universe)
  in
  let payload = String.make (max 1 config.value_bytes) 'x' in
  let interarrival =
    Option.map
      (fun rate -> float_of_int config.clients /. Float.max rate 1e-9)
      config.rate
  in
  let seeds = worker_seeds ~seed:config.seed ~n:config.clients in
  let loop = Evloop.create () in
  let by_fd : (Unix.file_descr, client) Hashtbl.t =
    Hashtbl.create (2 * config.clients)
  in
  let clients =
    Array.init config.clients (fun index ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           Unix.setsockopt sock Unix.TCP_NODELAY true
         with e ->
           (try Unix.close sock with Unix.Unix_error _ -> ());
           raise e);
        let conn = Evconn.of_fd sock in
        let c =
          {
            index;
            fd = sock;
            conn;
            rng = Rng.create ~seed:seeds.(index) ();
            id = 0;
            req = 0;
            call = None;
            next_arrival = t_start;
            timer = infinity;
            writing = false;
            finished = false;
            journal = ref [];
          }
        in
        Hashtbl.replace by_fd sock c;
        Evloop.add loop sock ~read:true ~write:false;
        ignore
          (Evconn.enqueue conn
             { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
            : [ `Ok | `Overflow ]);
        c)
  in
  let live = ref (Array.length clients) in
  let timers = ref Timers.empty in
  (* Clients due to issue; served once per loop pass, so a call denied
     without I/O never recurses into the next one. *)
  let ready = Queue.create () in
  let set_timer c at =
    if c.timer < infinity then timers := Timers.remove (c.timer, c.index) !timers;
    c.timer <- at;
    if at < infinity then timers := Timers.add (at, c.index) !timers
  in
  let record c (call : call) ~status ~info =
    let finish = Clock.now () in
    let latency = finish -. call.start in
    let dup = dup_info ~status ~info in
    Metrics.observe (if call.is_write then ins.i_write_h else ins.i_read_h) latency;
    if status = Wire.Granted then Metrics.incr ins.i_granted;
    if status = Wire.Degraded then Metrics.incr ins.i_fenced;
    if dup then Metrics.incr ins.i_dup_acks;
    Metrics.add ins.i_retries call.tries;
    c.journal :=
      {
        s_write = call.is_write;
        s_status = status;
        s_finish = finish;
        s_latency = latency;
        s_retries = call.tries;
        s_dup = dup;
        s_key = call.key;
      }
      :: !(c.journal)
  in
  let finish_client c =
    if not c.finished then begin
      c.finished <- true;
      decr live;
      (match c.call with
      | Some call -> record c call ~status:Wire.Aborted ~info:"connection lost"
      | None -> ());
      c.call <- None;
      set_timer c infinity;
      Evloop.remove loop c.fd;
      Hashtbl.remove by_fd c.fd;
      Evconn.close c.conn
    end
  in
  (* The next call: now (closed loop), or at the next Poisson arrival. *)
  let schedule c =
    match interarrival with
    | None -> if Clock.now () >= t_end then finish_client c else Queue.add c ready
    | Some mean ->
        c.next_arrival <- c.next_arrival +. Rng.exponential c.rng ~mean;
        if c.next_arrival >= t_end then finish_client c
        else if c.next_arrival <= Clock.now () then Queue.add c ready
        else set_timer c c.next_arrival
  in
  let sync_write c =
    match Evconn.flush c.conn with
    | `Closed -> finish_client c
    | `Idle | `Blocked ->
        let want = Evconn.want_write c.conn in
        if want <> c.writing then begin
          c.writing <- want;
          Evloop.modify loop c.fd ~read:true ~write:want
        end
  in
  let complete c call ~status ~info =
    c.call <- None;
    set_timer c infinity;
    record c call ~status ~info;
    schedule c
  in
  let send c call =
    if not (Site_set.mem call.at (up ())) then
      complete c call ~status:Wire.Denied ~info:"site down"
    else
      let env = { Wire.src = c.id; dst = call.at; payload = call.payload } in
      match Evconn.enqueue c.conn env with
      | `Overflow -> finish_client c
      | `Ok ->
          set_timer c (Clock.now () +. timeout);
          sync_write c
  in
  let answer c call ~status ~info =
    match
      Cluster.retry_site ~retries:config.retries ~up:(up ()) ~tries:call.tries
        ~at:call.at status
    with
    | Some at ->
        call.at <- at;
        call.tries <- call.tries + 1;
        send c call
    | None -> complete c call ~status ~info
  in
  let issue c =
    let start =
      match interarrival with None -> Clock.now () | Some _ -> c.next_arrival
    in
    Metrics.incr ins.i_issued;
    c.req <- c.req + 1;
    let at = targets.(Rng.int c.rng (Array.length targets)) in
    let key = sample_key c.rng in
    let is_write = Rng.float c.rng < config.write_ratio in
    let k = Printf.sprintf "k%d" key in
    let payload =
      if is_write then
        let value = Printf.sprintf "%d.%d:%s" c.index c.req payload in
        Wire.Client_put { req = c.req; key = k; value }
      else Wire.Client_get { req = c.req; key = k }
    in
    let call = { start; is_write; key; payload; at; tries = 0 } in
    c.call <- Some call;
    send c call
  in
  let on_frame c (env : Wire.envelope) =
    match (env.Wire.payload, c.call) with
    | Wire.Welcome { id }, _ when c.id = 0 ->
        c.id <- id;
        schedule c
    | Wire.Client_reply { req; status; value = _; info }, Some call
      when req = c.req && env.Wire.src = call.at ->
        answer c call ~status ~info
    | _ -> ()  (* a stale reply from an abandoned attempt *)
  in
  let on_readable c =
    let frames, state = Evconn.on_readable c.conn in
    List.iter
      (fun frame ->
        if not c.finished then
          match frame with Ok env -> on_frame c env | Error _ -> finish_client c)
      frames;
    if state = `Eof then finish_client c
  in
  (* Past the cutoff only calls already out may finish, and none waits
     past its deadline: the run ends by [t_end + timeout]. *)
  let hard_end = t_end +. timeout in
  let cut = ref false in
  Array.iter sync_write clients;
  while !live > 0 && Clock.now () < hard_end do
    let now = Clock.now () in
    if now >= t_end && not !cut then begin
      cut := true;
      Array.iter (fun c -> if c.call = None then finish_client c) clients
    end;
    let rec fire () =
      match Timers.min_elt_opt !timers with
      | Some (at, index) when at <= now -> (
          let c = clients.(index) in
          set_timer c infinity;
          (match c.call with
          | Some call ->
              answer c call ~status:Wire.Aborted ~info:"timeout: no reply"
          | None -> Queue.add c ready);
          fire ())
      | _ -> ()
    in
    fire ();
    for _ = 1 to Queue.length ready do
      let c = Queue.pop ready in
      if not c.finished then issue c
    done;
    let wake =
      if !live = 0 || not (Queue.is_empty ready) then now
      else
        let next = if now < t_end then t_end else hard_end in
        match Timers.min_elt_opt !timers with
        | Some (at, _) -> Float.min at next
        | None -> next
    in
    let events =
      Evloop.wait loop ~timeout:(Float.max 0.0 (wake -. Clock.now ()))
    in
    List.iter
      (fun (ev : Evloop.event) ->
        match Hashtbl.find_opt by_fd ev.Evloop.fd with
        | None -> ()
        | Some c ->
            if ev.Evloop.error then finish_client c
            else begin
              if ev.Evloop.writable then sync_write c;
              if ev.Evloop.readable && not c.finished then on_readable c
            end)
      events
  done;
  Array.iter
    (fun c ->
      (match c.call with
      | Some call ->
          c.call <- None;
          record c call ~status:Wire.Aborted ~info:"timeout: no reply"
      | None -> ());
      finish_client c)
    clients;
  Evloop.close loop;
  Array.map (fun c -> c.journal) clients

let validate config =
  if config.clients < 1 then invalid_arg "Loadgen.run: need at least one client";
  if config.duration <= 0.0 then invalid_arg "Loadgen.run: non-positive duration";
  if (not (Float.is_finite config.zipf)) || config.zipf < 0.0 then
    invalid_arg "Loadgen.run: zipf exponent must be finite and >= 0"

let instruments (hub : Hub.t) =
  {
    i_read_h = Metrics.histogram hub.Hub.metrics "loadgen.read.seconds";
    i_write_h = Metrics.histogram hub.Hub.metrics "loadgen.write.seconds";
    i_issued = Metrics.counter hub.Hub.metrics "loadgen.ops.issued";
    i_granted = Metrics.counter hub.Hub.metrics "loadgen.ops.granted";
    i_retries = Metrics.counter hub.Hub.metrics "loadgen.ops.retries";
    i_dup_acks = Metrics.counter hub.Hub.metrics "loadgen.ops.dup_acks";
    i_fenced = Metrics.counter hub.Hub.metrics "loadgen.ops.fenced";
  }

(* Hot-set coverage: how much of the key space the run actually visited
   and how concentrated the traffic was — the witness that a [--zipf]
   workload skewed and a uniform one spread. *)
let hotset_of config samples =
  let counts = Hashtbl.create 256 in
  let total = ref 0 in
  List.iter
    (fun s ->
      incr total;
      Hashtbl.replace counts s.s_key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.s_key)))
    samples;
  if !total = 0 then { distinct = 0; top_share = nan }
  else begin
    let freqs = Hashtbl.fold (fun _ n acc -> n :: acc) counts [] in
    let sorted = List.sort (fun a b -> compare b a) freqs in
    let top_n = max 1 (max 1 config.keys / 100) in
    let rec take n acc = function
      | f :: rest when n > 0 -> take (n - 1) (acc + f) rest
      | _ -> acc
    in
    {
      distinct = Hashtbl.length counts;
      top_share = float_of_int (take top_n 0 sorted) /. float_of_int !total;
    }
  end

let summarise config ~t_start ~t_end ~wall journals =
  let all = Array.fold_left (fun acc j -> List.rev_append !j acc) [] journals in
  let reads, writes = List.partition (fun s -> not s.s_write) all in
  (* Goodput: granted completions bucketed into ten fixed windows that
     tile exactly [t_start, t_end).  Calls issued before the cutoff but
     completed after it (closed-loop stragglers) must neither stretch
     the last window nor vanish silently: they are excluded from the
     batch means and reported as [late]. *)
  let batches = 10 in
  let batch_length = config.duration /. float_of_int batches in
  let bm = Batch_means.create ~batch_length in
  let granted_finishes =
    List.filter_map
      (fun s -> if s.s_status = Wire.Granted then Some s.s_finish else None)
      all
  in
  let late = List.length (List.filter (fun f -> f >= t_end) granted_finishes) in
  for b = 0 to batches - 1 do
    let lo = t_start +. (float_of_int b *. batch_length) in
    let hi = if b = batches - 1 then t_end else lo +. batch_length in
    let count =
      List.length (List.filter (fun f -> f >= lo && f < hi) granted_finishes)
    in
    Batch_means.add_batch bm (float_of_int count /. batch_length)
  done;
  {
    wall;
    reads = stats_of reads;
    writes = stats_of writes;
    goodput = Batch_means.interval bm;
    late;
    hotset = hotset_of config all;
  }

let drive ~port ~universe ~up ~timeout ~obs config =
  validate config;
  let ins = instruments obs in
  let sample_key = key_sampler config in
  let t_start = Clock.now () in
  let t_end = t_start +. config.duration in
  let journals =
    herd ~port ~universe ~up ~timeout config ~ins ~sample_key ~t_start ~t_end
  in
  let wall = Clock.now () -. t_start in
  summarise config ~t_start ~t_end ~wall journals

let run cluster config =
  drive ~port:(Cluster.port cluster) ~universe:(Cluster.universe cluster)
    ~up:(fun () -> Cluster.up_sites cluster)
    ~timeout:(Cluster.client_timeout cluster) ~obs:(Cluster.obs cluster) config

(* No cluster in hand: every site counts as up (the switchboard drops
   what it cannot deliver, and the deadline catches it), and calls get
   the cluster's default client timeout. *)
let run_at ?(obs = Hub.noop) ~port ~universe config =
  drive ~port ~universe ~up:(fun () -> universe) ~timeout:10.0 ~obs config

let pp_ms ppf seconds =
  if Float.is_nan seconds then Fmt.string ppf "-"
  else Fmt.pf ppf "%.2f ms" (seconds *. 1e3)

let pp_op_stats ppf (name, s) =
  Fmt.pf ppf "%-6s %5d issued  %5d granted  %4d denied  %4d aborted@," name
    s.issued s.granted s.denied s.aborted;
  if s.degraded > 0 || s.retried > 0 || s.dup_acks > 0 then
    Fmt.pf ppf "       %d fenced  %d retries  %d duplicate acks@," s.degraded
      s.retried s.dup_acks;
  if s.issued > 0 then
    Fmt.pf ppf "       mean %a  p50 %a  p95 %a  p99 %a@,"
      pp_ms (Welford.mean s.latency) pp_ms s.p50 pp_ms s.p95 pp_ms s.p99

let pp_result ppf r =
  Fmt.pf ppf "@[<v>";
  pp_op_stats ppf ("reads", r.reads);
  pp_op_stats ppf ("writes", r.writes);
  if r.late > 0 then
    Fmt.pf ppf "late    %d granted after the cutoff (excluded from goodput)@,"
      r.late;
  if r.hotset.distinct > 0 then
    Fmt.pf ppf "keys    %d distinct touched  top-1%%-of-keyspace share %.2f@,"
      r.hotset.distinct r.hotset.top_share;
  let i = r.goodput in
  Fmt.pf ppf "goodput %.1f ops/s  +/- %.1f (95%% CI, %d batches)  over %.2f s@]"
    i.Batch_means.mean i.Batch_means.half_width i.Batch_means.batches r.wall
