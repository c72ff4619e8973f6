(* One live site, as a step machine.  The node owns one switchboard
   connection but no thread: its caller hands it the frames read off that
   connection ({!take}), lets it run ({!settle}: the request queue, the
   coalesced commits, the outbound frames), fires its due deadline
   ({!expire}) and asks when that falls ({!next_deadline}), until it
   {!close}s.  The live caller is {!Site_loop}, which steps every local
   site on one thread.  The node serves the peer protocol, and it
   coordinates client requests the way the paper's coordinator does:
   one operation at a time, taken in arrival order from one FIFO request
   queue.  The running operation is an effect-suspended computation:
   where it would block on the network it performs [Await] and parks —
   at most one continuation is ever parked — while the node keeps taking
   frames, serving peer requests and queueing client requests, until the
   frame it waits for (or its deadline) resumes it.  No two operations
   of one coordinator overlap their rounds.

   An operation is the paper's START/COMMIT exchange: one START frame
   to every peer takes the locks of the operation's objects and brings
   back each peer's ensembles in the same reply, and the COMMIT wave
   releases those locks where it lands.  Among n sites a granted
   operation whose peers all answer costs 3(n-1)+2 frames (START, its
   replies, the COMMIT wave, the client's request and reply) and one
   participant round trip.

   The first [config.pipeline] queued requests are admitted: counted in
   [live.rounds.inflight], traced by [Round_start]/[Round_end] and timed
   from admission.  Pipelining pays through batching, never through
   overlap: a fresh group START covers the objects of every queued
   request, and its anchor lets the requests behind it skip their own
   START.  With the defaults (pipeline = 1, max_reuse = 0) every
   operation runs its own START.  Whether a request is refused — fenced
   or amnesiac site, reserved empty key, RECOVER at [shards > 0] — is
   decided when it starts, so a site fenced while requests wait starts
   no round for them.

   There is one protocol engine: every object is an independently-voted
   (o, v, P) copy set, kept in a bounded {!Shard_map} over the per-site
   {!Shard_store} logs.  With [shards > 0] every client key is its own
   object.  With [shards = 0] the paper's single replicated file is one
   distinguished object ([map_key]) whose value is the whole key -> value
   map: a put is a read-modify-write of that object, and RECOVER applies
   to it.

   Two fast paths pay for the machinery:

   - Lock anchoring: one group START covers every object the queue holds
     and becomes an {e anchor} that later operations on those objects
     join without any lock traffic; the anchor rotates (fresh round
     under a new op id) after [max_reuse] joins or 0.4 x the lock lease,
     keeping well inside the lease at every peer.  An operation keeps
     the anchor only when the next queued request would join it;
     otherwise its COMMIT wave carries the release.
   - Gather reuse: the START's states fill a per-object view cache;
     joined operations decide against it, kept current by our own
     commit waves and invalidated by any inbound commit, a denial, a
     fetch failure, or rotation.  A joined operation whose view is
     missing or denied it re-gathers with the START exchange itself,
     under the anchor's op: the only exchange that brings back peers'
     ensembles.

   Every applied commit appends the object's full state to its shard log
   (one fsync per coalesced batch), and the append-only operation log
   records commits, write intents and client-visible outcomes for the
   {!Dynvote_chaos.Oracle} replay.  Ordering rule: an outcome record
   takes its global sequence number *before* the locks are released and
   the next operation starts, so no later operation that could have
   observed this one's effects can be stamped earlier.  Inbound commit
   frames are coalesced — a run of consecutive commits is applied
   volatile-first and persisted once — which is crash-equivalent to
   applying the prefix that reached disk.

   The fsync is the one step a node does not run itself: a durable
   flush writes its records and stops, the caller runs {!sync} off its
   thread, and {!synced} runs the flush's tail.  Until then the node
   takes no frame — nothing it answers may rest on a commit that is not
   yet durable — though what it queued before the flush may still
   leave, and an operation whose own commit is in that flush parks at
   the end of its COMMIT wave.

   Storage failures never kill the site and never produce a lie: a
   persist that faults mid-way rolls the volatile state back and fences
   the site into degraded (read-only) mode — silent to gathers, refusing
   commits and client coordination — because a site that cannot persist
   must not vote or ack.  Only a restart against repaired storage
   un-fences it. *)

module IMap = Map.Make (Int)
module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Hub = Dynvote_obs.Hub
module Shard_store = Dynvote_shard.Shard_store
module Shard_map = Dynvote_shard.Shard_map

type config = {
  gather_timeout : float;
  backoff : float;
  lock_lease : float;
  lock_retries : int;
  lock_backoff : float;
  durable : bool;
  clock : unit -> float;
  pipeline : int;
  max_reuse : int;
  shards : int;
      (* > 0: every key an independently-voted (o, v, P) object in
         [shards] per-site append logs.  0 — the default — runs the same
         engine over one object holding the whole map. *)
  resident : int;  (* LRU residency cap of the per-key object map *)
}

(* A gather or a data fetch re-asks a silent site once before it gives
   up on it. *)
let retries = 1

let default_config =
  {
    gather_timeout = 0.2;
    backoff = 2.0;
    lock_lease = 2.0;
    lock_retries = 8;
    lock_backoff = 0.05;
    durable = true;
    clock = Dynvote_obs.Clock.now;
    pipeline = 1;
    max_reuse = 0;
    shards = 0;
    resident = 4096;
  }

(* --- request ids ----------------------------------------------------

   A client request is globally identified by (client endpoint id,
   per-client request number), packed into one integer.  Each site
   remembers, per client, the highest request number it has applied a
   write for; a retried request at or below that mark has already
   committed and is acknowledged without re-applying.  The table rides
   in every commit record of the shard logs and travels with every data
   fetch, so dedup memory is exactly as durable — and exactly as
   distributed — as the data it guards. *)

let make_rid ~client ~req = (client lsl 32) lor (req land 0xFFFFFFFF)
let rid_client rid = rid lsr 32
let rid_req rid = rid land 0xFFFFFFFF

let rid_seen rids rid =
  match IMap.find_opt (rid_client rid) rids with
  | Some seen -> rid_req rid <= seen
  | None -> false

let rid_merge rids (client, req) =
  IMap.update client
    (function None -> Some req | Some seen -> Some (max seen req))
    rids

let rid_add rids rid = rid_merge rids (rid_client rid, rid_req rid)
let rid_list rids = IMap.bindings rids

(* --- the distinguished object -----------------------------------------

   At [shards = 0] the whole store is one object: its value is the
   canonical map blob (key-sorted, length-framed), which is also the
   content the safety oracle compares — injective, so distinct stores
   never collide.  A never-written object is the empty map. *)

let map_key = ""

let encode_map bindings =
  let b = Buffer.create 256 in
  Buffer.add_int32_le b (Int32.of_int (List.length bindings));
  List.iter
    (fun (k, v) ->
      if String.length k > 0xffff then invalid_arg "Node: key longer than 65535 bytes";
      Buffer.add_uint16_le b (String.length k);
      Buffer.add_string b k;
      Buffer.add_int32_le b (Int32.of_int (String.length v));
      Buffer.add_string b v)
    (List.sort (fun (a, _) (c, _) -> String.compare a c) bindings);
  Buffer.contents b

let decode_map blob =
  let u32 pos = Int32.to_int (String.get_int32_le blob pos) land 0xFFFFFFFF in
  let rec entries pos n acc =
    if n = 0 then List.rev acc
    else
      let klen = String.get_uint16_le blob pos in
      let key = String.sub blob (pos + 2) klen in
      let vlen = u32 (pos + 2 + klen) in
      let value = String.sub blob (pos + 6 + klen) vlen in
      entries (pos + 6 + klen + vlen) (n - 1) ((key, value) :: acc)
  in
  entries 4 (u32 0) []

(* The oracle content of an object's value: the map blob for the
   distinguished object, and for a keyed object an encoding injective
   over (never written | written v). *)
let content ~key value =
  if key = map_key then Option.value value ~default:(encode_map [])
  else match value with None -> "" | Some v -> "=" ^ v

(* Instrument handles resolved once at boot; every update after that is
   an atomic increment (or nothing, under the noop hub). *)
type counters = {
  c_granted : Metrics.counter;
  c_denied : Metrics.counter;
  c_aborted : Metrics.counter;
  c_lock_rounds : Metrics.counter;
  c_lock_denied : Metrics.counter;
  c_gathers : Metrics.counter;
  c_gather_reused : Metrics.counter;
  c_fetches : Metrics.counter;
  c_fetch_failures : Metrics.counter;
  c_commit_waves : Metrics.counter;
  c_commits_applied : Metrics.counter;
  c_storage_faults : Metrics.counter;
  c_degraded_entered : Metrics.counter;
  c_degraded_refused : Metrics.counter;
  c_dedup_hits : Metrics.counter;
  c_oplog_corrupt : Metrics.counter;
  h_op : Metrics.histogram;
  h_inflight : Metrics.histogram;
  h_commit_batch : Metrics.histogram;
}

let make_counters (hub : Hub.t) =
  let m = hub.Hub.metrics in
  {
    c_granted = Metrics.counter m "live.op.granted";
    c_denied = Metrics.counter m "live.op.denied";
    c_aborted = Metrics.counter m "live.op.aborted";
    c_lock_rounds = Metrics.counter m "live.lock.rounds";
    c_lock_denied = Metrics.counter m "live.lock.denied";
    c_gathers = Metrics.counter m "live.gather.rounds";
    c_gather_reused = Metrics.counter m "live.gather.reused";
    c_fetches = Metrics.counter m "live.fetch.attempts";
    c_fetch_failures = Metrics.counter m "live.fetch.failures";
    c_commit_waves = Metrics.counter m "live.commit.waves";
    c_commits_applied = Metrics.counter m "live.commit.applied";
    c_storage_faults = Metrics.counter m "live.storage.faults";
    c_degraded_entered = Metrics.counter m "live.degraded.entered";
    c_degraded_refused = Metrics.counter m "live.degraded.refused";
    c_dedup_hits = Metrics.counter m "live.dedup.hits";
    c_oplog_corrupt = Metrics.counter m "live.oplog.corrupt";
    h_op = Metrics.histogram m "live.node.op.seconds";
    h_inflight = Metrics.histogram m "live.rounds.inflight";
    h_commit_batch = Metrics.histogram m "live.commit.batch";
  }

(* Shard instruments exist only in sharded mode, so snapshots at
   [shards = 0] stay byte-identical to what they always printed. *)
type kcounters = {
  g_resident : Metrics.gauge;  (* live entries in the object map *)
  g_keys : Metrics.gauge;  (* distinct keys ever committed here *)
  c_materialized : Metrics.counter;
  c_evicted : Metrics.counter;
  h_group : Metrics.histogram;  (* keys per group-quorum round *)
}

let make_kcounters (hub : Hub.t) =
  let m = hub.Hub.metrics in
  {
    g_resident = Metrics.gauge m "live.shard.resident";
    g_keys = Metrics.gauge m "live.shard.keys";
    c_materialized = Metrics.counter m "live.shard.materialized";
    c_evicted = Metrics.counter m "live.shard.evicted";
    h_group = Metrics.histogram m "live.shard.group.batch";
  }

exception Killed

(* The switchboard severed our socket (crash) or went away entirely. *)
exception Dead

(* --- the running operation ---------------------------------------------

   The running operation suspends wherever it waits on the network.
   [Await] parks it until a frame satisfies [match_reply] (resumed with
   [Some _]) or [deadline] passes (resumed with [None]); [wake_on_unlock]
   also resumes it — with [None], as if timed out — when a rival's
   unlock lands, so lock backoff ends the moment the contended lock
   frees. *)

type 'a wait = {
  deadline : float;
  match_reply : Wire.envelope -> 'a option;
  wake_on_unlock : bool;
}

type _ Effect.t += Await : 'a wait -> 'a option Effect.t
type parked = Parked : 'a wait * ('a option, unit) Effect.Deep.continuation -> parked

(* A queued client request.  [admitted] is the clock reading when it
   entered the first [pipeline] of the queue. *)
type request = {
  client : int;
  req : int;
  key : string;
  kind : [ `Read | `Write of string | `Recover ];
  mutable admitted : float;
}

(* A gathered view of one object: (reachable, per-site states, fresh). *)
type view = Site_set.t * Replica.t array * Site_set.t

(* The locks a granted START holds: [op] names the round, [keys] its
   group, and [holders] the peers that may hold them — every peer that
   did not abstain, a silent one included, since its START may have
   landed after its patience ran out.  [owed] counts, per site, the asks
   under [op] whose answer no exchange has heard. *)
type anchor = { op : int; keys : string list; holders : Site_set.t; owed : int array }

(* A peer's answer to a START. *)
type start_answer =
  | Vote of bool * (string * Replica.t) list  (* every lock, and its ensembles *)
  | Voteless  (* amnesiac: every lock, no vote *)
  | Refused  (* a rival holds a lock; it keeps none *)
  | Abstained  (* fenced: no lock, no vote *)

(* A commit flush whose records are written: what its tail needs once
   the fsync has answered.  [applied] is in arrival order, [rollback]
   latest-first; [awaited] marks the flush of the running operation's
   own commit, which parks until the tail has run, and [holds] one
   whose outbound frames wait for it too. *)
type flush = {
  applied : (string * int * int * Site_set.t * int * Shard_store.state) list;
  rollback : (Shard_map.entry * Replica.t * int * string option) list;
  rollback_rids : int IMap.t;
  rollback_fresh : bool;
  rollback_amnesiac : bool;
  pinned : Shard_map.entry list;
  mutable awaited : bool;
  mutable holds : bool;
}

type t = {
  site : Site_set.site;
  universe : Site_set.t;
  n_sites : int;
  ctx : Operation.ctx;
  config : config;
  next_seq : unit -> int;
  conn : Evconn.t;
  oplog : Persist.log;
  store : Shard_store.t;
  objects : Shard_map.t;
  mutable rids : int IMap.t; (* client -> highest applied write req *)
  (* The highest stamp and client id in the oplog at boot: the floors a
     restarted cluster resumes past. *)
  logged_seq : int;
  logged_client : int;
  mutable amnesiac : bool;
  mutable fresh : bool;
  mutable degraded : string option; (* Some reason = fenced read-only *)
  (* One volatile lease per locked object; entries leave the table when
     released, so the table size tracks held locks, not the key space.
     The lease is what frees a lock abandoned by a coordinator that died
     mid-operation. *)
  locks : (string, Lease.t) Hashtbl.t;
  obs : Hub.t;
  ctrs : counters;
  kctrs : kcounters option;
  mutable round : int;
  mutable op_counter : int;
  mutable commit_hook : (sent:int -> total:int -> unit) option;
  (* Scheduler state: the client requests, oldest first (the head is the
     running operation), its parked continuation, the group anchor with
     its per-object view cache, and the inbound commit-coalescing
     buffer. *)
  requests : request Queue.t;
  mutable parked : parked option;
  mutable anchor : anchor option;
  mutable anchor_since : float;
  mutable reuse_count : int;
  gcache : (string, view) Hashtbl.t;
  commit_batch : (string * int * int * Site_set.t * string option * int) Queue.t;
  (* The STARTs whose locks the batched commits release once applied. *)
  mutable releases : int list;
  (* Frames taken and not yet handled, oldest first: they wait here
     while [syncing] holds a flush whose fsync is out. *)
  inbox : Wire.envelope Queue.t;
  mutable syncing : flush option;
}

let sharded t = t.config.shards > 0

(* The object a client key lives in. *)
let object_key t key = if sharded t then key else map_key

(* What a client sees of [key] in its object's value, and the object's
   value after writing [key]. *)
let read_value t key value =
  if sharded t then value
  else Option.bind value (fun blob -> List.assoc_opt key (decode_map blob))

let written_value t key v value =
  if sharded t then v
  else
    let bindings = match value with Some blob -> decode_map blob | None -> [] in
    encode_map ((key, v) :: List.remove_assoc key bindings)

let site t = t.site
let is_amnesiac t = t.amnesiac
let degraded t = t.degraded

let max_seq t = t.logged_seq

let max_client t =
  match IMap.max_binding_opt t.rids with
  | Some (client, _) -> max client t.logged_client
  | None -> t.logged_client

let set_commit_hook t hook = t.commit_hook <- hook

let degrade t reason =
  if t.degraded = None then begin
    t.degraded <- Some reason;
    Metrics.incr t.ctrs.c_degraded_entered;
    Hub.event t.obs (Trace.Degraded { site = t.site; reason })
  end

(* Run one stable-storage action, converting its failure modes: an
   injected crash point dies like the process it models, every other
   fault comes back as [Error] for the caller to fence on. *)
let storage t f =
  try Ok (f ()) with
  | Vfs.Crash_point _ -> raise Killed
  | Vfs.Fault { op; path; reason } ->
      Metrics.incr t.ctrs.c_storage_faults;
      Hub.event t.obs (Trace.Storage_fault { site = t.site; op; path });
      Error reason
  | Sys_error reason ->
      Metrics.incr t.ctrs.c_storage_faults;
      Hub.event t.obs (Trace.Storage_fault { site = t.site; op = "io"; path = "" });
      Error reason

let plural n = if n = 1 then "" else "s"

let shard_count config = max 1 config.shards

(* The one fsync of a site's shard logs.  A syncer thread runs it
   through {!sync}, off the site loop; the seed below runs it before the
   site first boots. *)
let sync_store store = Shard_store.fsync store

(* A new site's stable record: the one object's initial state (every
   copy current, one partition), durable before the site first boots.
   It marks the store as the site's own at every [shards] setting. *)
let seed ~dir ~site ~universe ~config =
  let store, _ = Shard_store.open_store ~dir ~site ~shards:(shard_count config) () in
  Fun.protect ~finally:(fun () -> Shard_store.close store) (fun () ->
      Shard_store.commit store ~key:map_key ~rid:0
        {
          Shard_store.op_no = 1;
          version = 1;
          partition = universe;
          data_version = 1;
          value = None;
        };
      sync_store store)

(* Dial the switchboard on [port] and register as [site]. *)
let connect ~site ~config ~port =
  (* Outbound frames queue on the connection and leave in one write per
     scheduler burst, so a peer receives a whole burst's commits in one
     wakeup and coalesces their persists.  The queue is unbounded: the
     node drains it before it sleeps, and its own backlog must never
     sever it. *)
  let conn = Evconn.dial ~max_queue:max_int ~port () in
  match
    Evconn.handshake ~clock:config.clock conn
      { Wire.src = site; dst = Wire.broker_id; payload = Wire.Hello_site { site } }
  with
  | Some _ -> conn
  | None -> failwith (Printf.sprintf "live node %d: switchboard handshake failed" site)

let boot ~site ~universe ~flavor ~segment_of ~config ~obs ~dir ?(vfs = Vfs.real)
    ~next_seq ~port ~was_restarted () =
  ignore (Persist.ensure_site_dir ~dir site : string);
  let n_sites = Site_set.max_elt universe + 1 in
  let ctx = Operation.make_ctx ~flavor ~segment_of (Ordering.default n_sites) in
  let ctrs = make_counters obs in
  let store, scan =
    Shard_store.open_store ~vfs ~durable:config.durable ~dir ~site
      ~shards:(shard_count config) ()
  in
  (* A site whose seed record is gone, or whose shard log exists but
     cannot be read, lost its history, not an empty one: the
     lazy-initial rule would let it claim (1, 1, all) for objects it has
     voted on, so it boots amnesiac — and stays so across reboots, since
     nothing but a commit writes the record back. *)
  let amnesiac =
    scan.Shard_store.unreadable > 0 || Shard_store.lookup store map_key = None
  in
  let kctrs = if config.shards > 0 then Some (make_kcounters obs) else None in
  let objects =
    match kctrs with
    | Some k ->
        Metrics.set_gauge k.g_keys (float_of_int (Shard_store.key_count store));
        Shard_map.create
          ~on_materialize:(fun () -> Metrics.incr k.c_materialized)
          ~on_evict:(fun () -> Metrics.incr k.c_evicted)
          ~store ~resident:config.resident ~universe ()
    | None -> Shard_map.create ~store ~resident:config.resident ~universe ()
  in
  (* A checksum-failing record in the *middle* of a log — intact records
     after it — is damage no crash explains; the history has a hole and
     this site must not present itself as a witness.  A purely torn tail
     (honest crash damage) is cut off by the scan before the log is
     reopened for append; a corrupt log is left untouched as evidence.
     The same scan folds the highest stamp and request id the log holds,
     without building its records. *)
  let oplog_scan, oplog, conn =
    try
      let oplog_scan =
        Persist.scan_floors ~vfs ~cut_torn_tail:true ~path:(Persist.oplog_path ~dir site) ()
      in
      let oplog = Persist.open_log ~vfs ~path:(Persist.oplog_path ~dir site) () in
      ( oplog_scan,
        oplog,
        try connect ~site ~config ~port
        with e ->
          (try Persist.close_log oplog with Sys_error _ -> ());
          raise e )
    with e ->
      (* A boot that fails leaves nothing open behind it. *)
      Shard_store.close store;
      raise e
  in
  let logged_seq, logged_rid = oplog_scan.Codec.folded in
  let degraded =
    let oplog_corrupt = oplog_scan.Codec.corrupt
    and shard_corrupt = scan.Shard_store.corrupt in
    if oplog_corrupt > 0 then begin
      Metrics.add ctrs.c_oplog_corrupt oplog_corrupt;
      Some
        (Printf.sprintf "oplog corrupt mid-log (%d record%s)" oplog_corrupt
           (plural oplog_corrupt))
    end
    else if shard_corrupt > 0 then begin
      Metrics.add ctrs.c_oplog_corrupt shard_corrupt;
      Some
        (Printf.sprintf "shard log corrupt mid-log (%d record%s)" shard_corrupt
           (plural shard_corrupt))
    end
    else None
  in
  let t =
    {
      site;
      universe;
      n_sites;
      ctx;
      config;
      next_seq;
      conn;
      oplog;
      store;
      objects;
      rids = List.fold_left rid_merge IMap.empty scan.Shard_store.rids;
      logged_seq;
      (* A client id is its request ids' high bits, so the highest
         request id names the highest client. *)
      logged_client = rid_client logged_rid;
      amnesiac;
      fresh = (not was_restarted) && not amnesiac;
      degraded = None;
      locks = Hashtbl.create 64;
      obs;
      ctrs;
      kctrs;
      round = 0;
      op_counter = 0;
      commit_hook = None;
      requests = Queue.create ();
      parked = None;
      anchor = None;
      anchor_since = neg_infinity;
      reuse_count = 0;
      gcache = Hashtbl.create 256;
      commit_batch = Queue.create ();
      releases = [];
      inbox = Queue.create ();
      syncing = None;
    }
  in
  (match degraded with Some reason -> degrade t reason | None -> ());
  t

(* Queue a frame; it leaves with the rest of the burst when the node
   settles.  Only a connection the peer already closed refuses it. *)
let send_to t dst payload =
  match Evconn.enqueue t.conn { Wire.src = t.site; dst; payload } with
  | `Ok -> ()
  | `Overflow -> raise Dead

(* Push every queued frame out before returning — only the strike point
   of a commit wave needs this.  The broker side never blocks (its
   connections are nonblocking queues), so a blocking drain here always
   completes. *)
let drain t = if Evconn.drain t.conn = `Closed then raise Dead

(* Log or fence: a record that cannot reach the oplog leaves a hole in
   the history this site would later present — better to stop presenting
   it. *)
let log t record =
  match storage t (fun () -> Persist.append t.oplog record) with
  | Ok () -> ()
  | Error reason -> degrade t ("oplog append failed: " ^ reason)

let log_outcome t ~key ~kind ~granted ~content ~rid =
  log t
    (Persist.Log_koutcome
       { seq = t.next_seq (); key; kind; granted; content; rid })

let lease t key =
  match Hashtbl.find_opt t.locks key with
  | Some l -> l
  | None ->
      let l = Lease.create () in
      Hashtbl.add t.locks key l;
      l

let try_lock t key op =
  Lease.try_acquire (lease t key) ~now:(t.config.clock ())
    ~lease:t.config.lock_lease ~op

let release_lock t key op =
  match Hashtbl.find_opt t.locks key with
  | None -> ()
  | Some l ->
      Lease.release l ~op;
      (* Freed objects leave the table: it sizes with held locks, not
         with the key space. *)
      if Lease.holder l ~now:(t.config.clock ()) = None then
        Hashtbl.remove t.locks key

(* Drop every lock [op] holds here — a releasing COMMIT names the START,
   not its keys — and every lapsed lease met on the way. *)
let release_op t op =
  let now = t.config.clock () in
  Hashtbl.filter_map_inplace
    (fun _ l ->
      Lease.release l ~op;
      if Lease.holder l ~now = None then None else Some l)
    t.locks

(* All-or-nothing over a group: any object already held by a rival
   refuses the round and releases what this round acquired, so rival
   groups cannot deadlock. *)
let try_lock_all t keys op =
  let acquired = ref [] in
  let ok =
    List.for_all
      (fun key ->
        try_lock t key op
        && begin
             acquired := key :: !acquired;
             true
           end)
      keys
  in
  if not ok then List.iter (fun key -> release_lock t key op) !acquired;
  ok

let refresh_kgauges t =
  match t.kctrs with
  | Some k ->
      Metrics.set_gauge k.g_resident (float_of_int (Shard_map.resident t.objects));
      Metrics.set_gauge k.g_keys (float_of_int (Shard_store.key_count t.store))
  | None -> ()

(* Resume the parked operation with [None], as if timed out, when [due]
   holds of its deadline and its wake-on-unlock flag. *)
let wake t due =
  match t.parked with
  | Some (Parked (w, k)) when due w.deadline w.wake_on_unlock ->
      t.parked <- None;
      Effect.Deep.continue k None
  | Some _ | None -> ()

(* Park the running operation until [deadline] for a frame satisfying
   [match_reply]; the node keeps taking frames meanwhile.  This is the
   one suspension point. *)
let await ?(wake_on_unlock = false) ~deadline ~match_reply () =
  Effect.perform (Await { deadline; match_reply; wake_on_unlock })

(* The locks the applied commits release, freed, and a rival backing
   off woken, as an unlock does. *)
let release_batch t =
  if t.releases <> [] then begin
    List.iter (release_op t) t.releases;
    t.releases <- [];
    wake t (fun _ on_unlock -> on_unlock)
  end

(* The tail of a flush, once its records are on disk (or failed to get
   there): log each applied commit in arrival order, or roll the
   volatile entries back and fence. *)
let finish_flush t f result =
  (match result with
  | Ok () ->
      if f.applied <> [] then
        Metrics.observe t.ctrs.h_commit_batch (float_of_int (List.length f.applied));
      List.iter
        (fun (key, op_no, version, partition, rid, _) ->
          Metrics.incr t.ctrs.c_commits_applied;
          log t
            (Persist.Log_kcommit
               { seq = t.next_seq (); key; op_no; version; partition; rid }))
        f.applied
  | Error reason ->
      (* [rollback] is latest-first, so an entry committed twice in this
         batch ends restored to its oldest prior state. *)
      List.iter
        (fun (e, replica, data_version, value) ->
          Shard_map.set_replica e replica;
          Shard_map.set_data_version e data_version;
          Shard_map.set_value e value)
        f.rollback;
      t.rids <- f.rollback_rids;
      t.fresh <- f.rollback_fresh;
      t.amnesiac <- f.rollback_amnesiac;
      degrade t ("persist failed: " ^ reason));
  List.iter Shard_map.unpin f.pinned;
  refresh_kgauges t

(* Monotone install, as in the paper's COMMIT: stale or duplicated
   commits can never regress an object.  Every applicable commit of the
   batch installs volatile-first into its entry, then all their records
   append in one sweep with ONE fsync, then each logs in arrival order —
   so the log never claims a commit the disk does not hold, and a crash
   before the fsync under-reports the whole run.  A fault rolls the
   volatile entries back and fences: acking a commit we could not
   persist would make our next vote a lie.  Records that already reached
   disk stay — disk ahead of volatile is forward progress, and the
   monotone install re-derives it on restart.  Entries are pinned for the
   duration so a later materialization in the same batch cannot evict
   one we hold a rollback reference to.  At [shards = 0] an applied
   commit of the one object also ends amnesia: an amnesiac site
   abstains from every gather, so the only commit it can receive is its
   own RECOVER's.  A releasing commit frees its START's locks only after
   the batch is applied, and wakes a rival backing off, as an unlock
   does.  A durable batch stops once its records are written: it waits
   in [syncing] for {!synced}, which runs the rest. *)
let flush_commits t =
  if not (Queue.is_empty t.commit_batch) then begin
    let rollback = ref [] in
    let rollback_rids = t.rids
    and rollback_fresh = t.fresh
    and rollback_amnesiac = t.amnesiac in
    let pinned = ref [] in
    let applied = ref [] in
    while not (Queue.is_empty t.commit_batch) do
      let key, op_no, version, partition, value, rid = Queue.pop t.commit_batch in
      if t.degraded <> None then Metrics.incr t.ctrs.c_degraded_refused
      else begin
        let e = Shard_map.find t.objects key in
        if op_no > Replica.op_no (Shard_map.replica e) then begin
          Shard_map.pin e;
          pinned := e :: !pinned;
          rollback :=
            (e, Shard_map.replica e, Shard_map.data_version e, Shard_map.value e)
            :: !rollback;
          Shard_map.set_replica e
            (Replica.with_commit (Shard_map.replica e) ~op_no ~version ~partition);
          (match value with
          | Some v ->
              Shard_map.set_value e (Some v);
              Shard_map.set_data_version e version;
              if rid <> 0 then t.rids <- rid_add t.rids rid
          | None -> ());
          t.fresh <- true;
          if not (sharded t) then t.amnesiac <- false;
          applied :=
            (key, op_no, version, partition, rid, Shard_map.state_of e)
            :: !applied
        end
      end
    done;
    let f =
      {
        applied = List.rev !applied;
        rollback = !rollback;
        rollback_rids;
        rollback_fresh;
        rollback_amnesiac;
        pinned = !pinned;
        awaited = false;
        holds = false;
      }
    in
    match f.applied with
    | [] -> finish_flush t f (Ok ())
    | applied -> (
        match
          storage t (fun () ->
              List.iter
                (fun (key, _, _, _, rid, st) -> Shard_store.commit t.store ~key ~rid st)
                applied)
        with
        | Ok () when t.config.durable -> t.syncing <- Some f
        | result -> finish_flush t f result)
  end;
  if t.syncing = None then release_batch t

(* Direct apply (our own share of a commit wave): a one-element batch
   through the same discipline.  A durable one is the operation's: its
   fsync runs while the wave goes on, and the wave waits for it at its
   end ({!commit_wave}). *)
let apply_commit t ~key ~op_no ~version ~partition ~value ~rid =
  Queue.add (key, op_no, version, partition, value, rid) t.commit_batch;
  flush_commits t;
  Option.iter (fun f -> f.awaited <- true) t.syncing

(* --- the request queue -----------------------------------------------

   Client requests wait in one FIFO; the head is the running operation.
   The first [pipeline] of them are admitted — in flight, as the
   [live.rounds.inflight] histogram, the Round_start/Round_end trace
   events and the [live.node.op.seconds] timer count them — and a
   request enters that window on arrival or when the one ahead of the
   window retires. *)

let window t = max 1 t.config.pipeline
let in_flight t = min (window t) (Queue.length t.requests)
let request_id r = make_rid ~client:r.client ~req:r.req

let admit t r =
  r.admitted <- t.config.clock ();
  Hub.event t.obs
    (Trace.Round_start { site = t.site; op = request_id r; in_flight = in_flight t });
  Metrics.observe t.ctrs.h_inflight (float_of_int (in_flight t))

let enqueue t ~client ~req ~key kind =
  let r = { client; req; key; kind; admitted = nan } in
  Queue.add r t.requests;
  if Queue.length t.requests <= window t then admit t r

(* The head replied, or its site is dying — its coordination time
   counts either way — and it leaves the queue. *)
let retire t r =
  Metrics.observe t.ctrs.h_op (t.config.clock () -. r.admitted);
  Hub.event t.obs
    (Trace.Round_end { site = t.site; op = request_id r; in_flight = in_flight t });
  ignore (Queue.pop t.requests : request)

(* The head left: the request that moved into the window is admitted. *)
let admit_next t =
  match Seq.uncons (Seq.drop (window t - 1) (Queue.to_seq t.requests)) with
  | Some (r, _) -> admit t r
  | None -> ()

(* Offer a frame to the parked operation; it resumes if the frame is
   what it waits for.  It is unhooked first, so parking again inside
   [continue] files a fresh wait. *)
let deliver t env =
  match t.parked with
  | Some (Parked (w, k)) -> (
      match w.match_reply env with
      | Some _ as hit ->
          t.parked <- None;
          Effect.Deep.continue k hit;
          true
      | None -> false)
  | None -> false

(* This site's ensemble of every object in [keys].  An object it never
   committed reports the paper's initial state — the
   lazy-materialization rule, sound because a non-amnesiac site that had
   seen the object would have it in its shard logs. *)
let states t keys =
  List.map (fun key -> (key, Shard_map.replica (Shard_map.find t.objects key))) keys

(* Serve one frame of the peer protocol, or queue a client request.

   A degraded site answers nothing that could count as a vote: STARTs
   get an explicit abstention (to the coordinator it looks down, so new
   partitions form without it), commits are refused.  Data requests are
   still served — they are read-only, and the fetcher verifies the
   version before installing. *)
let serve_protocol t (env : Wire.envelope) =
  match env.Wire.payload with
  | Wire.KStart { op; keys } ->
      (* All the group's locks or none.  An amnesiac site takes them but
         must not vote — a guessed ensemble could be counted — so it
         answers with a voteless grant; a fenced one takes none. *)
      send_to t env.Wire.src
        (if t.degraded <> None then Wire.Abstain { round = op }
         else if not (try_lock_all t keys op) then Wire.Lock_reply { op; granted = false }
         else if t.amnesiac then Wire.Lock_reply { op; granted = true }
         else Wire.KStart_reply { op; fresh = t.fresh; states = states t keys })
  | Wire.KUnlock { op; keys } ->
      List.iter (fun key -> release_lock t key op) keys;
      (* A rival freed its locks: an operation backing off a denied lock
         round should retry now rather than sleep out its deadline. *)
      wake t (fun _ on_unlock -> on_unlock)
  | Wire.KData_request { round; key } ->
      let entry = Shard_map.find t.objects key in
      send_to t env.Wire.src
        (Wire.KData_reply
           {
             round;
             key;
             version = Shard_map.data_version entry;
             value = Shard_map.value entry;
             rids = rid_list t.rids;
           })
  | Wire.Client_get { req; key } -> enqueue t ~client:env.Wire.src ~req ~key `Read
  | Wire.Client_put { req; key; value } ->
      enqueue t ~client:env.Wire.src ~req ~key (`Write value)
  | Wire.Client_recover { req } ->
      enqueue t ~client:env.Wire.src ~req ~key:map_key `Recover
  | Wire.Hello_site _ | Wire.Hello_client | Wire.Welcome _ | Wire.Lock_reply _
  | Wire.Client_reply _ | Wire.Abstain _ | Wire.KStart_reply _ | Wire.KData_reply _
  | Wire.KCommit_op _ ->
      (* Stray replies of a finished or abandoned exchange.  (Commits
         never get here: {!pump} coalesces them.) *)
      ()

let peers t = Site_set.remove t.site t.universe

let reply_client t ~client ~req status value info =
  (match status with
  | Wire.Granted -> Metrics.incr t.ctrs.c_granted
  | Wire.Denied -> Metrics.incr t.ctrs.c_denied
  | Wire.Aborted -> Metrics.incr t.ctrs.c_aborted
  | Wire.Degraded -> Metrics.incr t.ctrs.c_degraded_refused);
  send_to t client (Wire.Client_reply { req; status; value; info })

let denial_text denial = Fmt.str "%a" Decision.pp_denial denial

(* --- group quorum rounds ---------------------------------------------

   One START covers every object the queue holds: the group is the
   running operation's object plus the objects of every request behind
   it.  Operations behind the acquirer then join the anchor — a local
   lease refresh, zero wire traffic — and decide against the cached
   per-object view. *)

let group_cap = 128

(* A request refused for what it asks, whatever the site's state: the
   empty key names the one object of [shards = 0], and keeping it out of
   the keyed space keeps the audit's routing unambiguous; per-key
   membership never shrinks below the universe, so RECOVER has nothing
   to do there (a rebooted site either kept its shards and just rejoins,
   or lost them and split-brain forbids vouching it back in). *)
let refusal t r =
  if sharded t && r.key = map_key then
    Some
      (if r.kind = `Recover then "recover: unsupported for the sharded object space"
       else "empty key: reserved")
  else None

let build_group t =
  let seen = Hashtbl.create 16 in
  let group = ref [] in
  Queue.iter
    (fun r ->
      let k = object_key t r.key in
      if
        refusal t r = None
        && Hashtbl.length seen < group_cap
        && not (Hashtbl.mem seen k)
      then begin
        Hashtbl.add seen k ();
        group := k :: !group
      end)
    t.requests;
  List.rev !group

(* One START exchange under [op]: a KStart for [keys] to every peer in
   [dsts], each answer kept by peer.  The peers still silent when the
   patience runs out are asked again, [retries] times, the patience
   multiplied by [backoff] each time; a peer silent to the end is simply
   unreachable.  Only the peers in [dsts] are heard, and every ask and
   every answer heard moves the peer's [owed] count. *)
let start_exchange t ~op ~owed ~dsts keys =
  let answers = Hashtbl.create 8 in
  let want = Site_set.cardinal dsts in
  let rec attempt n patience =
    if Hashtbl.length answers < want then begin
      Site_set.iter
        (fun dst ->
          if not (Hashtbl.mem answers dst) then begin
            owed.(dst) <- owed.(dst) + 1;
            send_to t dst (Wire.KStart { op; keys })
          end)
        dsts;
      let deadline = t.config.clock () +. patience in
      let rec collect () =
        if Hashtbl.length answers < want then
          match
            await ~deadline
              ~match_reply:(fun env ->
                let src = env.Wire.src in
                if not (Wire.is_site src && Site_set.mem src dsts) then None
                else
                  match env.Wire.payload with
                  | Wire.KStart_reply { op = o; fresh; states } when o = op ->
                      Some (src, Vote (fresh, states))
                  | Wire.Lock_reply { op = o; granted } when o = op ->
                      Some (src, if granted then Voteless else Refused)
                  | Wire.Abstain { round } when round = op -> Some (src, Abstained)
                  | _ -> None)
              ()
          with
          | Some (src, a) ->
              owed.(src) <- owed.(src) - 1;
              Hashtbl.replace answers src a;
              collect ()
          | None -> ()
      in
      collect ();
      if n < retries then attempt (n + 1) (patience *. t.config.backoff)
    end
  in
  attempt 0 t.config.gather_timeout;
  answers

(* The per-object views one START exchange leaves in the cache: a peer
   counts with the freshness claim and ensembles of its vote, and a peer
   without one — silent, refusing, abstaining or voteless — is
   unreachable. *)
let record_views t ~round keys answers =
  let self = if t.amnesiac then Site_set.empty else Site_set.singleton t.site in
  let self_fresh = if t.fresh && not t.amnesiac then self else Site_set.empty in
  let reachable, fresh =
    Hashtbl.fold
      (fun src answer (reach, fr) ->
        match answer with
        | Vote (fresh_claim, _) ->
            (Site_set.add src reach, if fresh_claim then Site_set.add src fr else fr)
        | Voteless | Refused | Abstained -> (reach, fr))
      answers (self, self_fresh)
  in
  List.iter
    (fun key ->
      let states =
        Array.make t.n_sites (Shard_map.replica (Shard_map.find t.objects key))
      in
      Hashtbl.iter
        (fun src answer ->
          match answer with
          | Vote (_, kstates) -> (
              match List.assoc_opt key kstates with
              | Some replica -> states.(src) <- replica
              | None -> ())
          | Voteless | Refused | Abstained -> ())
        answers;
      Hashtbl.replace t.gcache key (reachable, states, fresh))
    keys;
  Metrics.incr t.ctrs.c_gathers;
  Hub.event t.obs
    (Trace.Gather
       {
         site = t.site;
         round;
         reachable = Site_set.cardinal reachable;
         fresh = Site_set.cardinal fresh;
       })

(* Release [anchor]'s locks: a KUnlock to every peer that may hold one,
   and our own. *)
let unlock t { op; keys; holders; _ } =
  Site_set.iter (fun dst -> send_to t dst (Wire.KUnlock { op; keys })) holders;
  List.iter (fun key -> release_lock t key op) keys

(* START: local leases for every object of the group, then one KStart to
   every peer, which locks and gathers at once under the bounded
   patience and one re-ask of the msgsim Deadline model.  Each attempt
   takes a fresh op id, so a late answer to an earlier attempt never
   counts for a later one.  Any refusal denies the round and releases
   every lock it may have left, so two rivals cannot deadlock; they just
   retry.  A granted round fills the view cache from the answers that
   carry ensembles: a state counts only from a peer that holds the lock.
   Freshness is distributed here: each vote carries the replier's own
   claim. *)
let start_round t keys =
  t.op_counter <- t.op_counter + 1;
  let op = (t.site lsl 24) lor (t.op_counter land 0xFFFFFF) in
  Metrics.incr t.ctrs.c_lock_rounds;
  Hub.event t.obs (Trace.Lock_round_start { site = t.site; op });
  let denied () =
    Metrics.incr t.ctrs.c_lock_denied;
    Hub.event t.obs (Trace.Lock_denied { site = t.site; op });
    None
  in
  if not (try_lock_all t keys op) then denied ()
  else begin
    let owed = Array.make t.n_sites 0 in
    let answers = start_exchange t ~op ~owed ~dsts:(peers t) keys in
    let holders, refusers =
      Hashtbl.fold
        (fun src answer (holders, refusers) ->
          match answer with
          | Vote _ | Voteless -> (holders, refusers)
          | Refused -> (Site_set.remove src holders, Site_set.add src refusers)
          | Abstained -> (Site_set.remove src holders, refusers))
        answers (peers t, Site_set.empty)
    in
    let anchor = { op; keys; holders; owed } in
    if not (Site_set.is_empty refusers) then begin
      (* A refuser holds none of our locks, but its unlock wakes the
         rival coordinating there if it is backing off from us. *)
      unlock t { anchor with holders = Site_set.union holders refusers };
      denied ()
    end
    else begin
      Hashtbl.reset t.gcache;
      record_views t ~round:op keys answers;
      Some anchor
    end
  end

(* A joined operation's fresh look at its object, when the cached view
   is missing or denied it: the START exchange again, under the anchor's
   op and for that one object, where a holder only refreshes its lease.
   It asks the anchor's holders alone, so it never takes a lock the
   anchor's release would miss (a peer that abstained at the START and
   has restarted since, say); and of those only the ones that owe no
   earlier answer under the op, since such an answer, arriving now, may
   predate the anchor's own commits.  A peer whose late answer went by
   as a stray stays out until the anchor rotates: unreachable, never
   misread. *)
let regather t anchor key =
  let dsts = Site_set.filter (fun p -> anchor.owed.(p) = 0) anchor.holders in
  record_views t ~round:anchor.op [ key ]
    (start_exchange t ~op:anchor.op ~owed:anchor.owed ~dsts [ key ])

(* Verified data fetch: ask the up-to-date sites in turn until a copy of
   at least [want_version] lands.  The install replaces the local value —
   local data may be the residue of an uncommitted write (or amnesiac
   garbage) whatever its version number says — and merges the
   applied-request table, which is made durable immediately (the rids
   sidecar): committing a read after the merge and then crashing must
   not forget which writes were already applied, or a client retry would
   re-apply one. *)
let fetch t ~key ~entry ~sources ~want_version =
  let sources = Site_set.to_list sources in
  let n_sources = List.length sources in
  let attempts = max retries (n_sources - 1) in
  let rec attempt n patience =
    if n > attempts then false
    else begin
      let src = List.nth sources (n mod n_sources) in
      t.round <- t.round + 1;
      let round = t.round in
      Metrics.incr t.ctrs.c_fetches;
      send_to t src (Wire.KData_request { round; key });
      let deadline = t.config.clock () +. patience in
      match
        await ~deadline
          ~match_reply:(fun env ->
            match env.Wire.payload with
            | Wire.KData_reply { round = r; key = k; version; value; rids }
              when r = round && k = key ->
                Some (version, value, rids)
            | _ -> None)
          ()
      with
      | Some (version, value, rids) when version >= want_version -> (
          Shard_map.set_value entry value;
          Shard_map.set_data_version entry version;
          t.rids <- List.fold_left rid_merge t.rids rids;
          match
            storage t (fun () ->
                Shard_store.save_rids ~fsync:t.config.durable t.store rids)
          with
          | Ok () ->
              Hub.event t.obs
                (Trace.Data_fetch { site = t.site; source = src; ok = true });
              true
          | Error reason ->
              degrade t ("rid sidecar persist failed: " ^ reason);
              false)
      | Some _ | None ->
          Metrics.incr t.ctrs.c_fetch_failures;
          Hub.event t.obs
            (Trace.Data_fetch { site = t.site; source = src; ok = false });
          attempt (n + 1) (patience *. t.config.backoff)
    end
  in
  attempt 0 t.config.gather_timeout

(* The COMMIT wave, under the anchor's [op].  The coordinator applies its
   own share through the same monotone install as everyone else; with
   [release] every other recipient drops the anchor's locks once it has
   applied the commit.  A durable share's fsync runs beside the rest of
   the wave, which parks at its end until that fsync has answered and
   the flush's tail has run: nothing the operation does after the wave
   — the outcome record, the reply — precedes its own commit's
   durability.  A releasing wave leaves while the fsync runs, so the
   participants sync it beside ours and are ready for the next
   operation's START; a wave that keeps the anchor waits for the fsync
   and leaves with the next operation's frames, since that operation
   asks the participants nothing and their fsyncs would only contend
   with ours — batched, each participant syncs several commits at
   once.  The hook between sends is the crash point —
   {!Killed} unwinds the whole site, leaving the prefix of recipients
   that already heard the commit, held locks to expire by lease, and no
   outcome record: exactly a coordinator dead mid-wave. *)
let commit_wave t ~op ~release ~recipients ~key ~op_no ~version ~partition ~value ~rid =
  let total = Site_set.cardinal recipients in
  Metrics.incr t.ctrs.c_commit_waves;
  Hub.event t.obs
    (Trace.Commit_wave { site = t.site; op_no; recipients = total });
  let sent = ref 0 in
  Site_set.iter
    (fun dst ->
      if dst = t.site then
        apply_commit t ~key ~op_no ~version ~partition ~value ~rid
      else
        send_to t dst
          (Wire.KCommit_op { op; release; key; op_no; version; partition; value; rid });
      incr sent;
      match t.commit_hook with
      | Some hook ->
          (* The strike point models "died between two sends": frames
             already sent must genuinely be on the wire when it fires. *)
          drain t;
          hook ~sent:!sent ~total
      | None -> ())
    recipients;
  match t.syncing with
  | Some f when f.awaited ->
      f.holds <- not release;
      ignore (await ~deadline:infinity ~match_reply:(fun _ -> None) () : unit option)
  | Some _ | None -> ()

(* Our own commit wave advances the cached view in place of a fresh
   gather: every recipient now holds the committed ensemble and is
   fresh. *)
let note_commit t ~key ~recipients ~op_no ~version ~partition =
  match Hashtbl.find_opt t.gcache key with
  | Some (reachable, states, fresh) ->
      Site_set.iter
        (fun s ->
          states.(s) <- Replica.with_commit states.(s) ~op_no ~version ~partition)
        recipients;
      Hashtbl.replace t.gcache key
        (reachable, states, Site_set.union fresh recipients)
  | None -> ()

(* --- lock anchor ----------------------------------------------------- *)

let release_anchor t =
  match t.anchor with
  | Some anchor ->
      unlock t anchor;
      t.anchor <- None;
      Hashtbl.reset t.gcache
  | None -> ()

(* An anchor rotates — a fresh round under a new op id — after
   [max_reuse] joins, at 0.4 x the lease's age (well inside the lease at
   every peer), and always for RECOVER (membership changes deserve a
   fresh round). *)
let rotation_due t kind =
  t.reuse_count >= t.config.max_reuse
  || t.config.clock () -. t.anchor_since > 0.4 *. t.config.lock_lease
  || kind = `Recover

(* Keep the anchor past the running operation only for the next queued
   request to join: reuse is on, the site is not fenced, and that
   request's object is in the group and would not rotate the anchor.
   With the defaults this releases exactly where a sequential
   coordinator unlocks.  (The head of [requests] is the running
   operation.) *)
let keep_anchor t =
  t.config.max_reuse > 0
  && t.degraded = None
  &&
  match (t.anchor, Seq.uncons (Seq.drop 1 (Queue.to_seq t.requests))) with
  | Some anchor, Some (next, _) ->
      List.mem (object_key t next.key) anchor.keys && not (rotation_due t next.kind)
  | _ -> false

let maybe_release t = if not (keep_anchor t) then release_anchor t

(* One client operation, coordinated at this node: group START (with
   bounded retry on rivalry) or anchor join, cached view (or a
   re-gather), decide, fetch if stale, COMMIT wave (releasing the
   anchor unless the next operation joins it), outcome record, unlock,
   reply — the paper's protocol as genuine request/reply exchanges,
   suspended at each wait.  [key] is the client's key; the operation
   acts on the object holding it.  RECOVER (Figure 3) exists for the one
   object only. *)
let client_op t ~client ~req ~key kind =
  let obj = object_key t key in
  let tag = match kind with `Read -> `Read | `Write _ -> `Write | `Recover -> `Recover in
  let rid = match kind with `Write _ -> make_rid ~client ~req | _ -> 0 in
  match t.degraded with
  | Some reason ->
      (* Fenced: serve nothing that could ack or mutate.  A get still
         reports the local value — visibly marked Degraded so the client
         retries at a live site. *)
      let value =
        match kind with
        | `Read -> read_value t key (Shard_map.value (Shard_map.find t.objects obj))
        | _ -> None
      in
      reply_client t ~client ~req Wire.Degraded value ("degraded: " ^ reason)
  | None ->
  if t.amnesiac && kind <> `Recover then
    reply_client t ~client ~req Wire.Denied None
      (if sharded t then
         "amnesiac: shard storage lost, rejoin via a surviving partition"
       else "amnesiac: stable record lost, RECOVER first")
  else begin
    let entry = Shard_map.find t.objects obj in
    Shard_map.pin entry;
    Fun.protect
      ~finally:(fun () ->
        Shard_map.unpin entry;
        refresh_kgauges t)
    @@ fun () ->
    (* Site-dependent backoff skew breaks retry symmetry between rivals. *)
    let skew = 1.0 +. (0.13 *. float_of_int (t.site mod 7)) in
    let acquire_fresh () =
      let keys = build_group t in
      let rec acquire i =
        match start_round t keys with
        | None when i < t.config.lock_retries ->
            (* Back off without going deaf: the node keeps serving
               protocol frames, and a rival's release ends the sleep. *)
            let deadline =
              t.config.clock ()
              +. (t.config.lock_backoff *. float_of_int (i + 1) *. skew)
            in
            ignore
              (await ~wake_on_unlock:true ~deadline ~match_reply:(fun _ -> None) ()
                : unit option);
            acquire (i + 1)
        | granted_or_busy -> granted_or_busy
      in
      match acquire 0 with
      | Some _ as anchor ->
          t.anchor <- anchor;
          t.anchor_since <- t.config.clock ();
          t.reuse_count <- 0;
          (match t.kctrs with
          | Some k -> Metrics.observe k.h_group (float_of_int (List.length keys))
          | None -> ());
          (anchor, false)
      | None -> (None, false)
    in
    let anchor, joined =
      match t.anchor with
      | Some anchor
        when List.mem obj anchor.keys
             && (not (rotation_due t kind))
             && try_lock t obj anchor.op ->
          (* Join the anchor: the group's locks are already held
             cluster-wide under its op and its START covered this object
             — refreshing our own lease is the only touch.  (A failed
             refresh means the lease lapsed and a rival took the local
             lock — the anchor is gone.) *)
          t.reuse_count <- t.reuse_count + 1;
          (Some anchor, true)
      | Some _ ->
          release_anchor t;
          acquire_fresh ()
      | None -> acquire_fresh ()
    in
    match anchor with
    | None ->
        reply_client t ~client ~req Wire.Denied None
          "busy: rival operation holds the locks"
    | Some anchor ->
      (* The acquirer's START is a fresh view; only a joined operation
         decides against a cached one, and only a cached view's denial is
         worth one re-gather — it may merely be stale. *)
      let rec evaluate_round cached =
        let view, cached =
          match Hashtbl.find_opt t.gcache obj with
          | Some view ->
              if cached then Metrics.incr t.ctrs.c_gather_reused;
              (view, cached)
          | None ->
              regather t anchor obj;
              (Hashtbl.find t.gcache obj, false)
        in
        let reachable, states, fresh = view in
        match Operation.evaluate t.ctx states ~fresh ~reachable () with
        | Decision.Denied _ when cached ->
            Hashtbl.remove t.gcache obj;
            evaluate_round false
        | decision -> (decision, states)
      in
      let finish status value info =
        maybe_release t;
        reply_client t ~client ~req status value info
      in
      match evaluate_round joined with
      | Decision.Denied denial, _ ->
          if kind <> `Recover then
            log_outcome t ~key:obj ~kind:tag ~granted:false ~content:None ~rid;
          finish Wire.Denied None (denial_text denial)
      | Decision.Granted g, states ->
          let m = g.Decision.m in
          let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
          (* A coordinator inside the majority partition can still hold
             stale data (the residue of an aborted write, say).  Trust
             the version number, not the membership. *)
          let must_fetch =
            match kind with
            | `Recover ->
                t.amnesiac
                || Replica.version (Shard_map.replica entry) < v
                || Shard_map.data_version entry < v
            | `Read | `Write _ ->
                (not (Site_set.mem t.site g.Decision.s))
                || Shard_map.data_version entry < v
          in
          if
            must_fetch
            && not (fetch t ~key:obj ~entry ~sources:g.Decision.s ~want_version:v)
          then begin
            log_outcome t ~key:obj ~kind:tag ~granted:false ~content:None ~rid;
            Hashtbl.remove t.gcache obj;
            finish Wire.Aborted None "verified data fetch failed"
          end
          else if rid <> 0 && rid_seen t.rids rid then begin
            (* The retried request already committed (here or fetched
               from the partition's table): acknowledge, do not
               re-apply. *)
            Metrics.incr t.ctrs.c_dedup_hits;
            log_outcome t ~key:obj ~kind:`Write ~granted:true ~content:None ~rid;
            finish Wire.Granted None "duplicate: write already committed"
          end
          else begin
            let recipients, version, value =
              match kind with
              | `Read -> (g.Decision.s, v, None)
              | `Write v' ->
                  ( g.Decision.s,
                    v + 1,
                    Some (written_value t key v' (Shard_map.value entry)) )
              | `Recover -> (Site_set.add t.site g.Decision.s, v, None)
            in
            (* The intent records the post-write content before the first
               COMMIT can escape; a coordinator dead mid-wave leaves
               intent-without-outcome = maybe-committed. *)
            if value <> None then
              log t
                (Persist.Log_kintent
                   { seq = t.next_seq (); key = obj; content = content ~key:obj value });
            (* Decided before the wave, which carries it: unless the next
               operation joins the anchor, every recipient releases it on
               the COMMIT, and only the holders the wave misses —
               voteless, outside the new partition, or silent — still
               need a KUnlock. *)
            let release = not (keep_anchor t) in
            commit_wave t ~op:anchor.op ~release ~recipients ~key:obj ~op_no:(o + 1)
              ~version ~partition:recipients ~value ~rid;
            if release then
              t.anchor <-
                Some { anchor with holders = Site_set.diff anchor.holders recipients };
            note_commit t ~key:obj ~recipients ~op_no:(o + 1) ~version
              ~partition:recipients;
            match t.degraded with
            | Some reason ->
                (* The operation's own apply (or log) fenced us
                   mid-flight; the reply must say so rather than ack. *)
                release_anchor t;
                reply_client t ~client ~req Wire.Degraded None ("degraded: " ^ reason)
            | None ->
                (* A read serves the object as it stands after its commit
                   (fetched if it had to be); a write's content is what it
                   installed — its coordinator need not be a recipient. *)
                let served = Shard_map.value entry in
                let outcome =
                  match kind with
                  | `Read -> Some (content ~key:obj served)
                  | `Write _ -> Some (content ~key:obj value)
                  | `Recover -> None
                in
                log_outcome t ~key:obj ~kind:tag ~granted:true ~content:outcome ~rid;
                if release then release_anchor t;
                reply_client t ~client ~req Wire.Granted
                  (if kind = `Read then read_value t key served else None)
                  ""
          end
  end

(* Start the head request: a refusal decided by what it asks, or the
   operation.  Either runs until it parks on the network or retires; the
   handler only files the continuation — all resumption happens in a
   step. *)
let run_head t =
  let r = Queue.peek t.requests in
  Effect.Deep.match_with
    (fun () ->
      match refusal t r with
      | Some info -> reply_client t ~client:r.client ~req:r.req Wire.Denied None info
      | None -> client_op t ~client:r.client ~req:r.req ~key:r.key r.kind)
    ()
    {
      Effect.Deep.retc =
        (fun () ->
          retire t r;
          admit_next t);
      exnc =
        (fun e ->
          retire t r;
          raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await w ->
              Some
                (fun (k : (b, unit) Effect.Deep.continuation) ->
                  t.parked <- Some (Parked (w, k)))
          | _ -> None);
    }

(* Run queued requests, oldest first, until one parks or none is left. *)
let rec run_queue t =
  if Option.is_none t.parked && not (Queue.is_empty t.requests) then begin
    run_head t;
    run_queue t
  end

(* --- the step interface ---------------------------------------------- *)

(* Handle the frames taken, oldest first, until none is left or a flush
   waits on its fsync.  Commits are deferred into the coalescing buffer;
   every other frame flushes that buffer first (observable FIFO: a START
   or data request must see every commit that preceded it on the wire),
   then resumes the parked operation or goes to the peer protocol.  The
   queue runs before each frame, so a request the last frame queued
   starts before the next frame is read. *)
let rec pump t =
  if t.syncing = None && not (Queue.is_empty t.inbox) then begin
    run_queue t;
    if t.syncing = None then begin
      let env = Queue.peek t.inbox in
      (match env.Wire.payload with
      | Wire.KCommit_op { op; release; key; op_no; version; partition; value; rid } ->
          (* Any inbound commit means a rival coordinated while we were
             unlocked, so the anchor's cached views are stale: drop them.
             The operation only resumes after the flush, so invalidating
             at enqueue time is the same instant.  Self-applies go
             through {!flush_commits} directly and must NOT reset the
             cache: the anchor's joined operations decide against it. *)
          ignore (Queue.pop t.inbox : Wire.envelope);
          Hashtbl.reset t.gcache;
          Queue.add (key, op_no, version, partition, value, rid) t.commit_batch;
          if release then t.releases <- op :: t.releases
      | _ ->
          flush_commits t;
          if t.syncing = None then begin
            ignore (Queue.pop t.inbox : Wire.envelope);
            if not (deliver t env) then serve_protocol t env
          end);
      pump t
    end
  end

let take t frames =
  let rec queue = function
    | Ok env :: rest ->
        Queue.add env t.inbox;
        queue rest
    | Error _ :: _ ->
        (* The stream is garbage from here on: what came before it is
           handled, and the site dies. *)
        pump t;
        raise Dead
    | [] -> pump t
  in
  queue frames

(* Everything a batch of frames produced — replies, commit waves,
   protocol frames — leaves in one write once the queue has run and the
   commits have flushed, so a parked operation always has its question
   on the wire.  While a flush's fsync is out, what was queued before it
   still leaves — none of it depends on the flush — unless the flush
   holds it ({!commit_wave}). *)
let settle t =
  if t.syncing = None then begin
    run_queue t;
    flush_commits t;
    (* The flush's releases may have woken the operation and ended it. *)
    if t.syncing = None then run_queue t
  end;
  match t.syncing with
  | Some f when f.holds -> ()
  | Some _ | None -> if Evconn.flush t.conn = `Closed then raise Dead

let expire t =
  if t.syncing = None then wake t (fun deadline _ -> deadline <= t.config.clock ())

let next_deadline t =
  match t.parked with
  | Some (Parked (w, _)) when t.syncing = None -> Some w.deadline
  | Some _ | None -> None

let conn t = t.conn
let syncing t = t.syncing <> None
let sync t = sync_store t.store

(* The fsync answered: the flush's tail runs — its oplog records, its
   releases and wakes, or the rollback and the fence — then the
   operation parked on its own commit, then the frames that waited. *)
let synced t result =
  match t.syncing with
  | None -> ()
  | Some f ->
      t.syncing <- None;
      finish_flush t f (storage t (fun () -> Result.iter_error raise result));
      release_batch t;
      if f.awaited then wake t (fun _ _ -> true);
      pump t

(* Volatile state dies with the site; only the files survive. *)
let close t =
  (try Persist.close_log t.oplog with Sys_error _ -> ());
  (try Shard_store.close t.store with Sys_error _ -> ());
  Evconn.close t.conn
