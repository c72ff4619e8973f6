(* One live site.  The node is a single thread, but inside it client
   operations run as effect-suspended fibers under a small scheduler: an
   operation that would block on the network performs [Await_frame] and
   parks; the scheduler keeps reading the switchboard connection, serving
   peer requests, resuming whichever fiber the arriving frame belongs to,
   and admitting up to [config.pipeline] client operations concurrently.
   A ticket turnstile serializes the gather -> decide -> commit -> outcome
   critical sections, so pipelining changes scheduling, never the order
   of effects.  With the defaults (pipeline = 1, max_reuse = 0) the node
   is frame-for-frame identical to a fully sequential coordinator.

   There is one protocol engine: every object is an independently-voted
   (o, v, P) copy set, kept in a bounded {!Shard_map} over the per-site
   {!Shard_store} logs.  With [shards > 0] every client key is its own
   object.  With [shards = 0] the paper's single replicated file is one
   distinguished object ([map_key]) whose value is the whole key -> value
   map: a put is a read-modify-write of that object, and RECOVER applies
   to it.

   Two fast paths pay for the machinery:

   - Lock anchoring: one group lock round covers every object a
     scheduler burst touches and becomes an {e anchor} that later
     pipelined operations on those objects join without any lock
     traffic; the anchor rotates (fresh round under a new op id) after
     [max_reuse] joins or 0.4 x the lock lease, keeping well inside the
     lease at every peer.
   - Gather reuse: the anchor's group gather fills a per-object view
     cache; joined operations decide against it, kept current by our own
     commit waves and invalidated by any inbound commit, a denial, a
     fetch failure, or rotation.

   Every applied commit appends the object's full state to its shard log
   (one fsync per coalesced batch), and the append-only operation log
   records commits, write intents and client-visible outcomes for the
   {!Dynvote_chaos.Oracle} replay.  Ordering rule: an outcome record
   takes its global sequence number *before* the turnstile advances and
   the locks are released, so no later operation that could have observed
   this one's effects can be stamped earlier.  Inbound commit frames are
   coalesced — a run of consecutive commits is applied volatile-first and
   persisted once — which is crash-equivalent to applying the prefix that
   reached disk.

   Storage failures never kill the thread and never produce a lie: a
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
  retries : int;
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

let default_config =
  {
    gather_timeout = 0.2;
    retries = 1;
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

(* --- operation fibers -----------------------------------------------

   A coordinating operation suspends wherever the old code re-entered a
   blocking receive loop.  [Await_frame] parks the fiber until a frame
   satisfies [match_reply] (resumed with [Some _]) or [deadline] passes
   (resumed with [None]); [wake_on_unlock] additionally resumes it — with
   [None], as if timed out — when a rival's unlock lands, so lock
   backoff ends the moment the contended lock frees.  [Await_turn] parks
   the fiber until the turnstile serves its ticket. *)

type _ Effect.t +=
  | Await_frame : {
      deadline : float;
      match_reply : Wire.envelope -> 'a option;
      wake_on_unlock : bool;
    }
      -> 'a option Effect.t
  | Await_turn : int -> unit Effect.t

type fwaiter =
  | FW : {
      deadline : float;
      match_reply : Wire.envelope -> 'a option;
      wake_on_unlock : bool;
      k : ('a option, unit) Effect.Deep.continuation;
    }
      -> fwaiter

type twaiter = TW of int * (unit, unit) Effect.Deep.continuation

(* A gathered view of one object: (reachable, per-site states, fresh). *)
type view = Site_set.t * Replica.t array * Site_set.t

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
  (* Client requests arriving while [inflight] is at the pipeline bound
     are parked here and admitted as operations complete. *)
  pending_clients : Wire.envelope Queue.t;
  (* Scheduler state: parked fibers, the admission count, the ticket
     turnstile, the group anchor with its per-object view cache, and the
     inbound commit-coalescing buffer. *)
  mutable fwaiters : fwaiter list;
  mutable twaiters : twaiter list;
  mutable unlock_pulse : bool;
  mutable inflight : int;
  mutable ticket_next : int;
  mutable ticket_serving : int;
  mutable anchor : (int * string list) option;
  mutable anchor_since : float;
  mutable reuse_count : int;
  gcache : (string, view) Hashtbl.t;
  commit_batch : (string * int * int * Site_set.t * string option * int) Queue.t;
  (* Objects of admitted-but-unfinished operations, counted so the next
     group lock round can cover them in the same wire exchange. *)
  inflight_keys : (string, int) Hashtbl.t;
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

let max_client t =
  match IMap.max_binding_opt t.rids with Some (client, _) -> client | None -> 0

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

(* A new site's stable record: the one object's initial state (every
   copy current, one partition), durable before the site first boots.
   It marks the store as the site's own at every [shards] setting. *)
let seed ~dir ~site ~universe ~config =
  let store, _ = Shard_store.open_store ~dir ~site ~shards:(shard_count config) () in
  Shard_store.commit store ~key:map_key ~rid:0
    {
      Shard_store.op_no = 1;
      version = 1;
      partition = universe;
      data_version = 1;
      value = None;
    };
  Shard_store.fsync store;
  Shard_store.close store

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
     reopened for append; a corrupt log is left untouched as evidence. *)
  let oplog_scan =
    Persist.scan_log ~vfs ~cut_torn_tail:true ~path:(Persist.oplog_path ~dir site)
      (fun () _ -> ())
      ()
  in
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
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt sock Unix.TCP_NODELAY true
   with e -> (try Unix.close sock with Unix.Unix_error _ -> ()); raise e);
  (* Outbound frames queue on the connection and leave in one write per
     scheduler burst, so a peer receives a whole burst's commits in one
     wakeup and coalesces their persists.  The queue is unbounded: the
     node drains it before it sleeps, and its own backlog must never
     sever it. *)
  let conn = Evconn.of_fd ~max_queue:max_int sock in
  ignore
    (Evconn.enqueue conn
       { Wire.src = site; dst = Wire.broker_id; payload = Wire.Hello_site { site } }
      : [ `Ok | `Overflow ]);
  (match
     if Evconn.drain conn = `Closed then Error `Closed
     else Evconn.recv ~clock:config.clock ~deadline:(config.clock () +. 5.0) conn
   with
  | Ok { Wire.payload = Wire.Welcome _; _ } -> ()
  | _ ->
      Evconn.close conn;
      failwith (Printf.sprintf "live node %d: switchboard handshake failed" site));
  let oplog = Persist.open_log ~vfs ~path:(Persist.oplog_path ~dir site) () in
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
      pending_clients = Queue.create ();
      fwaiters = [];
      twaiters = [];
      unlock_pulse = false;
      inflight = 0;
      ticket_next = 0;
      ticket_serving = 0;
      anchor = None;
      anchor_since = neg_infinity;
      reuse_count = 0;
      gcache = Hashtbl.create 256;
      commit_batch = Queue.create ();
      inflight_keys = Hashtbl.create 64;
    }
  in
  (match degraded with Some reason -> degrade t reason | None -> ());
  t

(* Queue a frame; it leaves with the rest of the burst at {!drain}.  Only
   a connection the peer already closed refuses it. *)
let send_to t dst payload =
  match Evconn.enqueue t.conn { Wire.src = t.site; dst; payload } with
  | `Ok -> ()
  | `Overflow -> raise Dead

(* Push every queued frame out.  The broker side never blocks (its
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
   own RECOVER's. *)
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
    (match List.rev !applied with
    | [] -> ()
    | applied -> (
        match
          storage t (fun () ->
              List.iter
                (fun (key, _, _, _, rid, st) ->
                  Shard_store.commit t.store ~key ~rid st)
                applied;
              if t.config.durable then Shard_store.fsync t.store)
        with
        | Ok () ->
            Metrics.observe t.ctrs.h_commit_batch
              (float_of_int (List.length applied));
            List.iter
              (fun (key, op_no, version, partition, rid, _) ->
                Metrics.incr t.ctrs.c_commits_applied;
                log t
                  (Persist.Log_kcommit
                     { seq = t.next_seq (); key; op_no; version; partition; rid }))
              applied
        | Error reason ->
            (* [rollback] is latest-first, so an entry committed twice in
               this batch ends restored to its oldest prior state. *)
            List.iter
              (fun (e, replica, data_version, value) ->
                Shard_map.set_replica e replica;
                Shard_map.set_data_version e data_version;
                Shard_map.set_value e value)
              !rollback;
            t.rids <- rollback_rids;
            t.fresh <- rollback_fresh;
            t.amnesiac <- rollback_amnesiac;
            degrade t ("persist failed: " ^ reason)));
    List.iter Shard_map.unpin !pinned;
    refresh_kgauges t
  end

(* Direct apply (own share of a commit wave, or a stray inbound
   delivery): a one-element batch through the same discipline. *)
let apply_commit t ~key ~op_no ~version ~partition ~value ~rid =
  Queue.add (key, op_no, version, partition, value, rid) t.commit_batch;
  flush_commits t

(* Serve one frame of the peer protocol.

   A degraded site answers nothing that could count as a vote: state
   requests and lock requests get an explicit abstention (to the
   coordinator it looks down, so new partitions form without it),
   commits are refused.  Data requests are still served — they are
   read-only, and the fetcher verifies the version before installing. *)
let serve_protocol t (env : Wire.envelope) =
  match env.Wire.payload with
  | Wire.KLock_request { op; keys } ->
      if t.degraded <> None then
        send_to t env.Wire.src (Wire.Abstain { round = op })
      else
        send_to t env.Wire.src
          (Wire.Lock_reply { op; granted = try_lock_all t keys op })
  | Wire.KUnlock { op; keys } ->
      List.iter (fun key -> release_lock t key op) keys;
      (* A rival freed its locks: fibers backing off a denied lock round
         should retry now rather than sleep out their deadline. *)
      t.unlock_pulse <- true
  | Wire.KState_request { round; keys } ->
      (* An amnesiac site must not vote: a guessed ensemble could be
         counted.  It (and a fenced site) abstains explicitly, so the
         coordinator excludes it without waiting out the gather.  An
         object this site never committed reports the paper's initial
         state — the lazy-materialization rule, sound because a
         non-amnesiac site that had seen the object would have it in
         its shard logs. *)
      if t.amnesiac || t.degraded <> None then
        send_to t env.Wire.src (Wire.Abstain { round })
      else
        let states =
          List.map
            (fun key -> (key, Shard_map.replica (Shard_map.find t.objects key)))
            keys
        in
        send_to t env.Wire.src (Wire.KState_reply { round; fresh = t.fresh; states })
  | Wire.KCommit { key; op_no; version; partition; value; rid } ->
      (* Normally intercepted and coalesced by the scheduler; kept as the
         direct path for any stray delivery. *)
      apply_commit t ~key ~op_no ~version ~partition ~value ~rid
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
  | Wire.Client_put _ | Wire.Client_get _ | Wire.Client_recover _ ->
      Queue.add env t.pending_clients
  | Wire.Hello_site _ | Wire.Hello_client | Wire.Welcome _ | Wire.Lock_reply _
  | Wire.Client_reply _ | Wire.Abstain _ | Wire.KState_reply _ | Wire.KData_reply _ ->
      (* Stray replies of a finished or abandoned exchange. *)
      ()

(* Park this fiber until [deadline] for a frame satisfying [match_reply];
   the scheduler keeps the connection drained meanwhile. *)
let await ~deadline ~match_reply =
  Effect.perform (Await_frame { deadline; match_reply; wake_on_unlock = false })

let peers t = Site_set.remove t.site t.universe

let reply_client t ~client ~req status value info =
  (match status with
  | Wire.Granted -> Metrics.incr t.ctrs.c_granted
  | Wire.Denied -> Metrics.incr t.ctrs.c_denied
  | Wire.Aborted -> Metrics.incr t.ctrs.c_aborted
  | Wire.Degraded -> Metrics.incr t.ctrs.c_degraded_refused);
  send_to t client (Wire.Client_reply { req; status; value; info })

let denial_text denial = Fmt.str "%a" Decision.pp_denial denial

(* --- ticket turnstile -----------------------------------------------

   Pipelined operations run their protocol sections in strict admission
   order: each takes a ticket on admission and may not gather, commit or
   log its outcome until the turnstile serves it.  The turn passes only
   AFTER the outcome record has taken its global sequence number — the
   audit's ordering rule — with an idempotent flag so the Fun.protect
   backstop cannot double-advance. *)

let take_turn t =
  let ticket = t.ticket_next in
  t.ticket_next <- ticket + 1;
  if t.ticket_serving <> ticket then Effect.perform (Await_turn ticket)

let pass_turn t passed =
  if not !passed then begin
    passed := true;
    t.ticket_serving <- t.ticket_serving + 1
  end

(* --- group quorum rounds ---------------------------------------------

   One lock round and one state round cover every object a scheduler
   burst touches: the group is the current object plus the objects of
   every admitted and every queued client operation.  Operations behind
   the acquirer then join the anchor — a local lease refresh, zero wire
   traffic — and decide against the cached per-object view. *)

let group_cap = 128

let build_group t key =
  let seen = Hashtbl.create 16 in
  let count = ref 0 in
  let group = ref [] in
  let add k =
    if !count < group_cap && not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      incr count;
      group := k :: !group
    end
  in
  add key;
  Hashtbl.iter (fun k n -> if n > 0 then add k) t.inflight_keys;
  Queue.iter
    (fun env ->
      match env.Wire.payload with
      | Wire.Client_put { key = k; _ } | Wire.Client_get { key = k; _ } ->
          add (object_key t k)
      | _ -> ())
    t.pending_clients;
  List.rev !group

(* The volatile group lock round: local leases for every object, then
   one KLock_request broadcast, all-or-nothing over the peers that
   answer.  Silent peers are simply unreachable — they hold no lock and
   take no part in the gather either.  Any refusal releases everything
   acquired (and our own), so two rivals cannot deadlock; they just
   retry. *)
let lock_round t op keys =
  Metrics.incr t.ctrs.c_lock_rounds;
  Hub.event t.obs (Trace.Lock_round_start { site = t.site; op });
  let denied () =
    Metrics.incr t.ctrs.c_lock_denied;
    Hub.event t.obs (Trace.Lock_denied { site = t.site; op });
    `Denied
  in
  if not (try_lock_all t keys op) then denied ()
  else begin
    Site_set.iter
      (fun dst -> send_to t dst (Wire.KLock_request { op; keys }))
      (peers t);
    let replies = Hashtbl.create 8 in
    let abstained = Hashtbl.create 4 in
    let deadline = t.config.clock () +. t.config.gather_timeout in
    let want = Site_set.cardinal (peers t) in
    let rec collect () =
      if Hashtbl.length replies + Hashtbl.length abstained < want then
        match
          await ~deadline ~match_reply:(fun env ->
              match env.Wire.payload with
              | Wire.Lock_reply { op = o; granted } when o = op ->
                  Some (env.Wire.src, `Vote granted)
              | Wire.Abstain { round } when round = op ->
                  (* A fenced site holds no lock and casts no vote; its
                     answer only stops the wait. *)
                  Some (env.Wire.src, `Abstain)
              | _ -> None)
        with
        | Some (src, `Vote granted) ->
            Hashtbl.replace replies src granted;
            collect ()
        | Some (src, `Abstain) ->
            Hashtbl.replace abstained src ();
            collect ()
        | None -> ()
    in
    collect ();
    if Hashtbl.fold (fun _ granted acc -> acc && granted) replies true then
      `Granted
    else begin
      Site_set.iter
        (fun dst -> send_to t dst (Wire.KUnlock { op; keys }))
        (peers t);
      List.iter (fun key -> release_lock t key op) keys;
      denied ()
    end
  end

(* START: one KState_request names every object of the group and each
   replier answers with its ensemble for all of them, under the bounded
   retry/backoff discipline of the msgsim Deadline model.  Freshness is
   distributed here: each reply carries the replier's own claim.  Fills
   the per-object view cache the operations decide against. *)
let gather t keys =
  t.round <- t.round + 1;
  let round = t.round in
  let replies = Hashtbl.create 8 in
  let abstained = Hashtbl.create 4 in
  let missing () =
    Site_set.filter
      (fun s ->
        (s <> t.site)
        && (not (Hashtbl.mem replies s))
        && not (Hashtbl.mem abstained s))
      t.universe
  in
  let rec attempt n patience =
    let absent = missing () in
    if not (Site_set.is_empty absent) then begin
      Site_set.iter
        (fun dst -> send_to t dst (Wire.KState_request { round; keys }))
        absent;
      let deadline = t.config.clock () +. patience in
      let rec collect () =
        if not (Site_set.is_empty (missing ())) then
          match
            await ~deadline ~match_reply:(fun env ->
                match env.Wire.payload with
                | Wire.KState_reply { round = r; fresh; states } when r = round ->
                    Some (env.Wire.src, `State (fresh, states))
                | Wire.Abstain { round = r } when r = round ->
                    (* Fenced or amnesiac: counts as reached-but-voteless,
                       exactly like silence, minus the timeout. *)
                    Some (env.Wire.src, `Abstain)
                | _ -> None)
          with
          | Some (src, `State (fresh, states)) ->
              Hashtbl.replace replies src (fresh, states);
              collect ()
          | Some (src, `Abstain) ->
              Hashtbl.replace abstained src ();
              collect ()
          | None -> ()
      in
      collect ();
      if n < t.config.retries then attempt (n + 1) (patience *. t.config.backoff)
    end
  in
  attempt 0 t.config.gather_timeout;
  let self = if t.amnesiac then Site_set.empty else Site_set.singleton t.site in
  let self_fresh = if t.fresh && not t.amnesiac then self else Site_set.empty in
  let reachable, fresh =
    Hashtbl.fold
      (fun src (fresh_claim, _) (reach, fr) ->
        (Site_set.add src reach, if fresh_claim then Site_set.add src fr else fr))
      replies (self, self_fresh)
  in
  List.iter
    (fun key ->
      let states =
        Array.make t.n_sites (Shard_map.replica (Shard_map.find t.objects key))
      in
      Hashtbl.iter
        (fun src (_, kstates) ->
          match List.assoc_opt key kstates with
          | Some replica -> states.(src) <- replica
          | None -> ())
        replies;
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
  let attempts = max t.config.retries (n_sources - 1) in
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
        await ~deadline ~match_reply:(fun env ->
            match env.Wire.payload with
            | Wire.KData_reply { round = r; key = k; version; value; rids }
              when r = round && k = key ->
                Some (version, value, rids)
            | _ -> None)
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

(* The COMMIT wave.  The coordinator applies its own share through the
   same monotone install as everyone else; the hook between sends is the
   crash point — {!Killed} unwinds the whole thread, leaving the prefix
   of recipients that already heard the commit, held locks to expire by
   lease, and no outcome record: exactly a coordinator dead mid-wave. *)
let commit_wave t ~recipients ~key ~op_no ~version ~partition ~value ~rid =
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
        send_to t dst (Wire.KCommit { key; op_no; version; partition; value; rid });
      incr sent;
      match t.commit_hook with
      | Some hook ->
          (* The strike point models "died between two sends": frames
             already sent must genuinely be on the wire when it fires. *)
          drain t;
          hook ~sent:!sent ~total
      | None -> ())
    recipients

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
  | Some (a, keys) ->
      Site_set.iter
        (fun dst -> send_to t dst (Wire.KUnlock { op = a; keys }))
        (peers t);
      List.iter (fun key -> release_lock t key a) keys;
      t.anchor <- None;
      Hashtbl.reset t.gcache
  | None -> ()

(* Hold the anchor between operations only while reuse is enabled and
   more work is already queued; with the defaults this releases exactly
   where a sequential coordinator unlocks.  ([inflight] still counts the
   calling fiber, so [<= 1] means "no one behind me".) *)
let maybe_release t =
  if
    t.config.max_reuse = 0
    || (t.inflight <= 1 && Queue.is_empty t.pending_clients)
    || t.degraded <> None
  then release_anchor t

(* One client operation, coordinated at this node: group lock round
   (with bounded retry on rivalry) or anchor join, gather (or cached
   view), decide, fetch if stale, COMMIT wave, outcome record, unlock,
   reply — the paper's protocol as genuine request/reply exchanges,
   running as a suspendable fiber.  [key] is the client's key; the
   operation acts on the object holding it.  RECOVER (Figure 3) exists
   for the one object only. *)
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
    t.op_counter <- t.op_counter + 1;
    let op = (t.site lsl 24) lor (t.op_counter land 0xFFFFFF) in
    let passed = ref false in
    take_turn t;
    Fun.protect ~finally:(fun () -> pass_turn t passed) @@ fun () ->
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
      let keys = build_group t obj in
      let rec acquire i =
        match lock_round t op keys with
        | `Granted -> true
        | `Denied when i < t.config.lock_retries ->
            (* Back off without going deaf: the scheduler keeps serving
               protocol frames, and a rival's unlock ends the sleep. *)
            let deadline =
              t.config.clock ()
              +. (t.config.lock_backoff *. float_of_int (i + 1) *. skew)
            in
            ignore
              (Effect.perform
                 (Await_frame
                    {
                      deadline;
                      match_reply = (fun _ -> (None : unit option));
                      wake_on_unlock = true;
                    })
                : unit option);
            acquire (i + 1)
        | `Denied -> false
      in
      if acquire 0 then begin
        t.anchor <- Some (op, keys);
        t.anchor_since <- t.config.clock ();
        t.reuse_count <- 0;
        Hashtbl.reset t.gcache;
        (match t.kctrs with
        | Some k -> Metrics.observe k.h_group (float_of_int (List.length keys))
        | None -> ());
        gather t keys;
        `Fresh
      end
      else `Busy
    in
    (* Rotate the anchor before any peer's lease could lapse under it:
       after [max_reuse] joins, at 0.4 x the lease's age, and always for
       RECOVER (membership changes deserve a fresh round). *)
    let rotation_due () =
      t.reuse_count >= t.config.max_reuse
      || t.config.clock () -. t.anchor_since > 0.4 *. t.config.lock_lease
      || kind = `Recover
    in
    let locked =
      match t.anchor with
      | Some (a, akeys)
        when List.mem obj akeys && (not (rotation_due ())) && try_lock t obj a ->
          (* Join the anchor: the group's locks are already held
             cluster-wide under [a] and its gather covered this object —
             refreshing our own lease is the only touch.  (A failed
             refresh means the lease lapsed and a rival took the local
             lock — the anchor is gone.) *)
          t.reuse_count <- t.reuse_count + 1;
          `Joined
      | Some _ ->
          release_anchor t;
          acquire_fresh ()
      | None -> acquire_fresh ()
    in
    if locked = `Busy then
      reply_client t ~client ~req Wire.Denied None
        "busy: rival operation holds the locks"
    else begin
      (* The acquirer's own gather is a fresh view; only a joined
         operation decides against a cached one, and only a cached view's
         denial is worth one fresh gather — it may merely be stale. *)
      let rec evaluate_round cached =
        let view, cached =
          match Hashtbl.find_opt t.gcache obj with
          | Some view ->
              if cached then Metrics.incr t.ctrs.c_gather_reused;
              (view, cached)
          | None ->
              gather t [ obj ];
              (Hashtbl.find t.gcache obj, false)
        in
        let reachable, states, fresh = view in
        match Operation.evaluate t.ctx states ~fresh ~reachable () with
        | Decision.Denied _ when cached ->
            Hashtbl.remove t.gcache obj;
            evaluate_round false
        | decision -> (decision, states)
      in
      match evaluate_round (locked = `Joined) with
      | Decision.Denied denial, _ ->
          if kind <> `Recover then
            log_outcome t ~key:obj ~kind:tag ~granted:false ~content:None ~rid;
          pass_turn t passed;
          maybe_release t;
          reply_client t ~client ~req Wire.Denied None (denial_text denial)
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
          let finish status value info =
            pass_turn t passed;
            maybe_release t;
            reply_client t ~client ~req status value info
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
            commit_wave t ~recipients ~key:obj ~op_no:(o + 1) ~version
              ~partition:recipients ~value ~rid;
            note_commit t ~key:obj ~recipients ~op_no:(o + 1) ~version
              ~partition:recipients;
            match t.degraded with
            | Some reason ->
                (* The operation's own apply (or log) fenced us
                   mid-flight; the reply must say so rather than ack. *)
                pass_turn t passed;
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
                finish Wire.Granted
                  (if kind = `Read then read_value t key served else None)
                  ""
          end
    end
  end

(* The in-flight object set feeds {!build_group}: a fresh group anchor
   covers every object with an admitted operation. *)
let with_inflight_key t key f =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.inflight_keys key) in
  Hashtbl.replace t.inflight_keys key (n + 1);
  Fun.protect
    ~finally:(fun () ->
      match Hashtbl.find_opt t.inflight_keys key with
      | Some 1 | None -> Hashtbl.remove t.inflight_keys key
      | Some n -> Hashtbl.replace t.inflight_keys key (n - 1))
    f

(* Coordination time as seen by this node, crash-exits included. *)
let timed_op t f =
  let began = t.config.clock () in
  Fun.protect
    ~finally:(fun () -> Metrics.observe t.ctrs.h_op (t.config.clock () -. began))
    f

(* --- the fiber scheduler --------------------------------------------- *)

(* Start a client operation as a fiber.  It runs until its first
   suspension (or completion) right here; the effect handler only files
   continuations — all resumption happens in the scheduler loop. *)
let spawn_op t (env : Wire.envelope) =
  let client = env.Wire.src in
  let run ~req body =
    t.inflight <- t.inflight + 1;
    let opid = make_rid ~client ~req in
    Hub.event t.obs
      (Trace.Round_start { site = t.site; op = opid; in_flight = t.inflight });
    Metrics.observe t.ctrs.h_inflight (float_of_int t.inflight);
    let finish () =
      Hub.event t.obs
        (Trace.Round_end { site = t.site; op = opid; in_flight = t.inflight });
      t.inflight <- t.inflight - 1
    in
    Effect.Deep.match_with
      (fun () -> Fun.protect ~finally:finish (fun () -> timed_op t body))
      ()
      {
        Effect.Deep.retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Await_frame { deadline; match_reply; wake_on_unlock } ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    t.fwaiters <-
                      t.fwaiters @ [ FW { deadline; match_reply; wake_on_unlock; k } ])
            | Await_turn ticket ->
                Some
                  (fun (k : (b, unit) Effect.Deep.continuation) ->
                    t.twaiters <- t.twaiters @ [ TW (ticket, k) ])
            | _ -> None);
      }
  in
  let refuse ~req info =
    run ~req (fun () -> reply_client t ~client ~req Wire.Denied None info)
  in
  let coordinate ~req ~key kind =
    run ~req (fun () ->
        with_inflight_key t (object_key t key) (fun () ->
            client_op t ~client ~req ~key kind))
  in
  match env.Wire.payload with
  | (Wire.Client_get { req; key = "" } | Wire.Client_put { req; key = ""; _ })
    when sharded t ->
      (* The empty key names the one object of [--shards 0]; keeping it
         out of the keyed space keeps the audit's routing unambiguous. *)
      refuse ~req "empty key: reserved"
  | Wire.Client_get { req; key } -> coordinate ~req ~key `Read
  | Wire.Client_put { req; key; value } -> coordinate ~req ~key (`Write value)
  | Wire.Client_recover { req } when sharded t ->
      (* Per-key membership never shrinks below the universe here: a
         rebooted site either kept its shards (it just rejoins) or lost
         them (amnesiac, and split-brain forbids vouching it back in). *)
      refuse ~req "recover: unsupported for the sharded object space"
  | Wire.Client_recover { req } -> coordinate ~req ~key:map_key `Recover
  | _ -> serve_protocol t env

(* Resume every fiber whose ticket the turnstile now serves.  Each resume
   runs the fiber to its next suspension and may advance the turnstile
   again, so scan from scratch until quiescent. *)
let rec run_turns t =
  let rec find acc = function
    | [] -> None
    | TW (ticket, k) :: rest when ticket = t.ticket_serving ->
        t.twaiters <- List.rev_append acc rest;
        Some k
    | tw :: rest -> find (tw :: acc) rest
  in
  match find [] t.twaiters with
  | Some k ->
      Effect.Deep.continue k ();
      run_turns t
  | None -> ()

(* Offer a frame to the parked fibers, oldest first; the first taker is
   resumed with its match.  The waiter is unhooked before the resume, so
   a fiber re-suspending inside [continue] files a fresh waiter. *)
let try_deliver t env =
  let rec scan acc = function
    | [] -> false
    | FW w :: rest -> (
        match w.match_reply env with
        | Some _ as hit ->
            t.fwaiters <- List.rev_append acc rest;
            Effect.Deep.continue w.k hit;
            true
        | None -> scan (FW w :: acc) rest)
  in
  scan [] t.fwaiters

(* Resume (with None = timed out) every fiber whose deadline has passed. *)
let rec expire_due t now =
  let rec find acc = function
    | [] -> None
    | FW w :: rest when w.deadline <= now ->
        t.fwaiters <- List.rev_append acc rest;
        Some (fun () -> Effect.Deep.continue w.k None)
    | fw :: rest -> find (fw :: acc) rest
  in
  match find [] t.fwaiters with
  | Some resume ->
      resume ();
      run_turns t;
      expire_due t now
  | None -> ()

(* A rival's unlock: end every lock-backoff sleep now. *)
let wake_unlockers t =
  let wake, keep = List.partition (fun (FW w) -> w.wake_on_unlock) t.fwaiters in
  t.fwaiters <- keep;
  List.iter (fun (FW w) -> Effect.Deep.continue w.k None) wake;
  if wake <> [] then run_turns t

let next_deadline t =
  List.fold_left
    (fun acc (FW w) ->
      match acc with None -> Some w.deadline | Some d -> Some (min d w.deadline))
    None t.fwaiters

(* One inbound frame.  Commits are deferred into the coalescing buffer;
   everything else flushes that buffer first (observable FIFO: a state or
   data request must see every commit that preceded it on the wire), then
   goes to a parked fiber, a new operation slot, or the peer protocol. *)
let handle_frame t (env : Wire.envelope) =
  (match env.Wire.payload with
  | Wire.KCommit { key; op_no; version; partition; value; rid } ->
      (* Any inbound commit means a rival coordinated while we were
         unlocked, so the anchor's cached views are stale: drop them.
         Fibers only resume after the flush, so invalidating at enqueue
         time is the same instant.  Self-applies go through
         {!flush_commits} directly and must NOT reset the cache: the
         anchor's joined operations decide against it. *)
      Hashtbl.reset t.gcache;
      Queue.add (key, op_no, version, partition, value, rid) t.commit_batch
  | _ ->
      flush_commits t;
      if try_deliver t env then run_turns t
      else begin
        match env.Wire.payload with
        | Wire.Client_put _ | Wire.Client_get _ | Wire.Client_recover _ ->
            if t.inflight < t.config.pipeline then begin
              spawn_op t env;
              run_turns t
            end
            else Queue.add env t.pending_clients
        | _ -> serve_protocol t env
      end);
  if t.unlock_pulse then begin
    t.unlock_pulse <- false;
    wake_unlockers t
  end

let admit_pending t =
  while
    t.inflight < t.config.pipeline && not (Queue.is_empty t.pending_clients)
  do
    flush_commits t;
    spawn_op t (Queue.pop t.pending_clients);
    run_turns t
  done

(* The node thread body: a readiness-style loop over one connection.
   Each iteration serves the turnstile, admits parked clients up to the
   pipeline bound, drains every frame already buffered (so a burst of
   commits coalesces into one persist), then sleeps until the next fiber
   deadline — or blocks outright when nothing is parked. *)
let serve t =
  (try
     while true do
       run_turns t;
       admit_pending t;
       let rec buffered () =
         match
           Evconn.recv ~clock:t.config.clock ~deadline:(t.config.clock ()) t.conn
         with
         | Ok env ->
             handle_frame t env;
             run_turns t;
             buffered ()
         | Error `Timeout -> ()
         | Error (`Closed | `Corrupt _) -> raise Dead
       in
       buffered ();
       flush_commits t;
       admit_pending t;
       (* Everything this burst produced — replies, commit waves, protocol
          frames — leaves in one write before the loop sleeps, so a fiber
          waiting on a peer's answer always has its question on the wire. *)
       drain t;
       match
         Evconn.recv ~clock:t.config.clock ?deadline:(next_deadline t) t.conn
       with
       | Ok env -> handle_frame t env
       | Error `Timeout -> expire_due t (t.config.clock ())
       | Error (`Closed | `Corrupt _) -> raise Dead
     done
   with Dead | Killed | Unix.Unix_error _ -> ());
  (* Volatile state dies with the thread; only the files survive. *)
  (try Persist.close_log t.oplog with Sys_error _ -> ());
  (try Shard_store.close t.store with Sys_error _ -> ());
  Evconn.close t.conn
