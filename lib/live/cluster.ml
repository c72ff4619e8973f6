(* Wiring a real cluster out of the pieces: switchboard + the site loop
   that steps every node + client connections, plus the two things only
   an orchestrator can own —
   the global sequence stamp that orders log records across nodes, and
   the end-of-run audit that merges those logs and replays them through
   the safety oracle. *)

(* The audit evaluates the shared executable invariant spec directly:
   Dynvote_chaos.Oracle is the same module re-exported, but going to the
   source keeps the "one spec, three checkers" dependency explicit. *)
module Oracle = Dynvote_invariant.Spec
module Trace = Dynvote_obs.Trace
module Hub = Dynvote_obs.Hub
module Shard_store = Dynvote_shard.Shard_store

type t = {
  universe : Site_set.t;
  dir : string;
  flavor : Decision.flavor;
  segment_of : Site_set.site -> int;
  config : Node.config;
  client_timeout : float;
  hub : Hub.t;
  sw : Switchboard.t;
  vfs_of : Site_set.site -> Vfs.t;
  nodes : (Site_set.site, Node.t) Hashtbl.t;
  sites : Site_loop.t;
  next_seq : unit -> int;
}

let universe t = t.universe
let dir t = t.dir
let obs t = t.hub
let port t = Switchboard.port t.sw
let client_timeout t = t.client_timeout
let backend t = Switchboard.backend t.sw
let up_sites t = Switchboard.up_sites t.sw

let degraded t site =
  match Hashtbl.find_opt t.nodes site with
  | None -> None
  | Some node -> Node.degraded node

let boot t site ~was_restarted =
  let node =
    Node.boot ~site ~universe:t.universe ~flavor:t.flavor
      ~segment_of:t.segment_of ~config:t.config ~obs:t.hub ~dir:t.dir
      ~vfs:(t.vfs_of site) ~next_seq:t.next_seq ~port:(Switchboard.port t.sw)
      ~was_restarted ()
  in
  Hashtbl.replace t.nodes site node

let serve t site = Site_loop.add t.sites (Hashtbl.find t.nodes site)

(* Stopping the switchboard closes every node's connection; the site
   loop then stops and closes every node it still holds, even when the
   broker died of an exception, which is then re-raised. *)
let shutdown t =
  Fun.protect
    ~finally:(fun () ->
      Site_loop.shutdown t.sites;
      Hashtbl.reset t.nodes)
    (fun () -> Switchboard.shutdown t.sw)

let create ?(flavor = Decision.ldv_flavor) ?(segment_of = fun s -> s)
    ?(config = Node.default_config) ?(client_timeout = 10.0)
    ?(obs = Hub.create ()) ?(vfs_of = fun _ -> Vfs.real) ~universe ~dir () =
  let sw = Switchboard.create ~obs ~universe ~segment_of () in
  let sites =
    try Site_loop.create ~obs ~clock:config.Node.clock ()
    with e ->
      Switchboard.shutdown sw;
      raise e
  in
  (* Every stamp is taken on the site loop's thread, but the counter is
     an [Atomic] all the same: unique and increasing from any thread. *)
  let seq = Atomic.make 0 in
  let next_seq () = Atomic.fetch_and_add seq 1 + 1 in
  let t =
    {
      universe;
      dir;
      flavor;
      segment_of;
      config;
      client_timeout;
      hub = obs;
      sw;
      vfs_of;
      nodes = Hashtbl.create 8;
      sites;
      next_seq;
    }
  in
  (* A site with a shards directory restarts from it; one without is new
     and starts from the paper's initial state.  Every site boots before
     any joins the site loop, so the floors below are read before the
     first stamp or client id is handed out.  A site that fails to seed
     or boot takes the half-built cluster down with it: the booted nodes
     close their files and connections, the loop stops, the switchboard
     is joined, and the site's error is the one raised. *)
  (try
     Site_set.iter
       (fun site ->
         let existed = Sys.file_exists (Shard_store.shards_dir ~dir ~site) in
         if not existed then Node.seed ~dir ~site ~universe ~config;
         boot t site ~was_restarted:existed)
       universe;
     (* Resuming over old logs: the global stamp must keep growing, or the
        merged replay would interleave the incarnations.  Client endpoint
        ids must not be recycled either — the persisted dedup tables are
        keyed by them, so a fresh client under a reused id would see its
        first writes acknowledged as duplicates of the previous
        incarnation's.  Each node's boot scan of its oplog yields both
        floors.  The oplogs are never fsynced but the shard logs are:
        after a power cut of the whole cluster a client's id may survive
        only in the applied-request tables the nodes just recovered, which
        {!Node.max_client} covers too. *)
     let seq0, seen =
       Hashtbl.fold
         (fun _ node (seq, client) ->
           (max seq (Node.max_seq node), max client (Node.max_client node)))
         t.nodes
         (0, Wire.first_client_id - 1)
     in
     Atomic.set seq seq0;
     Switchboard.reserve_clients sw ~upto:seen
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Hashtbl.iter (fun _ node -> Node.close node) t.nodes;
     (try shutdown t with _ -> ());
     Printexc.raise_with_backtrace e bt);
  Site_set.iter (serve t) universe;
  t

(* --- fault injection ------------------------------------------------ *)

let partition t groups = Switchboard.partition t.sw groups
let heal t = Switchboard.heal t.sw

(* The severed site dies in the loop on its closed socket; waiting for
   its close means no two incarnations ever share an oplog channel. *)
let kill t site =
  Switchboard.crash t.sw site;
  Site_loop.await_closed t.sites site;
  Hashtbl.remove t.nodes site

let restart t site =
  kill t site;
  Hub.event t.hub (Trace.Restart { site });
  boot t site ~was_restarted:true;
  serve t site

let kill_async t site = Switchboard.crash t.sw site

let set_commit_hook t site hook =
  match Hashtbl.find_opt t.nodes site with
  | None -> invalid_arg "Cluster.set_commit_hook: site not running"
  | Some node -> Node.set_commit_hook node hook

let strike_after t site n =
  set_commit_hook t site
    (Some (fun ~sent ~total:_ -> if sent = n then raise Node.Killed))

(* --- clients -------------------------------------------------------- *)

type client = { t : t; conn : Evconn.t; id : int; mutable req : int }

type reply = {
  status : Wire.status;
  value : string option;
  info : string;
  retries : int;
}

let client t =
  let conn = Evconn.dial ~port:(port t) () in
  match
    Evconn.handshake ~clock:t.config.Node.clock conn
      { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
  with
  | Some id -> { t; conn; id; req = 0 }
  | None -> failwith "live client: switchboard handshake failed"

(* One frame to [dst], written out before returning; [false] when the
   switchboard is gone. *)
let send client dst payload =
  Evconn.enqueue client.conn { Wire.src = client.id; dst; payload } = `Ok
  && Evconn.drain client.conn = `Idle

(* One exchange with one site, under an already-chosen request number.
   The number does NOT advance here: a retry of the same request reuses
   it, which is what lets the sites deduplicate. *)
let call_once client ~at ~req payload_of_req =
  let aborted info = { status = Wire.Aborted; value = None; info; retries = 0 } in
  if not (Site_set.mem at client.t.universe) then
    { status = Wire.Denied; value = None; info = "no such site"; retries = 0 }
  else if not (Switchboard.is_up client.t.sw at) then
    { status = Wire.Denied; value = None; info = "site down"; retries = 0 }
  else if not (send client at (payload_of_req req)) then aborted "connection lost"
  else begin
    let clock = client.t.config.Node.clock in
    let deadline = clock () +. client.t.client_timeout in
    let rec wait () =
      match Evconn.recv ~clock ~deadline client.conn with
      | Error `Timeout ->
          (* The site may be mid-commit for all we know. *)
          aborted "timeout: no reply"
      | Error (`Closed | `Corrupt _) -> aborted "connection lost"
      | Ok { Wire.payload = Wire.Client_reply { req = r; status; value; info }; _ }
        when r = req ->
          { status; value; info; retries = 0 }
      | Ok _ -> wait () (* a stale reply from a timed-out operation *)
    in
    wait ()
  end

(* An aborted or degraded-site exchange is ambiguous — the operation may
   or may not have committed — so the retry reuses the same request
   number at the next up site, and the dedup table makes the ambiguity
   harmless: re-coordinating an already-committed write acknowledges it
   without applying it again. *)
let retry_site ~retries ~up ~tries ~at status =
  match status with
  | Wire.Granted | Wire.Denied -> None
  | Wire.Aborted | Wire.Degraded ->
      let candidates = Site_set.remove at up in
      if tries >= retries || Site_set.is_empty candidates then None
      else Some (Site_set.min_elt candidates)

let call ?(retries = 0) client ~at payload_of_req =
  client.req <- client.req + 1;
  let req = client.req in
  let rec attempt ~at tries =
    let reply = call_once client ~at ~req payload_of_req in
    match
      retry_site ~retries ~up:(up_sites client.t) ~tries ~at reply.status
    with
    | Some at -> attempt ~at (tries + 1)
    | None -> { reply with retries = tries }
  in
  attempt ~at 0

let put ?retries client ~at ~key ~value =
  call ?retries client ~at (fun req -> Wire.Client_put { req; key; value })

let get ?retries client ~at ~key =
  call ?retries client ~at (fun req -> Wire.Client_get { req; key })

let recover_site client site =
  call client ~at:site (fun req -> Wire.Client_recover { req })

(* --- audit ---------------------------------------------------------- *)

type audit = {
  oracle : Oracle.t;
  torn : Site_set.t;
  corrupt : int;
  dup_applies : int;
  records : int;
  keys : int;
  kviolations : (string * Oracle.violation) list;
}

(* Exactly-once accounting over the merged logs: the request-id space
   is global (client lsl 32 lor req), so one table serves every object.
   A request id is double-applied when the history shows it committing
   under two distinct logical commits — distinct (object, op_no) pairs
   (the same logical commit fanning out to many sites shares its
   identity, so that is not a duplicate) — or when two granted write
   outcomes both claim to have installed content for it. *)
let count_dup_applies tagged =
  let commit_ops = Hashtbl.create 16 in
  let applied_outcomes = Hashtbl.create 16 in
  let note_commit rid ident =
    let ops = Option.value ~default:[] (Hashtbl.find_opt commit_ops rid) in
    if not (List.mem ident ops) then Hashtbl.replace commit_ops rid (ident :: ops)
  in
  let note_outcome rid =
    Hashtbl.replace applied_outcomes rid
      (1 + Option.value ~default:0 (Hashtbl.find_opt applied_outcomes rid))
  in
  List.iter
    (fun (_site, record) ->
      match record with
      | Persist.Log_kcommit { key; op_no; rid; _ } when rid <> 0 ->
          note_commit rid (key, op_no)
      | Persist.Log_koutcome
          { kind = `Write; granted = true; content = Some _; rid; _ }
        when rid <> 0 ->
          note_outcome rid
      | _ -> ())
    tagged;
  let dups = Hashtbl.create 8 in
  Hashtbl.iter
    (fun rid ops -> if List.length ops >= 2 then Hashtbl.replace dups rid ())
    commit_ops;
  Hashtbl.iter
    (fun rid n -> if n >= 2 then Hashtbl.replace dups rid ())
    applied_outcomes;
  Hashtbl.length dups

let check_dir ~universe ~dir =
  let torn = ref Site_set.empty in
  let corrupt = ref 0 in
  let tagged =
    Site_set.fold
      (fun site tagged ->
        let scan =
          Persist.scan_log ~path:(Persist.oplog_path ~dir site)
            (fun tagged r -> (site, r) :: tagged)
            tagged
        in
        if scan.Codec.torn then torn := Site_set.add site !torn;
        corrupt := !corrupt + scan.Codec.corrupt;
        scan.Codec.folded)
      universe []
  in
  let ordered =
    List.sort
      (fun (_, a) (_, b) -> compare (Persist.seq_of a) (Persist.seq_of b))
      tagged
  in
  (* Every object is its own register, so every object gets its own
     oracle — its commits, intents and outcomes in global stamp order,
     its final per-site (data_version, content) states read offline from
     the shard logs.  The one object of [--shards 0] is the paper's
     file: it feeds [oracle], the others feed [kviolations]. *)
  let events = Hashtbl.create 64 in
  let order = ref [] in
  let add key ev =
    match Hashtbl.find_opt events key with
    | Some evs -> Hashtbl.replace events key (ev :: evs)
    | None ->
        order := key :: !order;
        Hashtbl.replace events key [ ev ]
  in
  List.iter
    (fun (site, record) ->
      match record with
      | Persist.Log_kcommit { key; op_no; version; partition; _ } ->
          add key
            (Oracle.Replay_commit
               { site; replica = Replica.make ~op_no ~version ~partition })
      | Persist.Log_kintent { key; content; _ } ->
          add key (Oracle.Replay_intent { content })
      | Persist.Log_koutcome
          { key; kind = `Write; granted; content = Some content; _ } ->
          add key (Oracle.Replay_write { granted; content })
      | Persist.Log_koutcome { key; kind = `Read; granted; content; _ } ->
          add key (Oracle.Replay_read { at = site; granted; content })
      | Persist.Log_koutcome _ -> ())
    ordered;
  let finals = Hashtbl.create 64 in
  Site_set.iter
    (fun site ->
      let states, shard_corrupt = Shard_store.read_states ~dir ~site in
      corrupt := !corrupt + shard_corrupt;
      List.iter
        (fun (key, st) ->
          let entry =
            ( site,
              st.Shard_store.data_version,
              Node.content ~key st.Shard_store.value )
          in
          match Hashtbl.find_opt finals key with
          | Some fs -> Hashtbl.replace finals key (entry :: fs)
          | None ->
              if not (Hashtbl.mem events key) then order := key :: !order;
              Hashtbl.replace finals key [ entry ])
        states)
    universe;
  let replay key =
    Oracle.replay
      ~initial_content:(Node.content ~key None)
      ~final:(Option.value ~default:[] (Hashtbl.find_opt finals key))
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt events key)))
  in
  let keys = List.filter (fun key -> key <> Node.map_key) (List.rev !order) in
  {
    oracle = replay Node.map_key;
    torn = !torn;
    corrupt = !corrupt;
    dup_applies = count_dup_applies ordered;
    records = List.length ordered;
    keys = List.length keys;
    kviolations =
      List.concat_map
        (fun key -> List.map (fun v -> (key, v)) (Oracle.violations (replay key)))
        keys;
  }

(* COMMIT waves are fire-and-forget, so a client can hold a granted
   reply while the last participants are still applying.  Pinging each
   up site with a START of no keys (it takes no lock) and waiting for
   its answer drains the race: per-connection FIFO means every commit
   the broker routed before our ping is applied — and persisted,
   synchronously — before the node answers us (a reply, a voteless
   grant from an amnesiac site, or an abstention from a fenced one). *)
let quiesce t =
  match client t with
  | exception _ -> ()
  | c ->
      Site_set.iter
        (fun site ->
          if send c site (Wire.KStart { op = 0; keys = [] }) then begin
            let clock = t.config.Node.clock in
            let deadline = clock () +. 1.0 in
            let rec wait () =
              match Evconn.recv ~clock ~deadline c.conn with
              | Ok
                  {
                    Wire.payload = Wire.KStart_reply _ | Wire.Lock_reply _ | Wire.Abstain _;
                    src;
                    _;
                  }
                when src = site ->
                  ()
              | Ok _ -> wait ()
              | Error _ -> ()
            in
            wait ()
          end)
        (up_sites t);
      Evconn.close c.conn

let check t =
  quiesce t;
  check_dir ~universe:t.universe ~dir:t.dir

let safe a = Oracle.is_safe a.oracle && a.kviolations = [] && a.dup_applies = 0

(* --- state directories ---------------------------------------------- *)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rec remove_dir path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_dir (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
