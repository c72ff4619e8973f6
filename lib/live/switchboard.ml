(* The in-process network fabric, event-driven.  One broker runs an
   Evloop (epoll on Linux, poll elsewhere) over every accepted
   connection and routes frames subject to the current topology; the
   control API (partition / heal / crash) replaces that topology and
   pokes the broker through a self-pipe so changes take effect
   immediately, even while the broker is blocked in the wait.

   The broker runs on its own OCaml domain, so routing never waits for
   the runtime lock that the site loop and the clients take in turn
   around every socket call.  Each accepted connection is one [conn],
   unregistered (id -1) until its Hello names it.  The loop, the
   connections and the two tables that find them (by descriptor, and by
   endpoint id once registered) are the broker's alone, used without a
   lock.  What it shares with the caller's domain is domain-safe: the
   topology (the up sites and the partition groups) is an immutable
   record in an [Atomic], read without a lock by every routed frame and
   by [up_sites]/[is_up] and replaced whole under [mutex]; the mutex
   also guards the kill queue, the client-id counter and writes to the
   wake pipe; [running] is an [Atomic]; the Hub's counters are Atomic,
   its histograms and trace ring mutex-guarded; everything else is set
   once in [create].

   Routing never blocks: a frame is staged on the destination's bounded
   outbound queue (Evconn) and flushed once per wakeup, so frames that
   arrive together leave in one write — the batching that makes the
   quorum chatter cheap.  A destination whose queue overflows is severed
   (crash semantics): a slow consumer never OOMs the broker and never
   silently loses frames while appearing alive, and fast peers are
   unaffected because every queue is per-connection.

   Fault semantics are chosen to match what a real LAN does:
   - a partition silently eats frames crossing the cut;
   - a crash closes the victim's socket (the site loop closes the site on
     EOF);
   - nothing is ever reordered or duplicated on a surviving path (TCP). *)

module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Hub = Dynvote_obs.Hub

type conn = {
  fd : Unix.file_descr;
  ev : Evconn.t;
  born : float;
  mutable id : int; (* -1 until a Hello registers the connection *)
  mutable writing : bool; (* write interest currently registered *)
  mutable partial_since : float option; (* incomplete inbound frame age *)
}

(* Never mutated: a change installs a new record. *)
type topology = {
  up : Site_set.t; (* sites with a registered connection *)
  groups : Site_set.t list option; (* None: no partition *)
}

type t = {
  listen : Unix.file_descr;
  port : int;
  universe : Site_set.t;
  segment_of : Site_set.site -> int;
  obs : Hub.t;
  clock : Dynvote_obs.Clock.t;
  stall_timeout : float option;
  net_sent : Metrics.counter;
  net_delivered : Metrics.counter;
  net_rejected : Metrics.counter;
  net_dropped : Metrics.counter;
  loop_wakeups : Metrics.counter;
  batch_frames : Metrics.histogram;
  topology : topology Atomic.t;
  running : bool Atomic.t;
  mutex : Mutex.t;
  mutable kill_queue : Site_set.site list;
  mutable next_client : int;
  loop : Evloop.t;
  by_fd : (int, conn) Hashtbl.t;
  by_id : (int, conn) Hashtbl.t;
  wake_fd : Unix.file_descr; (* the self-pipe's read end, for the loop *)
  wake_r : Vio.t;
  wake_w : Vio.t;
  mutable broker : unit Domain.t option; (* caller side only; None once joined *)
}

external int_of_fd : Unix.file_descr -> int = "%identity"

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Called with the mutex held, and only while the broker runs: the pipe
   closes after the broker is joined, so no wake can land on a closed
   descriptor or on one that reused its number.  A full pipe already
   holds a pending wakeup, so a refused byte is fine. *)
let wake_locked t =
  if Atomic.get t.running then
    ignore (t.wake_w.Vio.write (Bytes.make 1 '!') 0 1 : Vio.write_result)

(* Called with the mutex held, so no concurrent replacement is lost. *)
let set_topology_locked t f = Atomic.set t.topology (f (Atomic.get t.topology))

(* Both endpoints up and on the same side of the cut.  Clients are
   treated as co-located with whatever site they address (the paper's
   user-at-a-site model), so only the site's liveness matters to them. *)
let connected top a b =
  let site_ok s = (not (Wire.is_site s)) || Site_set.mem s top.up in
  site_ok a && site_ok b
  &&
  if Wire.is_site a && Wire.is_site b then
    match top.groups with
    | None -> true
    | Some groups ->
        List.exists (fun g -> Site_set.mem a g && Site_set.mem b g) groups
  else true

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Everything below, up to [create], runs on the broker domain. *)

let is_dropped c = Evconn.is_closed c.ev

(* Forget the connection and close it; a registered site goes down with
   it.  A second drop does nothing, so it never touches a descriptor
   number the kernel has handed out again. *)
let drop t c =
  if not (is_dropped c) then begin
    Hashtbl.remove t.by_fd (int_of_fd c.fd);
    if c.id >= 0 then begin
      Hashtbl.remove t.by_id c.id;
      if Wire.is_site c.id then
        locked t (fun () ->
            set_topology_locked t (fun top -> { top with up = Site_set.remove c.id top.up }))
    end;
    Evloop.remove t.loop c.fd;
    Evconn.close c.ev
  end

let drop_frame t (env : Wire.envelope) reason =
  Metrics.incr t.net_dropped;
  Hub.event t.obs
    (Trace.Frame_dropped
       {
         src = env.Wire.src;
         dst = env.Wire.dst;
         reason = reason ^ " " ^ Wire.kind_name env.Wire.payload;
       })

(* Keep the loop's write interest in sync with the queue state. *)
let update_write_interest t c =
  let want = Evconn.want_write c.ev in
  if want <> c.writing then begin
    c.writing <- want;
    try Evloop.modify t.loop c.fd ~read:true ~write:want with Unix.Unix_error _ -> ()
  end

let flush_conn t c =
  if Evconn.want_write c.ev then begin
    let batch = Evconn.queued_frames c.ev in
    match Evconn.flush c.ev with
    | `Idle ->
        if batch > 0 then Metrics.observe t.batch_frames (float_of_int batch);
        update_write_interest t c
    | `Blocked -> update_write_interest t c
    | `Closed -> drop t c
  end
  else update_write_interest t c

let route t c (env : Wire.envelope) =
  (* The registered id is authoritative; a frame cannot spoof its
     source. *)
  let env = { env with Wire.src = c.id } in
  let dst = env.Wire.dst in
  if not (connected (Atomic.get t.topology) c.id dst) then
    drop_frame t env
      (if Wire.is_site c.id && Wire.is_site dst then "partition:" else "down:")
  else
    match Hashtbl.find_opt t.by_id dst with
    | None -> drop_frame t env "unregistered:"
    | Some target -> (
        match Evconn.enqueue target.ev env with
        | `Ok ->
            Metrics.incr t.net_delivered;
            Hub.event t.obs
              (Trace.Frame_recv
                 { src = c.id; dst; kind = Wire.kind_name env.Wire.payload })
        | `Overflow ->
            (* The backpressure contract: a consumer that cannot drain its
               queue is indistinguishable from a dead one, and killing the
               connection is the only reaction that neither loses frames on
               a live path nor grows without bound. *)
            drop_frame t env "backpressure:";
            Hub.event t.obs
              (Trace.Note (Printf.sprintf "backpressure severed endpoint %d" dst));
            drop t target)

let send_direct t c env =
  match Evconn.enqueue c.ev env with
  | `Ok -> flush_conn t c
  | `Overflow -> drop t c

(* An unregistered connection's first frame must be a Hello. *)
let register t c (env : Wire.envelope) =
  let id =
    match env.Wire.payload with
    | Wire.Hello_site { site }
      when Wire.is_site site
           && Site_set.mem site t.universe
           && not (Site_set.mem site (Atomic.get t.topology).up) ->
        (* A stale registration for this site (a crashed node whose socket
           we have not reaped yet) is replaced. *)
        Option.iter (drop t) (Hashtbl.find_opt t.by_id site);
        locked t (fun () ->
            set_topology_locked t (fun top -> { top with up = Site_set.add site top.up }));
        Some site
    | Wire.Hello_client ->
        Some
          (locked t (fun () ->
               let id = t.next_client in
               t.next_client <- id + 1;
               id))
    | _ -> None
  in
  match id with
  | None -> drop t c
  | Some id ->
      c.id <- id;
      Hashtbl.replace t.by_id id c;
      send_direct t c { Wire.src = Wire.broker_id; dst = id; payload = Wire.Welcome { id } }

let process_kills t =
  let sites =
    locked t (fun () ->
        let sites = t.kill_queue in
        t.kill_queue <- [];
        sites)
  in
  List.iter (fun site -> Option.iter (drop t) (Hashtbl.find_opt t.by_id site)) sites

(* Nothing more is taken from a connection once it is dropped: the frames
   behind a corrupt one in the same read are no more trustworthy. *)
let handle_frames t c frames =
  List.iter
    (fun frame ->
      if not (is_dropped c) then
        match frame with
        | Error reason ->
            (* A corrupt frame means the stream is unframed garbage; the
               connection cannot be trusted any further. *)
            Metrics.incr t.net_rejected;
            Hub.event t.obs (Trace.Frame_rejected { src = c.id; reason });
            drop t c
        | Ok env when c.id < 0 -> register t c env
        | Ok env ->
            Metrics.incr t.net_sent;
            Hub.event t.obs
              (Trace.Frame_sent
                 {
                   src = c.id;
                   dst = env.Wire.dst;
                   kind = Wire.kind_name env.Wire.payload;
                 });
            route t c env)
    frames

let handle_readable t c =
  let frames, status = Evconn.on_readable c.ev in
  handle_frames t c frames;
  if not (is_dropped c) then
    match status with
    | `Eof -> drop t c
    | `Open ->
        if Evconn.buffered_in c.ev = 0 then c.partial_since <- None
        else if c.partial_since = None then c.partial_since <- Some (t.clock ())

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen with
    | fd, _ ->
        (* Tiny request/reply frames: Nagle would serialize every
           exchange into 40 ms delayed-ACK stalls. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Hashtbl.replace t.by_fd (int_of_fd fd)
          {
            fd;
            ev = Evconn.of_fd fd;
            born = t.clock ();
            id = -1;
            writing = false;
            partial_since = None;
          };
        Evloop.add t.loop fd ~read:true ~write:false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* The connections satisfying [p], collected before any is dropped. *)
let conns_where tbl p = Hashtbl.fold (fun _ c acc -> if p c then c :: acc else acc) tbl []

(* A peer that opened a frame and stopped feeding it — or connected and
   never said Hello — is reaped on the injected clock, not by any
   blocking read: the loop itself is the timeout mechanism. *)
let reap_stalled t =
  match t.stall_timeout with
  | None -> ()
  | Some limit ->
      let now = t.clock () in
      let stalled c =
        (c.id < 0 && now -. c.born > limit)
        || match c.partial_since with Some since -> now -. since > limit | None -> false
      in
      List.iter
        (fun c ->
          Hub.event t.obs
            (Trace.Note
               (if c.id < 0 then "reaped stalled pre-hello connection"
                else Printf.sprintf "reaped stalled endpoint %d" c.id));
          drop t c)
        (conns_where t.by_fd stalled)

let fd_alive fd =
  match Unix.fstat fd with
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* EBADF from the wait means some registered fd is already closed — a
   crash raced the routing table, or a descriptor leaked shut elsewhere.
   Probe every fd we own and evict the dead ones. *)
let reap_dead_fds t =
  List.iter
    (fun c ->
      if c.id >= 0 then
        Hub.event t.obs
          (Trace.Note (Printf.sprintf "reaped dead fd of endpoint %d" c.id));
      drop t c)
    (conns_where t.by_fd (fun c -> not (fd_alive c.fd)));
  (* Losing the listener or the self-pipe is unrecoverable: stop rather
     than wait on garbage. *)
  if not (fd_alive t.listen && fd_alive t.wake_fd) then Atomic.set t.running false

(* Close everything the broker owns.  It runs however the loop ends, so
   a broker that dies of an exception still hangs up on every node,
   whose thread then exits on EOF and can be joined. *)
let close_all t =
  Hashtbl.iter (fun _ c -> Evconn.close c.ev) t.by_fd;
  Hashtbl.reset t.by_fd;
  Hashtbl.reset t.by_id;
  Evloop.close t.loop;
  close_quietly t.listen

let route_until_shutdown t =
  Evloop.add t.loop t.listen ~read:true ~write:false;
  Evloop.add t.loop t.wake_fd ~read:true ~write:false;
  let listen_n = int_of_fd t.listen and wake_n = int_of_fd t.wake_fd in
  while Atomic.get t.running do
    (* With a stall timeout the loop must wake to consult the injected
       clock even when the fabric is silent. *)
    let timeout = match t.stall_timeout with None -> -1.0 | Some _ -> 0.05 in
    (match Evloop.wait t.loop ~timeout with
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        reap_dead_fds t;
        process_kills t
    | events ->
        Metrics.incr t.loop_wakeups;
        List.iter
          (fun (ev : Evloop.event) ->
            let n = int_of_fd ev.Evloop.fd in
            if n = wake_n then begin
              ignore (t.wake_r.Vio.read (Bytes.create 16) 0 16 : Vio.read_result);
              process_kills t
            end
            else if n = listen_n then accept_loop t
            else
              match Hashtbl.find_opt t.by_fd n with
              | None -> Evloop.remove t.loop ev.Evloop.fd
              | Some c ->
                  if ev.Evloop.readable || ev.Evloop.error then handle_readable t c;
                  if ev.Evloop.writable && not (is_dropped c) then flush_conn t c)
          events);
    reap_stalled t;
    (* One flush pass per wakeup: everything staged for a destination
       during this batch of events leaves in a single write. *)
    List.iter (flush_conn t)
      (conns_where t.by_id (fun c -> c.writing || Evconn.want_write c.ev))
  done

let broker_loop t =
  Fun.protect ~finally:(fun () -> close_all t) (fun () -> route_until_shutdown t)

let close_pipe t =
  t.wake_r.Vio.close ();
  t.wake_w.Vio.close ()

let create ?(obs = Hub.noop) ?(clock = Dynvote_obs.Clock.now) ?stall_timeout
    ~universe ~segment_of () =
  (* A routed frame to a just-crashed socket must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1024;
  Unix.set_nonblock listen;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  let wake_fd, wake_w = Unix.pipe () in
  let t =
    {
      listen;
      port;
      universe;
      segment_of;
      obs;
      clock;
      stall_timeout;
      net_sent = Metrics.counter obs.Hub.metrics "net.frames.sent";
      net_delivered = Metrics.counter obs.Hub.metrics "net.frames.delivered";
      net_rejected = Metrics.counter obs.Hub.metrics "net.frames.rejected";
      net_dropped = Metrics.counter obs.Hub.metrics "net.frames.dropped";
      loop_wakeups = Metrics.counter obs.Hub.metrics "net.loop.wakeups";
      batch_frames = Metrics.histogram obs.Hub.metrics "net.batch.frames";
      topology = Atomic.make { up = Site_set.empty; groups = None };
      running = Atomic.make true;
      mutex = Mutex.create ();
      kill_queue = [];
      next_client = Wire.first_client_id;
      loop = Evloop.create ();
      by_fd = Hashtbl.create 64;
      by_id = Hashtbl.create 64;
      wake_fd;
      wake_r = Vio.of_fd wake_fd;
      wake_w = Vio.of_fd wake_w;
      broker = None;
    }
  in
  (match Domain.spawn (fun () -> broker_loop t) with
  | broker -> t.broker <- Some broker
  | exception e ->
      Evloop.close t.loop;
      close_quietly listen;
      close_pipe t;
      raise e);
  t

let port t = t.port
let backend t = Evloop.backend_name t.loop

let partition t groups =
  let covered = List.fold_left Site_set.union Site_set.empty groups in
  if not (Site_set.equal covered t.universe) then
    invalid_arg "Switchboard.partition: groups must cover the universe";
  let total = List.fold_left (fun acc g -> acc + Site_set.cardinal g) 0 groups in
  if total <> Site_set.cardinal t.universe then
    invalid_arg "Switchboard.partition: groups overlap";
  (* Segments are physically unsplittable (carrier-sense wire / token
     ring): every pair of same-segment sites must land in one group. *)
  Site_set.iter
    (fun a ->
      Site_set.iter
        (fun b ->
          if a < b && t.segment_of a = t.segment_of b then
            let together =
              List.exists (fun g -> Site_set.mem a g && Site_set.mem b g) groups
            in
            if not together then
              invalid_arg
                (Printf.sprintf
                   "Switchboard.partition: sites %d and %d share a segment and \
                    cannot be separated"
                   a b))
        t.universe)
    t.universe;
  locked t (fun () ->
      set_topology_locked t (fun top -> { top with groups = Some groups });
      Hub.event t.obs
        (Trace.Partition
           { groups = Fmt.str "%a" (Fmt.list ~sep:Fmt.sp Site_set.pp) groups });
      wake_locked t)

let heal t =
  locked t (fun () ->
      set_topology_locked t (fun top -> { top with groups = None });
      Hub.event t.obs Trace.Heal;
      wake_locked t)

let crash t site =
  locked t (fun () ->
      set_topology_locked t (fun top -> { top with up = Site_set.remove site top.up });
      t.kill_queue <- site :: t.kill_queue;
      Hub.event t.obs (Trace.Crash { site });
      wake_locked t)

let up_sites t = (Atomic.get t.topology).up
let is_up t site = Site_set.mem site (up_sites t)

let reserve_clients t ~upto =
  locked t (fun () -> t.next_client <- max t.next_client (upto + 1))

(* Joining re-raises whatever killed the broker, after the pipe is
   closed.  A second call finds no broker and returns. *)
let shutdown t =
  match t.broker with
  | None -> ()
  | Some broker ->
      t.broker <- None;
      locked t (fun () ->
          wake_locked t;
          Atomic.set t.running false);
      Fun.protect ~finally:(fun () -> close_pipe t) (fun () -> Domain.join broker)
