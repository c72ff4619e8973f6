(* The in-process network fabric, event-driven.  One broker thread runs
   an Evloop (epoll on Linux, poll elsewhere) over every registered
   connection and routes frames subject to the current topology; the
   control API (partition / heal / crash) mutates that topology under a
   mutex and pokes the broker through a self-pipe so changes take effect
   immediately, even while the broker is blocked in the wait.

   Routing never blocks: a frame is staged on the destination's bounded
   outbound queue (Evconn) and flushed once per wakeup, so frames that
   arrive together leave in one write — the batching that makes the
   quorum chatter cheap.  A destination whose queue overflows is severed
   (crash semantics): a slow consumer never OOMs the broker and never
   silently loses frames while appearing alive, and fast peers are
   unaffected because every queue is per-connection.

   Fault semantics are chosen to match what a real LAN does:
   - a partition silently eats frames crossing the cut;
   - a crash closes the victim's socket (the node thread dies on EOF);
   - nothing is ever reordered or duplicated on a surviving path (TCP). *)

module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Hub = Dynvote_obs.Hub

type endpoint = {
  id : int;
  conn : Evconn.t;
  mutable writing : bool; (* write interest currently registered *)
  mutable partial_since : float option; (* incomplete inbound frame age *)
}

type pending = {
  pconn : Evconn.t;
  born : float;
  mutable pwriting : bool;
}

type source = Endpoint of endpoint | Pending of pending

type stats = { routed : int; dropped_partition : int; dropped_down : int }

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
  mutex : Mutex.t;
  loop : Evloop.t;
  by_fd : (int, source) Hashtbl.t; (* broker thread only *)
  mutable endpoints : endpoint list;
  mutable pendings : pending list;
  mutable up : Site_set.t;
  mutable groups : Site_set.t list option;
  mutable kill_queue : Site_set.site list;
  mutable next_client : int;
  mutable running : bool;
  mutable routed : int;
  mutable dropped_partition : int;
  mutable dropped_down : int;
  wake_fd : Unix.file_descr; (* the self-pipe's read end, for the loop *)
  wake_r : Vio.t;
  wake_w : Vio.t;
  mutable broker : Thread.t option;
}

external int_of_fd : Unix.file_descr -> int = "%identity"

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* A full pipe already holds a pending wakeup, so a refused byte is
   fine. *)
let wake t =
  ignore (t.wake_w.Vio.write (Bytes.make 1 '!') 0 1 : Vio.write_result)

(* Both endpoints up and on the same side of the cut.  Clients are
   treated as co-located with whatever site they address (the paper's
   user-at-a-site model), so only the site's liveness matters to them. *)
let connected_locked t a b =
  let site_ok s = (not (Wire.is_site s)) || Site_set.mem s t.up in
  site_ok a && site_ok b
  &&
  if Wire.is_site a && Wire.is_site b then
    match t.groups with
    | None -> true
    | Some groups ->
        List.exists (fun g -> Site_set.mem a g && Site_set.mem b g) groups
  else true

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Everything below runs on the broker thread (the only thread that
   touches the evloop and the fd table); the mutex only guards the
   topology and the endpoint lists that the control API reads. *)

let unregister_fd t conn =
  match Evconn.fd conn with
  | None -> ()
  | Some fd ->
      Hashtbl.remove t.by_fd (int_of_fd fd);
      Evloop.remove t.loop fd;
      Evconn.close conn

let drop_endpoint t ep =
  locked t (fun () ->
      t.endpoints <- List.filter (fun e -> e != ep) t.endpoints;
      if Wire.is_site ep.id then t.up <- Site_set.remove ep.id t.up);
  unregister_fd t ep.conn

let drop_pending t p =
  locked t (fun () -> t.pendings <- List.filter (fun q -> q != p) t.pendings);
  unregister_fd t p.pconn

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
let update_write_interest t ep =
  let want = Evconn.want_write ep.conn in
  if want <> ep.writing then begin
    ep.writing <- want;
    match Evconn.fd ep.conn with
    | None -> ()
    | Some fd -> ( try Evloop.modify t.loop fd ~read:true ~write:want
                   with Unix.Unix_error _ -> ())
  end

let flush_endpoint t ep =
  if Evconn.want_write ep.conn then begin
    let batch = Evconn.queued_frames ep.conn in
    match Evconn.flush ep.conn with
    | `Idle ->
        if batch > 0 then Metrics.observe t.batch_frames (float_of_int batch);
        update_write_interest t ep
    | `Blocked -> update_write_interest t ep
    | `Closed ->
        locked t (fun () -> t.dropped_down <- t.dropped_down + 1);
        drop_endpoint t ep
  end
  else update_write_interest t ep

let route t ep (env : Wire.envelope) =
  let deliver =
    locked t (fun () ->
        (* The registered id is authoritative; a frame cannot spoof its
           source. *)
        let env = { env with Wire.src = ep.id } in
        if not (connected_locked t ep.id env.Wire.dst) then begin
          if Wire.is_site ep.id && Wire.is_site env.Wire.dst then begin
            t.dropped_partition <- t.dropped_partition + 1;
            drop_frame t env "partition:"
          end
          else begin
            t.dropped_down <- t.dropped_down + 1;
            drop_frame t env "down:"
          end;
          None
        end
        else
          match List.find_opt (fun e -> e.id = env.Wire.dst) t.endpoints with
          | None ->
              t.dropped_down <- t.dropped_down + 1;
              drop_frame t env "unregistered:";
              None
          | Some target -> Some (env, target))
  in
  match deliver with
  | None -> ()
  | Some (env, target) -> (
      match Evconn.enqueue target.conn env with
      | `Ok ->
          locked t (fun () -> t.routed <- t.routed + 1);
          Metrics.incr t.net_delivered;
          Hub.event t.obs
            (Trace.Frame_recv
               {
                 src = env.Wire.src;
                 dst = env.Wire.dst;
                 kind = Wire.kind_name env.Wire.payload;
               })
      | `Overflow ->
          (* The backpressure contract: a consumer that cannot drain its
             queue is indistinguishable from a dead one, and killing the
             connection is the only reaction that neither loses frames on
             a live path nor grows without bound. *)
          locked t (fun () -> t.dropped_down <- t.dropped_down + 1);
          drop_frame t env "backpressure:";
          Hub.event t.obs
            (Trace.Note
               (Printf.sprintf "backpressure severed endpoint %d" target.id));
          drop_endpoint t target)

let send_direct t ep env =
  match Evconn.enqueue ep.conn env with
  | `Ok -> flush_endpoint t ep
  | `Overflow -> drop_endpoint t ep

let register t p (env : Wire.envelope) =
  locked t (fun () -> t.pendings <- List.filter (fun q -> q != p) t.pendings);
  match env.Wire.payload with
  | Wire.Hello_site { site }
    when Site_set.mem site t.universe && not (locked t (fun () -> Site_set.mem site t.up)) ->
      (* A stale registration for this site (a crashed node whose socket
         we have not reaped yet) is replaced. *)
      List.iter
        (fun e -> if e.id = site then drop_endpoint t e)
        (locked t (fun () -> List.filter (fun e -> e.id = site) t.endpoints));
      let ep = { id = site; conn = p.pconn; writing = p.pwriting; partial_since = None } in
      locked t (fun () ->
          t.endpoints <- ep :: t.endpoints;
          t.up <- Site_set.add site t.up);
      (match Evconn.fd p.pconn with
      | Some fd -> Hashtbl.replace t.by_fd (int_of_fd fd) (Endpoint ep)
      | None -> ());
      send_direct t ep
        { Wire.src = Wire.broker_id; dst = site; payload = Wire.Welcome { id = site } }
  | Wire.Hello_client ->
      let id = locked t (fun () ->
          let id = t.next_client in
          t.next_client <- id + 1;
          id)
      in
      let ep = { id; conn = p.pconn; writing = p.pwriting; partial_since = None } in
      locked t (fun () -> t.endpoints <- ep :: t.endpoints);
      (match Evconn.fd p.pconn with
      | Some fd -> Hashtbl.replace t.by_fd (int_of_fd fd) (Endpoint ep)
      | None -> ());
      send_direct t ep
        { Wire.src = Wire.broker_id; dst = id; payload = Wire.Welcome { id } }
  | _ -> unregister_fd t p.pconn

let process_kills t =
  let victims =
    locked t (fun () ->
        let sites = t.kill_queue in
        t.kill_queue <- [];
        List.concat_map
          (fun site -> List.filter (fun e -> e.id = site) t.endpoints)
          sites)
  in
  List.iter (fun ep -> drop_endpoint t ep) victims

let handle_frames t source frames =
  List.iter
    (fun frame ->
      match (frame, source) with
      | Error reason, Endpoint ep ->
          (* A corrupt frame means the stream is unframed garbage; the
             connection cannot be trusted any further. *)
          Metrics.incr t.net_rejected;
          Hub.event t.obs (Trace.Frame_rejected { src = ep.id; reason });
          drop_endpoint t ep
      | Error reason, Pending p ->
          Metrics.incr t.net_rejected;
          Hub.event t.obs (Trace.Frame_rejected { src = -1; reason });
          drop_pending t p
      | Ok env, Endpoint ep ->
          Metrics.incr t.net_sent;
          Hub.event t.obs
            (Trace.Frame_sent
               {
                 src = ep.id;
                 dst = env.Wire.dst;
                 kind = Wire.kind_name env.Wire.payload;
               });
          route t ep env
      | Ok env, Pending p -> register t p env)
    frames

let still_open t source =
  match source with
  | Endpoint ep -> locked t (fun () -> List.memq ep t.endpoints)
  | Pending p -> locked t (fun () -> List.memq p t.pendings)

let handle_readable t source =
  let conn = match source with Endpoint ep -> ep.conn | Pending p -> p.pconn in
  let frames, status = Evconn.on_readable conn in
  handle_frames t source frames;
  (match source with
  | Endpoint ep ->
      ep.partial_since <-
        (if Evconn.buffered_in conn > 0 then
           match ep.partial_since with
           | Some _ as s -> s
           | None -> Some (t.clock ())
         else None)
  | Pending _ -> ());
  match status with
  | `Open -> ()
  | `Eof ->
      if still_open t source then (
        match source with
        | Endpoint ep -> drop_endpoint t ep
        | Pending p -> drop_pending t p)

let accept_loop t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen with
    | fd, _ ->
        (* Tiny request/reply frames: Nagle would serialize every
           exchange into 40 ms delayed-ACK stalls. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let p = { pconn = Evconn.of_fd fd; born = t.clock (); pwriting = false } in
        locked t (fun () -> t.pendings <- p :: t.pendings);
        Hashtbl.replace t.by_fd (int_of_fd fd) (Pending p);
        Evloop.add t.loop fd ~read:true ~write:false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* A peer that opened a frame and stopped feeding it — or connected and
   never said Hello — is reaped on the injected clock, not by any
   blocking read: the loop itself is the timeout mechanism. *)
let reap_stalled t =
  match t.stall_timeout with
  | None -> ()
  | Some limit ->
      let now = t.clock () in
      let stale_eps =
        locked t (fun () ->
            List.filter
              (fun ep ->
                match ep.partial_since with
                | Some since -> now -. since > limit
                | None -> false)
              t.endpoints)
      in
      List.iter
        (fun ep ->
          Hub.event t.obs
            (Trace.Note (Printf.sprintf "reaped stalled endpoint %d" ep.id));
          drop_endpoint t ep)
        stale_eps;
      let stale_pendings =
        locked t (fun () ->
            List.filter (fun p -> now -. p.born > limit) t.pendings)
      in
      List.iter
        (fun p ->
          Hub.event t.obs (Trace.Note "reaped stalled pre-hello connection");
          drop_pending t p)
        stale_pendings

let fd_alive fd =
  match Unix.fstat fd with
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* EBADF from the wait means some registered fd is already closed — a
   crash raced the routing table, or a descriptor leaked shut elsewhere.
   Probe every fd we own and evict the dead ones. *)
let reap_dead_fds t =
  let eps = locked t (fun () -> t.endpoints) in
  List.iter
    (fun ep ->
      let dead =
        match Evconn.fd ep.conn with None -> true | Some fd -> not (fd_alive fd)
      in
      if dead then begin
        Hub.event t.obs
          (Trace.Note (Printf.sprintf "reaped dead fd of endpoint %d" ep.id));
        drop_endpoint t ep
      end)
    eps;
  let ps = locked t (fun () -> t.pendings) in
  List.iter
    (fun p ->
      let dead =
        match Evconn.fd p.pconn with None -> true | Some fd -> not (fd_alive fd)
      in
      if dead then drop_pending t p)
    ps;
  (* Losing the listener or the self-pipe is unrecoverable: stop rather
     than wait on garbage. *)
  if not (fd_alive t.listen && fd_alive t.wake_fd) then
    locked t (fun () -> t.running <- false)

let flush_all t =
  let eps = locked t (fun () -> t.endpoints) in
  List.iter (fun ep -> flush_endpoint t ep) eps

let broker_loop t =
  Evloop.add t.loop t.listen ~read:true ~write:false;
  Evloop.add t.loop t.wake_fd ~read:true ~write:false;
  let listen_n = int_of_fd t.listen and wake_n = int_of_fd t.wake_fd in
  while locked t (fun () -> t.running) do
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
              | Some source ->
                  if ev.Evloop.readable || ev.Evloop.error then
                    handle_readable t source;
                  if ev.Evloop.writable && still_open t source then (
                    match source with
                    | Endpoint ep -> flush_endpoint t ep
                    | Pending p ->
                        (match Evconn.flush p.pconn with
                        | `Closed -> drop_pending t p
                        | `Idle | `Blocked -> ())))
          events);
    reap_stalled t;
    (* One flush pass per wakeup: everything staged for a destination
       during this batch of events leaves in a single write. *)
    flush_all t
  done;
  (* Shutdown: close everything we own. *)
  let eps, ps =
    locked t (fun () ->
        let eps = t.endpoints and ps = t.pendings in
        t.endpoints <- [];
        t.pendings <- [];
        (eps, ps))
  in
  List.iter (fun ep -> unregister_fd t ep.conn) eps;
  List.iter (fun p -> unregister_fd t p.pconn) ps;
  Evloop.close t.loop;
  close_quietly t.listen;
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
      mutex = Mutex.create ();
      loop = Evloop.create ();
      by_fd = Hashtbl.create 64;
      endpoints = [];
      pendings = [];
      up = Site_set.empty;
      groups = None;
      kill_queue = [];
      next_client = Wire.first_client_id;
      running = true;
      routed = 0;
      dropped_partition = 0;
      dropped_down = 0;
      wake_fd;
      wake_r = Vio.of_fd wake_fd;
      wake_w = Vio.of_fd wake_w;
      broker = None;
    }
  in
  t.broker <- Some (Thread.create broker_loop t);
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
  locked t (fun () -> t.groups <- Some groups);
  Hub.event t.obs
    (Trace.Partition
       { groups = Fmt.str "%a" (Fmt.list ~sep:Fmt.sp Site_set.pp) groups });
  wake t

let heal t =
  locked t (fun () -> t.groups <- None);
  Hub.event t.obs Trace.Heal;
  wake t

let crash t site =
  locked t (fun () ->
      t.up <- Site_set.remove site t.up;
      t.kill_queue <- site :: t.kill_queue);
  Hub.event t.obs (Trace.Crash { site });
  wake t

let up_sites t = locked t (fun () -> t.up)

let reserve_clients t ~upto =
  locked t (fun () -> t.next_client <- max t.next_client (upto + 1))

let is_up t site = locked t (fun () -> Site_set.mem site t.up)
let groups t = locked t (fun () -> t.groups)

let stats t =
  locked t (fun () ->
      {
        routed = t.routed;
        dropped_partition = t.dropped_partition;
        dropped_down = t.dropped_down;
      })

let shutdown t =
  locked t (fun () -> t.running <- false);
  wake t;
  match t.broker with None -> () | Some thread -> Thread.join thread
