(* The site loop: one Evloop over every local site's connection, on one
   thread of the caller's domain, stepping each site through Node's step
   interface.

   Each wakeup reads the frames of every ready site and hands them to
   [Node.take], expires the deadlines that are due, then settles each
   site it touched once: runs its request queue, flushes its commits and
   writes its outbound frames.  A site's failure is its own: [Dead] (its
   connection went away), [Killed] (a strike point) or a [Unix_error]
   closes that site and no other, as its process dying would.

   A durable commit flush does not fsync on this thread.  The site's
   syncer — a thread of its own, started at its first durable flush —
   runs [Node.sync] while the loop serves the other sites, and the site
   takes no frame until the syncer reports through the self-pipe and
   [Node.synced] has run the flush's tail.

   The loop's site table and readiness set are its own.  What it shares
   with the caller and the syncers sits under [mutex]: the sites it
   holds (a site is held from [add] until its node is closed, which
   [closed] signals), the restarted nodes waiting to come in, and the
   syncers' reports; writes to the self-pipe happen under it too. *)

module Metrics = Dynvote_obs.Metrics
module Hub = Dynvote_obs.Hub

external int_of_fd : Unix.file_descr -> int = "%identity"

type syncer = {
  m : Mutex.t;
  asked : Condition.t;
  mutable job : bool; (* a sync asked for and not yet started *)
  mutable quit : bool;
  mutable thread : Thread.t option;
}

type site = {
  node : Node.t;
  fd : Unix.file_descr;
  mutable syncer : syncer option;
  mutable in_sync : bool; (* a sync handed to the syncer and not yet reported *)
  mutable gone : bool; (* out of the loop; closed once no sync is in flight *)
  mutable writing : bool; (* write interest registered *)
  mutable touched : bool; (* settles at the end of this wakeup *)
}

type t = {
  clock : unit -> float;
  loop : Evloop.t;
  by_fd : (int, site) Hashtbl.t;
  mutable dying : site list; (* out of the loop, closing once their sync reports *)
  wakeups : Metrics.counter;
  mutex : Mutex.t;
  closed : Condition.t;
  mutable held : Site_set.t;
  mutable arrivals : Node.t list;
  mutable reports : (site * (unit, exn) result) list;
  stopping : bool Atomic.t;
  wake_fd : Unix.file_descr;
  wake_r : Vio.t;
  wake_w : Vio.t;
  mutable thread : Thread.t option; (* caller side only; None once joined *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Called with the mutex held.  A full pipe already holds a pending
   wakeup, so a refused byte is fine. *)
let poke_locked t = ignore (t.wake_w.Vio.write (Bytes.make 1 '!') 0 1 : Vio.write_result)

(* --- syncers ---------------------------------------------------------- *)

let run_syncer t s y =
  let rec next () =
    Mutex.lock y.m;
    while not (y.job || y.quit) do
      Condition.wait y.asked y.m
    done;
    let job = y.job in
    y.job <- false;
    Mutex.unlock y.m;
    if job then begin
      let outcome = match Node.sync s.node with () -> Ok () | exception e -> Error e in
      locked t (fun () ->
          t.reports <- (s, outcome) :: t.reports;
          poke_locked t);
      next ()
    end
  in
  next ()

let hand_off t s =
  let y =
    match s.syncer with
    | Some y -> y
    | None ->
        let y =
          {
            m = Mutex.create ();
            asked = Condition.create ();
            job = false;
            quit = false;
            thread = None;
          }
        in
        y.thread <- Some (Thread.create (run_syncer t s) y);
        s.syncer <- Some y;
        y
  in
  s.in_sync <- true;
  Mutex.lock y.m;
  y.job <- true;
  Condition.signal y.asked;
  Mutex.unlock y.m

(* A syncer finishes the job it holds before it quits. *)
let stop_syncer s =
  match s.syncer with
  | None -> ()
  | Some y ->
      s.syncer <- None;
      Mutex.lock y.m;
      y.quit <- true;
      Condition.signal y.asked;
      Mutex.unlock y.m;
      Option.iter Thread.join y.thread

(* --- sites ------------------------------------------------------------ *)

let finish_close t s =
  stop_syncer s;
  Node.close s.node;
  locked t (fun () ->
      t.held <- Site_set.remove (Node.site s.node) t.held;
      Condition.broadcast t.closed)

(* Take the site out of the loop at once, and close it as soon as no
   syncer can touch its files. *)
let drop t s =
  if not s.gone then begin
    s.gone <- true;
    Hashtbl.remove t.by_fd (int_of_fd s.fd);
    Evloop.remove t.loop s.fd;
    if s.in_sync then t.dying <- s :: t.dying else finish_close t s
  end

let step t s f =
  if not s.gone then
    match f s.node with
    | () -> if Node.syncing s.node && not s.in_sync then hand_off t s
    | exception (Node.Dead | Node.Killed | Unix.Unix_error _) -> drop t s
    | exception e ->
        (* Any other failure ends this site alone too, but loudly. *)
        Printf.eprintf "dynvote: live site %d: %s\n%!" (Node.site s.node)
          (Printexc.to_string e);
        drop t s

(* Keep the write interest in step with the outbound queue.  A site
   whose fsync is out is not watched: what it may not write yet would
   wake the loop for nothing, and its settle after the sync writes the
   rest. *)
let update_write_interest t s =
  let want = Evconn.want_write (Node.conn s.node) && not s.in_sync in
  if want <> s.writing then begin
    s.writing <- want;
    Evloop.modify t.loop s.fd ~read:true ~write:want
  end

let admit t node =
  match Evconn.fd (Node.conn node) with
  | None -> invalid_arg "Site_loop: a node without a descriptor"
  | Some fd ->
      let s =
        {
          node;
          fd;
          syncer = None;
          in_sync = false;
          gone = false;
          writing = false;
          touched = false;
        }
      in
      Hashtbl.replace t.by_fd (int_of_fd fd) s;
      Evloop.add t.loop fd ~read:true ~write:false

(* --- the loop ---------------------------------------------------------- *)

(* A site taken out of the loop while its sync was out still runs the
   flush's tail and settles what it had read, as the process would have
   before it noticed its connection gone; it closes once no sync is
   left. *)
let report t touch (s, outcome) =
  s.in_sync <- false;
  if s.gone then begin
    (try
       Node.synced s.node outcome;
       Node.settle s.node
     with _ -> ());
    if Node.syncing s.node then hand_off t s
    else begin
      t.dying <- List.filter (fun d -> d != s) t.dying;
      finish_close t s
    end
  end
  else begin
    step t s (fun node -> Node.synced node outcome);
    touch s
  end

let on_wake t touch =
  let buf = Bytes.create 64 in
  let rec empty_pipe () =
    match t.wake_r.Vio.read buf 0 (Bytes.length buf) with
    | Vio.Read 64 | Vio.Read_intr -> empty_pipe ()
    | Vio.Read _ | Vio.Read_block | Vio.Read_eof -> ()
  in
  empty_pipe ();
  let arrivals, reports =
    locked t (fun () ->
        let taken = (t.arrivals, t.reports) in
        t.arrivals <- [];
        t.reports <- [];
        taken)
  in
  List.iter (admit t) (List.rev arrivals);
  List.iter (report t touch) (List.rev reports)

let next_timeout t =
  let earliest =
    Hashtbl.fold
      (fun _ s acc ->
        match Node.next_deadline s.node with Some d -> Float.min d acc | None -> acc)
      t.by_fd infinity
  in
  if earliest = infinity then -1.0 else Float.max 0.0 (earliest -. t.clock ())

let run t =
  let wake_n = int_of_fd t.wake_fd in
  let touched = ref [] in
  let touch s =
    if not s.touched then begin
      s.touched <- true;
      touched := s :: !touched
    end
  in
  (* Stopping waits for every site's connection to close, so each takes
     what its peers sent before the switchboard went away, as a process
     reads its socket to EOF. *)
  while not (Atomic.get t.stopping && Hashtbl.length t.by_fd = 0 && t.dying = []) do
    let events = Evloop.wait t.loop ~timeout:(next_timeout t) in
    Metrics.incr t.wakeups;
    List.iter
      (fun (ev : Evloop.event) ->
        let n = int_of_fd ev.Evloop.fd in
        if n = wake_n then on_wake t touch
        else
          match Hashtbl.find_opt t.by_fd n with
          | None -> ()
          | Some s ->
              if ev.Evloop.readable || ev.Evloop.error then begin
                (* One read: a second one mostly finds the socket empty,
                   and every read hands the domain's runtime lock to the
                   clients and syncers waiting for it; epoll signals
                   again for what is left. *)
                let frames, status = Evconn.on_readable ~budget:1 (Node.conn s.node) in
                step t s (fun node -> Node.take node frames);
                if status = `Eof then begin
                  (* What the site read before its connection went, it
                     handles — its commits flushed — then it closes. *)
                  step t s Node.settle;
                  drop t s
                end
              end;
              touch s)
      events;
    let now = t.clock () in
    Hashtbl.iter
      (fun _ s ->
        match Node.next_deadline s.node with
        | Some d when d <= now -> touch s
        | Some _ | None -> ())
      t.by_fd;
    (* In the order the sites were touched. *)
    List.iter
      (fun s ->
        s.touched <- false;
        step t s Node.expire;
        step t s Node.settle;
        if not s.gone then update_write_interest t s)
      (List.rev !touched);
    touched := []
  done

(* However the loop ends, every site it holds closes — one whose sync is
   in flight once its syncer has finished — and so does every node still
   waiting to come in; an [add] after this closes its node itself. *)
let close_all t =
  let arrivals =
    locked t (fun () ->
        Atomic.set t.stopping true;
        let arrivals = t.arrivals in
        t.arrivals <- [];
        arrivals)
  in
  List.iter Node.close arrivals;
  List.iter (drop t) (Hashtbl.fold (fun _ s acc -> s :: acc) t.by_fd []);
  List.iter (finish_close t) t.dying;
  t.dying <- [];
  Evloop.close t.loop;
  locked t (fun () ->
      t.held <- Site_set.empty;
      Condition.broadcast t.closed)

let create ~obs ~clock () =
  let wake_fd, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      clock;
      loop = Evloop.create ();
      by_fd = Hashtbl.create 8;
      dying = [];
      wakeups = Metrics.counter obs.Hub.metrics "live.loop.wakeups";
      mutex = Mutex.create ();
      closed = Condition.create ();
      held = Site_set.empty;
      arrivals = [];
      reports = [];
      stopping = Atomic.make false;
      wake_fd;
      wake_r = Vio.of_fd wake_fd;
      wake_w = Vio.of_fd wake_w;
      thread = None;
    }
  in
  Evloop.add t.loop wake_fd ~read:true ~write:false;
  (match
     Thread.create
       (fun () -> Fun.protect ~finally:(fun () -> close_all t) (fun () -> run t))
       ()
   with
  | thread -> t.thread <- Some thread
  | exception e ->
      Evloop.close t.loop;
      t.wake_r.Vio.close ();
      t.wake_w.Vio.close ();
      raise e);
  t

let add t node =
  let taken =
    locked t (fun () ->
        Atomic.get t.stopping
        || begin
             t.held <- Site_set.add (Node.site node) t.held;
             t.arrivals <- node :: t.arrivals;
             poke_locked t;
             false
           end)
  in
  if taken then Node.close node

let await_closed t site =
  locked t (fun () ->
      while Site_set.mem site t.held do
        Condition.wait t.closed t.mutex
      done)

let shutdown t =
  match t.thread with
  | None -> ()
  | Some thread ->
      t.thread <- None;
      locked t (fun () ->
          Atomic.set t.stopping true;
          poke_locked t);
      Fun.protect
        ~finally:(fun () ->
          t.wake_r.Vio.close ();
          t.wake_w.Vio.close ())
        (fun () -> Thread.join thread)
