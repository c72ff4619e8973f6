(* Framed non-blocking connection: Wire.Decoder on the way in, a
   bounded coalescing byte queue on the way out, and blocking
   [drain]/[recv] on top for the ends that want one exchange at a time
   (a node's link, a handshake, a single client call).

   The outbound queue is one growable byte region with head/tail
   offsets.  Frames are appended at [tail]; [flush] writes from [head].
   Because consecutive frames are contiguous, one write call carries as
   many whole frames as the kernel will take — the writev effect
   without scatter/gather. *)

type t = {
  vio : Vio.t;
  dec : Wire.Decoder.t;
  scratch : Bytes.t;
  max_queue : int;
  mutable out : Bytes.t;
  mutable head : int;
  mutable tail : int;
  mutable staged_frames : int;  (* frames between head and tail *)
  mutable big_end : int;
      (* end of a head frame larger than [max_queue] while it drains;
         the bound counts only what queues behind it *)
  mutable n_frames_out : int;
  mutable poisoned : bool;  (* overflowed or peer gone *)
  mutable is_closed : bool;
}

let create ?(max_queue = 4 * 1024 * 1024) vio =
  {
    vio;
    dec = Wire.Decoder.create ();
    scratch = Bytes.create 65536;
    max_queue;
    out = Bytes.create 4096;
    head = 0;
    tail = 0;
    staged_frames = 0;
    big_end = 0;
    n_frames_out = 0;
    poisoned = false;
    is_closed = false;
  }

let of_fd ?max_queue fd = create ?max_queue (Vio.of_fd fd)

let dial ?max_queue ~port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt sock Unix.TCP_NODELAY true
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  of_fd ?max_queue sock

let fd t = t.vio.Vio.fd
let pending_bytes t = t.tail - t.head
let buffered_in t = Wire.Decoder.buffered t.dec
let queued_frames t = t.staged_frames
let want_write t = (not t.poisoned) && t.tail > t.head
let frames_out t = t.n_frames_out
let is_closed t = t.is_closed

let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    t.poisoned <- true;
    t.vio.Vio.close ()
  end

let make_room t extra =
  (* Reclaim the flushed prefix first; grow only if that is not enough. *)
  if t.head > 0 then begin
    Bytes.blit t.out t.head t.out 0 (t.tail - t.head);
    t.tail <- t.tail - t.head;
    t.big_end <- max 0 (t.big_end - t.head);
    t.head <- 0
  end;
  if t.tail + extra > Bytes.length t.out then begin
    let grown = Bytes.create (max (2 * Bytes.length t.out) (t.tail + extra)) in
    Bytes.blit t.out 0 grown 0 t.tail;
    t.out <- grown
  end

let enqueue t env =
  if t.poisoned then `Overflow
  else begin
    let frame = Wire.encode env in
    let len = String.length frame in
    let queued = if t.head < t.big_end then t.tail - t.big_end else pending_bytes t in
    if pending_bytes t > 0 && queued + len > t.max_queue then begin
      (* The bound is the backpressure contract: beyond it the peer is a
         slow consumer and the connection dies rather than the process
         OOMing or the frame silently vanishing.  An empty queue takes
         any one frame the codec does, so a frame larger than the bound
         is never refused for its size alone. *)
      t.poisoned <- true;
      `Overflow
    end
    else begin
      make_room t len;
      if len > t.max_queue then t.big_end <- t.tail + len;
      Bytes.blit_string frame 0 t.out t.tail len;
      t.tail <- t.tail + len;
      t.staged_frames <- t.staged_frames + 1;
      `Ok
    end
  end

let rec flush t =
  if t.poisoned then `Closed
  else if t.head >= t.tail then begin
    t.head <- 0;
    t.tail <- 0;
    t.big_end <- 0;
    `Idle
  end
  else
    match t.vio.Vio.write t.out t.head (t.tail - t.head) with
    | Vio.Wrote n ->
        t.head <- t.head + n;
        if t.head >= t.tail then begin
          t.n_frames_out <- t.n_frames_out + t.staged_frames;
          t.staged_frames <- 0;
          t.head <- 0;
          t.tail <- 0;
          t.big_end <- 0;
          `Idle
        end
        else if n = 0 then `Blocked
        else flush t
    | Vio.Write_block -> `Blocked
    | Vio.Write_intr -> flush t
    | Vio.Write_closed ->
        t.poisoned <- true;
        `Closed

(* Per-call read budget: a firehose peer cannot starve the rest of the
   loop; a level-triggered wait re-signals whatever is left. *)
let read_budget = 4

let on_readable ?(budget = read_budget) t =
  let frames = ref [] in
  let drain () =
    let continue = ref true in
    while !continue do
      match Wire.Decoder.next t.dec with
      | None -> continue := false
      | Some f -> frames := f :: !frames
    done
  in
  (* Frames a blocking [recv] left buffered go first. *)
  drain ();
  let rec read_loop budget =
    if budget = 0 then `Open
    else
      match t.vio.Vio.read t.scratch 0 (Bytes.length t.scratch) with
      | Vio.Read 0 -> `Open (* spurious: nothing delivered *)
      | Vio.Read n ->
          Wire.Decoder.feed t.dec t.scratch 0 n;
          drain ();
          read_loop (budget - 1)
      | Vio.Read_block -> `Open
      | Vio.Read_intr -> read_loop budget
      | Vio.Read_eof -> `Eof
  in
  let status = read_loop budget in
  (List.rev !frames, status)

(* --- blocking use --------------------------------------------------------

   Readiness comes from a one-shot poll(2) on the descriptor; a fake
   endpoint has none and is driven straight through its script. *)

let wait_ready t ~read ~timeout =
  match t.vio.Vio.fd with
  | None -> true
  | Some fd -> Evloop.wait_fd fd ~read ~write:(not read) ~timeout <> None

let rec drain t =
  match flush t with
  | (`Idle | `Closed) as done_ -> done_
  | `Blocked ->
      ignore (wait_ready t ~read:false ~timeout:(-1.0) : bool);
      drain t

(* [deadline] is an absolute reading of [clock] — the injected monotonic
   clock by default, never the steppable wall clock. *)
let rec recv ?(clock = Dynvote_obs.Clock.now) ?deadline t =
  match Wire.Decoder.next t.dec with
  | Some (Ok env) -> Ok env
  | Some (Error reason) -> Error (`Corrupt reason)
  | None ->
      let timeout =
        match deadline with None -> -1.0 (* block *) | Some d -> d -. clock ()
      in
      if t.is_closed then Error `Closed
      else if deadline <> None && timeout <= 0.0 then Error `Timeout
      else if not (wait_ready t ~read:true ~timeout) then Error `Timeout
      else (
        match t.vio.Vio.read t.scratch 0 (Bytes.length t.scratch) with
        | Vio.Read n ->
            Wire.Decoder.feed t.dec t.scratch 0 n;
            recv ~clock ?deadline t
        | Vio.Read_block when t.vio.Vio.fd = None -> Error `Timeout
        | Vio.Read_block | Vio.Read_intr -> recv ~clock ?deadline t
        | Vio.Read_eof -> Error `Closed)

let handshake ~clock t hello =
  ignore (enqueue t hello : [ `Ok | `Overflow ]);
  match
    if drain t = `Closed then Error `Closed
    else recv ~clock ~deadline:(clock () +. 5.0) t
  with
  | Ok { Wire.payload = Wire.Welcome { id }; _ } -> Some id
  | _ ->
      close t;
      None
