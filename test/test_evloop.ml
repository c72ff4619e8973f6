(* The event-driven I/O layer, tested without timing or luck: frame
   reassembly under adversarial chunking through the Vio fake socket,
   EAGAIN/EINTR handling, write coalescing, the bounded-backpressure
   contract (a slow consumer is severed, never buffered without bound),
   deadline injection in Evconn.recv, both readiness backends, a length
   word no frame can follow, the switchboard severing a sender of
   garbage and routing nothing behind it, and its stall reaper on a
   hand-cranked clock.  A second suite (serve-smoke) drives the real
   thing: >1024 concurrent connections through one broker loop and a
   pipelined coordinator with several client requests admitted at
   once. *)

open Helpers
module Wire = Dynvote_live.Wire
module Vio = Dynvote_live.Vio
module Evconn = Dynvote_live.Evconn
module Evloop = Dynvote_live.Evloop
module Switchboard = Dynvote_live.Switchboard
module Live = Dynvote_live.Cluster
module Loadgen = Dynvote_live.Loadgen
module Node = Dynvote_live.Node
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace
module Manual = Dynvote_obs.Clock.Manual
module Oracle = Dynvote_chaos.Oracle

(* --- fixtures -------------------------------------------------------- *)

let sample_envelopes : Wire.envelope list =
  [
    { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client };
    { Wire.src = 3; dst = 70; payload = Wire.Welcome { id = 70 } };
    {
      Wire.src = 70;
      dst = 1;
      payload = Wire.Client_put { req = 1; key = "k"; value = String.make 200 'v' };
    };
    { Wire.src = 70; dst = 2; payload = Wire.Client_get { req = 2; key = "key two" } };
    {
      Wire.src = 1;
      dst = 70;
      payload =
        Wire.Client_reply { req = 2; status = Wire.Granted; value = Some "v"; info = "" };
    };
    { Wire.src = 2; dst = 1; payload = Wire.KUnlock { op = 0x3_00_00_17; keys = [ "" ] } };
  ]

let sample_stream =
  String.concat "" (List.map Wire.encode sample_envelopes)

(* Drain an Evconn until EOF, simulating one readiness event per call
   (a level-triggered loop re-signals leftover bytes). *)
let drive conn =
  let frames = ref [] and eof = ref false and iters = ref 0 in
  while (not !eof) && !iters < 100_000 do
    incr iters;
    let fs, status = Evconn.on_readable conn in
    List.iter (fun f -> frames := f :: !frames) fs;
    if status = `Eof then eof := true
  done;
  (List.rev !frames, !eof)

let oks frames =
  List.map
    (function Ok env -> env | Error e -> Alcotest.failf "decode error: %s" e)
    frames

(* --- frame reassembly under adversarial chunking --------------------- *)

(* Any way of splitting the byte stream — chunk boundaries anywhere,
   spurious wakeups and EINTR interleaved, a read(2) that returns as
   little as one byte — must reassemble exactly the original frames in
   order.  The chunk sizes and noise pattern are qcheck's to choose. *)
let prop_chunked_reassembly =
  qcheck_case ~count:300 ~name:"adversarial chunking reassembles exactly"
    QCheck.(
      pair
        (oneof
           [
             list_of_size Gen.(int_range 1 30) (int_range 1 50);
             (* the whole stream in one chunk: one feed, many frames *)
             always [ String.length sample_stream ];
           ])
        int)
    (fun (sizes, noise) ->
      let sizes = if sizes = [] then [ 7 ] else sizes in
      let noise = abs noise in
      (* Cut the stream into chunks, cycling through [sizes]. *)
      let script = ref [] and pos = ref 0 and i = ref 0 in
      let n = String.length sample_stream in
      while !pos < n do
        let size = min (List.nth sizes (!i mod List.length sizes)) (n - !pos) in
        script := Vio.Fake.Chunk (String.sub sample_stream !pos size) :: !script;
        (* Interleave spurious wakeups and interrupts from the noise bits. *)
        (match (noise lsr (!i mod 20)) land 3 with
        | 1 -> script := Vio.Fake.Again :: !script
        | 2 -> script := Vio.Fake.Intr :: !script
        | _ -> ());
        pos := !pos + size;
        incr i
      done;
      let script = List.rev (Vio.Fake.Eof :: !script) in
      let read_cap = if noise land 1 = 0 then max_int else 1 + (noise lsr 1) land 15 in
      let fake = Vio.Fake.create ~script ~read_cap () in
      let conn = Evconn.create (Vio.Fake.vio fake) in
      let frames, eof = drive conn in
      eof && oks frames = sample_envelopes)

let test_decoder_byte_by_byte () =
  let dec = Wire.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.Decoder.feed_string dec (String.make 1 c);
      let rec pull () =
        match Wire.Decoder.next dec with
        | Some (Ok env) ->
            got := env :: !got;
            pull ()
        | Some (Error e) -> Alcotest.failf "decode error: %s" e
        | None -> ()
      in
      pull ())
    sample_stream;
  Alcotest.(check bool) "all frames recovered" true
    (List.rev !got = sample_envelopes);
  Alcotest.(check int) "no residue" 0 (Wire.Decoder.buffered dec)

let test_spurious_wakeup () =
  let fake = Vio.Fake.create ~script:[ Vio.Fake.Again ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, status = Evconn.on_readable conn in
  Alcotest.(check bool) "no frames from a spurious wakeup" true (frames = []);
  Alcotest.(check bool) "connection stays open" true (status = `Open);
  Alcotest.(check int) "exactly one read attempted" 1 (Vio.Fake.reads fake);
  (* The bytes arrive later: the same connection picks them up. *)
  Vio.Fake.feed fake [ Vio.Fake.Chunk sample_stream; Vio.Fake.Eof ];
  let frames, eof = drive conn in
  Alcotest.(check bool) "frames after the real wakeup" true
    (eof && oks frames = sample_envelopes)

(* A budget of one read takes what that read delivers and leaves the
   rest to the next call, which a level-triggered loop makes for it; the
   default budget reads on until the transport would block. *)
let test_read_budget () =
  let stream envs = String.concat "" (List.map Wire.encode envs) in
  let first = List.hd sample_envelopes and rest = List.tl sample_envelopes in
  let script () = [ Vio.Fake.Chunk (stream [ first ]); Vio.Fake.Chunk (stream rest) ] in
  let fake = Vio.Fake.create ~script:(script ()) () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, status = Evconn.on_readable ~budget:1 conn in
  Alcotest.(check bool) "one read, its frame" true
    (status = `Open && oks frames = [ first ] && Vio.Fake.reads fake = 1);
  let frames, status = Evconn.on_readable ~budget:1 conn in
  Alcotest.(check bool) "the next call, the rest" true
    (status = `Open && oks frames = rest && Vio.Fake.reads fake = 2);
  let fake = Vio.Fake.create ~script:(script ()) () in
  let frames, status = Evconn.on_readable (Evconn.create (Vio.Fake.vio fake)) in
  Alcotest.(check bool) "the default budget reads until it would block" true
    (status = `Open && oks frames = sample_envelopes && Vio.Fake.reads fake = 3)

let test_eintr_read_retried () =
  (* EINTR is retried within the same readiness event, not treated as
     data or EOF. *)
  let env = List.hd sample_envelopes in
  let fake =
    Vio.Fake.create
      ~script:[ Vio.Fake.Intr; Vio.Fake.Chunk (Wire.encode env); Vio.Fake.Intr; Vio.Fake.Eof ]
      ()
  in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, eof = drive conn in
  Alcotest.(check bool) "frame recovered through EINTR" true
    (eof && oks frames = [ env ])

(* A length word past the codec's bound leaves no frame boundary to
   find: the decoder reports it once and drops what it holds, so a
   connection's drain loop ends instead of collecting the same error
   forever. *)
let test_bad_length_word () =
  let bad = "\xff\xff\xff\x7f" in
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec (bad ^ sample_stream);
  (match Wire.Decoder.next dec with
  | Some (Error _) -> ()
  | Some (Ok _) | None -> Alcotest.fail "an out-of-range length word was not reported");
  Alcotest.(check int) "nothing left buffered" 0 (Wire.Decoder.buffered dec);
  Alcotest.(check bool) "the next call needs more bytes" true (Wire.Decoder.next dec = None);
  let fake = Vio.Fake.create ~script:[ Vio.Fake.Chunk bad; Vio.Fake.Eof ] () in
  match Evconn.on_readable (Evconn.create (Vio.Fake.vio fake)) with
  | [ Error _ ], `Eof -> ()
  | frames, _ -> Alcotest.failf "expected one error, got %d frames" (List.length frames)

let test_corrupt_stream_detected () =
  let good = Wire.encode (List.hd sample_envelopes) in
  let bad = Bytes.of_string (Wire.encode (List.nth sample_envelopes 2)) in
  (* Flip a payload byte: framing stays aligned, the checksum must not. *)
  let i = Bytes.length bad - 1 in
  Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x40));
  let fake =
    Vio.Fake.create
      ~script:[ Vio.Fake.Chunk (good ^ Bytes.to_string bad); Vio.Fake.Eof ]
      ()
  in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  let frames, _ = drive conn in
  match frames with
  | [ Ok env; Error _ ] ->
      Alcotest.(check bool) "good frame precedes the corruption" true
        (env = List.hd sample_envelopes)
  | _ -> Alcotest.failf "expected [Ok; Error], got %d frames" (List.length frames)

(* --- write side: coalescing, short writes, EINTR --------------------- *)

let test_write_coalescing () =
  (* Frames enqueued while the peer is busy leave in one write call —
     the writev effect the outbound queue exists for. *)
  let fake = Vio.Fake.create ~write_credit:0 () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  List.iter
    (fun env ->
      Alcotest.(check bool) "enqueue accepted" true (Evconn.enqueue conn env = `Ok))
    sample_envelopes;
  Alcotest.(check bool) "blocked with zero credit" true (Evconn.flush conn = `Blocked);
  Alcotest.(check bool) "write interest wanted" true (Evconn.want_write conn);
  Alcotest.(check int) "all frames staged" (List.length sample_envelopes)
    (Evconn.queued_frames conn);
  Vio.Fake.grant fake max_int;
  let before = Vio.Fake.writes fake in
  Alcotest.(check bool) "drained" true (Evconn.flush conn = `Idle);
  Alcotest.(check int) "one write call carried every frame" 1
    (Vio.Fake.writes fake - before);
  Alcotest.(check int) "frames_out counts the batch" (List.length sample_envelopes)
    (Evconn.frames_out conn);
  Alcotest.(check bool) "the wire bytes are the frames, in order" true
    (Vio.Fake.written fake = sample_stream)

let test_short_writes_and_eintr () =
  (* A sink accepting 7 bytes at a time, with an EINTR thrown in: flush
     makes progress on every grant and the byte stream is unharmed. *)
  let fake = Vio.Fake.create ~write_credit:7 ~write_script:[ Vio.Fake.Intr ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  List.iter
    (fun env -> ignore (Evconn.enqueue conn env : [ `Ok | `Overflow ]))
    sample_envelopes;
  let guard = ref 0 in
  let rec pump () =
    incr guard;
    if !guard > 10_000 then Alcotest.fail "flush made no progress";
    match Evconn.flush conn with
    | `Idle -> ()
    | `Blocked ->
        Vio.Fake.grant fake 7;
        pump ()
    | `Closed -> Alcotest.fail "healthy sink reported closed"
  in
  pump ();
  Alcotest.(check bool) "short writes preserve the stream" true
    (Vio.Fake.written fake = sample_stream)

(* --- bounded backpressure -------------------------------------------- *)

let test_backpressure_overflow_severs () =
  (* The contract: a slow consumer's queue is bounded; past the bound
     the connection dies ([`Overflow], then [`Closed]) rather than the
     process buffering without limit or a frame silently vanishing. *)
  let max_queue = 2_000 in
  let fake = Vio.Fake.create ~write_credit:0 () in
  let conn = Evconn.create ~max_queue (Vio.Fake.vio fake) in
  let env = List.nth sample_envelopes 2 (* the 200-byte put *) in
  let overflowed = ref false and attempts = ref 0 in
  while (not !overflowed) && !attempts < 1_000 do
    incr attempts;
    (match Evconn.enqueue conn env with
    | `Ok -> ()
    | `Overflow -> overflowed := true);
    Alcotest.(check bool) "staged bytes never exceed the bound" true
      (Evconn.pending_bytes conn <= max_queue)
  done;
  Alcotest.(check bool) "a slow consumer eventually overflows" true !overflowed;
  Alcotest.(check bool) "the connection is poisoned" true
    (Evconn.flush conn = `Closed);
  Alcotest.(check bool) "later frames are refused, not dropped silently" true
    (Evconn.enqueue conn env = `Overflow);
  (* A fast peer on its own connection is unaffected. *)
  let fast = Vio.Fake.create () in
  let fconn = Evconn.create ~max_queue (Vio.Fake.vio fast) in
  Alcotest.(check bool) "fast peer accepts" true (Evconn.enqueue fconn env = `Ok);
  Alcotest.(check bool) "fast peer drains" true (Evconn.flush fconn = `Idle);
  Alcotest.(check bool) "fast peer got the frame" true
    (Vio.Fake.written fast = Wire.encode env)

let test_peer_gone_poisons () =
  let fake = Vio.Fake.create ~write_script:[ Vio.Fake.Eof ] () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  ignore (Evconn.enqueue conn (List.hd sample_envelopes) : [ `Ok | `Overflow ]);
  Alcotest.(check bool) "EPIPE closes the connection" true
    (Evconn.flush conn = `Closed);
  Alcotest.(check bool) "enqueue after the peer died overflows" true
    (Evconn.enqueue conn (List.hd sample_envelopes) = `Overflow)

(* --- one frame larger than the queue bound ---------------------------- *)

(* The codec takes frames up to 16 MiB; the queue bound (4 MiB by
   default) must not refuse one of them for its size alone.  An empty
   queue accepts it and flushes it byte-identical; the bound still
   applies to what queues behind it. *)
let test_oversize_frame_accepted () =
  let value = String.make (5 * 1024 * 1024) 'b' in
  let big =
    { Wire.src = 70; dst = 1; payload = Wire.Client_put { req = 1; key = "big"; value } }
  in
  let frame = Wire.encode big in
  Alcotest.(check bool) "the codec accepts the frame" true
    (Wire.decode frame = Ok big);
  let fake = Vio.Fake.create ~write_credit:65536 () in
  let conn = Evconn.create (Vio.Fake.vio fake) in
  Alcotest.(check bool) "an empty queue accepts it" true
    (Evconn.enqueue conn big = `Ok);
  let small = List.hd sample_envelopes in
  Alcotest.(check bool) "a small frame queues behind it" true
    (Evconn.enqueue conn small = `Ok);
  let guard = ref 0 in
  while Evconn.flush conn = `Blocked && !guard < 1_000 do
    incr guard;
    Vio.Fake.grant fake 65536
  done;
  Alcotest.(check bool) "flushed byte-identical" true
    (Vio.Fake.written fake = frame ^ Wire.encode small);
  Alcotest.(check bool) "accepted again once drained" true
    (Evconn.enqueue conn big = `Ok);
  Alcotest.(check bool) "the next frame past the bound overflows" true
    (Evconn.enqueue conn big = `Overflow);
  Alcotest.(check bool) "and poisons the connection" true
    (Evconn.flush conn = `Closed)

(* --- Evconn.recv deadlines on an injected clock ----------------------- *)

let test_recv_deadline_injected_clock () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Evconn.of_fd a and peer = Evconn.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Evconn.close conn;
      Evconn.close peer)
    (fun () ->
      let clk = Manual.create () in
      let clock () = Manual.read clk in
      (* The deadline is a reading of the injected clock: with the clock
         already past it, recv times out immediately — no wall-clock wait,
         no dependence on the blocking-read path the rewrite removed. *)
      Manual.set clk 5.0;
      (match Evconn.recv ~clock ~deadline:1.0 conn with
      | Error `Timeout -> ()
      | Ok _ | Error _ -> Alcotest.fail "expired deadline did not time out");
      (* With time before the deadline and frames on the wire, recv
         delivers them one at a time, in order. *)
      Manual.set clk 0.0;
      List.iter
        (fun env -> ignore (Evconn.enqueue peer env : [ `Ok | `Overflow ]))
        sample_envelopes;
      Alcotest.(check bool) "drained" true (Evconn.drain peer = `Idle);
      List.iter
        (fun env ->
          match Evconn.recv ~clock ~deadline:4.0 conn with
          | Ok got -> Alcotest.(check bool) "frame delivered" true (got = env)
          | Error _ -> Alcotest.fail "frame not delivered before deadline")
        sample_envelopes;
      Evconn.close peer;
      Alcotest.(check bool) "EOF reported as closed" true
        (Evconn.recv ~clock ~deadline:4.0 conn = Error `Closed))

(* --- both readiness backends ------------------------------------------ *)

(* The poll branches are the only path off Linux; drive them (and
   epoll's) through one socketpair: add -> readable, modify -> writable,
   remove -> timeout. *)
let test_evloop_backends () =
  List.iter
    (fun (backend, name) ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let loop = Evloop.create ~backend () in
      Fun.protect
        ~finally:(fun () ->
          Evloop.close loop;
          Unix.close a;
          Unix.close b)
        (fun () ->
          Alcotest.(check string) "backend" name (Evloop.backend_name loop);
          let only_a f = function
            | [ (ev : Evloop.event) ] -> ev.Evloop.fd = a && f ev
            | _ -> false
          in
          Evloop.add loop a ~read:true ~write:false;
          ignore (Unix.write_substring b "!" 0 1 : int);
          Alcotest.(check bool) (name ^ ": add -> readable") true
            (only_a
               (fun ev -> ev.Evloop.readable && not ev.Evloop.writable)
               (Evloop.wait loop ~timeout:1.0));
          Evloop.modify loop a ~read:false ~write:true;
          Alcotest.(check bool) (name ^ ": modify -> writable") true
            (only_a
               (fun ev -> ev.Evloop.writable && not ev.Evloop.readable)
               (Evloop.wait loop ~timeout:1.0));
          Evloop.remove loop a;
          Alcotest.(check bool) (name ^ ": remove -> timeout") true
            (Evloop.wait loop ~timeout:0.05 = [])))
    [ (`Epoll, "epoll"); (`Poll, "poll") ]

(* --- the switchboard on real sockets ----------------------------------- *)

let connect sb =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Switchboard.port sb));
  fd

(* Wait (real time, bounded) for the broker loop to act, then look for
   EOF. *)
let severed fd =
  match Evloop.wait_fd fd ~read:true ~write:false ~timeout:5.0 with
  | None -> false
  | Some _ -> (
      match Unix.read fd (Bytes.create 64) 0 64 with
      | 0 -> true
      | _ -> false
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true)

let hello conn payload =
  match
    Evconn.handshake ~clock:Dynvote_obs.Clock.now conn
      { Wire.src = 0; dst = Wire.broker_id; payload }
  with
  | Some id -> id
  | None -> Alcotest.fail "no welcome"

let with_switchboard ?obs f =
  let sb = Switchboard.create ?obs ~universe:(ss [ 0 ]) ~segment_of:(fun s -> s) () in
  Fun.protect ~finally:(fun () -> Switchboard.shutdown sb) (fun () -> f sb)

(* A connection that opens with something no Hello can be — four bytes
   claiming a 2 GiB frame, or a Hello naming a site id no universe
   holds — is severed, and the broker goes on welcoming others. *)
let test_bad_opening_severs () =
  List.iter
    (fun (what, opening) ->
      with_switchboard (fun sb ->
          let raw = connect sb in
          ignore (Unix.write_substring raw opening 0 (String.length opening) : int);
          Alcotest.(check bool) (what ^ ": the peer is severed") true (severed raw);
          Unix.close raw;
          let fresh = Evconn.dial ~port:(Switchboard.port sb) () in
          Fun.protect
            ~finally:(fun () -> Evconn.close fresh)
            (fun () -> ignore (hello fresh Wire.Hello_client : int))))
    [
      ("a bad length word", "\xff\xff\xff\x7f");
      ( "a Hello from site 62",
        Wire.encode
          {
            Wire.src = 0;
            dst = Wire.broker_id;
            payload = Wire.Hello_site { site = Site_set.max_sites };
          } );
    ]

(* What the broker routes from one read: a request written behind its
   sender's Hello goes out once the Hello registers the connection, and
   nothing behind a corrupt frame does — the sender is severed, and the
   site that a valid frame written right after the corrupt one names
   never sees it. *)
let test_what_a_read_routes () =
  let obs = Hub.create () in
  with_switchboard ~obs (fun sb ->
      let site = Evconn.dial ~port:(Switchboard.port sb) ()
      and client = Evconn.dial ~port:(Switchboard.port sb) () in
      Fun.protect
        ~finally:(fun () ->
          Evconn.close site;
          Evconn.close client)
        (fun () ->
          ignore (hello site (Wire.Hello_site { site = 0 }) : int);
          let frame dst payload = Wire.encode { Wire.src = 0; dst; payload } in
          let get req = frame 0 (Wire.Client_get { req; key = "k" }) in
          let fd = Option.get (Evconn.fd client) in
          let write s =
            Alcotest.(check int) "one write" (String.length s)
              (Unix.write_substring fd s 0 (String.length s))
          in
          let deadline () = Dynvote_obs.Clock.now () +. 5.0 in
          write (frame Wire.broker_id Wire.Hello_client ^ get 1);
          let id =
            match Evconn.recv ~deadline:(deadline ()) client with
            | Ok { Wire.payload = Wire.Welcome { id }; _ } -> id
            | _ -> Alcotest.fail "no welcome"
          in
          (match Evconn.recv ~deadline:(deadline ()) site with
          | Ok { Wire.src; payload = Wire.Client_get { req = 1; _ }; _ } when src = id -> ()
          | Ok env -> Alcotest.failf "the site received %a" Wire.pp env
          | Error _ -> Alcotest.fail "the request behind the Hello was not routed");
          let bad = Bytes.of_string (get 2) in
          let last = Bytes.length bad - 1 in
          Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0x40));
          write (Bytes.to_string bad ^ get 3);
          Alcotest.(check bool) "the sender is severed" true (severed fd);
          (match
             Evconn.recv ~deadline:(Dynvote_obs.Clock.now () +. 0.3) site
           with
          | Error `Timeout -> ()
          | Ok env -> Alcotest.failf "the site received %a" Wire.pp env
          | Error _ -> Alcotest.fail "the site was severed");
          let count name = Metrics.counter_value (Metrics.counter obs.Hub.metrics name) in
          Alcotest.(check int) "frames rejected" 1 (count "net.frames.rejected");
          Alcotest.(check int) "frames routed" 1 (count "net.frames.sent")))

(* --- the switchboard's stall reaper on a hand-cranked clock ----------- *)

let test_stall_reaper_clock_step () =
  let clk = Manual.create () in
  let sb =
    Switchboard.create
      ~clock:(fun () -> Manual.read clk)
      ~stall_timeout:1.0 ~universe:(ss [ 0 ])
      ~segment_of:(fun s -> s)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Switchboard.shutdown sb)
    (fun () ->
      (* A slow-loris client: says Hello, then opens a frame and stops
         feeding it. *)
      let loris = connect sb in
      let wc = Evconn.of_fd loris in
      ignore
        (Evconn.enqueue wc
           { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
          : [ `Ok | `Overflow ]);
      Alcotest.(check bool) "hello sent" true (Evconn.drain wc = `Idle);
      (match Evconn.recv ~deadline:(Dynvote_obs.Clock.now () +. 5.0) wc with
      | Ok { Wire.payload = Wire.Welcome _; _ } -> ()
      | _ -> Alcotest.fail "no welcome");
      let frame = Wire.encode { Wire.src = 0; dst = 0; payload = Wire.Hello_client } in
      let half = String.length frame / 2 in
      ignore (Unix.write_substring loris frame 0 half : int);
      (* A mute connection: never completes a Hello. *)
      let mute = connect sb in
      (* Give the broker a real-time beat to read the partial frame, then
         step the injected clock past the stall budget.  Nothing here
         depends on how long the *wall* wait was. *)
      Unix.sleepf 0.2;
      Manual.set clk 10.0;
      Alcotest.(check bool) "half-fed frame reaped on the injected clock" true
        (severed loris);
      Alcotest.(check bool) "pre-hello connection reaped" true (severed mute);
      (try Unix.close loris with Unix.Unix_error _ -> ());
      try Unix.close mute with Unix.Unix_error _ -> ())

(* ===== serve-smoke: the real thing at scale ========================== *)

(* FD_SETSIZE is 1024; the readiness loop must not care.  Well over a
   thousand concurrent clients hold connections through one broker loop
   and every one of them completes a Hello/Welcome exchange. *)
let test_many_concurrent_connections () =
  let n = 1_200 in
  ignore (Evloop.raise_fd_limit ((2 * n) + 512) : int);
  let sb =
    Switchboard.create ~universe:(ss [ 0 ]) ~segment_of:(fun s -> s) ()
  in
  let socks = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !socks;
      Switchboard.shutdown sb)
    (fun () ->
      let ids = Hashtbl.create n in
      for i = 1 to n do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        socks := fd :: !socks;
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Switchboard.port sb));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let conn = Evconn.of_fd fd in
        ignore
          (Evconn.enqueue conn
             { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
            : [ `Ok | `Overflow ]);
        if Evconn.drain conn <> `Idle then Alcotest.failf "connection %d: hello lost" i;
        match Evconn.recv ~deadline:(Dynvote_obs.Clock.now () +. 10.0) conn with
        | Ok { Wire.payload = Wire.Welcome { id }; _ } ->
            if Hashtbl.mem ids id then
              Alcotest.failf "client id %d handed out twice" id;
            Hashtbl.replace ids id ()
        | Ok env ->
            Alcotest.failf "connection %d: expected Welcome, got %s" i
              (Wire.kind_name env.Wire.payload)
        | Error _ -> Alcotest.failf "connection %d of %d got no Welcome" i n
      done;
      (* Every connection is still open and registered: all n sockets
         held Welcomes concurrently, far past FD_SETSIZE. *)
      Alcotest.(check int) "distinct ids for every concurrent client" n
        (Hashtbl.length ids))

(* A pipelined coordinator must actually admit several requests at once:
   the trace ring records Round_start with the admitted-request count,
   and the live.rounds.inflight histogram has the same fact in
   aggregate.  Admitted requests wait in the coordinator's queue — it
   runs one operation at a time, and pipelining pays through the group
   lock rounds and anchor joins that the queue feeds.  Closed-loop
   clients all target one coordinator so admissions overlap; the audit
   at the end proves the batching cost no safety. *)
let test_pipelined_rounds_in_flight () =
  let pipelined_config =
    {
      Node.gather_timeout = 0.05;
      backoff = 2.0;
      lock_lease = 1.0;
      lock_retries = 6;
      lock_backoff = 0.02;
      durable = false;
      clock = Dynvote_obs.Clock.now;
      pipeline = 4;
      max_reuse = 16;
      shards = 0;
      resident = 4096;
    }
  in
  let found = ref false and attempts = ref 0 in
  while (not !found) && !attempts < 3 do
    incr attempts;
    with_scratch (fun dir ->
        let obs = Hub.create ~trace_capacity:65536 () in
        let cluster =
          Live.create ~config:pipelined_config ~obs ~client_timeout:3.0
            ~universe:(ss [ 0; 1; 2; 3 ]) ~dir ()
        in
        Fun.protect
          ~finally:(fun () -> Live.shutdown cluster)
          (fun () ->
            let r =
              Loadgen.run cluster
                {
                  Loadgen.default with
                  Loadgen.clients = 8;
                  duration = 0.5;
                  seed = 7 + !attempts;
                  sites = Some (Site_set.singleton 0);
                }
            in
            let granted =
              r.Loadgen.reads.Loadgen.granted + r.Loadgen.writes.Loadgen.granted
            in
            let hist_max =
              Metrics.histogram_max
                (Metrics.histogram obs.Hub.metrics "live.rounds.inflight")
            in
            let trace_hit =
              List.exists
                (fun (_, e) ->
                  match e with
                  | Trace.Round_start { in_flight; _ } -> in_flight >= 2
                  | _ -> false)
                (Trace.recent obs.Hub.trace)
            in
            let audit = Live.check cluster in
            List.iter
              (fun v -> Alcotest.failf "pipelined run: %a" Oracle.pp_violation v)
              (Oracle.violations audit.Live.oracle);
            Alcotest.(check int) "no duplicate applies" 0 audit.Live.dup_applies;
            if granted > 0 && hist_max >= 2.0 && trace_hit then found := true))
  done;
  Alcotest.(check bool)
    "trace ring shows >= 2 quorum rounds in flight at the coordinator" true
    !found

let suite =
  [
    prop_chunked_reassembly;
    Alcotest.test_case "decoder, one byte at a time" `Quick test_decoder_byte_by_byte;
    Alcotest.test_case "spurious wakeup reads nothing" `Quick test_spurious_wakeup;
    Alcotest.test_case "a read budget of one" `Quick test_read_budget;
    Alcotest.test_case "EINTR on read retried" `Quick test_eintr_read_retried;
    Alcotest.test_case "a bad length word is reported once" `Quick test_bad_length_word;
    Alcotest.test_case "corrupt stream detected in order" `Quick
      test_corrupt_stream_detected;
    Alcotest.test_case "writes coalesce into one call" `Quick test_write_coalescing;
    Alcotest.test_case "short writes and EINTR on write" `Quick
      test_short_writes_and_eintr;
    Alcotest.test_case "backpressure: overflow severs, bound holds" `Quick
      test_backpressure_overflow_severs;
    Alcotest.test_case "dead peer poisons the queue" `Quick test_peer_gone_poisons;
    Alcotest.test_case "a frame past the queue bound is accepted alone" `Quick
      test_oversize_frame_accepted;
    Alcotest.test_case "recv deadline on an injected clock" `Quick
      test_recv_deadline_injected_clock;
    Alcotest.test_case "epoll and poll backends" `Quick test_evloop_backends;
    Alcotest.test_case "a bad opening severs only its peer" `Quick
      test_bad_opening_severs;
    Alcotest.test_case "what one read routes" `Quick test_what_a_read_routes;
    Alcotest.test_case "stall reaper fires on a clock step" `Quick
      test_stall_reaper_clock_step;
  ]

let serve_suite =
  [
    Alcotest.test_case "1200 concurrent connections" `Quick
      test_many_concurrent_connections;
    Alcotest.test_case "pipelined coordinator overlaps rounds" `Quick
      test_pipelined_rounds_in_flight;
  ]
