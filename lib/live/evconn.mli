(** A framed connection for readiness loops: a {!Vio.t} endpoint plus a
    {!Wire.Decoder} on the read side and a bounded, coalescing outbound
    queue on the write side.

    Writes never block: {!enqueue} stages the encoded frame; {!flush}
    pushes as much staged output as the transport accepts in one
    writev-style burst, so frames queued while the peer was busy leave
    in a single syscall.  The queue is bounded in bytes — the
    backpressure contract is that {!enqueue} on a full queue returns
    [`Overflow] and the caller severs the connection (crash semantics):
    frames to a live peer are never silently dropped, because a
    participant that missed a commit but keeps answering gathers would
    fork the data it claims to hold.  An empty queue accepts any one
    frame, however large (the codec caps frames at
    {!Codec.max_frame}); while a frame larger than the bound
    drains, the bound applies to what queues behind it.

    The same connection serves the ends that want one exchange at a
    time — a node's link to the switchboard, a client's handshake and
    calls: {!drain} is a blocking {!flush} and {!recv} a blocking
    receive of one frame under an absolute deadline.  Nothing in the
    live service reads or writes a socket any other way. *)

type t

val create : ?max_queue:int -> Vio.t -> t
(** [max_queue] (default 4 MiB) bounds staged outbound bytes. *)

val of_fd : ?max_queue:int -> Unix.file_descr -> t
(** [create] over [Vio.of_fd] — switches the descriptor non-blocking. *)

val dial : ?max_queue:int -> port:int -> unit -> t
(** Connect to [port] on the loopback interface, with TCP_NODELAY, and
    wrap the socket with {!of_fd}: the one way a node, a client or the
    load generator's herd opens its connection to the switchboard.
    Raises [Unix.Unix_error] (the socket closed) when the connect fails. *)

val fd : t -> Unix.file_descr option

(** {2 Writing} *)

val enqueue : t -> Wire.envelope -> [ `Ok | `Overflow ]
(** Stage a frame.  [`Overflow] when the queue is not empty and the
    frame would take what is queued past the bound (behind a head frame
    that alone exceeds it, only what follows that frame counts) — the
    connection is then poisoned (later flushes report [`Closed]). *)

val flush : t -> [ `Idle | `Blocked | `Closed ]
(** Write staged bytes until drained ([`Idle]), the transport blocks
    ([`Blocked]: keep write interest and retry on writability), or the
    peer is gone ([`Closed]).  EINTR is retried internally. *)

val drain : t -> [ `Idle | `Closed ]
(** {!flush} until everything staged is written, waiting for
    writability in between — the blocking write of an end that has
    nothing else to do meanwhile.  On a fake endpoint (no descriptor) a
    blocked write is retried at once, so its script must grant credit. *)

val want_write : t -> bool
(** Staged bytes remain — the loop should watch for writability. *)

val pending_bytes : t -> int
val queued_frames : t -> int
(** Frames staged and not yet fully flushed (batch-size metric). *)

(** {2 Reading} *)

val on_readable :
  ?budget:int -> t -> (Wire.envelope, string) result list * [ `Open | `Eof ]
(** Drain the transport (bounded per call, for loop fairness — a
    level-triggered loop re-signals leftover bytes) and return every
    complete frame, in order.  [budget] (default 4) bounds the reads
    per call; reading stops earlier at the first that would block.  A
    decode [Error] means the stream is garbage; the caller severs.
    [`Eof] may still carry final frames. *)

val recv :
  ?clock:(unit -> float) ->
  ?deadline:float ->
  t ->
  (Wire.envelope, [ `Timeout | `Closed | `Corrupt of string ]) result
(** The next frame, one at a time: a frame already buffered is returned
    without touching the transport; otherwise wait for readability and
    read once, until a frame completes or [deadline] passes.
    [deadline] is an absolute reading of [clock], which defaults to the
    monotonic {!Dynvote_obs.Clock.now} — wall-clock steps can never
    stretch or collapse a wait; a deadline already past returns
    [`Timeout] without reading, and an omitted one blocks until a frame
    or EOF.  A fake endpoint with nothing to deliver times out at once. *)

val handshake : clock:(unit -> float) -> t -> Wire.envelope -> int option
(** Send a [Hello_site] or [Hello_client] envelope, write it out, and
    wait up to 5 s of [clock] for the switchboard's [Welcome]: [Some id]
    with the id it assigns, or [None] — the connection then closed —
    when anything else or nothing comes. *)

val buffered_in : t -> int
(** Bytes of an incomplete frame awaiting completion — non-zero for a
    while means a stalled (slow-loris) peer the loop should reap. *)

(** {2 Lifecycle and counters} *)

val close : t -> unit
val is_closed : t -> bool

val frames_out : t -> int
(** Frames fully flushed to the transport. *)
