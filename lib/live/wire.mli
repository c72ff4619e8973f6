(** The live service's wire protocol: length-prefixed, versioned,
    checksummed binary frames over real sockets, in the style of
    {!Dynvote.Codec}.

    Every frame is [length (u32) | magic "DVW1" | adler32 | src | dst |
    payload]; the checksum covers everything after itself, so a truncated
    or bit-flipped frame is detected rather than trusted — {!decode} is
    total and returns the corruption reason.  Replica ensembles travel in
    their {!Dynvote.Codec} stable-storage encoding.

    A live operation is the paper's START/COMMIT exchange: one
    {!KStart} locks and gathers, and the {!KCommit_op} wave releases.
    Among [n] sites a granted operation whose peers all answer costs
    3(n−1)+2 frames — START, its replies, the COMMIT wave, and the
    client's request and reply — and one participant round trip. *)

(** {2 Endpoints} *)

val broker_id : int
(** Address of the switchboard itself ([Hello]/[Welcome] exchanges). *)

val first_client_id : int
(** Client endpoint ids are assigned from here up; everything below is a
    site id. *)

val is_site : int -> bool

(** {2 Messages} *)

type status =
  | Granted
  | Denied
  | Aborted
  | Degraded
      (** the site's storage has failed; it is read-only and refuses to
          coordinate — retry elsewhere *)

type payload =
  | Hello_site of { site : Site_set.site }
      (** a node registering its socket with the switchboard *)
  | Hello_client  (** a client asking the switchboard for an endpoint id *)
  | Welcome of { id : int }
  | Lock_reply of { op : int; granted : bool }
      (** a {!KStart} answered without a vote: [granted = false] is a
          refusal (a rival holds one of the locks; the replier keeps
          none), [granted = true] a voteless grant (an amnesiac replier
          took every lock but has no ensemble to report) *)
  | Client_put of { req : int; key : string; value : string }
  | Client_get of { req : int; key : string }
  | Client_recover of { req : int }
  | Client_reply of { req : int; status : status; value : string option; info : string }
  | Abstain of { round : int }
      (** a fenced site answering a {!KStart} (it takes no lock): alive
          but taking no part — lets the coordinator stop waiting
          immediately instead of paying the full gather timeout, while
          still being excluded from votes and new partitions exactly as
          if it were silent.  [round] carries the START's op. *)
  | KUnlock of { op : int; keys : string list }
      (** The peer protocol, this family and below: each key names an
          independently-voted object (at [--shards 0] the one object
          holding the whole map).

          Release the locks [op] holds on [keys]: sent to the peers a
          START may have locked when the operation is denied, aborted or
          deduplicated, when a kept anchor is released without a commit
          wave, and to lock holders a releasing {!KCommit_op} does not
          reach (voteless, outside the new partition, or silent). *)
  | KData_request of { round : int; key : string }
  | KData_reply of {
      round : int;
      key : string;
      version : int;
      value : string option;
      rids : (int * int) list;
          (** the applied-request table travels with the data it guards *)
    }
  | KStart of { op : int; keys : string list }
      (** START: one group-quorum round's lock request and state gather
          in one frame.  It names every object the round covers, so one
          exchange locks and gathers for every operation queued at the
          coordinator.  All-or-nothing per peer: the answer is a
          {!KStart_reply} when the peer took every lock, a {!Lock_reply}
          when it refused or took the locks without a vote, an
          {!Abstain} when it is fenced.  Asking again under the same
          [op] is idempotent: the peer's leases are refreshed.  That
          makes it the only gather: a joined operation whose cached view
          is missing, or denied it, asks the anchor's holders again under
          the anchor's op for its one object; and with no keys it takes
          no lock, which is the audit's quiesce ping. *)
  | KStart_reply of {
      op : int;
      fresh : bool;
          (** the replier's own claim: continuously up since the last
              commit it applied (gates topological vote claiming) *)
      states : (string * Replica.t) list;
          (** the replier holds every lock under [op] and reports one
              ensemble per requested key; a key it never committed
              reports the paper's initial state *)
    }
  | KCommit_op of {
      op : int;  (** the START whose locks the operation holds *)
      release : bool;
          (** the coordinator keeps no anchor: once the commit is
              applied the recipient drops every lock it holds under
              [op] and wakes a rival backing off *)
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      value : string option;
          (** [None]: consistency-only (read or RECOVER) commit — the
              value is unchanged.  A write's new value rides inside the
              commit so data and ensemble install atomically *)
      rid : int;
          (** request id the commit applies (0 = none), recorded in every
              participant's applied-request table for retry dedup *)
    }

type envelope = { src : int; dst : int; payload : payload }

val kind_name : payload -> string
val pp : Format.formatter -> envelope -> unit

(** {2 Codec} *)

val encode : envelope -> string
(** The full frame, length prefix included. *)

val decode : string -> (envelope, string) result
(** Total inverse of {!encode}: wrong length, bad magic, checksum
    mismatch, unknown tag, out-of-range fields and trailing garbage all
    come back as [Error]. *)

(** {2 Incremental decoding}

    Frame reassembly detached from any socket: the event loop (and the
    deterministic fake-socket tests) feed whatever byte runs the
    transport produced — split at arbitrary boundaries — and pull out
    complete frames.  {!Evconn} is this decoder plus a transport. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** Append [len] bytes at [off] to the reassembly buffer. *)

  val feed_string : t -> string -> unit

  val next : t -> (envelope, string) result option
  (** A complete buffered frame, if any ([None] = need more bytes).
      Call repeatedly after each [feed] — one feed can complete many
      frames.  A length word past {!Codec.max_frame} comes back as one
      [Error] and drops everything buffered: fed [n] bytes of junk,
      [next] answers [None] within [n + 1] calls. *)

  val buffered : t -> int
  (** Bytes currently awaiting frame completion. *)
end
