(** The live service's wire protocol: length-prefixed, versioned,
    checksummed binary frames over real sockets, in the style of
    {!Dynvote.Codec}.

    Every frame is [length (u32) | magic "DVW1" | adler32 | src | dst |
    payload]; the checksum covers everything after itself, so a truncated
    or bit-flipped frame is detected rather than trusted — {!decode} is
    total and returns the corruption reason.  Replica ensembles travel in
    their {!Dynvote.Codec} stable-storage encoding. *)

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
      (** the answer to a {!KLock_request} *)
  | Client_put of { req : int; key : string; value : string }
  | Client_get of { req : int; key : string }
  | Client_recover of { req : int }
  | Client_reply of { req : int; status : status; value : string option; info : string }
  | Abstain of { round : int }
      (** a fenced or amnesiac site answering a state or lock gather:
          alive but taking no part — lets the coordinator stop waiting
          immediately instead of paying the full gather timeout, while
          still being excluded from votes and new partitions exactly as
          if it were silent.  For lock gathers, [round] carries the op
          number. *)
  | KLock_request of { op : int; keys : string list }
      (** The peer protocol, this tag and below: each key names an
          independently-voted object (at [--shards 0] the one object
          holding the whole map); a group-quorum round names every
          object it covers so one wire exchange locks, gathers and
          decides a whole scheduler burst of operations.

          A [KLock_request] is one lock round for the whole group,
          answered with [Lock_reply] / [Abstain]. *)
  | KUnlock of { op : int; keys : string list }
  | KState_request of { round : int; keys : string list }
  | KState_reply of {
      round : int;
      fresh : bool;
          (** the replier's own claim: continuously up since the last
              commit it applied (gates topological vote claiming) *)
      states : (string * Replica.t) list;
          (** one ensemble per requested key; a key the replier never
              committed reports the paper's initial state *)
    }
  | KCommit of {
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
  | KData_request of { round : int; key : string }
  | KData_reply of {
      round : int;
      key : string;
      version : int;
      value : string option;
      rids : (int * int) list;
          (** the applied-request table travels with the data it guards *)
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
      frames. *)

  val buffered : t -> int
  (** Bytes currently awaiting frame completion. *)
end
