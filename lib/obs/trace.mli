(** Structured trace: a bounded ring of typed protocol events.

    One event vocabulary covers both networks — the msgsim/chaos
    simulated transport and the live socket fabric — so a trace dump
    reads the same whichever is underneath.  The ring never blocks and
    never grows: when full, the oldest events are overwritten and
    counted as {!dropped}. *)

type event =
  | Lock_round_start of { site : int; op : int }
  | Lock_denied of { site : int; op : int }
      (** a lock round lost to a rival (local refusal or a peer's) *)
  | Gather of { site : int; round : int; reachable : int; fresh : int }
      (** a completed state gather: how many sites answered, how many
          claimed freshness (the coordinator counts itself) *)
  | Data_fetch of { site : int; source : int; ok : bool }
      (** a verified data fetch attempt against [source] *)
  | Commit_wave of { site : int; op_no : int; recipients : int }
  | Partition of { groups : string }
      (** fault injection: the group layout, rendered by the caller *)
  | Heal
  | Crash of { site : int }
  | Restart of { site : int }
  | Frame_sent of { src : int; dst : int; kind : string }
      (** the fabric delivered a frame (live: routed by the switchboard;
          sim: accepted by the transport) *)
  | Frame_recv of { src : int; dst : int; kind : string }
      (** the fabric took a frame off an endpoint's connection *)
  | Frame_rejected of { src : int; reason : string }
      (** an unframeable or checksum-failing byte stream *)
  | Frame_dropped of { src : int; dst : int; reason : string }
      (** eaten by a partition or addressed to a dead endpoint *)
  | Storage_fault of { site : int; op : string; path : string }
      (** a stable-storage operation failed (only the path's basename is
          rendered — site directories carry no information) *)
  | Degraded of { site : int; reason : string }
      (** the site fenced itself read-only after a storage failure *)
  | Round_start of { site : int; op : int; in_flight : int }
      (** a coordinator admitted a client request; [in_flight] counts the
          requests admitted at that site, this one included — a
          pipelined coordinator shows values above 1.  Admitted requests
          wait in its queue: it runs one operation at a time *)
  | Round_end of { site : int; op : int; in_flight : int }
      (** the operation replied to its client ([in_flight] counted
          before it leaves) *)
  | Note of string

type t

val create : ?capacity:int -> unit -> t
(** A live ring holding the last [capacity] (default 2048) events. *)

val noop : t
(** Records nothing; {!recent} is always empty. *)

val record : t -> event -> unit
(** Thread-safe, non-blocking; timestamps the event with the monotonic
    clock (seconds since the ring was created). *)

val recorded : t -> int
(** Total events offered to the ring (including overwritten ones). *)

val dropped : t -> int
(** Events lost to overwriting. *)

val recent : ?n:int -> t -> (float * event) list
(** The newest [n] (default: all retained) events, oldest first. *)

val pp_event : Format.formatter -> event -> unit

val pp_entry : Format.formatter -> float * event -> unit
(** [+12.345678s event] — the trace-dump line format. *)
