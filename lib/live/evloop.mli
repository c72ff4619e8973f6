(** Readiness multiplexer: epoll on Linux, poll(2) everywhere else.

    One instance per loop thread.  Register descriptors with an
    interest set, then {!wait} for edges.  There is no [select] and no
    FD_SETSIZE anywhere in this module: descriptor numbers above 1024
    are first-class, which is what lets the service hold thousands of
    concurrent connections.

    The backend is epoll when the platform has it and poll otherwise;
    tests force either through {!create}. *)

type t

type backend = [ `Epoll | `Poll ]

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
  error : bool;  (** error/hangup: the fd needs attention regardless of interest *)
}

val create : ?backend:backend -> unit -> t
(** [backend] (default: epoll when available, poll otherwise) is the
    test hook that drives the poll path on Linux too. *)

val backend_name : t -> string
(** ["epoll"] or ["poll"] — recorded in bench output. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit

val remove : t -> Unix.file_descr -> unit
(** Swallows errors for descriptors already closed: crash injection may
    close sockets behind the loop's back. *)

val wait : t -> timeout:float -> event list
(** Block up to [timeout] seconds (negative means forever) for
    readiness.  Returns [] on timeout.  EINTR is retried internally
    with the remaining time, so callers never see it. *)

val close : t -> unit

val raise_fd_limit : int -> int
(** Best-effort [setrlimit(RLIMIT_NOFILE)] raise to at least the given
    target (raising the hard limit too needs [CAP_SYS_RESOURCE]; without
    it, the existing hard cap is the ceiling).  Returns the resulting
    soft limit — callers sizing a many-thousand-connection run should
    check it rather than assume.  Never lowers the limit. *)

val wait_fd :
  Unix.file_descr -> read:bool -> write:bool -> timeout:float -> event option
(** One-shot readiness on a single descriptor — the drop-in replacement
    for every [Unix.select] in blocking helpers ({!Evconn.recv},
    {!Evconn.drain}).  Uses poll(2) directly: no registration state, works
    above FD_SETSIZE.  [None] on timeout; EINTR retried internally. *)
