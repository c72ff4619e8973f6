(** The storage seam: every byte the system persists flows through one
    of these five operations, so a fault-injecting implementation (the
    [Dynvote_faultfs] library) can strike any of them — EIO, ENOSPC,
    short writes, fsyncs that fail or silently lie, renames lost at the
    directory — without the persistence code knowing it is under test.

    The default {!real} implementation is the plain POSIX calls the
    codec always used; threading a vfs is free when nobody injects. *)

exception Fault of { op : string; path : string; reason : string }
(** An injected (or genuine, if an implementation chooses to surface it
    this way) storage failure.  Distinct from [Unix_error]/[Sys_error]
    so a node can tell "my disk is failing" from a programming error and
    fence itself instead of dying silently. *)

exception Crash_point of { op : string; path : string }
(** Raised by a fault plan that simulates the whole process dying at
    this exact storage operation; the node converts it to its kill
    exception so the unwind is indistinguishable from a crash. *)

type file = {
  write : Bytes.t -> int -> int -> int;
      (** [write buf off len] — may write fewer bytes (callers loop),
          raise {!Fault} or [Unix_error] *)
  fsync : unit -> unit;
  close : unit -> unit;
}
(** An open writable file, as three closures — the implementation owns
    the descriptor. *)

type t = {
  create : string -> file;  (** open for writing, truncating (0o644) *)
  append : string -> file;  (** open for appending, creating (0o644) *)
  rename : src:string -> dst:string -> unit;
  fsync_dir : string -> unit;
      (** make a preceding rename in this directory durable;
          best-effort on filesystems that refuse directory fsync *)
  read : string -> string;  (** whole file; raises [Sys_error] *)
  truncate : string -> int -> unit;
      (** cut a file to a byte length — log-recovery hygiene (dropping a
          torn tail before appending over it), deliberately not a fault
          target *)
}

val real : t
(** The POSIX filesystem. *)
