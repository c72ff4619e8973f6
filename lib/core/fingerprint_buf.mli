(** The canonical writer behind state fingerprints, and their hash.

    A writer applies the canonicalization every field passes through — a
    site relabeling, rebased operation and version counters, a floor
    below which operation numbers are dead, and first-occurrence content
    renaming — and folds each byte it emits into an FNV-1a hash.  One
    writer serves any number of states: {!reset} starts the next one.
    Nothing allocates per field or per state once the writer's arrays
    have grown to fit. *)

type t

val create : keep:bool -> unit -> t
(** A writer that hashes what it writes and, when [keep], also stores
    the bytes for {!contents} and {!compare}.  Call {!reset} before the
    first state. *)

val reset : t -> perm:int array -> o_base:int -> v_base:int -> op_floor:int -> unit
(** Forget the previous state and write the next one under the site
    relabeling [perm] (site [s] becomes [perm.(s)]; a permutation of
    [0 .. Array.length perm - 1]; the writer keeps [perm] without
    copying it) with operation numbers rebased by [o_base] and versions
    by [v_base].  Operation numbers below [op_floor] (raw, not rebased)
    are dead for {!live_op} and {!count_live}. *)

val int : t -> int -> unit
(** Append [n] zigzag-encoded: one byte for |n| < 127, an escape byte
    plus eight little-endian bytes otherwise.  Self-delimiting, so
    callers length-prefix variable-length sections rather than inserting
    separator bytes (which a value byte could collide with). *)

val op : t -> int -> unit
(** Append an operation number, rebased. *)

val version : t -> int -> unit
(** Append a version number, rebased. *)

val set : t -> Site_set.t -> unit
(** Append the bitmask of a site set's image under the relabeling. *)

val image : t -> Site_set.t -> int
(** The bitmask {!set} would append. *)

val content : t -> string -> unit
(** Append a content string's first-occurrence id: 0 for the first
    distinct string this writer meets since its reset, 1 for the
    second, and so on. *)

val identity : t -> bool
(** Whether the relabeling is the identity. *)

val sites : t -> int
(** The relabeling's size. *)

val site_at : t -> int -> Site_set.site
(** The site relabeled to canonical id [c]: iterating [c] upward visits
    sites in canonical order. *)

val live_op : t -> int -> bool
(** Whether an operation number is at or above the reset's [op_floor]. *)

val count_live : t -> int -> unit
(** Count an operation number if it is live: a fold over a table keyed
    by operation numbers can take the writer as its accumulator and
    count the live keys without a closure. *)

val live_count : t -> int
(** The live operation numbers counted since the reset or the last
    [live_count], and start the count again at 0. *)

val hash : t -> int
(** The 62-bit hash of the bytes written since the reset: nonzero, and
    equal to {!hash_string} of those bytes. *)

val hash_string : string -> int
(** FNV-1a over the string's bytes, with the seed, prime and finalizer
    of {!hash}. *)

val contents : t -> string
(** The bytes written since the reset.
    @raise Invalid_argument for a writer created with [~keep:false]. *)

val compare : t -> t -> int
(** Compare two writers' bytes in [String.compare]'s order (byte-wise,
    a proper prefix first), in place.
    @raise Invalid_argument unless both keep their bytes. *)
