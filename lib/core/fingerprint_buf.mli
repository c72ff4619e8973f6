(** The canonical writer behind state fingerprints: a buffer plus the
    canonicalization every field passes through — a site relabeling,
    rebased operation and version counters, and first-occurrence content
    renaming.  Nothing allocates per field. *)

type t

val create : Buffer.t -> perm:int array -> o_base:int -> v_base:int -> t
(** Clear [buf] and write into it under the site relabeling [perm] (site
    [s] becomes [perm.(s)]; a permutation of [0 .. Array.length perm - 1])
    with operation numbers rebased by [o_base] and versions by
    [v_base]. *)

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
    distinct string this writer meets, 1 for the second, and so on. *)

val identity : t -> bool
(** Whether the relabeling is the identity. *)

val sites : t -> int
(** The relabeling's size. *)

val site_at : t -> int -> Site_set.site
(** The site relabeled to canonical id [c]: iterating [c] upward visits
    sites in canonical order. *)
