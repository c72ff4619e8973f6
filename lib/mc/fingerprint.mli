(** Canonical state fingerprints for the explorer's seen set.

    A fingerprint serializes the full product state of a chaos
    {!Dynvote_chaos.Harness.session}: every site's ensemble, data and
    stable-record status, the cluster's topology bookkeeping, and the
    safety oracle's memory.  Write contents are canonicalized by
    first-occurrence renaming, so states differing only in content
    labels ("w3" vs "w5") collapse. *)

val identity : n_sites:int -> int array
(** The identity site permutation. *)

val segment_perms :
  universe:Site_set.t -> segment_of:(Site_set.site -> int) -> int array list
(** Every permutation of the universe's sites that maps each segment onto
    itself; the identity comes first.  Relabeling by such a permutation
    is a transition-relation symmetry only for flavors without the
    lexicographic tie-break — the caller is responsible for that check. *)

type hasher
(** One worker's fingerprint writer, reused for every state it hashes. *)

val hasher : ?gc:bool -> perms:int array list -> unit -> hasher
(** A hasher for the relabelings [perms] (non-empty, the identity first
    to be sound) and the generation-table GC setting [gc] (default
    false), both as in {!canonical}.
    @raise Invalid_argument when [perms] is empty. *)

val hash : hasher -> Dynvote_chaos.Harness.session -> int
(** The 62-bit hash of the session's canonical fingerprint:
    [Striped_seen.fingerprint_hash (canonical ~gc ~perms session)],
    bit for bit, with no string built.  Under one relabeling no byte is
    stored, only hashed; under a symmetry group each relabeling's bytes
    are compared in place and the smallest one's hash is returned.  A
    state with no amnesiac site and no partition allocates nothing.
    Only valid between steps (quiet network). *)

val canonical :
  ?buf:Buffer.t ->
  ?gc:bool ->
  perms:int array list ->
  Dynvote_chaos.Harness.session ->
  string
(** Serialize the session under each site relabeling of [perms] and
    return the minimum — the symmetry-reduced canonical form: the bytes
    {!hash} hashes, written by the same writer.  [perms] must include
    the identity to be sound; [[]] means the identity alone.  Only valid
    between steps (quiet network).  [gc] (default false) drops oracle
    generation entries below the minimum operation number any site
    still carries — sound exactly when the explored alphabet has no
    amnesiac restarts, which is what keeps per-site operation numbers
    monotone (see {!Space.amnesia_free}).  [buf], if given, is cleared
    and left holding the same bytes. *)
