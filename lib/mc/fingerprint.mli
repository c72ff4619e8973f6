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

val canonical :
  ?buf:Buffer.t ->
  ?gc:bool ->
  perms:int array list ->
  Dynvote_chaos.Harness.session ->
  string
(** Serialize the session under each site relabeling of [perms] and
    return the minimum — the symmetry-reduced canonical form.  [perms]
    must include the identity to be sound; [[]] means the identity
    alone.  Only valid between steps (quiet network).  [gc] (default
    false) drops oracle generation entries below the minimum operation
    number any site still carries — sound exactly when the explored
    alphabet has no amnesiac restarts, which is what keeps per-site
    operation numbers monotone (see {!Space.amnesia_free}).  [buf] is a
    buffer the caller may reuse across calls. *)
