(** The explorer's seen-state store: lock-striped, open-addressing,
    hash-compacted, optionally disk-spilled.

    States are stored as 62-bit hashes of their canonical fingerprint
    strings (hash compaction à la Murphi/TLC — the collision probability
    at n states is about n²/2⁶³) in power-of-two linear-probe int
    arrays, one pair of arrays per mutex-guarded shard: 16 bytes per
    state, no boxing, no key strings.  Each entry carries the
    remaining-depth budget packed with the {!Por} context it was
    expanded under; {!claim} applies the context-tagged transposition
    rule that keeps partial-order reduction sound under state caching.

    The distinct-state count is one atomic counter moved only by a
    successful admission CAS, which makes the [max_states] budget a
    global property and keeps [distinct t = length t] invariant (a state
    bounced by the budget is never counted).

    With spilling enabled ([spill], or the [DYNVOTE_MC_SPILL] total
    resident threshold in the environment), shards merge their resident
    entries into a single sorted on-disk run when full and shrink back,
    so distinct-state capacity grows past RAM; lookups fall back to a
    binary search of the run.  Spilling never changes what [claim]
    answers. *)

type t

val create : ?shards:int -> ?spill:int -> max_states:int -> unit -> t
(** [shards] (default 64, rounded up to a power of two) is the stripe
    count; [max_states] bounds the number of distinct fingerprints ever
    admitted.  [spill] (default: [DYNVOTE_MC_SPILL] from the
    environment, unset/0 = disabled) is the total resident-entry
    threshold across shards above which shards spill to disk. *)

type verdict =
  | Expand of { filter : int; covered : int }
      (** explore: successors filtered by {!Por.allowed} with context
          [filter] (the caller's own) when [covered = 0]; when a stored
          budget-covering entry had a conflicting context, [covered] is
          that context and only the difference
          {!Por.filter_uncovered}[ ~ctx:filter ~covered] needs
          expanding *)
  | Prune  (** already explored with at least this budget under a
               covering context *)
  | Budget  (** admitting this state would exceed [max_states] *)

val claim : t -> string -> budget:int -> ctx:int -> verdict
(** Atomically apply the context-tagged transposition rule for a state
    entered by the action of {!Por.rank} [ctx] with [budget] remaining
    depth: prune when the stored budget is at least [budget] {e and} the
    stored context covers ours (0, or equal); on a budget-covered
    context conflict, expand only the stored context's sleep difference;
    otherwise record the strongest true statement and expand in full.
    A fresh state is admitted only while fewer than [max_states]
    distinct states have been. *)

val distinct : t -> int
(** Distinct states admitted (the atomic counter). *)

val length : t -> int
(** Distinct states stored, resident plus spilled (sums the shards'
    admission tallies; call from one domain at quiescence).  Always
    equal to {!distinct} — the report path asserts it. *)

val spilled : t -> int
(** Entries currently in on-disk runs (0 when spilling is off). *)

val resident : t -> int
(** Entries currently in the in-memory probe tables. *)

val close : t -> unit
(** Close and drop any spill runs (their files are already unlinked). *)
