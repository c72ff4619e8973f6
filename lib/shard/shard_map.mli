(** Bounded-residency view of the per-key object space.

    The {!Shard_store} spine remembers every key as a packed blob; this
    layer materializes the working set into live entries — a decoded
    {!Replica.t} plus the data version and value bytes — and keeps at
    most [resident] of them, evicting in LRU order.  A key touched for
    the first time anywhere in the system materializes to the paper's
    initial state (o = v = 1, partition = all sites): lazily, so a
    million-key object space costs nothing until keys are actually
    touched.

    Entries are {e pinned} while an operation (which may park mid-round
    awaiting frames) holds a reference: eviction skips pinned entries,
    so a parked coordinator can never race a re-materialization of the
    same key into a second, divergent object. *)

type t
type entry

val create :
  ?on_materialize:(unit -> unit) ->
  ?on_evict:(unit -> unit) ->
  store:Shard_store.t ->
  resident:int ->
  universe:Site_set.t ->
  unit ->
  t
(** [resident] is the residency cap (at least 1); the hooks fire on
    every materialization / eviction (metrics, not veto). *)

val find : t -> string -> entry
(** The key's live entry: resident (moved to most-recently-used), or
    materialized from the store's spine, or — for a key this site never
    committed — the initial state.  May evict the least-recently-used
    unpinned entries to stay under the cap. *)

val pin : entry -> unit
val unpin : entry -> unit

val key : entry -> string
val replica : entry -> Replica.t
val set_replica : entry -> Replica.t -> unit

val data_version : entry -> int
(** Version at which {!value} was last installed; trails the replica's
    version when the ensemble advanced without a data fetch. *)

val set_data_version : entry -> int -> unit
val value : entry -> string option
val set_value : entry -> string option -> unit

val state_of : entry -> Shard_store.state
(** The entry's current state as a store record — what a commit appends. *)

val resident : t -> int
val materializations : t -> int
val evictions : t -> int
