(** Extension policies beyond the paper's six.

    These cover the paper's related work and its "future work" items:
    strict MCV, Gifford weighted voting, the Jajodia–Mutchler integer
    protocol, the available-copy family, and voting with witnesses. *)

val strict_mcv : universe:Site_set.t -> Driver.t
(** Textbook majority consensus: strictly more than half of all copies,
    ties never broken (so four copies need three). *)

val weighted_mcv :
  ?tie_break:bool ->
  weights:int array ->
  universe:Site_set.t ->
  ordering:Ordering.t ->
  unit ->
  Driver.t
(** Static weighted voting (Gifford 1979).  A group acts iff it holds more
    than half the total weight; with [tie_break] (default), an exact half
    wins when it contains the ordering's maximum site.
    @raise Invalid_argument on negative or missing weights. *)

val jm_dv : universe:Site_set.t -> n_sites:int -> Driver.t
(** The Jajodia–Mutchler dynamic-voting protocol, which stores only the
    cardinality of the previous quorum.  Availability-equivalent to plain
    DV (property-tested), but unable to support lexicographic or
    topological extensions — the paper's §2 argument for partition sets. *)

val weighted_dv :
  ?optimistic:bool ->
  weights:int array ->
  universe:Site_set.t ->
  n_sites:int ->
  ordering:Ordering.t ->
  unit ->
  Driver.t
(** Weighted {e dynamic} voting — the paper's "weight assignments" future
    work: the full partition-set protocol with per-site vote weights.  A
    group proceeds when its up-to-date weight exceeds half the previous
    quorum's weight; exact halves go to the group holding the ordering's
    maximum.  [optimistic] delays quorum adjustment to access time.
    @raise Invalid_argument on negative or missing weights. *)

module Available_copy : sig
  type t

  val driver : universe:Site_set.t -> t * Driver.t
  val violations : t -> int
  (** Number of topology changes on which two disjoint groups both held
      current copies — mutual-exclusion violations that occur when
      available copy runs on a partitionable network. *)
end

val available_copy : universe:Site_set.t -> Available_copy.t * Driver.t
(** Available copy (Bernstein–Goodman): the file is available while any
    current copy is up.  Safe only on a single segment; see
    {!Available_copy.violations}. *)

val witness :
  ?flavor:Decision.flavor ->
  ?optimistic:bool ->
  data_sites:Site_set.t ->
  witnesses:Site_set.t ->
  n_sites:int ->
  segment_of:(Site_set.site -> int) ->
  ordering:Ordering.t ->
  unit ->
  Driver.t
(** Voting with witnesses (Paris 1986): [witnesses] hold the consistency-
    control ensemble but no data; an access needs a quorum {e and} an
    up-to-date data copy in the granted group.  This is
    {!Adaptive_witness} with role bounds that never fire.
    @raise Invalid_argument if the two site sets overlap or no data copy is
    given. *)
