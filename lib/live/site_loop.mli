(** The site loop: every local site of a cluster on one thread.

    One {!Evloop} watches every site's switchboard connection.  Each
    wakeup hands the frames of every ready site to {!Node.take}, fires
    the deadlines that are due ({!Node.expire}), and then settles
    ({!Node.settle}) each site it touched, once.  A step that raises
    {!Node.Dead}, {!Node.Killed} or [Unix.Unix_error] closes that site
    alone, as its process dying would; the other sites carry on.

    A durable commit flush does not fsync on the loop's thread: the
    site's syncer thread runs {!Node.sync}, and the site takes no frame
    until the outcome comes back through the loop's self-pipe and
    {!Node.synced} has run.  The other sites are served meanwhile.

    Each wakeup counts in the [live.loop.wakeups] counter of the hub the
    loop was created with. *)

type t

val create : obs:Dynvote_obs.Hub.t -> clock:(unit -> float) -> unit -> t
(** Start the loop, holding no site, on a new thread of the caller's
    domain.  [clock] is the clock the nodes' deadlines read. *)

val add : t -> Node.t -> unit
(** Hand a booted node to the loop; it is stepped from the loop's next
    wakeup on.  The loop holds the site from this call until it has
    closed the node.  After {!shutdown} the node is closed at once. *)

val await_closed : t -> Site_set.site -> unit
(** Block until the loop holds no node of [site] — at once when it holds
    none.  A node closes when its connection goes (the switchboard
    severed it, say) or a step kills it; one whose fsync is out closes
    when the fsync returns.  Not for the loop's own thread. *)

val shutdown : t -> unit
(** Stop the loop once every node it holds has closed — each closes on
    its connection's EOF, after the frames before it, so shut the
    switchboard down first — and join its thread and its syncers.  A
    second call does nothing. *)
