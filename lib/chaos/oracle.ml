(* The safety oracle: the executable invariant spec
   (Dynvote_invariant.Spec), adapted to a live msgsim cluster.

   All invariant logic — generation agreement, monotonicity, the
   register model, the content-fork scan, replay, snapshots and the
   fingerprint serialization — lives in the spec module; this adapter
   only wires a cluster's commit-witness hook and client-visible
   outcomes into it, and walks the cluster's pairs of holders through
   the fork predicate.  The model checker and the live audit evaluate the
   same spec module through their own adapters — one spec, three
   checkers. *)

module Cluster = Dynvote_msgsim.Cluster
module Node = Dynvote_msgsim.Node

include Dynvote_invariant.Spec

let attach t cluster = Cluster.set_commit_witness cluster (witness t)

let note_write t ~content (outcome : Cluster.outcome) =
  write_flags t ~granted:outcome.Cluster.granted ~aborted:outcome.Cluster.aborted
    ~content

let note_read t ~at (outcome : Cluster.outcome) =
  read_flags t ~at ~granted:outcome.Cluster.granted ~content:outcome.Cluster.content

(* The fork scan over the cluster's nodes in place, pair by pair, in the
   order [check_states] visits a holder list built by folding the
   universe: the first site descending, then the second descending among
   the sites above it.  Listing the holders would cost a tuple and a cons
   cell per site at every step. *)
let check_step t cluster =
  let universe = Cluster.universe cluster in
  let top = Site_set.max_elt universe in
  for site_a = top downto 0 do
    if Site_set.mem site_a universe then begin
      let node_a = Cluster.node cluster site_a in
      let version = Node.data_version node_a and content_a = Node.content node_a in
      for site_b = top downto site_a + 1 do
        if Site_set.mem site_b universe then begin
          let node_b = Cluster.node cluster site_b in
          check_fork t ~site_a ~version ~content_a ~site_b
            ~version_b:(Node.data_version node_b) ~content_b:(Node.content node_b)
        end
      done
    end
  done

let final_check = check_step
