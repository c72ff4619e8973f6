(* Adaptive voting with witnesses (Paris 1986, §"future work" of this
   paper): some participants are witnesses — they store the consistency
   ensemble but no data — and the protocol *converts* participants between
   the two roles as failures come and go:

     - when a quorum operation finds fewer than [min_copies] live data
       copies, it promotes live witnesses to full copies (the data
       transfer piggybacks on the commit, and the witness is already
       version-current, so promotion is cheap and safe);
     - when more than [max_copies] data copies are live again, surplus
       copies are demoted back to witnesses, reclaiming storage.

   The result approximates the availability of a fully replicated file at
   a fraction of the storage: most of the time only [max_copies] real
   copies exist, but the replication level heals itself after failures.

   Role changes happen inside granted operations only, so they inherit the
   protocol's mutual exclusion: two rival groups can never make
   conflicting role decisions. *)

type t = {
  ctx : Operation.ctx;
  participants : Site_set.t;
  ordering : Ordering.t;
  min_copies : int;
  max_copies : int;
  states : Replica.t array;
  mutable data_sites : Site_set.t;
  mutable fresh : Site_set.t;
  mutable promotions : int;
  mutable demotions : int;
  optimistic : bool;
}

let create ?(flavor = Decision.ldv_flavor) ?(optimistic = false) ~initial_copies ~witnesses
    ~min_copies ~max_copies ~n_sites ~segment_of ~ordering () =
  if not (Site_set.disjoint initial_copies witnesses) then
    invalid_arg "Adaptive_witness: a site cannot be both copy and witness";
  if Site_set.is_empty initial_copies then
    invalid_arg "Adaptive_witness: need at least one data copy";
  if min_copies < 1 || max_copies < min_copies then
    invalid_arg "Adaptive_witness: need 1 <= min_copies <= max_copies";
  let participants = Site_set.union initial_copies witnesses in
  {
    ctx = { Operation.flavor; ordering; segment_of };
    participants;
    ordering;
    min_copies;
    max_copies;
    states = Array.make n_sites (Replica.initial participants);
    data_sites = initial_copies;
    fresh = participants;
    promotions = 0;
    demotions = 0;
    optimistic;
  }

let data_sites t = t.data_sites
let promotions t = t.promotions
let demotions t = t.demotions

(* Pick the [n] highest-ranked members of [set] (stable, deterministic). *)
let take_best t n set =
  let ranked =
    List.sort
      (fun a b -> compare (Ordering.rank t.ordering b) (Ordering.rank t.ordering a))
      (Site_set.to_list set)
  in
  List.filteri (fun i _ -> i < n) ranked |> Site_set.of_list

(* Inside a granted operation: adjust roles so that the number of *live
   reachable* data copies returns into [min_copies, max_copies]. *)
let rebalance t reachable =
  let live_data = Site_set.inter reachable t.data_sites in
  let live_count = Site_set.cardinal live_data in
  if live_count < t.min_copies then begin
    let candidates = Site_set.diff reachable t.data_sites in
    let wanted = t.min_copies - live_count in
    let promoted = take_best t wanted candidates in
    t.promotions <- t.promotions + Site_set.cardinal promoted;
    t.data_sites <- Site_set.union t.data_sites promoted
  end
  else if live_count > t.max_copies then begin
    (* Demote the lowest-ranked live copies, never below max_copies, and
       never a dead copy (it may hold the only surviving data). *)
    let surplus = live_count - t.max_copies in
    let keep = take_best t t.max_copies live_data in
    let demoted = take_best t surplus (Site_set.diff live_data keep) in
    t.demotions <- t.demotions + Site_set.cardinal demoted;
    t.data_sites <- Site_set.diff t.data_sites demoted
  end

let attempt t ~commit reachable =
  match Operation.evaluate t.ctx t.states ~fresh:t.fresh ~reachable () with
  | Decision.Denied _ -> false
  | Decision.Granted g ->
      let has_data = not (Site_set.disjoint g.Decision.s t.data_sites) in
      if has_data && commit then begin
        ignore (Operation.refresh t.ctx t.states ~fresh:t.fresh ~reachable ());
        t.fresh <- Site_set.union t.fresh reachable;
        rebalance t reachable
      end;
      has_data

let run t ~commit view =
  List.fold_left
    (fun any group -> if attempt t ~commit group then true else any)
    false (Policy.copy_components ~universe:t.participants view)

let note_up_set t view =
  let up = List.fold_left Site_set.union Site_set.empty view.Policy.components in
  t.fresh <- Site_set.inter t.fresh up

let driver t =
  {
    Driver.name = (if t.optimistic then "OAW-LDV" else "AW-LDV");
    optimistic = t.optimistic;
    on_topology_change =
      (fun view ->
        note_up_set t view;
        if not t.optimistic then ignore (run t ~commit:true view));
    on_repair = (fun _ _ -> ());
    on_access = (fun view -> run t ~commit:true view);
    available = (fun view -> run t ~commit:false view);
  }

let make ?flavor ?optimistic ~initial_copies ~witnesses ~min_copies ~max_copies ~n_sites
    ~segment_of ~ordering () =
  let t =
    create ?flavor ?optimistic ~initial_copies ~witnesses ~min_copies ~max_copies
      ~n_sites ~segment_of ~ordering ()
  in
  (t, driver t)
