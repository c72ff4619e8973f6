(* Exact continuous-time Markov model of dynamic voting on a network that
   cannot partition (one segment), with exponential failure and repair
   times.

   With instantaneous quorum adjustment the pair

       (up-set, majority block)

   is a Markov state: every failure or repair is followed by a refresh
   that, when granted, resets the block to the whole up-set.  Sites outside
   the block are stale and can never assemble a quorum on their own (the
   standard mutual-exclusion argument: at most half of the previous quorum
   can fail to participate in an operation, and on a tie the maximum
   element moved forward), so their detailed states are irrelevant.

   The optimistic variants become Markov once accesses are Poisson:
   failures and repairs then leave the block untouched and an access event
   (rate [access_rate]) performs the refresh.  The simulator uses
   deterministic daily accesses instead, so simulated and analytic values
   agree only approximately for the optimistic policies — and exactly, up
   to sampling error, for the instantaneous ones. *)

type state = { up : int; block : int; fresh : int }

let popcount mask = Site_set.cardinal (Site_set.of_int_unsafe mask)

(* The majority-partition test specialized to one segment, mirroring
   {!Dynvote.Decision}: Q is the live part of the block; topological
   claiming extends it to the whole block whenever a *fresh* member is
   alive; the topological tie-break requires the maximum element to be
   fresh (on one segment every quorum mate could otherwise have claimed
   it — see Decision for the argument), except for singleton blocks. *)
let grants ~flavor ~ordering state =
  if flavor.Decision.topological && not flavor.Decision.safe_claims then
    (* Paper-literal claiming on one segment: any live site — block member
       or stale straggler — claims every dead site it ever shared a quorum
       with, so the file is available whenever anyone is up.  (The
       straggler path is exactly the unsafe resurrection the safe variant
       forbids.) *)
    state.up <> 0
  else begin
    let q = state.up land state.block in
    if q = 0 then false
    else if flavor.Decision.topological then
      (* Safe topological claiming on one segment reduces to: a fresh
         member of the block is up (it witnesses everything and claims the
         rest), or the whole block is up (no rival lineage can exist).
         This mirrors {!Dynvote.Decision}'s freshness condition and
         rival-lineage guard — the derived "last to fail, first to
         recover" discipline. *)
      q land state.fresh <> 0 || state.block land lnot state.up land state.block = 0
    else begin
      let size = popcount state.block in
      let have = 2 * popcount q in
      if have > size then true
      else if flavor.Decision.tie_break && have = size then
        Site_set.mem
          (Ordering.max_element ordering (Site_set.of_int_unsafe state.block))
          (Site_set.of_int_unsafe q)
      else false
    end
  end

let check_rates ?access_rate fail_rate repair_rate =
  if Array.length fail_rate <> Array.length repair_rate then
    invalid_arg "Voting_model: rate arrays differ in length";
  let positive r =
    if not (r > 0.0 && r < Float.infinity) then
      invalid_arg "Voting_model: rates must be positive"
  in
  Array.iter positive fail_rate;
  Array.iter positive repair_rate;
  Option.iter positive access_rate

type t = { ctmc : state Ctmc.t; denied : state -> bool }

(* The chain, defined and walked once for every figure below: its all-up
   initial state and its moves (a failure or repair of each site, plus
   the access refresh of the optimistic model). *)
let chain ~flavor ?access_rate ~fail_rate ~repair_rate ~ordering () =
  check_rates ?access_rate fail_rate repair_rate;
  let n = Array.length fail_rate in
  if n > 16 then invalid_arg "Voting_model: too many sites for exact solution";
  let everyone = (1 lsl n) - 1 in
  (* A granted refresh re-commits everyone reachable: block and fresh both
     become the whole up-set. *)
  let refresh state =
    if grants ~flavor ~ordering state then { state with block = state.up; fresh = state.up }
    else state
  in
  let instantaneous = access_rate = None in
  let transitions state =
    let moves = ref [] in
    for site = 0 to n - 1 do
      let bit = 1 lsl site in
      if state.up land bit <> 0 then begin
        (* A crashing site loses its freshness. *)
        let next = { state with up = state.up lxor bit; fresh = state.fresh land lnot bit } in
        let next = if instantaneous then refresh next else next in
        moves := (fail_rate.(site), next) :: !moves
      end
      else begin
        (* A repaired site is up but not fresh until it recovers via a
           granted refresh. *)
        let next = { state with up = state.up lor bit } in
        let next = if instantaneous then refresh next else next in
        moves := (repair_rate.(site), next) :: !moves
      end
    done;
    (match access_rate with
    | Some rate ->
        let refreshed = refresh state in
        if refreshed <> state then moves := (rate, refreshed) :: !moves
    | None -> ());
    !moves
  in
  {
    ctmc =
      Ctmc.explore ~initial:{ up = everyone; block = everyone; fresh = everyone } ~transitions ();
    denied = (fun state -> not (grants ~flavor ~ordering state));
  }

(* The mass of the denied states themselves, accurate relative to its own
   size: 1 - mass(granted) would only be accurate relative to 1. *)
let unavailability c = Ctmc.mass c.ctmc c.denied

(* Reliability: mean time from the all-up start until the file first
   becomes unavailable (the paper's "reliability of access"). *)
let mean_time_to_unavailability c = Ctmc.expected_hitting_time c.ctmc ~target:c.denied

(* Reliability function R(t): probability the file, started all-up,
   suffers no unavailability during [0, t]. *)
let survival c ~times = Ctmc.survival c.ctmc ~target:c.denied ~times

(* Renewal quantities at stationarity: the frequency of availability
   loss and the mean lengths of available / unavailable periods (the
   exact counterparts of the simulator's outage statistics and of the
   paper's Table 3). *)
type periods = {
  availability : float;
  failures_per_day : float; (* transitions available -> unavailable *)
  mean_up_days : float;
  mean_down_days : float;
}

let period_statistics c =
  let availability = Ctmc.mass c.ctmc (fun state -> not (c.denied state)) in
  let denied = Ctmc.mass c.ctmc c.denied in
  (* Probability flux from available into unavailable states. *)
  let flux = Ctmc.flux c.ctmc ~target:c.denied in
  {
    availability;
    failures_per_day = flux;
    mean_up_days = (if flux = 0.0 then infinity else availability /. flux);
    mean_down_days = (if flux = 0.0 then nan else denied /. flux);
  }

(* Per-site steady-state availability under exponential assumptions. *)
let site_availability ~fail_rate ~repair_rate =
  Array.map2 (fun l m -> m /. (l +. m)) fail_rate repair_rate
