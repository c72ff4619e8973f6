(* Algorithm 1 of the paper, generalized to cover every dynamic-voting
   flavor studied:

     -  plain Dynamic Voting            (no tie-break, no topology)
     -  Lexicographic Dynamic Voting    (tie-break)
     -  Topological Dynamic Voting      (tie-break + vote claiming)

   Given the set R of live, mutually communicating copies, their state
   ensembles, and (for the topological variant) the segment each site lives
   on, [evaluate] decides whether R is the majority partition.  The
   function is pure: committing the resulting state change is the job of
   {!Operation}. *)

type flavor = {
  tie_break : bool;      (* resolve exact halves with the site ordering *)
  topological : bool;    (* claim votes of dead same-segment quorum members *)
  safe_claims : bool;
      (* gate claiming behind the freshness condition (see below); false
         reproduces the paper's Figures 5-7 literally, which admit
         sequential split-brain histories *)
}

let dv_flavor = { tie_break = false; topological = false; safe_claims = true }
let ldv_flavor = { tie_break = true; topological = false; safe_claims = true }
let tdv_flavor = { tie_break = true; topological = true; safe_claims = false }
let tdv_safe_flavor = { tie_break = true; topological = true; safe_claims = true }

type denial =
  | No_reachable_copy       (* R is empty *)
  | Below_majority of { have : int; quorum_size : int }
      (* fewer than half of the previous majority partition *)
  | Tie_lost of { max_element : Site_set.site }
      (* exactly half, but the ordering's maximum is elsewhere *)
  | Tie_unbroken
      (* exactly half and this flavor has no tie-breaking rule *)
  | Rival_possible of { rivals : Site_set.t }
      (* safe topological flavor only: the unreachable quorum members
         could themselves have continued the file via vote claiming, so
         granting here risks a second lineage *)

type grant = {
  q : Site_set.t;     (* sites with the highest operation number *)
  s : Site_set.t;     (* sites with the highest version number *)
  m : Site_set.site;  (* representative member of q *)
  p_m : Site_set.t;   (* the previous majority partition *)
  claimed : Site_set.t;
      (* the set T whose cardinality was tested: q itself for
         non-topological flavors, q plus claimed same-segment votes for
         the topological ones *)
}

type verdict = Granted of grant | Denied of denial

let is_granted = function Granted _ -> true | Denied _ -> false

(* The walks below run over a set's raw bitmask ([Site_set.to_int]):
   [bits] is what is left of it shifted down to site [i], so a member
   costs one step of a local recursion and an int comparison, and nothing
   is allocated.  The decision runs at every simulated access and every
   checker transition; a tuple per member, a closure per filter or a list
   of segments per call would all be garbage by the time it returns, and
   a call into [Site_set] per member would cost more than the step. *)

let rec op_maxima_from states bits i best q =
  if bits = 0 then q
  else if bits land 1 = 0 then op_maxima_from states (bits lsr 1) (i + 1) best q
  else
    let o = states.(i).Replica.op_no in
    if o > best then op_maxima_from states (bits lsr 1) (i + 1) o (1 lsl i)
    else if o = best then op_maxima_from states (bits lsr 1) (i + 1) best (q lor (1 lsl i))
    else op_maxima_from states (bits lsr 1) (i + 1) best q

(* Q = { r in R : o_r maximal }. *)
let op_maxima states r =
  Site_set.of_int_unsafe (op_maxima_from states (Site_set.to_int r) 0 min_int 0)

let rec version_maxima_from states bits i best s =
  if bits = 0 then s
  else if bits land 1 = 0 then version_maxima_from states (bits lsr 1) (i + 1) best s
  else
    let v = states.(i).Replica.version in
    if v > best then version_maxima_from states (bits lsr 1) (i + 1) v (1 lsl i)
    else if v = best then
      version_maxima_from states (bits lsr 1) (i + 1) best (s lor (1 lsl i))
    else version_maxima_from states (bits lsr 1) (i + 1) best s

(* S = { r in R : v_r maximal }. *)
let version_maxima states r =
  Site_set.of_int_unsafe (version_maxima_from states (Site_set.to_int r) 0 min_int 0)

let rec on_segment_from ~segment_of segment bits i =
  bits <> 0
  && ((bits land 1 <> 0 && segment_of i = segment)
     || on_segment_from ~segment_of segment (bits lsr 1) (i + 1))

let rec mates_from ~segment_of ~anchors bits i acc =
  if bits = 0 then acc
  else
    mates_from ~segment_of ~anchors (bits lsr 1) (i + 1)
      (if bits land 1 <> 0 && on_segment_from ~segment_of (segment_of i) anchors 0 then
         acc lor (1 lsl i)
       else acc)

(* Does some member of [set] live on [segment]? *)
let on_segment ~segment_of segment set =
  on_segment_from ~segment_of segment (Site_set.to_int set) 0

(* The members of [set] that share a segment with some member of
   [anchors]. *)
let segment_mates ~segment_of ~anchors set =
  Site_set.of_int_unsafe
    (mates_from ~segment_of ~anchors:(Site_set.to_int anchors) (Site_set.to_int set) 0 0)

(* T: members of P_m sharing a segment with a live reachable member of
   P_m (paper §3 prose; each live member claims the votes of its dead
   segment-mates).

   Claiming carries a safety condition the paper's figures leave implicit:
   the claiming site must have been *continuously up since its last
   commit* ("fresh").  A fresh site on segment alpha has necessarily
   witnessed every operation any of its alpha-mates took part in (two up
   sites on one segment are always connected), so a dead alpha-mate in its
   partition set really holds no newer state.  Without the condition, a
   site that crashes, misses operations, and restarts while the rest of
   the block is down could claim its dead neighbours' votes and resurrect
   the file with stale data — losing the writes committed in between.
   Claimed sites beyond Q therefore require a fresh sponsor; members of Q
   always count themselves. *)
let claimed_votes ~segment_of ~p_m ~r ~fresh ~q =
  let sponsors = Site_set.inter (Site_set.inter p_m r) fresh in
  Site_set.union q (segment_mates ~segment_of ~anchors:sponsors p_m)

(* The rival-lineage guard of the safe topological flavor.

   Vote claiming breaks plain dynamic voting's majority-chain argument: a
   claim-based commit can move the block to a *minority* of the previous
   quorum P_m, after which a majority of P_m — restarting later with their
   old states — would pass the cardinality test and regress the file.
   (Concretely, on one segment: {2} claims dead {0, 1} and continues
   alone; 0 and 1 then restart together while 2 is down and form 2-of-3 of
   their remembered quorum {0,1,2}.)

   The guard: let D be the unreachable members of P_m.  A member of D is
   *silenced* when a fresh member of Q shares its segment — any operation
   it had joined since the P_m commit would have reached that witness and
   bumped its operation number.  The un-silenced remainder could, in the
   worst case, have formed a rival group claiming every P_m member on
   their segments; if that hypothetical rival could itself have passed the
   quorum test, the current grant is unsafe and must wait.  The rival
   group is returned, or the empty set when there is none (a rival always
   has a member). *)
let rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh =
  let d = Site_set.diff p_m r in
  let witnesses = Site_set.inter q fresh in
  let d_eff = Site_set.diff d (segment_mates ~segment_of ~anchors:witnesses d) in
  if Site_set.is_empty d_eff then Site_set.empty
  else begin
    let rival = Site_set.union d_eff (segment_mates ~segment_of ~anchors:d_eff p_m) in
    let have = 2 * Site_set.cardinal rival in
    let size = Site_set.cardinal p_m in
    if
      have > size
      || (have = size && Site_set.mem (Ordering.max_element ordering p_m) d_eff)
    then rival
    else Site_set.empty
  end

let evaluate flavor ~ordering ~segment_of ?fresh ~states ~reachable:r () =
  if Site_set.is_empty r then Denied No_reachable_copy
  else begin
    (* Without [safe_claims] every live site may sponsor claims, exactly as
       the paper's figures read. *)
    let fresh = if flavor.safe_claims then Option.value fresh ~default:r else r in
    let q = op_maxima states r in
    let s = version_maxima states r in
    let m = Site_set.min_elt q in
    let p_m = Replica.partition states.(m) in
    let claimed =
      if flavor.topological then claimed_votes ~segment_of ~p_m ~r ~fresh ~q else q
    in
    let rivals =
      if flavor.topological && flavor.safe_claims then
        rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh
      else Site_set.empty
    in
    if not (Site_set.is_empty rivals) then Denied (Rival_possible { rivals })
    else
    let have = Site_set.cardinal claimed in
    let quorum_size = Site_set.cardinal p_m in
    (* |T| > |P_m| / 2, in integer arithmetic. *)
    if 2 * have > quorum_size then Granted { q; s; m; p_m; claimed }
    else if 2 * have = quorum_size then begin
      if not flavor.tie_break then Denied Tie_unbroken
      else begin
        (* Exactly half: grant iff the ordering's maximum element of P_m is
           among the live up-to-date sites (Figures 1-7 test max(P_m) ∈ Q —
           a claimed dead site cannot carry the tie-break).

           Under the topological flavor the tie-break needs one more
           safety condition.  The classic argument — "the other half lacks
           the maximum, so it can never proceed" — breaks when the other
           half could have *claimed* the maximum's vote while it was down:
           then both halves of the same quorum generation would commit.
           So the maximum may carry the tie only if it is fresh (its vote
           was provably never claimed) or no other quorum member shares
           its segment (its vote was never claimable). *)
        let max_element = Ordering.max_element ordering p_m in
        let claim_proof =
          (not flavor.topological)
          || (not flavor.safe_claims)
          || Site_set.mem max_element fresh
          || not
               (on_segment ~segment_of (segment_of max_element)
                  (Site_set.remove max_element p_m))
        in
        if Site_set.mem max_element q && claim_proof then
          Granted { q; s; m; p_m; claimed }
        else Denied (Tie_lost { max_element })
      end
    end
    else Denied (Below_majority { have; quorum_size })
  end

let pp_denial ppf = function
  | No_reachable_copy -> Fmt.string ppf "no reachable copy"
  | Below_majority { have; quorum_size } ->
      Fmt.pf ppf "below majority (%d of previous quorum %d)" have quorum_size
  | Tie_lost { max_element } ->
      Fmt.pf ppf "tie lost (max element %d unreachable)" max_element
  | Tie_unbroken -> Fmt.string ppf "tie (no tie-breaking rule)"
  | Rival_possible { rivals } ->
      Fmt.pf ppf "a rival lineage via %a is possible" Site_set.pp rivals

let pp_verdict ppf = function
  | Granted g ->
      Fmt.pf ppf "granted (Q=%a S=%a P=%a T=%a)" Site_set.pp g.q Site_set.pp g.s
        Site_set.pp g.p_m Site_set.pp g.claimed
  | Denied d -> Fmt.pf ppf "denied: %a" pp_denial d
