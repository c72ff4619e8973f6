(* Algorithm 1 as the tree decided it before its walks were made
   allocation-free: a fold building a tuple per member for Q and S,
   segment lists searched with [List.mem], a closure per filter.  It is
   kept, verbatim, as the reference [test decision] compares
   {!Decision.evaluate} against on random inputs: the rewrite must give
   the same verdict, grant fields and denial reasons included. *)

(* Q = { r in R : o_r maximal }.  Returns (max_o, Q). *)
let op_maxima states r =
  Site_set.fold
    (fun site ((best, set) as acc) ->
      let o = Replica.op_no states.(site) in
      if o > best then (o, Site_set.singleton site)
      else if o = best then (best, Site_set.add site set)
      else acc)
    r
    (min_int, Site_set.empty)

(* S = { r in R : v_r maximal }. *)
let version_maxima states r =
  Site_set.fold
    (fun site ((best, set) as acc) ->
      let v = Replica.version states.(site) in
      if v > best then (v, Site_set.singleton site)
      else if v = best then (best, Site_set.add site set)
      else acc)
    r
    (min_int, Site_set.empty)

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
  let sponsor_segments =
    Site_set.fold (fun site acc -> segment_of site :: acc) sponsors []
  in
  Site_set.union q
    (Site_set.filter (fun site -> List.mem (segment_of site) sponsor_segments) p_m)

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
   quorum test, the current grant is unsafe and must wait. *)
let rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh =
  let d = Site_set.diff p_m r in
  let witnesses = Site_set.inter q fresh in
  let witness_segments =
    Site_set.fold (fun site acc -> segment_of site :: acc) witnesses []
  in
  let d_eff =
    Site_set.filter (fun i -> not (List.mem (segment_of i) witness_segments)) d
  in
  if Site_set.is_empty d_eff then None
  else begin
    let rival_segments =
      Site_set.fold (fun site acc -> segment_of site :: acc) d_eff []
    in
    let rival =
      Site_set.union d_eff
        (Site_set.filter (fun j -> List.mem (segment_of j) rival_segments) p_m)
    in
    let have = 2 * Site_set.cardinal rival in
    let size = Site_set.cardinal p_m in
    if
      have > size
      || (have = size && Site_set.mem (Ordering.max_element ordering p_m) d_eff)
    then Some rival
    else None
  end

let evaluate (flavor : Decision.flavor) ~ordering ~segment_of ?fresh ~states ~reachable:r () =
  if Site_set.is_empty r then Decision.Denied Decision.No_reachable_copy
  else begin
    (* Without [safe_claims] every live site may sponsor claims, exactly as
       the paper's figures read. *)
    let fresh = if flavor.safe_claims then Option.value fresh ~default:r else r in
    let _, q = op_maxima states r in
    let _, s = version_maxima states r in
    let m = Site_set.min_elt q in
    let p_m = Replica.partition states.(m) in
    let claimed =
      if flavor.topological then claimed_votes ~segment_of ~p_m ~r ~fresh ~q else q
    in
    let rival =
      if flavor.topological && flavor.safe_claims then
        rival_claimants ~segment_of ~ordering ~p_m ~r ~q ~fresh
      else None
    in
    match rival with
    | Some rivals -> Decision.Denied (Decision.Rival_possible { rivals })
    | None ->
    let have = Site_set.cardinal claimed in
    let quorum_size = Site_set.cardinal p_m in
    (* |T| > |P_m| / 2, in integer arithmetic. *)
    if 2 * have > quorum_size then Decision.Granted { Decision.q; s; m; p_m; claimed }
    else if 2 * have = quorum_size then begin
      if not flavor.tie_break then Decision.Denied Decision.Tie_unbroken
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
          || Site_set.for_all
               (fun j -> j = max_element || segment_of j <> segment_of max_element)
               p_m
        in
        if Site_set.mem max_element q && claim_proof then
          Decision.Granted { Decision.q; s; m; p_m; claimed }
        else Decision.Denied (Decision.Tie_lost { max_element })
      end
    end
    else Decision.Denied (Decision.Below_majority { have; quorum_size })
  end
