(* Extension policies beyond the paper's six:

   - strict MCV (no tie-break) — the textbook rule, for the ablation that
     justifies our reading of the paper's four-copy MCV numbers;
   - weighted static voting (Gifford 1979), the "weight assignments" the
     paper's conclusion calls for;
   - the Jajodia–Mutchler integer protocol (SIGMOD 1987), which stores the
     previous quorum's cardinality instead of the partition set;
   - available copy (Bernstein–Goodman 1984), correct only on networks that
     cannot partition — with violation counting when they do;
   - voting with witnesses (Paris 1986): some sites store only the
     consistency-control state, no data. *)

(* Strict majority consensus voting: > half of all copies, ties never
   broken. *)
let strict_mcv ~universe =
  Driver.stateless ~name:"MCV-strict" (Policy.static_majority ~universe ())

(* Gifford-style static weighted voting: a group may act iff it holds more
   than half the total weight; an exact half goes to the group holding the
   ordering's maximum site when [tie_break]. *)
let weighted_mcv ?(tie_break = true) ~weights ~universe ~ordering () =
  Site_set.iter
    (fun site ->
      if site >= Array.length weights || weights.(site) < 0 then
        invalid_arg "Policy_extra.weighted_mcv: bad weight vector")
    universe;
  if Site_set.fold (fun site acc -> acc + weights.(site)) universe 0 <= 0 then
    invalid_arg "Policy_extra.weighted_mcv: no votes";
  let tie_break = if tie_break then Some ordering else None in
  Driver.stateless ~name:"WMCV" (Policy.static_majority ~weights ?tie_break ~universe ())

(* The Jajodia-Mutchler protocol: per-site operation number, version number
   and the *cardinality* of the previous quorum.  Equivalent in availability
   to plain DV (it cannot break ties, having forgotten who the quorum
   members were). *)
module Jm_dv = struct
  type site_state = { op_no : int; version : int; quorum_size : int }

  type t = {
    universe : Site_set.t;
    states : site_state array;
  }

  let create ~universe ~n_sites =
    let size = Site_set.cardinal universe in
    { universe; states = Array.make n_sites { op_no = 1; version = 1; quorum_size = size } }

  let attempt t ~commit reachable =
    let best_o =
      Site_set.fold (fun s acc -> max acc t.states.(s).op_no) reachable min_int
    in
    let q = Site_set.filter (fun s -> t.states.(s).op_no = best_o) reachable in
    let m = Site_set.min_elt q in
    let granted = 2 * Site_set.cardinal q > t.states.(m).quorum_size in
    if granted && commit then begin
      let best_v =
        Site_set.fold (fun s acc -> max acc t.states.(s).version) reachable min_int
      in
      let next =
        { op_no = best_o + 1; version = best_v; quorum_size = Site_set.cardinal reachable }
      in
      Site_set.iter (fun s -> t.states.(s) <- next) reachable
    end;
    granted

  let driver ~universe ~n_sites =
    let t = create ~universe ~n_sites in
    let run ~commit view =
      List.fold_left
        (fun any copies -> if attempt t ~commit copies then true else any)
        false
        (Policy.copy_components ~universe view)
    in
    {
      Driver.name = "JM-DV";
      optimistic = false;
      on_topology_change = (fun view -> ignore (run ~commit:true view));
      on_repair = (fun _ _ -> ());
      on_access = (fun view -> run ~commit:false view);
      available = (fun view -> run ~commit:false view);
    }
end

let jm_dv ~universe ~n_sites = Jm_dv.driver ~universe ~n_sites

(* Available copy.  Correct only when the copies can never be partitioned:
   a site that gets no answer assumes the peer is down.  We keep the set C
   of current copies; any live copy that can reach a member of C syncs and
   joins; down copies leave C (writes are assumed frequent).  When the
   network *does* partition, several groups can hold members of C
   simultaneously — a consistency violation this driver counts rather than
   hides. *)
module Available_copy = struct
  type t = {
    universe : Site_set.t;
    mutable current : Site_set.t;
    mutable violations : int;
  }

  let create ~universe = { universe; current = universe; violations = 0 }

  let update t view =
    let comps = Policy.copy_components ~universe:t.universe view in
    let live_groups =
      List.filter (fun copies -> not (Site_set.disjoint copies t.current)) comps
    in
    if List.length live_groups > 1 then t.violations <- t.violations + 1;
    match live_groups with
    | [] -> () (* every current copy is down; C frozen until one returns *)
    | groups -> t.current <- List.fold_left Site_set.union Site_set.empty groups

  let driver ~universe =
    let t = create ~universe in
    let available view =
      List.exists
        (fun copies -> not (Site_set.disjoint copies t.current))
        (Policy.copy_components ~universe view)
    in
    ( t,
      {
        Driver.name = "AC";
        optimistic = false;
        on_topology_change = (fun view -> update t view);
        on_repair = (fun _ _ -> ());
        on_access = available;
        available;
      } )

  let violations t = t.violations
end

let available_copy ~universe = Available_copy.driver ~universe

(* Weighted dynamic voting: the paper's closing "analyze weight
   assignments" item.  The full dynamic protocol (partition sets,
   operation numbers, lexicographic ties) with per-site vote weights: a
   group proceeds when the weight of its up-to-date members exceeds half
   the weight of the previous quorum.  Instantaneous or optimistic. *)
module Weighted_dv = struct
  type t = {
    universe : Site_set.t;
    weights : int array;
    ordering : Ordering.t;
    states : Replica.t array;
    optimistic : bool;
  }

  let create ?(optimistic = false) ~weights ~universe ~n_sites ~ordering () =
    Site_set.iter
      (fun site ->
        if site >= Array.length weights || weights.(site) < 0 then
          invalid_arg "Policy_extra.weighted_dv: bad weight vector")
      universe;
    { universe; weights; ordering; states = Array.make n_sites (Replica.initial universe);
      optimistic }

  let weight_of t set = Site_set.fold (fun site acc -> acc + t.weights.(site)) set 0

  (* The weighted majority-partition test; mirrors Decision.evaluate. *)
  let attempt t ~commit reachable =
    let best_o =
      Site_set.fold (fun site acc -> max acc (Replica.op_no t.states.(site))) reachable
        min_int
    in
    let q =
      Site_set.filter (fun site -> Replica.op_no t.states.(site) = best_o) reachable
    in
    let m = Site_set.min_elt q in
    let p_m = Replica.partition t.states.(m) in
    let have = 2 * weight_of t q in
    let size = weight_of t p_m in
    let granted =
      have > size
      || (have = size && Site_set.mem (Ordering.max_element t.ordering p_m) q)
    in
    if granted && commit then begin
      let best_v =
        Site_set.fold (fun site acc -> max acc (Replica.version t.states.(site))) reachable
          min_int
      in
      (* The refresh commit: the whole component becomes current. *)
      Site_set.iter
        (fun site ->
          t.states.(site) <-
            Replica.make ~op_no:(best_o + 1) ~version:best_v ~partition:reachable)
        reachable
    end;
    granted

  let run t ~commit view =
    List.fold_left
      (fun any group -> if attempt t ~commit group then true else any)
      false
      (Policy.copy_components ~universe:t.universe view)

  let driver t =
    {
      Driver.name = (if t.optimistic then "OWDV" else "WDV");
      optimistic = t.optimistic;
      on_topology_change =
        (fun view -> if not t.optimistic then ignore (run t ~commit:true view));
      on_repair = (fun _ _ -> ());
      on_access = (fun view -> run t ~commit:true view);
      available = (fun view -> run t ~commit:false view);
    }
end

let weighted_dv ?optimistic ~weights ~universe ~n_sites ~ordering () =
  Weighted_dv.driver (Weighted_dv.create ?optimistic ~weights ~universe ~n_sites ~ordering ())

(* Voting with witnesses: the full dynamic-voting state machine where some
   participants (witnesses) store only the (o, v, P) ensemble.  They vote
   and tie-break like copies, but an access additionally needs at least one
   up-to-date *data* copy in the granted group.  This is adaptive voting
   with witnesses whose role bounds never fire: a granted group always
   holds a live data copy (at least 1), and no group can hold more copies
   than there are participants. *)
let witness ?flavor ?optimistic ~data_sites ~witnesses ~n_sites ~segment_of ~ordering () =
  if not (Site_set.disjoint data_sites witnesses) then
    invalid_arg "Policy_extra.witness: a site cannot be both copy and witness";
  if Site_set.is_empty data_sites then
    invalid_arg "Policy_extra.witness: need at least one data copy";
  let _, driver =
    Adaptive_witness.make ?flavor ?optimistic ~initial_copies:data_sites ~witnesses
      ~min_copies:1
      ~max_copies:(Site_set.cardinal (Site_set.union data_sites witnesses))
      ~n_sites ~segment_of ~ordering ()
  in
  { driver with Driver.name = (if driver.Driver.optimistic then "OW-LDV" else "W-LDV") }
