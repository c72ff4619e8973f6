(* The six consistency policies compared in the paper's Table 2, packaged
   as state machines driven by connectivity views.

   A view is the partition of the *live* sites of the whole network into
   mutually communicating components.  Policies only care about the sites
   holding copies (their universe); other sites are ignored.

   The unified execution model (paper §2 and §4):

   - MCV is stateless: the file is available iff some component contains a
     strict majority of all copies.
   - DV, LDV and TDV assume instantaneous state information: we run a
     quorum refresh on every topology change.
   - ODV and OTDV operate on possibly stale information: the refresh runs
     only when the file is accessed (once a day in the paper's study).

   The decision rules differ per {!Decision.flavor}. *)

type kind = Mcv | Dv | Ldv | Odv | Tdv | Otdv

let all_kinds = [ Mcv; Dv; Ldv; Odv; Tdv; Otdv ]

let kind_name = function
  | Mcv -> "MCV"
  | Dv -> "DV"
  | Ldv -> "LDV"
  | Odv -> "ODV"
  | Tdv -> "TDV"
  | Otdv -> "OTDV"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "MCV" -> Some Mcv
  | "DV" -> Some Dv
  | "LDV" -> Some Ldv
  | "ODV" -> Some Odv
  | "TDV" -> Some Tdv
  | "OTDV" -> Some Otdv
  | _ -> None

let is_optimistic = function Odv | Otdv -> true | Mcv | Dv | Ldv | Tdv -> false

let flavor_of_kind = function
  | Mcv -> None
  | Dv -> Some Decision.dv_flavor
  | Ldv | Odv -> Some Decision.ldv_flavor
  | Tdv | Otdv -> Some Decision.tdv_flavor

type view = { components : Site_set.t list }
(** Partition of the live sites into mutually communicating groups. *)

(* When does a repaired site run its RECOVER protocol (Figure 3, "repeat
   until successful")?  [`At_access] folds recovery into the next file
   access — the least message traffic, and this project's default reading
   of the optimistic algorithms.  [`At_repair] lets the recovering site
   drive its reintegration immediately, as the figure's retry loop
   suggests; quorums then still shrink lazily but grow eagerly.  The
   instantaneous policies refresh on every event either way. *)
type recovery = [ `At_access | `At_repair ]

(* The components restricted to copy-holding sites, empty ones dropped. *)
let copy_components ~universe view =
  List.filter_map
    (fun component ->
      let copies = Site_set.inter component universe in
      if Site_set.is_empty copies then None else Some copies)
    view.components

(* Static majority consensus: a group may act iff it holds more than half
   of all votes (one per copy unless [weights] are given).  With
   [tie_break], an exact half is resolved in favour of the group holding
   that ordering's maximum copy (static lexicographic tie-breaking,
   standard for even vote totals; the paper's four-copy MCV figures are
   only consistent with this rule — strict 3-of-4 would leave
   configuration F unavailable for every site 4 outage, far above the
   0.0028 reported). *)
let static_majority ?weights ?tie_break ~universe () =
  let votes =
    match weights with
    | None -> Site_set.cardinal
    | Some weights -> fun set -> Site_set.fold (fun site acc -> acc + weights.(site)) set 0
  in
  let total = votes universe in
  let winner = Option.map (fun ordering -> Ordering.max_element ordering universe) tie_break in
  fun view ->
    List.exists
      (fun copies ->
        let have = 2 * votes copies in
        have > total
        || (have = total
           && match winner with Some site -> Site_set.mem site copies | None -> false))
      (copy_components ~universe view)

type t = {
  kind : kind;
  universe : Site_set.t; (* the sites holding copies *)
  ctx : Operation.ctx;   (* unused by MCV *)
  states : Replica.t array;
  mcv : view -> bool;    (* MCV's test: static majority with the tie-break *)
  recovery : recovery;
  (* Sites continuously up since their last commit — the sponsors allowed
     to claim dead same-segment votes under TDV/OTDV (see Decision). *)
  mutable fresh : Site_set.t;
}

let create ?flavor ?(recovery = `At_access) kind ~universe ~n_sites ~segment_of ~ordering =
  if Site_set.is_empty universe then invalid_arg "Policy.create: empty universe";
  let flavor =
    match flavor with
    | Some f -> f
    | None -> Option.value (flavor_of_kind kind) ~default:Decision.ldv_flavor
  in
  {
    kind;
    universe;
    ctx = { Operation.flavor; ordering; segment_of };
    states = Array.make n_sites (Replica.initial universe);
    mcv = static_majority ~tie_break:ordering ~universe ();
    recovery;
    fresh = universe;
  }

let kind t = t.kind
let universe t = t.universe
let fresh t = t.fresh
let states t = t.states
let replica t site = t.states.(site)

(* Run a refresh attempt in every component; the mutual-exclusion property
   of the decision rule guarantees at most one grant.  A grant freshens
   every participant (they all just committed).  Returns whether any
   component was granted. *)
let refresh_all t view =
  List.fold_left
    (fun granted copies ->
      match Operation.refresh t.ctx t.states ~fresh:t.fresh ~reachable:copies () with
      | Decision.Granted _ ->
          t.fresh <- Site_set.union t.fresh copies;
          true
      | Decision.Denied _ -> granted)
    false (copy_components ~universe:t.universe view)

let probe t view =
  List.exists
    (fun copies ->
      Decision.is_granted
        (Operation.evaluate t.ctx t.states ~fresh:t.fresh ~reachable:copies ()))
    (copy_components ~universe:t.universe view)

(* A crashed site loses its freshness until it participates in a commit
   again; this is local knowledge ("I rebooted"), independent of the
   policy's refresh discipline, so it is updated on every topology
   change for every policy. *)
let note_up_set t view =
  let up = List.fold_left Site_set.union Site_set.empty view.components in
  t.fresh <- Site_set.inter t.fresh up

(* Notification that the network state changed (site failure or repair,
   partition or heal).  Instantaneous policies adjust quorums right away;
   optimistic ones do nothing until the next access. *)
let handle_topology_change t view =
  note_up_set t view;
  match t.kind with
  | Mcv | Odv | Otdv -> ()
  | Dv | Ldv | Tdv -> ignore (refresh_all t view)

(* A file access.  For optimistic policies this is when quorums adjust. *)
let handle_access t view =
  match t.kind with
  | Mcv -> t.mcv view
  | Dv | Ldv | Tdv ->
      (* State is already a fixpoint for the current view. *)
      probe t view
  | Odv | Otdv -> refresh_all t view

(* A site repaired.  Under [`At_repair] the optimistic policies run the
   site's RECOVER protocol right away (the instantaneous ones already
   refreshed in {!handle_topology_change}). *)
let handle_repair t view ~site =
  match (t.kind, t.recovery) with
  | (Mcv | Dv | Ldv | Tdv), _ | _, `At_access -> ()
  | (Odv | Otdv), `At_repair ->
      if Site_set.mem site t.universe then begin
        let component =
          List.find_opt (fun c -> Site_set.mem site c) view.components
        in
        match component with
        | None -> ()
        | Some component -> (
            let reachable = Site_set.inter component t.universe in
            match
              Operation.recover t.ctx t.states ~fresh:t.fresh ~site ~reachable ()
            with
            | Decision.Granted g ->
                t.fresh <-
                  Site_set.union t.fresh (Site_set.add site g.Decision.s)
            | Decision.Denied _ -> ())
      end

(* Would an access succeed right now?  Pure: no state change, so usable as
   the availability indicator between events. *)
let is_available t view =
  match t.kind with Mcv -> t.mcv view | _ -> probe t view

let pp_states ?names ppf t =
  let pp_replica =
    match names with Some n -> Replica.pp_names n | None -> Replica.pp
  in
  Fmt.pf ppf "@[<v>";
  Site_set.iter
    (fun site -> Fmt.pf ppf "site %d: %a@," site pp_replica t.states.(site))
    t.universe;
  Fmt.pf ppf "@]"
