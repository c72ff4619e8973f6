(* A replicated file executed over real (simulated) message exchanges:
   START gathers states by broadcast and reply, the majority-partition
   test runs on whatever answered, COMMIT distributes the new ensembles,
   and recoveries move the file data.

   Two delivery models are supported.  [Quiet] is the paper's: reliable
   in-order delivery within the current partition, operations atomic with
   respect to topology changes, and the coordinator simply waits for the
   network to go quiet.  [Deadline] removes those assumptions for the
   chaos harness: the coordinator gathers replies under a timeout with
   bounded retry/backoff, verifies data transfers, and aborts (rather
   than hangs or commits blindly) when the network eats its traffic.
   Under [Deadline], writes piggyback the new content on COMMIT so data
   and ensemble install atomically — the residue of an aborted write can
   then never masquerade as a committed version.

   Chaos hooks expose the crash points of the broadcast-gather-decide-
   commit round: a schedule can kill the coordinator right after the
   decision or between two COMMIT sends, so only a subset of the
   reachable copies learns the new (o, v, P).  Crash-recovery always
   reloads the ensemble through the {!Dynvote.Codec} stable-storage path;
   a torn or corrupted record leaves the site amnesiac until a RECOVER
   sponsored by sites that still remember succeeds.

   The per-operation message counts are the basis of the overhead
   comparison: the paper's claim is that optimistic dynamic voting costs
   "much the same message traffic as majority consensus voting", while
   non-optimistic dynamic voting additionally pays for the connection
   vector (state exchange on every topology change). *)

type delivery =
  | Quiet
  | Deadline of { timeout : float; retries : int; backoff : float }

type chaos_event =
  | After_decide of { coordinator : Site_set.site; granted : bool }
  | After_commit_send of {
      coordinator : Site_set.site;
      recipient : Site_set.site;
      sent : int;
      total : int;
    }

type t = {
  universe : Site_set.t;
  n_sites : int;
  nodes : Node.t array;
  transport : Transport.t;
  ctx : Operation.ctx;
  delivery : delivery;
  mutable up : Site_set.t;
  mutable groups : Site_set.t list option; (* None = fully connected *)
  mutable fresh : Site_set.t; (* continuously up since last commit *)
  mutable round : int; (* unique id per gather / fetch exchange *)
  mutable chaos_hook : (chaos_event -> unit) option;
}

type outcome = {
  granted : bool;
  verdict : Decision.verdict;
  aborted : bool; (* decided, but the coordinator crashed or gave up *)
  messages : int;
  bytes : int;
  content : string option; (* what a read returned *)
}

let rec same_group groups a b =
  match groups with
  | [] -> false
  | g :: rest -> (Site_set.mem a g && Site_set.mem b g) || same_group rest a b

let connected t a b =
  Site_set.mem a t.up && Site_set.mem b t.up
  && match t.groups with None -> true | Some groups -> same_group groups a b

let create ?(flavor = Decision.ldv_flavor) ?(segment_of = fun _ -> 0)
    ?(latency = fun _ _ -> 0.001) ?(initial_content = "") ?(delivery = Quiet)
    ~universe () =
  (match delivery with
  | Quiet -> ()
  | Deadline { timeout; retries; backoff } ->
      if timeout <= 0.0 || retries < 0 || backoff < 1.0 then
        invalid_arg "Cluster.create: bad deadline parameters");
  let n_sites = Site_set.max_elt universe + 1 in
  let ordering = Ordering.default n_sites in
  let nodes =
    Array.init n_sites (fun site -> Node.create ~site ~universe ~initial_content)
  in
  let transport = Transport.create ~latency () in
  let t =
    {
      universe;
      n_sites;
      nodes;
      transport;
      ctx = { Operation.flavor; ordering; segment_of };
      delivery;
      up = universe;
      groups = None;
      fresh = universe;
      round = 0;
      chaos_hook = None;
    }
  in
  Transport.set_connectivity transport (fun a b -> connected t a b);
  Site_set.iter
    (fun site ->
      Transport.register transport site (fun tr msg -> Node.handler nodes.(site) tr msg))
    universe;
  t

let node t site = t.nodes.(site)
let universe t = t.universe
let transport t = t.transport
let up_sites t = t.up
let fresh_sites t = t.fresh

let set_chaos_hook t hook = t.chaos_hook <- Some hook
let clear_chaos_hook t = t.chaos_hook <- None

let set_commit_witness t witness =
  Array.iter (fun node -> Node.set_commit_witness node witness) t.nodes

let clear_commit_witness t =
  Array.iter Node.clear_commit_witness t.nodes

let amnesiac_sites t =
  Site_set.filter (fun site -> Node.is_amnesiac t.nodes.(site)) t.universe

let fail t site =
  t.up <- Site_set.remove site t.up;
  t.fresh <- Site_set.remove site t.fresh;
  (* A crash loses all volatile state, including operation locks. *)
  Node.clear_lock t.nodes.(site)

let crash = fail

(* Drain the network according to the delivery model: completely (paper)
   or only up to the coordinator's deadline (chaos). *)
let drain t =
  match t.delivery with
  | Quiet -> Transport.run_until_quiet t.transport
  | Deadline { timeout; _ } -> Transport.run_for t.transport ~timeout

let restart_silently t site =
  t.up <- Site_set.add site t.up;
  (* A restart reloads the ensemble from stable storage; a corrupt record
     leaves the site amnesiac (and silent) until a RECOVER succeeds. *)
  ignore (Node.reload_from_stable t.nodes.(site) : (unit, string) result)

let partition t groups =
  let covered = List.fold_left Site_set.union Site_set.empty groups in
  if not (Site_set.equal covered t.universe) then
    invalid_arg "Cluster.partition: groups must cover the universe";
  t.groups <- Some groups

let heal t = t.groups <- None

let next_round t =
  t.round <- t.round + 1;
  t.round

(* START: broadcast a state request from [requester] and collect the
   replies for this round.  Under [Quiet] everything in flight is
   delivered; under [Deadline] the coordinator waits [timeout], then
   re-asks the silent sites up to [retries] times with [backoff]-scaled
   patience, and finally proceeds with whatever answered — a lost reply
   degrades the reachable set (possibly to an ABORT), never to a hang.
   Replies of earlier rounds are discarded by the round tag.  Returns R
   (including the requester unless it is amnesiac) and the states
   learned. *)
let start t ~requester =
  let round = next_round t in
  let requester_node = t.nodes.(requester) in
  (* A reply of this round lands in its sender's slot (the last copy of a
     duplicate wins); slots of sites that never answer are never read. *)
  let states = Array.make t.n_sites (Node.replica requester_node) in
  let answered = ref Site_set.empty in
  Node.set_collector requester_node (fun message ->
      match message.Message.payload with
      | Message.State_reply { round = r; replica } when r = round ->
          states.(message.Message.src) <- replica;
          answered := Site_set.add message.Message.src !answered
      | _ -> ());
  (match t.delivery with
  | Quiet ->
      Transport.broadcast t.transport ~src:requester ~targets:t.universe
        (Message.State_request { round });
      Transport.run_until_quiet t.transport
  | Deadline { timeout; retries; backoff } ->
      let rec attempt n patience =
        let missing = Site_set.diff t.universe (Site_set.add requester !answered) in
        if not (Site_set.is_empty missing) then begin
          Transport.broadcast t.transport ~src:requester ~targets:missing
            (Message.State_request { round });
          Transport.run_for t.transport ~timeout:patience;
          if n < retries then attempt (n + 1) (patience *. backoff)
        end
      in
      attempt 0 timeout);
  Node.clear_collector requester_node;
  let self =
    if Node.is_amnesiac requester_node then Site_set.empty
    else Site_set.singleton requester
  in
  states.(requester) <- Node.replica requester_node;
  (Site_set.union self !answered, states)

let ensure_member t site =
  if not (Site_set.mem site t.universe) then
    invalid_arg "Cluster: requester does not hold a copy";
  if not (Site_set.mem site t.up) then invalid_arg "Cluster: requester is down";
  if Node.is_amnesiac t.nodes.(site) then
    invalid_arg "Cluster: requester is amnesiac (must RECOVER first)"

(* Fetch current data to [dst] from [src] (two messages), delivered now —
   the paper's unconditional transfer, valid under reliable delivery. *)
let transfer_data t ~src ~dst =
  let round = next_round t in
  Transport.send t.transport ~src:dst ~dst:src (Message.Data_request { round });
  Transport.run_until_quiet t.transport

(* Verified fetch for the chaos world: ask members of [sources] in turn
   until [dst] demonstrably holds data of at least [want_version], with
   the same bounded patience as the gather.  The reply matching this
   round force-installs (a recovering site's local data may be the
   residue of an uncommitted write and cannot be trusted, whatever its
   version number says); stray replies fall back to the monotone path. *)
let fetch_data t ~dst ~sources ~want_version =
  match t.delivery with
  | Quiet ->
      transfer_data t ~src:(Site_set.choose sources) ~dst;
      Node.data_version t.nodes.(dst) >= want_version
  | Deadline { timeout; retries; backoff } ->
      let sources = Site_set.to_list sources in
      let n_sources = List.length sources in
      let rec attempt n patience =
        if Node.data_version t.nodes.(dst) >= want_version then true
        else if n > retries then false
        else begin
          let src = List.nth sources (n mod n_sources) in
          let round = next_round t in
          Node.set_fetch_round t.nodes.(dst) (Some round);
          Transport.send t.transport ~src:dst ~dst:src (Message.Data_request { round });
          Transport.run_for t.transport ~timeout:patience;
          Node.set_fetch_round t.nodes.(dst) None;
          attempt (n + 1) (patience *. backoff)
        end
      in
      attempt 0 timeout

let with_counters t f =
  let before_msgs = Transport.messages_sent t.transport in
  let before_bytes = Transport.bytes_sent t.transport in
  let verdict, content, aborted = f () in
  {
    granted = Decision.is_granted verdict && not aborted;
    verdict;
    aborted;
    messages = Transport.messages_sent t.transport - before_msgs;
    bytes = Transport.bytes_sent t.transport - before_bytes;
    content;
  }

(* Send COMMIT to the members of [rest] in ascending order, [sent] of
   [total] already sent; false the moment the coordinator is down. *)
let rec commit_wave t ~coordinator ~rest ~sent ~total ~op_no ~version ~partition ~data =
  if Site_set.is_empty rest then true
  else if not (Site_set.mem coordinator t.up) then false
  else begin
    let site = Site_set.min_elt rest in
    let sent = sent + 1 in
    if site = coordinator then
      Node.install_commit t.nodes.(site) ~op_no ~version ~partition ?data ()
    else
      Transport.send t.transport ~src:coordinator ~dst:site
        (Message.Commit { op_no; version; partition; data });
    (match t.chaos_hook with
    | Some hook -> hook (After_commit_send { coordinator; recipient = site; sent; total })
    | None -> ());
    commit_wave t ~coordinator ~rest:(Site_set.remove site rest) ~sent ~total ~op_no
      ~version ~partition ~data
  end

(* The recipients that demonstrably applied the commit: up, and at its
   operation number or beyond. *)
let rec applied_of t ~op_no recipients acc =
  if Site_set.is_empty recipients then acc
  else
    let site = Site_set.min_elt recipients in
    let rest = Site_set.remove site recipients in
    if Site_set.mem site t.up && Replica.op_no (Node.replica t.nodes.(site)) >= op_no then
      applied_of t ~op_no rest (Site_set.add site acc)
    else applied_of t ~op_no rest acc

(* Distribute COMMIT(recipients, o, v, P) from the coordinator; the
   coordinator applies its own share locally.  The wave stops the moment
   the coordinator is crashed (by a chaos hook), so only a prefix of the
   recipients ever hears about the new ensemble — the classic mid-commit
   crash.  Returns whether the coordinator survived the whole wave. *)
let distribute_commit t ~coordinator ~recipients ~op_no ~version ~partition ?data () =
  let total = Site_set.cardinal recipients in
  let survived =
    commit_wave t ~coordinator ~rest:recipients ~sent:0 ~total ~op_no ~version ~partition
      ~data
    && Site_set.mem coordinator t.up
  in
  drain t;
  (* Only the recipients that demonstrably applied the commit are fresh
     again; a copy whose COMMIT the network ate is still running on its
     previous ensemble. *)
  t.fresh <- Site_set.union t.fresh (applied_of t ~op_no recipients Site_set.empty);
  survived

(* Shared head of every operation: decide, fire the post-decision crash
   point, and tell the caller whether the coordinator is still standing. *)
let decide t ~coordinator ~states ~reachable =
  let verdict = Operation.evaluate t.ctx states ~fresh:t.fresh ~reachable () in
  (match t.chaos_hook with
  | Some hook -> hook (After_decide { coordinator; granted = Decision.is_granted verdict })
  | None -> ());
  (verdict, Site_set.mem coordinator t.up)

let read t ~at =
  ensure_member t at;
  with_counters t (fun () ->
      let reachable, states = start t ~requester:at in
      match decide t ~coordinator:at ~states ~reachable with
      | (Decision.Denied _ as verdict), alive -> (verdict, None, not alive)
      | (Decision.Granted _ as verdict), false -> (verdict, None, true)
      | (Decision.Granted g as verdict), true ->
          let m = g.Decision.m in
          let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
          (* Serve the read: fetch data from an up-to-date copy if the
             requester's own copy is stale — and under chaos, verify the
             fetch actually landed before serving anything. *)
          if (not (Site_set.mem at g.Decision.s)) && not (fetch_data t ~dst:at ~sources:g.Decision.s ~want_version:v)
          then (verdict, None, true)
          else begin
            let survived =
              distribute_commit t ~coordinator:at ~recipients:g.Decision.s
                ~op_no:(o + 1) ~version:v ~partition:g.Decision.s ()
            in
            (verdict, Some (Node.content t.nodes.(at)), not survived)
          end)

(* The paper model's data round of a write: the coordinator writes its
   own copy and sends the content to the other members of [rest]. *)
let rec data_wave t ~at ~round ~version ~content rest =
  if not (Site_set.is_empty rest) then begin
    let site = Site_set.min_elt rest in
    if site = at then Node.write_local t.nodes.(site) ~version ~content
    else
      Transport.send t.transport ~src:at ~dst:site
        (Message.Data { round; version; content });
    data_wave t ~at ~round ~version ~content (Site_set.remove site rest)
  end

let write t ~at ~content =
  ensure_member t at;
  with_counters t (fun () ->
      let reachable, states = start t ~requester:at in
      match decide t ~coordinator:at ~states ~reachable with
      | (Decision.Denied _ as verdict), alive -> (verdict, None, not alive)
      | (Decision.Granted _ as verdict), false -> (verdict, None, true)
      | (Decision.Granted g as verdict), true -> (
          let m = g.Decision.m in
          let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
          match t.delivery with
          | Quiet ->
              (* Paper model: perform the write at every up-to-date copy,
                 then commit the new ensemble. *)
              data_wave t ~at ~round:t.round ~version:(v + 1) ~content g.Decision.s;
              Transport.run_until_quiet t.transport;
              let survived =
                distribute_commit t ~coordinator:at ~recipients:g.Decision.s
                  ~op_no:(o + 1) ~version:(v + 1) ~partition:g.Decision.s ()
              in
              (verdict, None, not survived)
          | Deadline _ ->
              (* Chaos model: a separate data round could be partially
                 lost, leaving committed-but-dataless copies; instead the
                 content rides inside COMMIT and installs atomically with
                 the ensemble. *)
              Node.write_local t.nodes.(at) ~version:(v + 1) ~content;
              let survived =
                distribute_commit t ~coordinator:at ~recipients:g.Decision.s
                  ~op_no:(o + 1) ~version:(v + 1) ~partition:g.Decision.s
                  ~data:content ()
              in
              (verdict, None, not survived)))

(* RECOVER, coordinated by the recovering site itself (Figure 3).  The
   restart always goes through stable storage: a corrupt record makes the
   site amnesiac, in which case its own (lost) state takes no part in the
   decision — only the answering peers vote, and a successful commit
   reinstates the ensemble. *)
let recover t ~site =
  if not (Site_set.mem site t.universe) then
    invalid_arg "Cluster.recover: site does not hold a copy";
  if not (Site_set.mem site t.up) then begin
    t.up <- Site_set.add site t.up;
    ignore (Node.reload_from_stable t.nodes.(site) : (unit, string) result)
  end;
  with_counters t (fun () ->
      let reachable, states = start t ~requester:site in
      match decide t ~coordinator:site ~states ~reachable with
      | (Decision.Denied _ as verdict), alive -> (verdict, None, not alive)
      | (Decision.Granted _ as verdict), false -> (verdict, None, true)
      | (Decision.Granted g as verdict), true ->
          let m = g.Decision.m in
          let o = Replica.op_no states.(m) and v = Replica.version states.(m) in
          let node = t.nodes.(site) in
          let must_fetch =
            Node.is_amnesiac node
            || Replica.version (Node.replica node) < v
            || Node.data_version node < v
          in
          if must_fetch && not (fetch_data t ~dst:site ~sources:g.Decision.s ~want_version:v)
          then (verdict, None, true)
          else begin
            let recipients = Site_set.add site g.Decision.s in
            let survived =
              distribute_commit t ~coordinator:site ~recipients ~op_no:(o + 1)
                ~version:v ~partition:recipients ()
            in
            (verdict, None, not survived)
          end)

let groups t = t.groups

(* Live connectivity components: the declared partition groups restricted
   to up sites (one component of every up site when unpartitioned). *)
let components t =
  match t.groups with
  | None -> if Site_set.is_empty t.up then [] else [ t.up ]
  | Some groups ->
      List.filter_map
        (fun g ->
          let live = Site_set.inter g t.up in
          if Site_set.is_empty live then None else Some live)
        groups

(* Snapshots capture the inter-operation cluster state: every node plus
   the topology bookkeeping.  The transport carries no state worth saving
   between operations — snapshots are only valid while it is quiet, which
   is also the only moment a model checker branches.  The round counter is
   saved so a restored run is bit-identical to a fresh one. *)
type snapshot = {
  snap_nodes : Node.snapshot array;
  snap_up : Site_set.t;
  snap_groups : Site_set.t list option;
  snap_fresh : Site_set.t;
  snap_round : int;
}

let snapshot t =
  if Transport.in_flight t.transport > 0 then
    invalid_arg "Cluster.snapshot: traffic in flight";
  {
    snap_nodes = Array.map Node.snapshot t.nodes;
    snap_up = t.up;
    snap_groups = t.groups;
    snap_fresh = t.fresh;
    snap_round = t.round;
  }

let restore t s =
  if Transport.in_flight t.transport > 0 then
    invalid_arg "Cluster.restore: traffic in flight";
  for i = 0 to Array.length s.snap_nodes - 1 do
    Node.restore t.nodes.(i) s.snap_nodes.(i)
  done;
  t.up <- s.snap_up;
  t.groups <- s.snap_groups;
  t.fresh <- s.snap_fresh;
  t.round <- s.snap_round

let replica_states t =
  Array.map Node.replica t.nodes

let is_consistent t =
  (* Any two copies with equal version numbers hold equal content. *)
  let ok = ref true in
  Site_set.iter
    (fun a ->
      Site_set.iter
        (fun b ->
          if
            a < b
            && Node.data_version t.nodes.(a) = Node.data_version t.nodes.(b)
            && not (String.equal (Node.content t.nodes.(a)) (Node.content t.nodes.(b)))
          then ok := false)
        t.universe)
    t.universe;
  !ok

(* Operation serialization.  A coordinator wishing to run an operation in
   mutual exclusion first locks every reachable copy: it broadcasts
   Lock_request and succeeds only if every reply grants.  On any refusal
   (a rival operation holds some lock) it releases what it took and the
   caller must retry later — all-or-nothing acquisition, so deadlock is
   impossible.  Locks are volatile: a crash releases them. *)
let lock t ~at ~op =
  ensure_member t at;
  let at_node = t.nodes.(at) in
  let self_granted = Node.try_lock at_node ~op in
  let replies = Hashtbl.create 8 in
  Node.set_collector at_node (fun message ->
      match message.Message.payload with
      | Message.Lock_reply { op = reply_op; granted } when reply_op = op ->
          Hashtbl.replace replies message.Message.src granted
      | _ -> ());
  Transport.broadcast t.transport ~src:at ~targets:t.universe
    (Message.Lock_request { op });
  drain t;
  Node.clear_collector at_node;
  let all_granted =
    self_granted && Hashtbl.fold (fun _ granted acc -> acc && granted) replies true
  in
  if all_granted then
    `Granted (Hashtbl.fold (fun s _ acc -> Site_set.add s acc) replies (Site_set.singleton at))
  else begin
    (* All-or-nothing: release whatever was acquired and report the
       conflict; the caller retries later, so no deadlock can form. *)
    Transport.broadcast t.transport ~src:at ~targets:t.universe (Message.Unlock { op });
    if Node.locked_by at_node = Some op && self_granted then Node.clear_lock at_node;
    drain t;
    `Denied
  end

let unlock t ~at ~op =
  ensure_member t at;
  if Node.locked_by t.nodes.(at) = Some op then Node.clear_lock t.nodes.(at);
  Transport.broadcast t.transport ~src:at ~targets:t.universe (Message.Unlock { op });
  drain t

(* The cost the non-optimistic algorithms pay that the optimistic ones do
   not: maintaining (an approximation of) the connection vector requires a
   state exchange within each component at every topology change.  Given
   the component sizes, this is the per-event message bill. *)
let connection_vector_messages components =
  List.fold_left
    (fun acc component ->
      let size = Site_set.cardinal component in
      acc + (size * (size - 1)))
    0 components
