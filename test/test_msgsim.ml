(* Message-level protocol engine: transport semantics, wire-protocol
   equivalence with the pure operation semantics, traffic accounting. *)

open Helpers
module Message = Dynvote_msgsim.Message
module Transport = Dynvote_msgsim.Transport
module Node = Dynvote_msgsim.Node
module Cluster = Dynvote_msgsim.Cluster

(* --- Transport --- *)

let test_transport_delivery () =
  let transport = Transport.create () in
  let received = ref [] in
  Transport.register transport 1 (fun _ msg -> received := msg :: !received);
  Transport.send transport ~src:0 ~dst:1 (Message.State_request { round = 0 });
  Transport.send transport ~src:0 ~dst:1 Message.Ack;
  Transport.run_until_quiet transport;
  Alcotest.(check int) "both delivered" 2 (List.length !received);
  Alcotest.(check int) "sent" 2 (Transport.messages_sent transport);
  Alcotest.(check int) "delivered" 2 (Transport.messages_delivered transport);
  (* FIFO: the first sent arrives first. *)
  (match List.rev !received with
  | [ first; second ] ->
      Alcotest.(check bool) "order" true
        (match (first.Message.payload, second.Message.payload) with
        | Message.State_request _, Message.Ack -> true
        | _ -> false)
  | _ -> Alcotest.fail "wrong count")

let test_transport_drop_disconnected () =
  let transport = Transport.create ~connected:(fun a b -> a = b) () in
  let received = ref 0 in
  Transport.register transport 1 (fun _ _ -> incr received);
  Transport.send transport ~src:0 ~dst:1 Message.Ack;
  Transport.run_until_quiet transport;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "counted as dropped" 1 (Transport.messages_dropped transport);
  (* The drop is attributed to the partition, not to an injected fault. *)
  Alcotest.(check int) "partition drop" 1 (Transport.messages_dropped_partition transport);
  Alcotest.(check int) "no fault drop" 0 (Transport.messages_dropped_fault transport)

let test_transport_replies_chain () =
  (* A handler that replies; run_until_quiet must deliver the reply too. *)
  let transport = Transport.create () in
  let got_reply = ref false in
  Transport.register transport 1 (fun tr msg ->
      match msg.Message.payload with
      | Message.State_request _ -> Transport.send tr ~src:1 ~dst:0 Message.Ack
      | _ -> ());
  Transport.register transport 0 (fun _ msg ->
      if msg.Message.payload = Message.Ack then got_reply := true);
  Transport.send transport ~src:0 ~dst:1 (Message.State_request { round = 0 });
  Transport.run_until_quiet transport;
  Alcotest.(check bool) "round trip" true !got_reply

let test_transport_kind_accounting () =
  let transport = Transport.create () in
  Transport.register transport 1 (fun _ _ -> ());
  Transport.send transport ~src:0 ~dst:1 (Message.State_request { round = 0 });
  Transport.send transport ~src:0 ~dst:1 (Message.State_request { round = 1 });
  Transport.send transport ~src:0 ~dst:1 (Message.Data_request { round = 0 });
  Transport.run_until_quiet transport;
  Alcotest.(check int) "state requests" 2 (Transport.kind_count transport "state_request");
  Alcotest.(check int) "data requests" 1 (Transport.kind_count transport "data_request");
  Alcotest.(check bool) "bytes counted" true (Transport.bytes_sent transport > 0);
  Transport.reset_stats transport;
  Alcotest.(check int) "reset" 0 (Transport.messages_sent transport)

(* --- Cluster operations --- *)

let universe3 = ss [ 0; 1; 2 ]

let test_cluster_write_then_read () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  let w = Cluster.write c ~at:0 ~content:"hello" in
  Alcotest.(check bool) "write granted" true w.Cluster.granted;
  let r = Cluster.read c ~at:2 in
  Alcotest.(check bool) "read granted" true r.Cluster.granted;
  Alcotest.(check (option string)) "read returns the write" (Some "hello")
    r.Cluster.content;
  Alcotest.(check bool) "consistent" true (Cluster.is_consistent c)

let test_cluster_minority_denied () =
  let c = Cluster.create ~universe:universe3 () in
  Cluster.fail c 0;
  Cluster.fail c 1;
  let r = Cluster.read c ~at:2 in
  Alcotest.(check bool) "1 of 3 denied" false r.Cluster.granted

let test_cluster_partition_semantics () =
  let c = Cluster.create ~universe:universe3 () in
  Cluster.partition c [ ss [ 0; 1 ]; ss [ 2 ] ];
  Alcotest.(check bool) "majority side writes" true
    (Cluster.write c ~at:0 ~content:"x").Cluster.granted;
  Alcotest.(check bool) "minority side denied" false (Cluster.read c ~at:2).Cluster.granted;
  (* After healing, the minority copy catches up via the next operation. *)
  Cluster.heal c;
  let r = Cluster.read c ~at:2 in
  Alcotest.(check bool) "healed read granted" true r.Cluster.granted;
  Alcotest.(check (option string)) "reads the committed value" (Some "x") r.Cluster.content

let test_cluster_recovery_transfers_data () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v1" () in
  Cluster.fail c 2;
  ignore (Cluster.write c ~at:0 ~content:"v2");
  (* Site 2 recovers: Figure 3 — it must copy the file from the quorum. *)
  let before = Transport.kind_count (Cluster.transport c) "data" in
  let r = Cluster.recover c ~site:2 in
  Alcotest.(check bool) "recovery granted" true r.Cluster.granted;
  Alcotest.(check string) "data transferred" "v2" (Node.content (Cluster.node c 2));
  Alcotest.(check bool) "a data message flowed" true
    (Transport.kind_count (Cluster.transport c) "data" > before);
  Alcotest.(check bool) "states merged" true
    (Replica.equal (Node.replica (Cluster.node c 2)) (Node.replica (Cluster.node c 0)))

(* A recovered copy is current: once the other two fail it cannot serve
   alone (one of three), but the first of them to return makes a quorum
   with it, and that pair serves the newest value. *)
let test_cluster_recovered_copy_serves () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"1" () in
  Cluster.fail c 2;
  ignore (Cluster.write c ~at:0 ~content:"10");
  Alcotest.(check bool) "recovery granted" true (Cluster.recover c ~site:2).Cluster.granted;
  Cluster.fail c 0;
  Cluster.fail c 1;
  Alcotest.(check bool) "a lone copy is denied" false (Cluster.read c ~at:2).Cluster.granted;
  Alcotest.(check bool) "a second copy returns" true (Cluster.recover c ~site:0).Cluster.granted;
  let r = Cluster.read c ~at:2 in
  Alcotest.(check bool) "the pair is a quorum" true r.Cluster.granted;
  Alcotest.(check (option string)) "serving the newest value" (Some "10") r.Cluster.content

let test_cluster_requires_up_member () =
  let c = Cluster.create ~universe:universe3 () in
  Alcotest.check_raises "not a member" (Invalid_argument "Cluster: requester does not hold a copy")
    (fun () -> ignore (Cluster.read c ~at:5));
  Cluster.fail c 1;
  Alcotest.check_raises "down" (Invalid_argument "Cluster: requester is down") (fun () ->
      ignore (Cluster.read c ~at:1))

(* Wire protocol produces exactly the state evolution of the pure
   semantics, operation by operation, over a scripted history. *)
let test_wire_equals_pure () =
  let c = Cluster.create ~universe:universe3 () in
  let pure = Array.make 3 (Replica.initial universe3) in
  let ctx = Operation.make_ctx (Ordering.default 3) in
  let compare_states step =
    Site_set.iter
      (fun site ->
        Alcotest.check replica_testable
          (Printf.sprintf "%s: site %d" step site)
          pure.(site)
          (Node.replica (Cluster.node c site)))
      universe3
  in
  (* write at 0 *)
  ignore (Cluster.write c ~at:0 ~content:"a");
  ignore (Operation.write ctx pure ~reachable:universe3 ());
  compare_states "write";
  (* 2 fails; two writes *)
  Cluster.fail c 2;
  ignore (Cluster.write c ~at:1 ~content:"b");
  ignore (Operation.write ctx pure ~reachable:(ss [ 0; 1 ]) ());
  ignore (Cluster.read c ~at:0);
  ignore (Operation.read ctx pure ~reachable:(ss [ 0; 1 ]) ());
  (* 2 recovers *)
  ignore (Cluster.recover c ~site:2);
  ignore (Operation.recover ctx pure ~site:2 ~reachable:universe3 ());
  compare_states "after recovery";
  (* 0 fails, 1 continues, tie-break on {1}? no: {1,2} is 2 of 3. *)
  Cluster.fail c 0;
  ignore (Cluster.write c ~at:1 ~content:"c");
  ignore (Operation.write ctx pure ~reachable:(ss [ 1; 2 ]) ());
  compare_states "final"

(* Message counts: the paper's overhead claim.  An ODV operation costs the
   same message pattern as an MCV operation (probe n-1, replies, commits);
   the non-optimistic policies additionally pay the connection-vector
   exchange at every topology event. *)
let test_message_overhead_accounting () =
  let c = Cluster.create ~universe:universe3 () in
  let w = Cluster.write c ~at:0 ~content:"x" in
  (* START: 2 requests + 2 replies; write data: 2; commit: 2 = 8 total. *)
  Alcotest.(check int) "write messages" 8 w.Cluster.messages;
  let r = Cluster.read c ~at:0 in
  (* START: 2 + 2; commit: 2 = 6 (requester's copy is current, no data). *)
  Alcotest.(check int) "read messages" 6 r.Cluster.messages;
  (* Connection-vector bill for one event with components {0,1} and {2}:
     2*1 + 0 = 2 messages. *)
  Alcotest.(check int) "connection vector cost" 2
    (Cluster.connection_vector_messages [ ss [ 0; 1 ]; ss [ 2 ] ])

let test_larger_cluster_counts () =
  let universe = ss [ 0; 1; 2; 3; 4 ] in
  let c = Cluster.create ~universe () in
  let w = Cluster.write c ~at:0 ~content:"y" in
  (* probe 4 + replies 4 + data 4 + commit 4 = 16. *)
  Alcotest.(check int) "5-site write messages" 16 w.Cluster.messages;
  Alcotest.(check bool) "granted" true w.Cluster.granted

(* Fault injection: stale commits are ignored; a dropped commit leaves a
   copy op-stale and the next operation repairs it through the normal
   recovery path. *)
let test_stale_commit_ignored () =
  let node = Node.create ~site:0 ~universe:universe3 ~initial_content:"" in
  Node.install_commit node ~op_no:5 ~version:3 ~partition:(ss [ 0; 1 ]) ();
  let snapshot = Node.replica node in
  (* A delayed duplicate and an outright stale commit change nothing. *)
  Node.install_commit node ~op_no:5 ~version:3 ~partition:(ss [ 0; 1 ]) ();
  Node.install_commit node ~op_no:2 ~version:9 ~partition:universe3 ();
  Alcotest.check replica_testable "unchanged" snapshot (Node.replica node);
  Node.install_commit node ~op_no:6 ~version:4 ~partition:(ss [ 0 ]) ();
  Alcotest.(check int) "newer applies" 6 (Replica.op_no (Node.replica node))

let test_lost_commit_self_heals () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  (* Drop every commit addressed to site 2 during one write. *)
  Transport.set_fault (Cluster.transport c) (fun msg ->
      msg.Message.dst = 2
      && match msg.Message.payload with Message.Commit _ -> true | _ -> false);
  let w = Cluster.write c ~at:0 ~content:"v1" in
  Alcotest.(check bool) "write still granted" true w.Cluster.granted;
  (* Exactly the injected drop, attributed to the fault counter. *)
  Alcotest.(check int) "fault drop counted" 1
    (Transport.messages_dropped_fault (Cluster.transport c));
  Alcotest.(check int) "no partition drop" 0
    (Transport.messages_dropped_partition (Cluster.transport c));
  Transport.clear_fault (Cluster.transport c);
  (* Site 2 missed the commit: it is op-stale but received the data. *)
  Alcotest.(check bool) "site 2 behind" true
    (Replica.op_no (Node.replica (Cluster.node c 2))
    < Replica.op_no (Node.replica (Cluster.node c 0)));
  (* Reads still work — the quorum never depended on site 2's vote — and
     return the committed value even when coordinated at the stale site. *)
  let r = Cluster.read c ~at:2 in
  Alcotest.(check bool) "read granted" true r.Cluster.granted;
  Alcotest.(check (option string)) "reads the committed value" (Some "v1") r.Cluster.content;
  (* Running the recovery protocol reintegrates the stale copy fully. *)
  let rec_outcome = Cluster.recover c ~site:2 in
  Alcotest.(check bool) "recovery granted" true rec_outcome.Cluster.granted;
  Alcotest.(check bool) "consistent after healing" true (Cluster.is_consistent c);
  Alcotest.check replica_testable "states re-merged"
    (Node.replica (Cluster.node c 0))
    (Node.replica (Cluster.node c 2))

(* Operation locks: conflicting coordinators are serialized; locks are
   all-or-nothing, released on conflict and lost on crash. *)
let test_lock_serializes_coordinators () =
  let c = Cluster.create ~universe:universe3 () in
  (* Coordinator at site 0 locks operation 1 everywhere. *)
  (match Cluster.lock c ~at:0 ~op:1 with
  | `Granted locked -> Alcotest.check set_testable "locked all three" universe3 locked
  | `Denied -> Alcotest.fail "first lock should succeed");
  (* A rival coordinator cannot proceed while op 1 holds the locks. *)
  (match Cluster.lock c ~at:2 ~op:2 with
  | `Denied -> ()
  | `Granted _ -> Alcotest.fail "rival lock must be denied");
  (* The rival's failed attempt must not have disturbed op 1's locks. *)
  Site_set.iter
    (fun site ->
      Alcotest.(check (option int))
        (Printf.sprintf "site %d still held by op 1" site)
        (Some 1)
        (Node.locked_by (Cluster.node c site)))
    universe3;
  (* Re-locking is idempotent for the holder. *)
  (match Cluster.lock c ~at:0 ~op:1 with
  | `Granted _ -> ()
  | `Denied -> Alcotest.fail "holder must be able to re-lock");
  (* Release; the rival now succeeds. *)
  Cluster.unlock c ~at:0 ~op:1;
  match Cluster.lock c ~at:2 ~op:2 with
  | `Granted _ -> ()
  | `Denied -> Alcotest.fail "lock should be free again"

let test_lock_lost_on_crash () =
  let c = Cluster.create ~universe:universe3 () in
  (match Cluster.lock c ~at:0 ~op:7 with `Granted _ -> () | `Denied -> Alcotest.fail "lock");
  (* The coordinator crashes: its own lock state vanishes; the other sites
     still hold op 7... *)
  Cluster.fail c 0;
  Alcotest.(check (option int)) "crashed site lock cleared" None
    (Node.locked_by (Cluster.node c 0));
  Alcotest.(check (option int)) "survivor still locked" (Some 7)
    (Node.locked_by (Cluster.node c 1));
  (* ...so a new coordinator is refused until it clears the orphan locks
     (a release on behalf of the dead operation). *)
  (match Cluster.lock c ~at:1 ~op:8 with
  | `Denied -> ()
  | `Granted _ -> Alcotest.fail "orphan locks must block");
  Cluster.unlock c ~at:1 ~op:7;
  match Cluster.lock c ~at:1 ~op:8 with
  | `Granted _ -> ()
  | `Denied -> Alcotest.fail "after cleanup the lock must be free"

(* Randomized equivalence: arbitrary fail/recover/write/read sequences keep
   the wire-level states consistent and identical to the pure oracle. *)
let prop_random_histories_consistent =
  qcheck_case ~count:60 ~name:"random wire histories stay consistent"
    Generators.cluster_script
    (fun script ->
      let c = Cluster.create ~universe:universe3 ~initial_content:"0" () in
      let counter = ref 0 in
      List.iter
        (fun cmd ->
          let site = cmd mod 3 in
          match cmd / 3 mod 4 with
          | 0 -> Cluster.fail c site
          | 1 -> if not (Site_set.mem site (Cluster.up_sites c)) then
                   ignore (Cluster.recover c ~site)
          | 2 ->
              if Site_set.mem site (Cluster.up_sites c) then begin
                incr counter;
                ignore (Cluster.write c ~at:site ~content:(string_of_int !counter))
              end
          | _ ->
              if Site_set.mem site (Cluster.up_sites c) then
                ignore (Cluster.read c ~at:site))
        script;
      Cluster.is_consistent c)

(* --- One-copy equivalence: reads against the register --- *)

(* Two coordinators in turn: every copy reads the newest write. *)
let test_cluster_reads_newest () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  Alcotest.(check bool) "first write" true (Cluster.write c ~at:0 ~content:"v1").Cluster.granted;
  Alcotest.(check (option string)) "read at 2" (Some "v1") (Cluster.read c ~at:2).Cluster.content;
  Alcotest.(check bool) "second write" true (Cluster.write c ~at:1 ~content:"v2").Cluster.granted;
  Site_set.iter
    (fun site ->
      Alcotest.(check (option string))
        (Printf.sprintf "read at %d" site)
        (Some "v2") (Cluster.read c ~at:site).Cluster.content)
    universe3;
  Alcotest.(check bool) "consistent" true (Cluster.is_consistent c)

(* Every operation checks its requester, and copies without a quorum
   change nothing. *)
let test_cluster_refusals () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  Alcotest.check_raises "write at a non-member"
    (Invalid_argument "Cluster: requester does not hold a copy") (fun () ->
      ignore (Cluster.write c ~at:7 ~content:"x"));
  Alcotest.check_raises "recovery of a non-member"
    (Invalid_argument "Cluster.recover: site does not hold a copy") (fun () ->
      ignore (Cluster.recover c ~site:7));
  Cluster.fail c 0;
  Alcotest.check_raises "write at a down site" (Invalid_argument "Cluster: requester is down")
    (fun () -> ignore (Cluster.write c ~at:0 ~content:"x"));
  Cluster.fail c 1;
  Alcotest.(check bool) "lone write denied" false (Cluster.write c ~at:2 ~content:"x").Cluster.granted;
  Alcotest.(check bool) "lone read denied" false (Cluster.read c ~at:2).Cluster.granted;
  Alcotest.(check string) "the denied write wrote nothing" "v0" (Node.content (Cluster.node c 2))

(* A minority partition can neither read nor write, and once healed it
   reads what the majority wrote meanwhile. *)
let test_cluster_minority_partition () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  ignore (Cluster.write c ~at:0 ~content:"v1");
  Cluster.partition c [ ss [ 0; 1 ]; ss [ 2 ] ];
  Alcotest.(check bool) "majority writes" true (Cluster.write c ~at:0 ~content:"v2").Cluster.granted;
  Alcotest.(check bool) "minority read denied" false (Cluster.read c ~at:2).Cluster.granted;
  Alcotest.(check bool) "minority write denied" false
    (Cluster.write c ~at:2 ~content:"lost").Cluster.granted;
  Cluster.heal c;
  Alcotest.(check (option string)) "after heal, reads v2" (Some "v2")
    (Cluster.read c ~at:2).Cluster.content

(* The copies at the newest version all hold the register's value. *)
let newest_copies_hold c expected =
  let version site = Replica.version (Node.replica (Cluster.node c site)) in
  let best = Site_set.fold (fun site acc -> max acc (version site)) universe3 min_int in
  Site_set.for_all
    (fun site -> version site <> best || Node.content (Cluster.node c site) = expected)
    universe3

let test_cluster_consistent_after_recovery () =
  let c = Cluster.create ~universe:universe3 ~initial_content:"v0" () in
  ignore (Cluster.write c ~at:0 ~content:"v");
  Cluster.fail c 1;
  ignore (Cluster.write c ~at:0 ~content:"w");
  Alcotest.(check bool) "recovery granted" true (Cluster.recover c ~site:1).Cluster.granted;
  Alcotest.(check bool) "newest copies hold w" true (newest_copies_hold c "w");
  Alcotest.(check bool) "consistent" true (Cluster.is_consistent c)

(* The paper-literal TDV hole (DESIGN.md §3) end to end: with every copy
   on one segment, site 2 writes alone by claiming its dead mates' votes;
   then 2 fails and site 0 restarts stale.  The paper flavor lets 0
   resurrect the file by claiming 1 and 2 and serves the older value; the
   safe flavor makes it wait for a copy that saw the newest write. *)
let fork_scenario flavor =
  let c =
    Cluster.create ~flavor ~segment_of:(fun _ -> 0) ~universe:universe3 ~initial_content:"" ()
  in
  ignore (Cluster.write c ~at:0 ~content:"old");
  Cluster.fail c 0;
  Cluster.fail c 1;
  let continued = Cluster.write c ~at:2 ~content:"new" in
  Cluster.fail c 2;
  ignore (Cluster.recover c ~site:0);
  (continued.Cluster.granted, Cluster.read c ~at:0)

let test_paper_tdv_forks () =
  let continued, r = fork_scenario Decision.tdv_flavor in
  Alcotest.(check bool) "2 writes alone" true continued;
  Alcotest.(check bool) "the stale read is granted" true r.Cluster.granted;
  Alcotest.(check (option string)) "and serves the older value" (Some "old") r.Cluster.content

let test_safe_tdv_refuses_fork () =
  let continued, r = fork_scenario Decision.tdv_safe_flavor in
  Alcotest.(check bool) "2 writes alone" true continued;
  Alcotest.(check bool) "the stale read is denied" false r.Cluster.granted

(* Random histories of fail / recover / write / read / partition: every
   granted read returns the latest granted write, and the copies at the
   newest version hold it.  [cmd mod 3] is the site and [cmd / 3 mod 5]
   the action; a partition isolates the site ([split] gives the groups)
   on an even [cmd] and heals on an odd one. *)
let one_copy_history ?(split = fun site -> [ Site_set.remove site universe3; ss [ site ] ])
    flavor segment_of script =
  let c = Cluster.create ~flavor ~segment_of ~universe:universe3 ~initial_content:"0" () in
  let register = ref "0" and counter = ref 0 and reads_ok = ref true in
  let up site = Site_set.mem site (Cluster.up_sites c) in
  List.iter
    (fun cmd ->
      let site = cmd mod 3 in
      match cmd / 3 mod 5 with
      | 0 -> Cluster.fail c site
      | 1 -> if not (up site) then ignore (Cluster.recover c ~site)
      | 2 ->
          if up site then begin
            incr counter;
            let content = string_of_int !counter in
            if (Cluster.write c ~at:site ~content).Cluster.granted then register := content
          end
      | 3 ->
          if up site then begin
            let r = Cluster.read c ~at:site in
            if r.Cluster.granted && r.Cluster.content <> Some !register then reads_ok := false
          end
      | _ -> if cmd mod 2 = 0 then Cluster.partition c (split site) else Cluster.heal c)
    script;
  !reads_ok && newest_copies_hold c !register && Cluster.is_consistent c

let one_copy_script = QCheck.(list_of_size (Gen.int_range 1 60) (int_bound 999))

let one_copy_props =
  [
    qcheck_case ~count:100 ~name:"one-copy equivalence (LDV)" one_copy_script
      (one_copy_history Decision.ldv_flavor (fun _ -> 0));
    (* A partition may only isolate a site that sits alone on its
       segment, so each site gets its own. *)
    qcheck_case ~count:100 ~name:"one-copy equivalence (safe TDV, segmented)" one_copy_script
      (one_copy_history Decision.tdv_safe_flavor (fun site -> site));
    (* One shared segment cannot partition: a partition command becomes
       a read at site 2 (1001 = 3 * 333 + 2, 333 mod 5 = 3). *)
    qcheck_case ~count:100 ~name:"one-copy equivalence (safe TDV, shared segment)"
      one_copy_script (fun script ->
        one_copy_history Decision.tdv_safe_flavor (fun _ -> 0)
          (List.map (fun cmd -> if cmd / 3 mod 5 = 4 then 1001 else cmd) script));
    (* Sites 0 and 1 share a segment and 2 is alone, so the one legal
       split is {0,1} | {2}: claims, ties and the rival guard all meet. *)
    qcheck_case ~count:150 ~name:"one-copy equivalence (safe TDV, paired segments)"
      one_copy_script
      (one_copy_history
         ~split:(fun _ -> [ ss [ 0; 1 ]; ss [ 2 ] ])
         Decision.tdv_safe_flavor
         (fun site -> if site <= 1 then 0 else 1));
  ]

let suite =
  [
    Alcotest.test_case "transport delivery" `Quick test_transport_delivery;
    Alcotest.test_case "transport drops when disconnected" `Quick
      test_transport_drop_disconnected;
    Alcotest.test_case "transport reply chains" `Quick test_transport_replies_chain;
    Alcotest.test_case "transport kind accounting" `Quick test_transport_kind_accounting;
    Alcotest.test_case "write then read" `Quick test_cluster_write_then_read;
    Alcotest.test_case "minority denied" `Quick test_cluster_minority_denied;
    Alcotest.test_case "partition semantics" `Quick test_cluster_partition_semantics;
    Alcotest.test_case "recovery transfers data" `Quick test_cluster_recovery_transfers_data;
    Alcotest.test_case "a recovered copy serves the newest value" `Quick
      test_cluster_recovered_copy_serves;
    Alcotest.test_case "requester validation" `Quick test_cluster_requires_up_member;
    Alcotest.test_case "wire protocol = pure semantics" `Quick test_wire_equals_pure;
    Alcotest.test_case "stale commits ignored" `Quick test_stale_commit_ignored;
    Alcotest.test_case "lost commit self-heals" `Quick test_lost_commit_self_heals;
    Alcotest.test_case "locks serialize coordinators" `Quick test_lock_serializes_coordinators;
    Alcotest.test_case "locks lost on crash" `Quick test_lock_lost_on_crash;
    Alcotest.test_case "message overhead accounting" `Quick test_message_overhead_accounting;
    Alcotest.test_case "larger cluster counts" `Quick test_larger_cluster_counts;
    prop_random_histories_consistent;
    Alcotest.test_case "reads return the newest write" `Quick test_cluster_reads_newest;
    Alcotest.test_case "refusals change nothing" `Quick test_cluster_refusals;
    Alcotest.test_case "a minority partition is refused" `Quick test_cluster_minority_partition;
    Alcotest.test_case "consistent after recovery" `Quick test_cluster_consistent_after_recovery;
    Alcotest.test_case "paper TDV forks end-to-end" `Quick test_paper_tdv_forks;
    Alcotest.test_case "safe TDV refuses the fork" `Quick test_safe_tdv_refuses_fork;
  ]
  @ one_copy_props
