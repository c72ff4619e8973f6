(* The live service, end to end: a three-plus-one-site replicated KV
   store where every site is a real server behind a loopback socket (one
   site loop steps them all), every client operation is a genuine
   request/reply exchange
   running the paper's coordinator protocol, and every fault is injected
   live into the connection fabric.

   The walkthrough mirrors the paper's story: a write replicates
   everywhere, a partition strands the minority (which is denied, not
   wrong), healing plus RECOVER brings it back, and at the end the
   per-node on-disk operation logs are replayed through the safety
   oracle.  The run passes on the same verdict as the CLI's audit
   ({!Dynvote_live.Cluster.safe}) and removes its state directory.

   Run with:  dune exec examples/live_service.exe *)

module Live = Dynvote_live.Cluster
module Wire = Dynvote_live.Wire

let show label (reply : Live.reply) =
  match reply.Live.status with
  | Wire.Granted -> (
      match reply.Live.value with
      | Some v -> Fmt.pr "%-28s granted, value %S@." label v
      | None -> Fmt.pr "%-28s granted@." label)
  | Wire.Denied -> Fmt.pr "%-28s denied (%s)@." label reply.Live.info
  | Wire.Aborted -> Fmt.pr "%-28s aborted (%s)@." label reply.Live.info
  | Wire.Degraded -> Fmt.pr "%-28s degraded (%s)@." label reply.Live.info

let () =
  let dir = Live.temp_dir "dynvote-live-example" in
  let universe = Site_set.universe 4 in
  let cluster = Live.create ~universe ~dir () in
  Fmt.pr "four sites serving on loopback port %d, state under %s@.@."
    (Live.port cluster) dir;
  let c = Live.client cluster in

  show "put color=blue at site 0" (Live.put c ~at:0 ~key:"color" ~value:"blue");
  show "get color at site 3" (Live.get c ~at:3 ~key:"color");

  Fmt.pr "@.partitioning {0,1} | {2,3}...@.";
  Live.partition cluster [ Site_set.of_list [ 0; 1 ]; Site_set.of_list [ 2; 3 ] ];
  show "put color=red at site 3" (Live.put c ~at:3 ~key:"color" ~value:"red");
  show "put color=green at site 0" (Live.put c ~at:0 ~key:"color" ~value:"green");

  Fmt.pr "@.healing the partition...@.";
  Live.heal cluster;
  show "recover site 3" (Live.recover_site c 3);
  show "get color at site 3" (Live.get c ~at:3 ~key:"color");

  Fmt.pr "@.killing site 2 and writing while it is down...@.";
  Live.kill cluster 2;
  show "put color=teal at site 0" (Live.put c ~at:0 ~key:"color" ~value:"teal");
  Live.restart cluster 2;
  show "recover site 2" (Live.recover_site c 2);
  show "get color at site 2" (Live.get c ~at:2 ~key:"color");

  let audit = Live.check cluster in
  Fmt.pr "@.audit: %d log records replayed, %d violations@." audit.Live.records
    (List.length (Dynvote_chaos.Oracle.violations audit.Live.oracle));
  Live.shutdown cluster;
  Live.remove_dir dir;
  if not (Live.safe audit) then exit 1
