(* Storage fault injection and crash recovery: the fault-injecting
   filesystem's durability model (lying fsyncs, lost renames, short
   writes, seeded crash truncation), oplog scan forensics (torn tails
   vs. mid-log corruption), degraded-mode fencing, exactly-once client
   retries, the slow-loris wire guard, and a slice of the crash-point
   recovery matrix. *)

open Helpers

module Wire = Dynvote_live.Wire
module Evconn = Dynvote_live.Evconn
module Persist = Dynvote_live.Persist
module Live = Dynvote_live.Cluster
module Node = Dynvote_live.Node
module Crash_matrix = Dynvote_live.Crash_matrix
module Faultfs = Dynvote_faultfs.Faultfs
module Shard_store = Dynvote_shard.Shard_store
module Storage = Dynvote_chaos.Fault_plan.Storage
module Oracle = Dynvote_chaos.Oracle
module Loadgen = Dynvote_live.Loadgen
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Trace = Dynvote_obs.Trace

let ss = Site_set.of_list

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* Write [content] through a vfs with full fsync discipline. *)
let vfs_write (vfs : Vfs.t) path content =
  let f = vfs.Vfs.create path in
  let buf = Bytes.of_string content in
  let len = Bytes.length buf in
  let written = ref 0 in
  while !written < len do
    written := !written + f.Vfs.write buf !written (len - !written)
  done;
  f.Vfs.fsync ();
  f.Vfs.close ()

(* --- the faultfs durability model ------------------------------------ *)

let test_faultfs_fsync_lie () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "rids.dvr" in
      let ff = Faultfs.create ~seed:3 () in
      let vfs = Faultfs.vfs ff in
      vfs_write vfs path "first";
      (* The rewrite's fsync lies: success reported, nothing promoted. *)
      Faultfs.arm_next ff { Storage.fault = Storage.Fsync_lie;
                           file = Storage.Rids; op = Storage.Fsync; nth = 1 };
      vfs_write vfs path "second";
      Alcotest.(check string) "cache holds the lie" "second" (read_file path);
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "power cut exposes the lie" "first"
        (read_file path);
      Alcotest.(check (list (pair string int))) "one injection"
        [ ("fsync-lie", 1) ] (Faultfs.injected ff))

let test_faultfs_rename_loss () =
  with_scratch (fun dir ->
      let dst = Filename.concat dir "rids.dvr" in
      let tmp = dst ^ ".tmp" in
      write_file dst "old";
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      (* The atomic-replace dance, with the directory fsync dropped. *)
      vfs_write vfs tmp "new";
      vfs.Vfs.rename ~src:tmp ~dst;
      Faultfs.arm_next ff { Storage.fault = Storage.Rename_loss;
                           file = Storage.Rids; op = Storage.Fsync_dir; nth = 1 };
      vfs.Vfs.fsync_dir dir;
      Alcotest.(check string) "rename visible before the cut" "new"
        (read_file dst);
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "lost rename undone: target reverts" "old"
        (read_file dst);
      Alcotest.(check string) "temp file restored" "new" (read_file tmp))

let test_faultfs_unsynced_rename_empty () =
  with_scratch (fun dir ->
      let dst = Filename.concat dir "rids.dvr" in
      let tmp = dst ^ ".tmp" in
      write_file dst "old";
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      (* Rename an un-fsynced source, then durably fsync the directory:
         the name switch survives the crash, the bytes do not. *)
      let f = vfs.Vfs.create tmp in
      let buf = Bytes.of_string "new" in
      ignore (f.Vfs.write buf 0 3 : int);
      f.Vfs.close ();
      vfs.Vfs.rename ~src:tmp ~dst;
      vfs.Vfs.fsync_dir dir;
      Faultfs.simulate_crash ff;
      Alcotest.(check string) "durably renamed unsynced source: empty target"
        "" (read_file dst))

let test_faultfs_short_write_poison () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      let ff = Faultfs.create () in
      let vfs = Faultfs.vfs ff in
      Faultfs.arm_next ff { Storage.fault = Storage.Short_write;
                           file = Storage.Oplog; op = Storage.Write; nth = 1 };
      let f = vfs.Vfs.append path in
      let buf = Bytes.of_string "0123456789" in
      Alcotest.(check int) "half the bytes land" 5 (f.Vfs.write buf 0 10);
      (match f.Vfs.write buf 5 5 with
      | _ -> Alcotest.fail "write on a failed device succeeded"
      | exception Vfs.Fault _ -> ());
      f.Vfs.close ();
      Alcotest.(check string) "partial bytes visible" "01234" (read_file path))

let test_faultfs_crash_truncation_deterministic () =
  (* Same seed, same operation stream: the surviving prefix of the
     unsynced append suffix must be identical across runs. *)
  let run () =
    with_scratch (fun dir ->
        let path = Filename.concat dir "oplog.dvl" in
        let ff = Faultfs.create ~seed:11 () in
        let vfs = Faultfs.vfs ff in
        let f = vfs.Vfs.append path in
        let durable = Bytes.of_string "DURABLE." in
        let w buf =
          let written = ref 0 in
          while !written < Bytes.length buf do
            written :=
              !written + f.Vfs.write buf !written (Bytes.length buf - !written)
          done
        in
        w durable;
        f.Vfs.fsync ();
        w (Bytes.of_string (String.init 64 (fun i -> Char.chr (65 + (i mod 26)))));
        f.Vfs.close ();
        Faultfs.simulate_crash ff;
        read_file path)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical surviving prefix" a b;
  Alcotest.(check bool) "durable prefix intact" true
    (String.length a >= 8 && String.sub a 0 8 = "DURABLE.");
  Alcotest.(check bool) "unsynced suffix trimmed" true (String.length a < 72)

(* --- oplog scan forensics -------------------------------------------- *)

let sample_records =
  Persist.
    [
      Log_kcommit { seq = 1; key = ""; op_no = 2; version = 2;
                    partition = ss [ 0; 1 ]; rid = 77 };
      Log_kintent { seq = 2; key = ""; content = String.make 32 'i' };
      Log_koutcome { seq = 3; key = ""; kind = `Write; granted = true;
                     content = Some "blob"; rid = 77 };
    ]

let write_log path records =
  let log = Persist.open_log ~path () in
  List.iter (Persist.append log) records;
  Persist.close_log log

(* Byte length of the frames for a record-list prefix, measured the only
   honest way: write them and stat. *)
let log_size dir records =
  let path = Filename.concat dir "measure.dvl" in
  (try Sys.remove path with Sys_error _ -> ());
  write_log path records;
  let n = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  n

let take n l = List.filteri (fun i _ -> i < n) l

(* The oplog scan with its intact records listed in file order. *)
let scan_log ?cut_torn_tail path =
  let scan = Persist.scan_log ?cut_torn_tail ~path (fun acc r -> r :: acc) [] in
  (List.rev scan.Codec.folded, scan)

let test_scan_midlog_corruption () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      let clean_records, clean = scan_log path in
      Alcotest.(check int) "clean scan: all records" 3
        (List.length clean_records);
      Alcotest.(check int) "clean scan: full valid prefix"
        (String.length (read_file path)) clean.Codec.valid_prefix;
      (* Flip one payload byte of the SECOND record: a hole in the middle
         of the history, with an intact record after it. *)
      let raw = Bytes.of_string (read_file path) in
      let r1 = log_size dir (take 1 sample_records) in
      let r2 = log_size dir (take 2 sample_records) - r1 in
      let mid = r1 + (r2 / 2) in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0x40));
      write_file path (Bytes.to_string raw);
      let records, scan = scan_log ~cut_torn_tail:true path in
      Alcotest.(check int) "mid-log corruption counted" 1 scan.Codec.corrupt;
      Alcotest.(check bool) "not reported as torn" false scan.Codec.torn;
      Alcotest.(check int) "intact records survive" 2
        (List.length records);
      Alcotest.(check int) "valid prefix stops at the damage" r1
        scan.Codec.valid_prefix;
      Alcotest.(check string) "a corrupt log is never cut"
        (Bytes.to_string raw) (read_file path))

let test_scan_torn_tail_truncate_append () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      write_log path sample_records;
      let full = read_file path in
      (* Tear mid-record-3, as a power cut would. *)
      write_file path (String.sub full 0 (String.length full - 4));
      let records, scan = scan_log ~cut_torn_tail:true path in
      Alcotest.(check bool) "torn" true scan.Codec.torn;
      Alcotest.(check int) "no mid-log corruption" 0 scan.Codec.corrupt;
      Alcotest.(check int) "prefix records survive" 2
        (List.length records);
      let r2_end = log_size dir (take 2 sample_records) in
      Alcotest.(check int) "valid prefix = end of last intact record" r2_end
        scan.Codec.valid_prefix;
      (* The recovery discipline: the scan cut the log to the valid
         prefix, so an append — the new record must NOT read as mid-log
         corruption. *)
      Alcotest.(check int) "cut to the valid prefix" r2_end
        (String.length (read_file path));
      write_log path
        [ Persist.Log_koutcome { seq = 4; key = ""; kind = `Read; granted = true;
                                 content = None; rid = 0 } ];
      let records, rescan = scan_log path in
      Alcotest.(check int) "appended over the cut cleanly" 0
        rescan.Codec.corrupt;
      Alcotest.(check bool) "no tear left" false rescan.Codec.torn;
      Alcotest.(check int) "three records" 3
        (List.length records))

(* --- live clusters under storage faults ------------------------------ *)

let u4 = ss [ 0; 1; 2; 3 ]

(* Durable persistence ON: these tests are about stable storage. *)
let crash_config =
  {
    Node.default_config with
    Node.gather_timeout = 0.05;
    lock_lease = 1.0;
    lock_retries = 6;
    lock_backoff = 0.02;
  }

let check_status name expected (reply : Live.reply) =
  let s = function
    | Wire.Granted -> "granted"
    | Wire.Denied -> "denied"
    | Wire.Aborted -> "aborted"
    | Wire.Degraded -> "degraded"
  in
  Alcotest.(check string)
    (Printf.sprintf "%s (info: %s)" name reply.Live.info)
    (s expected) (s reply.Live.status)

let test_degraded_fencing () =
  with_scratch (fun dir ->
      let ff = Faultfs.create ~seed:5 () in
      let vfs_of site = if site = 0 then Faultfs.vfs ff else Vfs.real in
      let hub = Hub.create () in
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~obs:hub ~vfs_of
          ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "baseline" Wire.Granted
            (Live.put c ~at:0 ~key:"a" ~value:"1");
          (* Site 0's next shard-log fsync fails: the self-apply of its
             own coordinated write cannot persist, so it must fence itself
             and hand the write to its peers via the client's retry. *)
          Faultfs.arm_next ff { Storage.fault = Storage.Eio;
                               file = Storage.Shard; op = Storage.Fsync; nth = 1 };
          let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
          check_status "retried write lands" Wire.Granted r;
          Alcotest.(check bool) "retry hopped sites" true (r.Live.retries > 0);
          Alcotest.(check bool) "site 0 fenced" true
            (Live.degraded cluster 0 <> None);
          (* Fenced: writes refused loudly, reads visibly degraded. *)
          check_status "fenced write refused" Wire.Degraded
            (Live.put c ~at:0 ~key:"b" ~value:"x");
          let g = Live.get c ~at:0 ~key:"a" in
          check_status "fenced read is marked" Wire.Degraded g;
          check_status "healthy site still serves" Wire.Granted
            (Live.put c ~at:1 ~key:"b" ~value:"y");
          let m = hub.Hub.metrics in
          Alcotest.(check bool) "storage fault counted" true
            (Metrics.counter_value (Metrics.counter m "live.storage.faults") > 0);
          Alcotest.(check bool) "degraded entry counted" true
            (Metrics.counter_value (Metrics.counter m "live.degraded.entered") > 0);
          (* A reboot clears the fence (the disk "recovered"); RECOVER
             rejoins, and the site serves again. *)
          Live.restart cluster 0;
          check_status "recover after reboot" Wire.Granted
            (Live.recover_site c 0);
          let g = Live.get c ~at:0 ~key:"a" in
          check_status "read after reboot" Wire.Granted g;
          Alcotest.(check (option string)) "value converged" (Some "2")
            g.Live.value;
          let audit = Live.check cluster in
          Alcotest.(check int) "no double applies" 0 audit.Live.dup_applies;
          Alcotest.(check bool) "oracle safe" true
            (Oracle.is_safe audit.Live.oracle)))

(* A fenced coordinator runs nothing it admitted.  Eight writers funnel
   at site 0, so up to [pipeline] requests are admitted behind the first
   one; that first commit's own shard write fails and fences the site.
   From the Degraded event on, site 0 must start no lock round and no
   COMMIT wave: whatever waits in its queue is refused when it would
   start, not run because it was admitted before the fence. *)
let test_fenced_runs_nothing_admitted () =
  List.iter
    (fun pipeline ->
      with_scratch (fun dir ->
          let ff = Faultfs.create ~seed:11 () in
          let vfs_of site = if site = 0 then Faultfs.vfs ff else Vfs.real in
          (* Refused requests spin fast after the fence: ~250k events in
             0.5 s on a 2-core box, so the ring has room for four times
             that. *)
          let hub = Hub.create ~trace_capacity:(1 lsl 20) () in
          let cluster =
            Live.create ~config:{ crash_config with Node.pipeline } ~client_timeout:1.5
              ~obs:hub ~vfs_of ~universe:u4 ~dir ()
          in
          Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
              Faultfs.arm_next ff
                { Storage.fault = Storage.Eio; file = Storage.Shard; op = Storage.Write; nth = 1 };
              ignore
                (Loadgen.run cluster
                   {
                     Loadgen.default with
                     Loadgen.clients = 8;
                     duration = 0.5;
                     write_ratio = 1.0;
                     sites = Some (Site_set.singleton 0);
                   }
                  : Loadgen.result);
              Alcotest.(check int) "trace ring kept the whole run" 0
                (Trace.dropped hub.Hub.trace);
              let rec after_fence = function
                | [] -> Alcotest.failf "pipeline %d: site 0 never fenced" pipeline
                | (_, Trace.Degraded { site = 0; _ }) :: rest -> rest
                | _ :: rest -> after_fence rest
              in
              let after = after_fence (Trace.recent hub.Hub.trace) in
              let count p = List.length (List.filter (fun (_, e) -> p e) after) in
              Alcotest.(check int)
                (Printf.sprintf "pipeline %d: lock rounds after the fence" pipeline)
                0
                (count (function Trace.Lock_round_start { site = 0; _ } -> true | _ -> false));
              Alcotest.(check int)
                (Printf.sprintf "pipeline %d: commit waves after the fence" pipeline)
                0
                (count (function Trace.Commit_wave { site = 0; _ } -> true | _ -> false));
              let audit = Live.check cluster in
              Alcotest.(check int) "no double applies" 0 audit.Live.dup_applies;
              Alcotest.(check bool) "oracle safe" true (Oracle.is_safe audit.Live.oracle))))
    [ 4; 8 ]

let test_boot_fences_on_midlog_corruption () =
  with_scratch (fun dir ->
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "w1" Wire.Granted (Live.put c ~at:2 ~key:"a" ~value:"1");
          check_status "w2" Wire.Granted (Live.put c ~at:2 ~key:"a" ~value:"2");
          Live.kill cluster 2;
          (* Rot one byte inside the FIRST record of site 2's log —
             damage with intact records after it, which no crash can
             explain (a torn tail only ever eats the end). *)
          let path = Persist.oplog_path ~dir 2 in
          let raw = Bytes.of_string (read_file path) in
          Bytes.set raw 12 (Char.chr (Char.code (Bytes.get raw 12) lxor 0x01));
          write_file path (Bytes.to_string raw);
          Live.restart cluster 2;
          Alcotest.(check bool) "booted fenced" true
            (Live.degraded cluster 2 <> None);
          check_status "fenced site refuses writes" Wire.Degraded
            (Live.put c ~at:2 ~key:"a" ~value:"3");
          check_status "cluster keeps serving" Wire.Granted
            (Live.put c ~at:0 ~key:"a" ~value:"3");
          let audit = Live.check cluster in
          Alcotest.(check bool) "audit sees the rot" true
            (audit.Live.corrupt > 0)));
  (* The same rule for a shard log: ONE rotted record with an intact one
     after it is corruption, not a torn tail to cut off — the site boots
     fenced, its log is kept as evidence, and the audit counts it. *)
  with_scratch (fun dir ->
      let config = { crash_config with Node.shards = 1 } in
      let cluster =
        Live.create ~config ~client_timeout:1.5 ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "w1" Wire.Granted (Live.put c ~at:2 ~key:"a" ~value:"1");
          check_status "w2" Wire.Granted (Live.put c ~at:2 ~key:"c" ~value:"2");
          Live.kill cluster 2;
          (* Record 0 is the site's seed record; rot the key byte of
             record 1, the first commit of "a". *)
          let path =
            Filename.concat (Shard_store.shards_dir ~dir ~site:2) "shard-0.dvl"
          in
          let raw = Bytes.of_string (read_file path) in
          let rec0_len = 4 + Int32.to_int (Bytes.get_int32_le raw 0) in
          let off = rec0_len + 15 in
          Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x01));
          let rotted = Bytes.to_string raw in
          write_file path rotted;
          Live.restart cluster 2;
          Alcotest.(check bool) "booted fenced on shard-log rot" true
            (Live.degraded cluster 2 <> None);
          Alcotest.(check bool) "shard log kept as evidence" true
            (String.length (read_file path) >= String.length rotted
            && String.sub (read_file path) 0 (String.length rotted) = rotted);
          check_status "fenced site refuses writes" Wire.Degraded
            (Live.put c ~at:2 ~key:"a" ~value:"3");
          let audit = Live.check cluster in
          Alcotest.(check int) "audit counts the shard-log rot" 1
            audit.Live.corrupt))

(* A shard log that exists but cannot be read at boot is lost history:
   the site must come up amnesiac — not at the initial state it would
   otherwise report for the one object — and RECOVER brings it back. *)
let test_unreadable_shard_log_amnesiac () =
  with_scratch (fun dir ->
      let ff = Faultfs.create ~seed:9 () in
      let vfs_of site = if site = 2 then Faultfs.vfs ff else Vfs.real in
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~vfs_of ~universe:u4
          ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
          Live.kill cluster 2;
          Faultfs.arm_next ff { Storage.fault = Storage.Read_eio;
                               file = Storage.Shard; op = Storage.Read; nth = 1 };
          Live.restart cluster 2;
          let r = Live.get c ~at:2 ~key:"a" in
          check_status "unreadable log: amnesiac refuses" Wire.Denied r;
          Alcotest.(check bool)
            (Printf.sprintf "denial names amnesia (info: %s)" r.Live.info)
            true
            (String.length r.Live.info >= 9 && String.sub r.Live.info 0 9 = "amnesiac:");
          check_status "recover" Wire.Granted (Live.recover_site c 2);
          let g = Live.get c ~at:2 ~key:"a" in
          check_status "read after recover" Wire.Granted g;
          Alcotest.(check (option string)) "value restored" (Some "1") g.Live.value;
          Alcotest.(check bool) "oracle safe" true
            (Oracle.is_safe (Live.check cluster).Live.oracle)))

let test_exactly_once_retry () =
  with_scratch (fun dir ->
      let cluster =
        Live.create ~config:crash_config ~client_timeout:0.8 ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
          let c = Live.client cluster in
          check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
          (* Kill coordinator 0 after its LAST commit send: the write is
             fully applied everywhere, but the client never hears.  The
             ambiguous retry re-coordinates at site 1 under the same
             request number — the dedup table must acknowledge, not
             re-apply. *)
          Live.strike_after cluster 0 4;
          let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
          check_status "retry acknowledges the committed write" Wire.Granted r;
          Alcotest.(check bool) "exactly one hop" true (r.Live.retries >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "grant is a dedup ack (info: %s)" r.Live.info)
            true
            (String.length r.Live.info >= 9
            && String.sub r.Live.info 0 9 = "duplicate");
          Live.restart cluster 0;
          check_status "recover 0" Wire.Granted (Live.recover_site c 0);
          let g = Live.get c ~at:2 ~key:"a" in
          Alcotest.(check (option string)) "applied once, value correct"
            (Some "2") g.Live.value;
          let audit = Live.check cluster in
          Alcotest.(check int) "no double applies in the merged history" 0
            audit.Live.dup_applies;
          Alcotest.(check bool) "oracle safe" true
            (Oracle.is_safe audit.Live.oracle)))

(* Client ids must not be recycled across a power cut of the whole
   cluster.  The oplogs are never fsynced, so the cut may take every
   site's oplog records of the last client while the fsynced shard logs
   keep its applied requests.  A fresh client handed that id again would
   see its first write acknowledged as a duplicate and never applied.
   The test takes the worst cut outright: every oplog emptied. *)
let test_client_ids_survive_oplog_loss () =
  List.iter
    (fun shards ->
      with_scratch (fun dir ->
          let config = { crash_config with Node.shards } in
          let boot () =
            Live.create ~config ~client_timeout:1.5 ~universe:u4 ~dir ()
          in
          let cluster = boot () in
          Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
              check_status "first incarnation's write" Wire.Granted
                (Live.put (Live.client cluster) ~at:0 ~key:"a" ~value:"1"));
          Site_set.iter
            (fun site -> write_file (Persist.oplog_path ~dir site) "")
            u4;
          let cluster = boot () in
          Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
              let c = Live.client cluster in
              let name = Printf.sprintf "shards %d" shards in
              let r = Live.put c ~at:0 ~key:"a" ~value:"2" in
              check_status (name ^ ": new client's write") Wire.Granted r;
              Alcotest.(check bool)
                (Printf.sprintf "%s: applied, not a duplicate ack (info: %s)" name
                   r.Live.info)
                false
                (String.length r.Live.info >= 9
                && String.sub r.Live.info 0 9 = "duplicate");
              Alcotest.(check (option string)) (name ^ ": read back") (Some "2")
                (Live.get c ~at:1 ~key:"a").Live.value)))
    [ 0; 8 ]

(* A cluster re-created over old logs must stamp every record past the
   previous incarnation's — or the merged replay would interleave the
   two — and hand out client ids past every id the previous one used,
   or the dedup tables would take a new client's requests for old ones.
   Each site's oplog is append-only, so what a new incarnation wrote is
   the suffix past the old record count.  The floors are read through
   each site's vfs, so the restart runs once over the default vfs and
   once over a pass-through Faultfs on every site. *)
let test_stamps_and_clients_resume () =
  let records dir =
    List.map
      (fun site ->
        let path = Persist.oplog_path ~dir site in
        List.rev (Persist.scan_log ~path (fun acc r -> r :: acc) []).Codec.folded)
      (Site_set.to_list u4)
  in
  let client_of = function
    | Persist.Log_kcommit { rid; _ } | Persist.Log_koutcome { rid; _ } when rid <> 0 ->
        Some (rid lsr 32)
    | _ -> None
  in
  let max_of f rs =
    List.fold_left (fun m r -> Option.fold ~none:m ~some:(max m) (f r)) 0 rs
  in
  List.iter
    (fun shards ->
      with_scratch (fun dir ->
          let config = { crash_config with Node.shards } in
          let incarnation ?vfs_of name =
            let cluster =
              Live.create ~config ~client_timeout:1.5 ?vfs_of ~universe:u4 ~dir ()
            in
            Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () ->
                let c = Live.client cluster in
                List.iter
                  (fun (at, key) ->
                    check_status (name ^ ": put " ^ key) Wire.Granted
                      (Live.put c ~at ~key ~value:name))
                  [ (0, "a"); (1, "b"); (2, "a") ];
                Alcotest.(check bool) (name ^ ": audit safe") true
                  (Live.safe (Live.check cluster)))
          in
          incarnation (Printf.sprintf "shards %d, first" shards);
          List.iter
            (fun (label, vfs_of) ->
              let name = Printf.sprintf "shards %d, %s" shards label in
              let before = records dir in
              incarnation ?vfs_of name;
              let fresh =
                List.concat
                  (List.map2
                     (fun old now -> List.filteri (fun i _ -> i >= List.length old) now)
                     before (records dir))
              in
              let old = List.concat before in
              Alcotest.(check bool) (name ^ ": new records written") true (fresh <> []);
              let old_seq = max_of (fun r -> Some (Persist.seq_of r)) old
              and old_client = max_of client_of old in
              List.iter
                (fun r ->
                  let seq = Persist.seq_of r in
                  if seq <= old_seq then
                    Alcotest.failf "%s: stamp %d not above the old maximum %d" name seq
                      old_seq;
                  match client_of r with
                  | Some client when client <= old_client ->
                      Alcotest.failf "%s: client id %d not above the old maximum %d"
                        name client old_client
                  | _ -> ())
                fresh;
              Alcotest.(check bool) (name ^ ": new clients seen") true
                (max_of client_of fresh > old_client))
            [
              ("default vfs", None);
              ( "faultfs",
                let ffs = Array.init 4 (fun seed -> Faultfs.create ~seed ()) in
                Some (fun site -> Faultfs.vfs ffs.(site)) );
            ]))
    [ 0; 8 ]

(* --- an fsync beside the site loop ------------------------------------

   Every site is stepped by one loop thread, so an fsync run on that
   thread would stall all four.  Site 3's fsyncs wait on a latch here,
   and while one is held an operation coordinated at site 1 must still
   be answered once its gather deadline passes.  The held site answers
   no START meanwhile: its commit is not durable, so its ensemble must
   not count. *)

type latch = { m : Mutex.t; c : Condition.t; mutable held : bool; mutable waiting : int }

(* The real filesystem, except that every fsync waits while the latch
   is held. *)
let latched_vfs l =
  let wrap (f : Vfs.file) =
    {
      f with
      Vfs.fsync =
        (fun () ->
          Mutex.lock l.m;
          l.waiting <- l.waiting + 1;
          while l.held do
            Condition.wait l.c l.m
          done;
          l.waiting <- l.waiting - 1;
          Mutex.unlock l.m;
          f.Vfs.fsync ());
    }
  in
  {
    Vfs.real with
    Vfs.create = (fun path -> wrap (Vfs.real.Vfs.create path));
    append = (fun path -> wrap (Vfs.real.Vfs.append path));
  }

let set_latch l held =
  Mutex.lock l.m;
  l.held <- held;
  Condition.broadcast l.c;
  Mutex.unlock l.m

let test_fsync_beside_the_loop () =
  with_scratch (fun dir ->
      let l =
        { m = Mutex.create (); c = Condition.create (); held = false; waiting = 0 }
      in
      let hub = Hub.create () in
      let vfs_of site = if site = 3 then latched_vfs l else Vfs.real in
      let cluster =
        Live.create ~config:crash_config ~client_timeout:1.5 ~obs:hub ~vfs_of
          ~universe:u4 ~dir ()
      in
      Fun.protect
        ~finally:(fun () ->
          set_latch l false;
          Live.shutdown cluster)
      @@ fun () ->
      let c = Live.client cluster in
      (* Site 3's answers to a START, as the broker saw them leave. *)
      let answers () =
        List.length
          (List.filter
             (function
               | ( _,
                   Trace.Frame_sent
                     { src = 3; kind = "kstart-reply" | "lock-reply" | "abstain"; _ } ) ->
                   true
               | _ -> false)
             (Trace.recent hub.Hub.trace))
      in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      set_latch l true;
      (* Site 3 applies this put's commit and its fsync waits on the
         latch.  The commit reaches site 3 before any later START does:
         coordinator 0 sent it before the reply this call returns with. *)
      check_status "put whose commit site 3 holds" Wire.Granted
        (Live.put c ~at:0 ~key:"a" ~value:"2");
      let before = answers () in
      let r = Live.put c ~at:1 ~key:"a" ~value:"3" in
      check_status "put at 1 while site 3's fsync is held" Wire.Granted r;
      Mutex.lock l.m;
      let waiting = l.waiting in
      Mutex.unlock l.m;
      Alcotest.(check int) "site 3's fsync was still held" 1 waiting;
      Alcotest.(check int) "site 3 answered no START while its commit was not durable"
        before (answers ());
      set_latch l false;
      let audit = Live.check cluster in
      Alcotest.(check bool) "site 3 answers once its commit is durable" true
        (answers () > before);
      Alcotest.(check bool) "audit safe" true (Live.safe audit);
      let r = Live.get c ~at:3 ~key:"a" in
      check_status "get at 3" Wire.Granted r;
      Alcotest.(check (option string)) "site 3 serves the latest" (Some "3") r.Live.value)

(* --- slow-loris guard ------------------------------------------------ *)

let test_slow_loris_recv () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A genuine frame, dribbled one byte every 30 ms and never finished:
     a client that never completes its request must cost the server only
     its deadline, never a blocked thread. *)
  let frame =
    Wire.encode
      {
        Wire.src = Wire.first_client_id;
        dst = 0;
        payload = Wire.Client_put { req = 1; key = "key"; value = "value" };
      }
  in
  let stop = ref false in
  let dripper =
    Thread.create
      (fun () ->
        let byte = Bytes.create 1 in
        let i = ref 0 in
        while (not !stop) && !i < String.length frame - 1 do
          Bytes.set byte 0 frame.[!i];
          (try ignore (Unix.write a byte 0 1 : int)
           with Unix.Unix_error _ -> stop := true);
          incr i;
          Thread.delay 0.03
        done)
      ()
  in
  let conn = Evconn.of_fd b in
  let t0 = Dynvote_obs.Clock.now () in
  let result = Evconn.recv ~deadline:(t0 +. 0.25) conn in
  let elapsed = Dynvote_obs.Clock.now () -. t0 in
  stop := true;
  Unix.close a;
  Evconn.close conn;
  Thread.join dripper;
  (match result with
  | Error `Timeout -> ()
  | Error `Closed -> Alcotest.fail "reported closed, not timeout"
  | Error (`Corrupt _) -> Alcotest.fail "reported corrupt, not timeout"
  | Ok _ -> Alcotest.fail "a dribbled frame decoded");
  Alcotest.(check bool)
    (Printf.sprintf "returned by the deadline (%.2fs)" elapsed)
    true (elapsed < 2.0)

(* --- the crash matrix ------------------------------------------------ *)

let find_point name =
  match
    List.find_opt (fun p -> Crash_matrix.point_name p = name) Crash_matrix.points
  with
  | Some p -> p
  | None -> Alcotest.failf "no persist point %s" name

let check_cell (cell : Crash_matrix.cell) =
  let detail =
    match cell.Crash_matrix.c_outcome with
    | Crash_matrix.Recovered -> "recovered"
    | Crash_matrix.Fenced d -> "fenced: " ^ d
    | Crash_matrix.Unavailable d -> "UNAVAILABLE: " ^ d
    | Crash_matrix.Corrupt d -> "CORRUPT: " ^ d
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s x %s healthy (%s)"
       (Crash_matrix.point_name cell.Crash_matrix.c_point)
       (Storage.fault_name cell.Crash_matrix.c_fault)
       detail)
    true
    (Crash_matrix.ok cell.Crash_matrix.c_outcome)

let test_matrix_cells () =
  with_scratch (fun dir ->
      check_cell
        (Crash_matrix.run_cell ~dir ~seed:2 (find_point "shard.fsync")
           Storage.Fsync_lie);
      check_cell
        (Crash_matrix.run_cell ~dir ~seed:3 (find_point "oplog.write")
           Storage.Crash))

(* Compaction mid-flight: every atomic-replace operation of the keyed
   store's shard rewrite, struck under every fault class a bare store
   can grade.  Cheap enough to sweep un-gated — no cluster, no sockets,
   one shard log per cell. *)
let test_compaction_cells () =
  with_scratch (fun dir ->
      List.iteri
        (fun i point ->
          List.iter
            (fun fault ->
              check_cell
                (Crash_matrix.run_compaction_cell ~dir ~seed:(11 + i) point
                   fault))
            Crash_matrix.compaction_faults)
        Crash_matrix.compaction_points)

(* The exact crash window the always-fsync compaction rule closes: a
   non-durable store compacts (write-then-rename), then an unrelated
   durable replace in the same directory — the rids sidecar — fsyncs
   the directory and promotes the rename.  If the compacted bytes were
   never fsynced, the power cut leaves the shard log durably EMPTY:
   fsynced history silently gone, with no fault injected anywhere. *)
let test_compaction_promoted_rename () =
  with_scratch (fun dir ->
      let ff = Faultfs.create ~seed:7 () in
      let store, _ =
        Shard_store.open_store ~vfs:(Faultfs.vfs ff) ~durable:false ~dir ~site:0
          ~shards:1 ()
      in
      let state v =
        {
          Shard_store.op_no = v;
          version = v;
          partition = Site_set.of_list [ 0 ];
          data_version = v;
          value = Some (Printf.sprintf "v%d" v);
        }
      in
      for v = 1 to 1024 do
        Shard_store.commit store ~key:"k" ~rid:v (state v)
      done;
      Alcotest.(check int) "the 1024th commit compacted" 1
        (Shard_store.compactions store);
      Shard_store.save_rids ~fsync:true store [];
      Shard_store.close store;
      Faultfs.simulate_crash ff;
      let rescan, info = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Alcotest.(check int) "no mid-log corruption" 0 info.Shard_store.corrupt;
      (match Shard_store.lookup rescan "k" with
      | Some st ->
          Alcotest.(check (option string))
            "compacted history survived the power cut" (Some "v1024")
            st.Shard_store.value
      | None -> Alcotest.fail "shard log durably empty: fsynced history lost");
      Shard_store.close rescan)

(* The exhaustive sweep: every persist point x every fault class.  Gated
   like the live soak — minutes of wall clock, run by CI's soak job via
   DYNVOTE_CRASH_SOAK=1. *)
let test_matrix_soak () =
  match Sys.getenv_opt "DYNVOTE_CRASH_SOAK" with
  | None | Some "" | Some "0" -> ()
  | Some _ ->
      with_scratch (fun dir ->
          let cells = Crash_matrix.run ~seed:1 ~dir () in
          Alcotest.(check int) "full cross product"
            (List.length Crash_matrix.points * List.length Storage.all_faults)
            (List.length cells);
          List.iter check_cell cells)

let suite =
  [
    Alcotest.test_case "faultfs: fsync lie reverts" `Quick test_faultfs_fsync_lie;
    Alcotest.test_case "faultfs: lost rename undone" `Quick
      test_faultfs_rename_loss;
    Alcotest.test_case "faultfs: unsynced rename leaves empty target" `Quick
      test_faultfs_unsynced_rename_empty;
    Alcotest.test_case "faultfs: short write poisons the file" `Quick
      test_faultfs_short_write_poison;
    Alcotest.test_case "faultfs: crash truncation deterministic" `Quick
      test_faultfs_crash_truncation_deterministic;
    Alcotest.test_case "oplog: mid-log corruption counted" `Quick
      test_scan_midlog_corruption;
    Alcotest.test_case "oplog: torn tail truncate-then-append" `Quick
      test_scan_torn_tail_truncate_append;
    Alcotest.test_case "degraded site fences and recovers" `Quick
      test_degraded_fencing;
    Alcotest.test_case "a fenced coordinator runs nothing it admitted" `Quick
      test_fenced_runs_nothing_admitted;
    Alcotest.test_case "boot fences on mid-log corruption" `Quick
      test_boot_fences_on_midlog_corruption;
    Alcotest.test_case "unreadable shard log boots amnesiac" `Quick
      test_unreadable_shard_log_amnesiac;
    Alcotest.test_case "exactly-once retry dedup" `Quick test_exactly_once_retry;
    Alcotest.test_case "client ids survive oplog loss" `Quick
      test_client_ids_survive_oplog_loss;
    Alcotest.test_case "stamps and client ids resume past the last incarnation"
      `Quick test_stamps_and_clients_resume;
    Alcotest.test_case "an fsync runs beside the site loop" `Quick
      test_fsync_beside_the_loop;
    Alcotest.test_case "slow-loris recv bounded by deadline" `Quick
      test_slow_loris_recv;
    Alcotest.test_case "crash matrix cells" `Quick test_matrix_cells;
    Alcotest.test_case "compaction mid-flight cells" `Quick
      test_compaction_cells;
    Alcotest.test_case "compaction rename promoted by sidecar fsync" `Quick
      test_compaction_promoted_rename;
    Alcotest.test_case "crash matrix soak (DYNVOTE_CRASH_SOAK)" `Slow
      test_matrix_soak;
  ]
