(* The live replication service: wire codec round trips and fuzz, the
   persistence layer, and end-to-end protocol runs over real sockets —
   partition denial, heal, kill-and-restart recovery, a coordinator
   struck mid-COMMIT, amnesia — every run audited by replaying the
   merged on-disk operation logs through the chaos safety oracle. *)

open Helpers
module Wire = Dynvote_live.Wire
module Evconn = Dynvote_live.Evconn
module Persist = Dynvote_live.Persist
module Live = Dynvote_live.Cluster
module Loadgen = Dynvote_live.Loadgen
module Node = Dynvote_live.Node
module Lease = Dynvote_live.Lease
module Oracle = Dynvote_chaos.Oracle
module Manual = Dynvote_obs.Clock.Manual
module Clock = Dynvote_obs.Clock
module Metrics = Dynvote_obs.Metrics
module Hub = Dynvote_obs.Hub

(* Fast timeouts: tests partition and kill constantly, and every denied
   operation pays the full gather patience.  No fsync — kills here are
   socket severs, not power cuts. *)
let test_config =
  {
    Node.gather_timeout = 0.05;
    backoff = 2.0;
    lock_lease = 1.0;
    lock_retries = 6;
    lock_backoff = 0.02;
    durable = false;
    clock = Dynvote_obs.Clock.now;
    pipeline = 1;
    max_reuse = 0;
    shards = 0;
    resident = 4096;
  }

let with_cluster ?flavor ?segment_of ~universe f =
  with_scratch (fun dir ->
      let cluster =
        Live.create ?flavor ?segment_of ~config:test_config ~client_timeout:3.0
          ~universe ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () -> f cluster))

let check_status name expected (reply : Live.reply) =
  Alcotest.(check string)
    (Printf.sprintf "%s (info: %s)" name reply.Live.info)
    (match expected with
    | Wire.Granted -> "granted"
    | Wire.Denied -> "denied"
    | Wire.Aborted -> "aborted"
    | Wire.Degraded -> "degraded")
    (match reply.Live.status with
    | Wire.Granted -> "granted"
    | Wire.Denied -> "denied"
    | Wire.Aborted -> "aborted"
    | Wire.Degraded -> "degraded")

let check_clean name audit =
  List.iter
    (fun v -> Alcotest.failf "%s: %a" name Oracle.pp_violation v)
    (Oracle.violations audit.Live.oracle);
  Alcotest.(check bool) (name ^ ": torn logs") true (Site_set.is_empty audit.Live.torn)

(* --- wire codec ----------------------------------------------------- *)

let sample_replica = Replica.make ~op_no:7 ~version:5 ~partition:(ss [ 0; 1; 3 ])

let sample_payloads : Wire.payload list =
  [
    Wire.Hello_site { site = 3 };
    Wire.Hello_client;
    Wire.Welcome { id = 64 };
    Wire.Lock_reply { op = 0x3_00_00_17; granted = false };
    Wire.Lock_reply { op = 0x1_00_00_02; granted = true };
    Wire.Client_put { req = 1; key = "k"; value = String.make 300 'q' };
    Wire.Client_get { req = 2; key = "k" };
    Wire.Client_recover { req = 3 };
    Wire.Client_reply { req = 2; status = Wire.Granted; value = Some "v"; info = "" };
    Wire.Client_reply { req = 9; status = Wire.Denied; value = None; info = "below majority" };
    Wire.Client_reply { req = 10; status = Wire.Aborted; value = None; info = "timeout" };
    Wire.Abstain { round = 12 };
    Wire.KUnlock { op = 0x2_00_00_09; keys = [ "a" ] };
    Wire.KData_request { round = 6; key = "a" };
    Wire.KData_reply
      { round = 6; key = "a"; version = 11; value = Some "v\x00bytes";
        rids = [ (1, 42); (7, 3) ] };
    Wire.KData_reply { round = 7; key = "b"; version = 1; value = None; rids = [] };
    Wire.KStart { op = 0x2_00_00_09; keys = [ "a"; "key two"; "" ] };
    Wire.KStart { op = 0x3_FF_FF_FF; keys = [] };
    Wire.KStart_reply
      {
        op = 0x2_00_00_09;
        fresh = false;
        states = [ ("a", sample_replica); ("", Replica.initial (ss [ 0; 1; 2; 3 ])) ];
      };
    Wire.KStart_reply { op = 0x2_00_00_0a; fresh = true; states = [] };
    Wire.KCommit_op
      { op = 0x2_00_00_09; release = true; key = "a"; op_no = 8; version = 6;
        partition = ss [ 0; 1 ]; value = Some (String.make 300 'k');
        rid = (2 lsl 32) lor 7 };
    Wire.KCommit_op
      { op = 0x0_00_00_01; release = false; key = "k\x00bin"; op_no = 9; version = 6;
        partition = ss [ 0; 1; 2 ]; value = None; rid = 0 };
  ]

let sample_envelopes =
  List.mapi
    (fun i payload -> { Wire.src = i mod 7; dst = (i + 3) mod 70; payload })
    sample_payloads

let test_wire_roundtrip () =
  List.iter
    (fun env ->
      match Wire.decode (Wire.encode env) with
      | Ok decoded ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip %s" (Wire.kind_name env.Wire.payload))
            true (decoded = env)
      | Error reason ->
          Alcotest.failf "decode %s failed: %s" (Wire.kind_name env.Wire.payload) reason)
    sample_envelopes

let test_wire_truncation () =
  List.iter
    (fun env ->
      let frame = Wire.encode env in
      for len = 0 to String.length frame - 1 do
        match Wire.decode (String.sub frame 0 len) with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "truncated %s frame at %d bytes accepted"
              (Wire.kind_name env.Wire.payload) len
      done)
    sample_envelopes

let test_wire_bitflip () =
  List.iter
    (fun env ->
      let frame = Wire.encode env in
      for i = 0 to String.length frame - 1 do
        for bit = 0 to 7 do
          let mutated = Bytes.of_string frame in
          Bytes.set mutated i
            (Char.chr (Char.code (Bytes.get mutated i) lxor (1 lsl bit)));
          match Wire.decode (Bytes.to_string mutated) with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "bit flip (byte %d bit %d) in %s frame accepted" i bit
                (Wire.kind_name env.Wire.payload)
        done
      done)
    sample_envelopes

let prop_wire_garbage_rejected =
  qcheck_case ~count:500 ~name:"random bytes never decode"
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun junk ->
      (* Random strings lack the magic/checksum; decode must reject
         without raising. *)
      match Wire.decode junk with Ok _ -> false | Error _ -> true)

(* The streaming counterpart: junk fed to a decoder runs dry.  Each call
   consumes a length word and what it covers, drops everything after an
   out-of-range one, or answers [None], so [n] bytes end in [None]
   within [n + 1] calls, and none raises.  Zero bytes are frequent in
   the junk, so in-range length words (and their garbage frames) occur
   too. *)
let prop_decoder_garbage_drains =
  qcheck_case ~count:500 ~name:"random bytes drain from a decoder"
    QCheck.(
      string_gen_of_size
        Gen.(int_range 0 200)
        Gen.(frequency [ (3, char); (1, return '\000') ]))
    (fun junk ->
      let dec = Wire.Decoder.create () in
      Wire.Decoder.feed_string dec junk;
      let rec drains calls =
        calls <= String.length junk + 1
        && match Wire.Decoder.next dec with None -> true | Some _ -> drains (calls + 1)
      in
      drains 1)

(* --- persistence ----------------------------------------------------- *)

let sample_records =
  Persist.
    [
      Log_kcommit { seq = 1; key = ""; op_no = 2; version = 2; partition = ss [ 0; 1; 2 ];
                    rid = (3 lsl 32) lor 9 };
      Log_kintent { seq = 2; key = ""; content = "blob-A" };
      Log_koutcome { seq = 3; key = ""; kind = `Write; granted = true;
                     content = Some "blob-A"; rid = (3 lsl 32) lor 9 };
      Log_koutcome { seq = 4; key = "k"; kind = `Read; granted = true;
                     content = Some "=blob-A"; rid = 0 };
      Log_koutcome { seq = 5; key = ""; kind = `Recover; granted = true; content = None;
                     rid = 0 };
      Log_koutcome { seq = 6; key = "k\x00bin"; kind = `Write; granted = false;
                     content = None; rid = 0 };
    ]

(* The log's intact records in file order, and whether any damage
   (torn tail or mid-log corruption) was seen. *)
let read_log path =
  let scan = Persist.scan_log ~path (fun acc r -> r :: acc) [] in
  (List.rev scan.Codec.folded, scan.Codec.torn || scan.Codec.corrupt > 0)

let test_oplog_roundtrip () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      let log = Persist.open_log ~path () in
      List.iter (Persist.append log) sample_records;
      Persist.close_log log;
      let records, torn = read_log path in
      Alcotest.(check bool) "no torn tail" false torn;
      Alcotest.(check bool) "records round trip" true (records = sample_records))

let test_oplog_torn_tail () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      let log = Persist.open_log ~path () in
      List.iter (Persist.append log) sample_records;
      Persist.close_log log;
      (* Chop mid-record: everything before the tear survives, the tear is
         reported, nothing is invented. *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let chopped = String.sub full 0 (String.length full - 3) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc chopped);
      let records, torn = read_log path in
      Alcotest.(check bool) "torn tail detected" true torn;
      Alcotest.(check int) "prefix survives" (List.length sample_records - 1)
        (List.length records))

(* The boot's floor scan against folding fully decoded records: the same
   highest stamp and request id, and the same damage report, on a clean
   log, a bit flipped mid-log, a torn tail — and on every record with one
   field byte changed under a valid checksum, where it must reject
   exactly the frames the record decoder rejects. *)
let test_oplog_floor_scan () =
  with_scratch (fun dir ->
      let path = Filename.concat dir "oplog.dvl" in
      let frame_of record =
        (try Sys.remove path with Sys_error _ -> ());
        let log = Persist.open_log ~path () in
        Persist.append log record;
        Persist.close_log log;
        In_channel.with_open_bin path In_channel.input_all
      in
      let frames = List.map frame_of sample_records in
      let same name bytes =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
        let rid = function
          | Persist.Log_kcommit { rid; _ } | Persist.Log_koutcome { rid; _ } -> rid
          | Persist.Log_kintent _ -> 0
        in
        let full =
          Persist.scan_log ~path
            (fun (seq, max_rid) r -> (max seq (Persist.seq_of r), max max_rid (rid r)))
            (0, 0)
        in
        let floors = Persist.scan_floors ~path () in
        let report (s : _ Codec.scan) =
          (s.Codec.folded, s.Codec.torn, s.Codec.corrupt, s.Codec.valid_prefix)
        in
        if report full <> report floors then
          Alcotest.failf "%s: record fold and floor scan disagree" name;
        floors
      in
      let clean = same "clean" (String.concat "" frames) in
      Alcotest.(check (pair int int)) "clean floors" (6, (3 lsl 32) lor 9)
        clean.Codec.folded;
      let flipped = Bytes.of_string (String.concat "" frames) in
      let at = String.length (List.hd frames) + 14 in
      Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 0x10));
      let flipped = same "mid-log bit flip" (Bytes.to_string flipped) in
      Alcotest.(check int) "bit flip counted as corruption" 1 flipped.Codec.corrupt;
      let whole = String.concat "" frames in
      let torn = same "torn tail" (String.sub whole 0 (String.length whole - 3)) in
      Alcotest.(check bool) "torn tail reported" true torn.Codec.torn;
      (* Frame header: length, magic, checksum; the fields follow. *)
      let header = 12 in
      List.iteri
        (fun i frame ->
          let fields = String.sub frame header (String.length frame - header) in
          for pos = 0 to String.length fields - 1 do
            List.iter
              (fun mask ->
                let mutated = Bytes.of_string fields in
                Bytes.set mutated pos
                  (Char.chr (Char.code (Bytes.get mutated pos) lxor mask));
                let reframed =
                  Codec.frame ~magic:"DVO1" (fun b -> Buffer.add_bytes b mutated)
                in
                ignore
                  (same
                     (Printf.sprintf "record %d, field byte %d xor %#x" i pos mask)
                     (List.hd frames ^ reframed ^ List.nth frames 1)
                    : _ Codec.scan))
              [ 0x01; 0x80; 0xff ]
          done)
        frames)

(* The one object's value at --shards 0: canonical whatever the binding
   order, so equal stores are equal oracle contents, and distinct from
   every other store (the empty map included). *)
let test_map_blob_roundtrip () =
  let entries = [ ("b", "2"); ("a", "1"); ("c", String.make 1000 'z'); ("", "\x00") ] in
  let blob = Node.encode_map entries in
  Alcotest.(check bool) "entries (sorted)" true
    (Node.decode_map blob = List.sort compare entries);
  Alcotest.(check string) "canonical" blob (Node.encode_map (List.rev entries));
  Alcotest.(check bool) "empty map round trips" true
    (Node.decode_map (Node.encode_map []) = []);
  Alcotest.(check string) "never-written object is the empty map"
    (Node.encode_map []) (Node.content ~key:Node.map_key None);
  Alcotest.(check bool) "distinct stores, distinct contents" true
    (Node.encode_map [ ("a", "1") ] <> Node.encode_map [ ("a", "1"); ("b", "") ]);
  Alcotest.(check string) "keyed content" "=v" (Node.content ~key:"k" (Some "v"))

(* --- the lock lease under a hand-cranked clock ----------------------- *)

(* The wall-clock bug this guards against: a lease computed from
   [Unix.gettimeofday] expires early when NTP steps the clock forward and
   never when it steps it backward.  With the injectable clock the lease
   must expire exactly once — at [acquire + lease] on the clock it was
   given — no matter how that clock is stepped. *)
let test_lease_clock_steps () =
  let clk = Manual.create () in
  let now () = Manual.read clk in
  let lease = 1.0 in
  let l = Lease.create () in
  let acquire op = Lease.try_acquire l ~now:(now ()) ~lease ~op in
  Alcotest.(check bool) "op 1 acquires a free lock" true (acquire 1);
  Alcotest.(check bool) "op 1 refreshes its own lease" true (acquire 1);
  Manual.set clk 0.5;
  Alcotest.(check bool) "op 2 refused mid-lease" false (acquire 2);
  Alcotest.(check (option int)) "op 1 holds" (Some 1)
    (Lease.holder l ~now:(now ()));
  (* A backward step (the clock being stepped under us) must not expire
     the lease early... *)
  Manual.set clk (-100.0);
  Alcotest.(check bool) "op 2 refused after backward step" false (acquire 2);
  (* ...and refreshing at 1.4 pushes expiry to 2.4: the lease expires
     once, at the refreshed deadline, not at the original one. *)
  Manual.set clk 1.4;
  Alcotest.(check bool) "op 1 refreshes at 1.4" true (acquire 1);
  Manual.set clk 2.0;
  Alcotest.(check bool) "op 2 still refused at 2.0" false (acquire 2);
  Manual.set clk 2.5;
  Alcotest.(check (option int)) "lease expired exactly once" None
    (Lease.holder l ~now:(now ()));
  Alcotest.(check bool) "op 2 takes the expired lock" true (acquire 2);
  (* The old holder's lease must not resurrect when the clock steps back
     into its window. *)
  Manual.set clk 1.9;
  Alcotest.(check bool) "op 1 cannot reclaim its dead lease" false (acquire 1);
  Alcotest.(check (option int)) "op 2 holds after backward step" (Some 2)
    (Lease.holder l ~now:(now ()));
  Lease.release l ~op:1;
  Alcotest.(check (option int)) "a rival release is a no-op" (Some 2)
    (Lease.holder l ~now:(now ()));
  Lease.release l ~op:2;
  Alcotest.(check (option int)) "released" None (Lease.holder l ~now:(now ()))

(* Grep-enforced: no deadline or lease in the live service may read the
   raw wall clock.  The only [gettimeofday] in the tree belongs to
   [Dynvote_obs.Clock.wall]. *)
let test_no_wall_clock_in_live () =
  let dir =
    (* Tests run from [_build/default/test]; dune copies the sources. *)
    List.find_opt Sys.file_exists [ "../lib/live"; "lib/live"; "../../lib/live" ]
  in
  match dir with
  | None -> () (* sources not staged in this layout; nothing to scan *)
  | Some dir ->
      Array.iter
        (fun file ->
          if Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"
          then begin
            let path = Filename.concat dir file in
            let src = In_channel.with_open_bin path In_channel.input_all in
            let contains needle hay =
              let n = String.length needle and h = String.length hay in
              let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
              go 0
            in
            if contains "gettimeofday" src then
              Alcotest.failf "%s reads the raw wall clock (gettimeofday)" path
          end)
        (Sys.readdir dir)

(* --- loadgen arithmetic ---------------------------------------------- *)

let test_percentile_edges () =
  let check_nan name v =
    Alcotest.(check bool) name true (Float.is_nan v)
  in
  check_nan "empty -> nan" (Loadgen.percentile [||] 0.5);
  Alcotest.(check (float 0.0)) "single sample is every percentile p50" 7.0
    (Loadgen.percentile [| 7.0 |] 0.5);
  Alcotest.(check (float 0.0)) "single sample p99" 7.0
    (Loadgen.percentile [| 7.0 |] 0.99);
  Alcotest.(check (float 0.0)) "single sample p ~ 0" 7.0
    (Loadgen.percentile [| 7.0 |] 0.0001);
  let equal = Array.make 100 3.5 in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "all-equal p%.0f" (p *. 100.))
        3.5 (Loadgen.percentile equal p))
    [ 0.01; 0.5; 0.95; 0.99; 1.0 ];
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Loadgen.percentile sorted 0.50);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Loadgen.percentile sorted 0.99);
  Alcotest.(check (float 0.0)) "p100 of 1..100" 100.0 (Loadgen.percentile sorted 1.0)

let test_worker_seeds_distinct () =
  (* The old scheme ([seed * 65599 + index]) collided across runs:
     (seed, index) and (seed - 1, index + 65599) produced the same
     stream.  Check exactly that pair, and that seeds within a run are
     distinct. *)
  let a = (Loadgen.worker_seeds ~seed:10 ~n:1).(0) in
  let b = (Loadgen.worker_seeds ~seed:9 ~n:65600).(65599) in
  Alcotest.(check bool) "old collision pair now distinct" true (a <> b);
  let seeds = Loadgen.worker_seeds ~seed:42 ~n:64 in
  let sorted = Array.copy seeds in
  Array.sort compare sorted;
  let dup = ref false in
  Array.iteri (fun i s -> if i > 0 && sorted.(i - 1) = s then dup := true) sorted;
  Alcotest.(check bool) "64 workers, 64 distinct seeds" false !dup;
  (* Deterministic: same seed, same streams. *)
  Alcotest.(check bool) "reproducible" true
    (Loadgen.worker_seeds ~seed:42 ~n:64 = seeds)

(* --- end to end over real sockets ----------------------------------- *)

let u4 = ss [ 0; 1; 2; 3 ]

let test_basic_replication () =
  with_cluster ~universe:u4 (fun cluster ->
      let c = Live.client cluster in
      check_status "put a" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      let r = Live.get c ~at:3 ~key:"a" in
      check_status "get a at 3" Wire.Granted r;
      Alcotest.(check (option string)) "replicated value" (Some "1") r.Live.value;
      let r = Live.get c ~at:1 ~key:"missing" in
      check_status "get missing" Wire.Granted r;
      Alcotest.(check (option string)) "missing key" None r.Live.value;
      check_clean "basic" (Live.check cluster))

let test_partition_heal_recovery () =
  with_cluster ~universe:u4 (fun cluster ->
      let c = Live.client cluster in
      check_status "seed write" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");

      (* Minority side must deny both reads and writes. *)
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      check_status "minority write denied" Wire.Denied
        (Live.put c ~at:3 ~key:"a" ~value:"rogue");
      check_status "minority read denied" Wire.Denied (Live.get c ~at:3 ~key:"a");
      check_status "majority write" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"2");

      (* Heal: the stale side serves current data again (via verified
         fetch — site 3 is not in S until it recovers). *)
      Live.heal cluster;
      let r = Live.get c ~at:3 ~key:"a" in
      check_status "read after heal" Wire.Granted r;
      Alcotest.(check (option string)) "healed value" (Some "2") r.Live.value;
      check_status "recover 3" Wire.Granted (Live.recover_site c 3);

      (* Kill-and-restart: the node comes back from its on-disk ensemble
         and reintegrates. *)
      Live.kill cluster 2;
      check_status "dead site denied" Wire.Denied (Live.get c ~at:2 ~key:"a");
      check_status "write while 2 down" Wire.Granted
        (Live.put c ~at:1 ~key:"a" ~value:"3");
      Live.restart cluster 2;
      check_status "recover 2" Wire.Granted (Live.recover_site c 2);
      let r = Live.get c ~at:2 ~key:"a" in
      check_status "read at restarted site" Wire.Granted r;
      Alcotest.(check (option string)) "recovered value" (Some "3") r.Live.value;

      check_clean "partition/heal/restart" (Live.check cluster))

let test_coordinator_struck_mid_commit () =
  with_cluster ~universe:u4 (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");

      (* Strike coordinator 0 after its second COMMIT send: sites {0, 1}
         hold the new generation, {2, 3} never hear of it.  The client is
         told the write aborted — but its effects escaped (the paper's
         maybe-committed window, recorded as intent-without-outcome). *)
      Live.strike_after cluster 0 2;
      let r = Live.put c ~at:0 ~key:"a" ~value:"2" in
      check_status "struck write aborts to the client" Wire.Aborted r;

      (* {2, 3} alone are half of the old partition and lose the
         lexicographic tie-break (max element 0 is on the other side):
         they stay unavailable rather than re-issuing the generation. *)
      check_status "non-appliers alone stay blocked" Wire.Denied
        (Live.get c ~at:2 ~key:"a");

      (* The restarted coordinator completes the picture: {0, 1} + the
         tie-break make the half-committed generation win through. *)
      Live.restart cluster 0;
      let r = Live.get c ~at:2 ~key:"a" in
      check_status "read after restart" Wire.Granted r;
      Alcotest.(check (option string)) "maybe-committed write surfaced" (Some "2")
        r.Live.value;
      check_status "recover 2" Wire.Granted (Live.recover_site c 2);
      check_status "recover 3" Wire.Granted (Live.recover_site c 3);
      check_status "next write" Wire.Granted (Live.put c ~at:3 ~key:"a" ~value:"3");
      let r = Live.get c ~at:1 ~key:"a" in
      Alcotest.(check (option string)) "converged" (Some "3") r.Live.value;

      check_clean "mid-commit strike" (Live.check cluster))

let test_participant_killed_mid_write () =
  with_cluster ~universe:u4 (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      (* Kill participant 3 the moment the wave starts: its COMMIT is
         eaten by the dead socket, everyone else applies.  The write
         still succeeds (the coordinator holds the quorum), and 3 simply
         restarts stale. *)
      Live.set_commit_hook cluster 0
        (Some (fun ~sent ~total:_ -> if sent = 1 then Live.kill_async cluster 3));
      let r = Live.put c ~at:0 ~key:"a" ~value:"2" in
      check_status "write survives participant kill" Wire.Granted r;
      Live.set_commit_hook cluster 0 None;
      Live.restart cluster 3;
      check_status "recover 3" Wire.Granted (Live.recover_site c 3);
      let r = Live.get c ~at:3 ~key:"a" in
      Alcotest.(check (option string)) "caught up" (Some "2") r.Live.value;
      check_clean "participant kill" (Live.check cluster))

let test_amnesia_recovery () =
  with_cluster ~universe:u4 (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      Live.kill cluster 2;
      (* Lose the stable record: the restarted node must come up
         amnesiac — silent, refusing to coordinate — not guessing the
         initial state for an object it has voted on. *)
      Live.remove_dir (Dynvote_shard.Shard_store.shards_dir ~dir:(Live.dir cluster) ~site:2);
      Live.restart cluster 2;
      let r = Live.get c ~at:2 ~key:"a" in
      check_status "amnesiac refuses to coordinate" Wire.Denied r;
      (* A reboot is not a RECOVER: the flag must survive it. *)
      Live.kill cluster 2;
      Live.restart cluster 2;
      check_status "still amnesiac after a reboot" Wire.Denied
        (Live.get c ~at:2 ~key:"a");
      check_status "amnesiac recover" Wire.Granted (Live.recover_site c 2);
      let r = Live.get c ~at:2 ~key:"a" in
      check_status "read after recover" Wire.Granted r;
      Alcotest.(check (option string)) "value restored" (Some "1") r.Live.value;
      check_clean "amnesia" (Live.check cluster))

(* A cluster whose hub counts what each operation costs: lock rounds,
   gather rounds, commit waves and frames through the switchboard.  The
   gather timeout is generous so a slow reply on a loaded machine cannot
   turn into a retry and move a count. *)
let with_cost_probe ?(config = test_config) ~universe f =
  with_scratch (fun dir ->
      let hub = Dynvote_obs.Hub.create () in
      let config = { config with Node.gather_timeout = 0.5 } in
      let cluster =
        Live.create ~config ~client_timeout:5.0 ~obs:hub ~universe ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) @@ fun () ->
      f cluster (Live.client cluster) hub.Dynvote_obs.Hub.metrics)

let counter m name = Metrics.counter_value (Metrics.counter m name)
let busy_info = "busy: rival operation holds the locks"

(* Run [f] and check its reply and its [lock rounds; gathers; commit
   waves; frames]. *)
let op_cost m name ~status ?value ~cost f =
  let costs () =
    List.map (counter m)
      [ "live.lock.rounds"; "live.gather.rounds"; "live.commit.waves"; "net.frames.sent" ]
  in
  let before = costs () in
  let r = f () in
  let after = costs () in
  check_status name status r;
  (match value with
  | Some v -> Alcotest.(check (option string)) (name ^ ": value") v r.Live.value
  | None -> ());
  Alcotest.(check (list int))
    (name ^ ": lock rounds, gathers, commit waves, frames")
    cost
    (List.map2 ( - ) after before)

(* The one-path guard: a serial 4-site --shards 0 walkthrough pinned op
   by op.  A granted operation whose peers all answer costs 3(n-1)+2 =
   11 frames: START and its three replies, the three-frame COMMIT wave
   that also releases the locks, the client's request and reply.  A
   silent peer costs a re-asked START and a KUnlock instead of its
   reply and its COMMIT; a fetch costs its request and reply. *)
let test_serial_op_costs () =
  with_cost_probe ~universe:u4 (fun cluster c m ->
      let op = op_cost m in
      op "put" ~status:Wire.Granted ~cost:[ 1; 1; 1; 11 ] (fun () ->
          Live.put c ~at:0 ~key:"a" ~value:"1");
      op "get" ~status:Wire.Granted ~value:(Some "1") ~cost:[ 1; 1; 1; 11 ]
        (fun () -> Live.get c ~at:2 ~key:"a");
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      op "minority put" ~status:Wire.Denied ~cost:[ 1; 1; 0; 11 ] (fun () ->
          Live.put c ~at:3 ~key:"a" ~value:"x");
      op "majority put" ~status:Wire.Granted ~cost:[ 1; 1; 1; 11 ] (fun () ->
          Live.put c ~at:1 ~key:"a" ~value:"2");
      Live.heal cluster;
      op "recover after heal" ~status:Wire.Granted ~cost:[ 1; 1; 1; 13 ]
        (fun () -> Live.recover_site c 3);
      op "get at the recovered site" ~status:Wire.Granted ~value:(Some "2")
        ~cost:[ 1; 1; 1; 11 ] (fun () -> Live.get c ~at:3 ~key:"a");
      Live.kill cluster 2;
      Live.restart cluster 2;
      op "recover after restart" ~status:Wire.Granted ~cost:[ 1; 1; 1; 11 ]
        (fun () -> Live.recover_site c 2);
      op "get at the restarted site" ~status:Wire.Granted ~value:(Some "2")
        ~cost:[ 1; 1; 1; 11 ] (fun () -> Live.get c ~at:2 ~key:"a");
      check_clean "serial op costs" (Live.check cluster))

(* The frame budget 3(n-1)+2 at three and five sites: 8 and 14. *)
let test_op_costs_by_size () =
  List.iter
    (fun (n, frames) ->
      with_cost_probe ~universe:(Site_set.universe n) (fun cluster c m ->
          let name what = Printf.sprintf "%s at n = %d" what n in
          op_cost m (name "put") ~status:Wire.Granted ~cost:[ 1; 1; 1; frames ]
            (fun () -> Live.put c ~at:0 ~key:"a" ~value:"1");
          op_cost m (name "get") ~status:Wire.Granted ~value:(Some "1")
            ~cost:[ 1; 1; 1; frames ] (fun () -> Live.get c ~at:(n - 1) ~key:"a");
          check_clean (name "op costs") (Live.check cluster)))
    [ (3, 8); (5, 14) ]

(* --- the re-gather ----------------------------------------------------

   A joined operation whose cached view denies it runs the START
   exchange again, under the anchor's op, for its one object.  To get
   there, two gets reach one coordinator in one write, so the second is
   queued before the first decides and, with reuse on, joins its anchor;
   and the first is denied, so the cached view the second decides
   against denies it too. *)

let reuse_config = { test_config with Node.max_reuse = 4 }

let make_amnesiac cluster site =
  Live.kill cluster site;
  Live.remove_dir (Dynvote_shard.Shard_store.shards_dir ~dir:(Live.dir cluster) ~site);
  Live.restart cluster site

(* Two gets of "a" at [at] in one write, and their replies in order. *)
let two_gets cluster ~at =
  let conn = Evconn.dial ~port:(Live.port cluster) () in
  Fun.protect ~finally:(fun () -> Evconn.close conn) @@ fun () ->
  let id =
    match
      Evconn.handshake ~clock:Clock.now conn
        { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
    with
    | Some id -> id
    | None -> Alcotest.fail "two gets: no welcome"
  in
  List.iter
    (fun req ->
      ignore
        (Evconn.enqueue conn
           { Wire.src = id; dst = at; payload = Wire.Client_get { req; key = "a" } }
          : [ `Ok | `Overflow ]))
    [ 1; 2 ];
  if Evconn.drain conn <> `Idle then Alcotest.fail "two gets: not sent";
  List.map
    (fun req ->
      match Evconn.recv ~deadline:(Clock.now () +. 5.0) conn with
      | Ok { Wire.payload = Wire.Client_reply { req = r; status; value; info }; _ }
        when r = req ->
          { Live.status; value; info; retries = 0 }
      | _ -> Alcotest.failf "two gets: no reply to request %d" req)
    [ 1; 2 ]

(* With sites 0 and 1 amnesiac, coordinator 3 hears one vote (site 2's)
   and two voteless grants: {2, 3} is half of the partition and loses
   the tie-break, so every get there is denied.  Alone, a get costs 11
   frames: its request and reply, START and its three answers, and a
   KUnlock to each holder.  The joined pair costs one START and one
   KUnlock wave between them, plus the second get's request and reply
   and the re-gather's 2(n-1) = 6 frames: 19.  A peer that still owes
   the anchor's START an answer is not asked again: with {0, 1} cut off
   from coordinator 2, the START asks them twice and hears nothing, and
   the re-gather asks site 3 alone — 2 frames, for 15. *)
let test_regather () =
  with_cost_probe ~config:reuse_config ~universe:u4 (fun cluster c m ->
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      make_amnesiac cluster 0;
      make_amnesiac cluster 1;
      op_cost m "a lone get" ~status:Wire.Denied ~cost:[ 1; 1; 0; 11 ] (fun () ->
          Live.get c ~at:3 ~key:"a");
      let reused = counter m "live.gather.reused" in
      let replies = ref [] in
      op_cost m "a joined get" ~status:Wire.Denied ~cost:[ 1; 2; 0; 19 ] (fun () ->
          replies := two_gets cluster ~at:3;
          List.nth !replies 1);
      check_status "the first get" Wire.Denied (List.hd !replies);
      Alcotest.(check int) "the joined get decided against the cache first" (reused + 1)
        (counter m "live.gather.reused");
      check_clean "re-gather" (Live.check cluster));
  with_cost_probe ~config:reuse_config ~universe:u4 (fun cluster c m ->
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      Live.partition cluster [ ss [ 0; 1 ]; ss [ 2; 3 ] ];
      op_cost m "a joined get, two peers silent" ~status:Wire.Denied
        ~cost:[ 1; 2; 0; 15 ] (fun () -> List.nth (two_gets cluster ~at:2) 1);
      Live.heal cluster;
      check_clean "re-gather past silent peers" (Live.check cluster))

(* No lock outlives its operation.  A peer the COMMIT wave does not
   reach — stale outside the new partition, or amnesiac and so voteless —
   still took the START's locks, and must get them back: two puts in a
   row at different coordinators are both granted at once, with no lock
   round denied.  So must the holders a re-gather refreshed: the two
   coordinators that can still coordinate after it are denied by the
   quorum, never by a lock. *)
let test_no_lock_outlives_its_op () =
  let after ?config name setup ~status ~at =
    with_cost_probe ?config ~universe:u4 (fun cluster c m ->
        check_status (name ^ ": seed") Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
        setup cluster c;
        let denied = counter m "live.lock.denied" in
        List.iter
          (fun (at, value) ->
            check_status (Printf.sprintf "%s: put at %d" name at) status
              (Live.put c ~at ~key:"a" ~value))
          [ (fst at, "3"); (snd at, "4") ];
        Alcotest.(check int) (name ^ ": lock rounds denied") denied
          (counter m "live.lock.denied");
        check_clean name (Live.check cluster))
  in
  after "stale outside S" ~status:Wire.Granted ~at:(0, 1) (fun cluster c ->
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      check_status "majority put" Wire.Granted (Live.put c ~at:1 ~key:"a" ~value:"2");
      Live.heal cluster);
  after "amnesiac" ~status:Wire.Granted ~at:(0, 1) (fun cluster _ ->
      make_amnesiac cluster 3);
  after ~config:reuse_config "re-gathered" ~status:Wire.Denied ~at:(2, 3)
    (fun cluster _ ->
      make_amnesiac cluster 0;
      make_amnesiac cluster 1;
      List.iter (check_status "joined gets" Wire.Denied) (two_gets cluster ~at:3))

(* A releasing COMMIT wakes a rival backing off, as an unlock does.  Two
   coordinators put one key 20 times each at once, and a refused START
   backs off a second or more unless a release wakes it.  Woken, every
   put is answered — granted, or busy once its retries run out — before
   a single backoff could have been slept out (40 puts take 0.03-0.06 s
   on a 2-core box); a coordinator the winner's COMMIT does not wake
   sleeps a full second at least once. *)
let test_commit_wakes_rival () =
  let config = { test_config with Node.lock_backoff = 1.0; lock_retries = 40 } in
  with_cost_probe ~config ~universe:u4 (fun cluster _ m ->
      let rounds = 20 in
      let t0 = Clock.now () in
      let answered = Array.make 2 0 and granted = Array.make 2 0 in
      let worker at =
        Thread.create
          (fun () ->
            let c = Live.client cluster in
            for i = 1 to rounds do
              let r = Live.put c ~at ~key:"k" ~value:(Printf.sprintf "%d-%d" at i) in
              if r.Live.status = Wire.Granted then granted.(at) <- granted.(at) + 1;
              if r.Live.status = Wire.Granted || r.Live.info = busy_info then
                answered.(at) <- answered.(at) + 1
            done)
          ()
      in
      List.iter Thread.join [ worker 0; worker 1 ];
      let elapsed = Clock.now () -. t0 in
      Alcotest.(check (array int)) "every put answered" [| rounds; rounds |] answered;
      Alcotest.(check bool) "both coordinators commit" true
        (granted.(0) > 0 && granted.(1) > 0);
      Alcotest.(check bool)
        (Printf.sprintf "done in %.2f s (%d and %d granted, %d START rounds denied)"
           elapsed granted.(0) granted.(1) (counter m "live.lock.denied"))
        true (elapsed < 0.8);
      check_clean "rival puts" (Live.check cluster))

let test_segment_partition_validation () =
  (* Sites 0,1 share segment 0; splitting them must be rejected. *)
  with_cluster ~universe:u4 ~segment_of:(fun s -> if s < 2 then 0 else s)
    (fun cluster ->
      (match Live.partition cluster [ ss [ 0; 2 ]; ss [ 1; 3 ] ] with
      | () -> Alcotest.fail "segment-splitting partition accepted"
      | exception Invalid_argument _ -> ());
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      Live.heal cluster)

let test_loadgen_smoke () =
  with_cluster ~universe:(ss [ 0; 1; 2 ]) (fun cluster ->
      let config =
        {
          Loadgen.default with
          Loadgen.clients = 2;
          duration = 0.6;
          keys = 4;
          seed = 7;
        }
      in
      let r = Loadgen.run cluster config in
      let total = r.Loadgen.reads.Loadgen.issued + r.Loadgen.writes.Loadgen.issued in
      Alcotest.(check bool) "operations completed" true (total > 0);
      let granted = r.Loadgen.reads.Loadgen.granted + r.Loadgen.writes.Loadgen.granted in
      Alcotest.(check bool) "some operations granted" true (granted > 0);
      Alcotest.(check bool) "report renders" true
        (String.length (Fmt.str "%a" Loadgen.pp_result r) > 0);
      (* Open loop with a retry budget: every call the herd issued ends
         in exactly one recorded outcome. *)
      let issued () =
        Metrics.counter_value
          (Metrics.counter (Live.obs cluster).Hub.metrics "loadgen.ops.issued")
      in
      let before = issued () in
      let r =
        Loadgen.run cluster
          { config with Loadgen.rate = Some 300.0; retries = 1; seed = 8 }
      in
      List.iter
        (fun (name, (o : Loadgen.op_stats)) ->
          Alcotest.(check int)
            (name ^ ": issued = granted + denied + aborted + degraded")
            o.Loadgen.issued
            (o.Loadgen.granted + o.Loadgen.denied + o.Loadgen.aborted
           + o.Loadgen.degraded))
        [ ("reads", r.Loadgen.reads); ("writes", r.Loadgen.writes) ];
      let total = r.Loadgen.reads.Loadgen.issued + r.Loadgen.writes.Loadgen.issued in
      Alcotest.(check bool) "open-loop calls completed" true (total > 0);
      Alcotest.(check int) "every issued call recorded" (issued () - before) total;
      check_clean "loadgen" (Live.check cluster))

(* The herd's only coordinator dies mid-run.  Calls out at the kill time
   out after the client timeout and retry at a live site; later
   arrivals are denied without being sent; the run returns by its
   duration plus one client timeout instead of waiting out a grace
   period. *)
let test_loadgen_coordinator_killed () =
  with_scratch (fun dir ->
      let client_timeout = 0.3 and duration = 1.0 in
      let cluster =
        Live.create ~config:test_config ~client_timeout
          ~universe:(ss [ 0; 1; 2 ]) ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) @@ fun () ->
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.4;
            Live.kill cluster 1)
          ()
      in
      let t0 = Clock.now () in
      (* Arrivals far outpace one serial coordinator, so every client
         has a call out at the kill. *)
      let r =
        Loadgen.run cluster
          {
            Loadgen.default with
            Loadgen.clients = 8;
            duration;
            keys = 4;
            seed = 5;
            rate = Some 20_000.0;
            retries = 1;
            sites = Some (ss [ 1 ]);
          }
      in
      let elapsed = Clock.now () -. t0 in
      Thread.join killer;
      Alcotest.(check bool)
        (Printf.sprintf "returned by duration + client timeout (%.2f s)" elapsed)
        true
        (elapsed < duration +. client_timeout +. 0.5);
      let sum f = f r.Loadgen.reads + f r.Loadgen.writes in
      Alcotest.(check bool) "calls to the dead site denied after the kill" true
        (sum (fun o -> o.Loadgen.denied) > 0);
      Alcotest.(check bool) "calls out at the kill retried elsewhere" true
        (sum (fun o -> o.Loadgen.retried) > 0);
      Alcotest.(check int) "every call accounted for"
        (sum (fun o -> o.Loadgen.issued))
        (sum (fun o ->
             o.Loadgen.granted + o.Loadgen.denied + o.Loadgen.aborted
             + o.Loadgen.degraded));
      check_clean "coordinator killed under load" (Live.check cluster))

(* A value past the connection queue bound (4 MiB) but inside the codec's
   frame limit: at [--shards 0] every commit carries the whole map, so
   each frame of the write exceeds the bound.  None may sever a peer. *)
let test_put_larger_than_queue_bound () =
  with_cluster ~universe:(ss [ 0; 1; 2 ]) (fun cluster ->
      let c = Live.client cluster in
      let value =
        String.init (5 * 1024 * 1024) (fun i -> Char.chr (97 + (i mod 26)))
      in
      check_status "big put" Wire.Granted (Live.put c ~at:0 ~key:"big" ~value);
      let reply = Live.get c ~at:1 ~key:"big" in
      check_status "read at another site" Wire.Granted reply;
      Alcotest.(check bool) "value read back intact" true
        (reply.Live.value = Some value);
      Alcotest.(check int) "no site severed" 3
        (Site_set.cardinal (Live.up_sites cluster));
      check_clean "big value" (Live.check cluster))

(* The long soak: sustained mixed load with faults injected mid-flight,
   then the full audit.  Gated like the deep model-checker sweep. *)
let test_soak () =
  match Sys.getenv_opt "DYNVOTE_LIVE_SOAK" with
  | None -> ()
  | Some _ ->
      with_cluster ~universe:u4 (fun cluster ->
          let chaos_done = ref false in
          let chaos =
            Thread.create
              (fun () ->
                let c = Live.client cluster in
                Thread.delay 0.5;
                Live.partition cluster [ ss [ 0; 1 ]; ss [ 2; 3 ] ];
                Thread.delay 0.5;
                Live.heal cluster;
                Thread.delay 0.3;
                Live.kill cluster 3;
                Thread.delay 0.5;
                Live.restart cluster 3;
                ignore (Live.recover_site c 3 : Live.reply);
                chaos_done := true)
              ()
          in
          let config =
            {
              Loadgen.default with
              Loadgen.clients = 4;
              duration = 4.0;
              keys = 8;
              seed = 42;
            }
          in
          let r = Loadgen.run cluster config in
          Thread.join chaos;
          Alcotest.(check bool) "chaos script ran" true !chaos_done;
          let issued =
            r.Loadgen.reads.Loadgen.issued + r.Loadgen.writes.Loadgen.issued
          in
          (* Disturbance windows make every gather pay its full timeout,
             so the floor asserts sustained progress, not throughput. *)
          Alcotest.(check bool)
            (Printf.sprintf "sustained load (%d issued)" issued)
            true (issued > 20);
          let audit = Live.check cluster in
          check_clean "soak" audit;
          Alcotest.(check int) "soak: no double applies" 0 audit.Live.dup_applies)

(* --- cluster lifecycle ----------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A site that cannot seed (its directory is a regular file) fails the
   whole create, after the switchboard and two sites are up.  Each failed
   create must release them all, or 200 of them pile up descriptors and
   broker domains. *)
let test_failed_create_releases () =
  with_scratch (fun dir ->
      let blocker = Filename.concat dir "site-2" in
      Out_channel.with_open_bin blocker ignore;
      let expected =
        Filename.concat (Filename.concat blocker "shards") "shard-0.dvl"
      in
      let before = open_fds () in
      for i = 1 to 200 do
        match Live.create ~config:test_config ~universe:(ss [ 0; 1; 2 ]) ~dir () with
        | cluster ->
            Live.shutdown cluster;
            Alcotest.failf "create %d succeeded over a blocked site" i
        | exception Unix.Unix_error (Unix.ENOTDIR, "open", path) when path = expected
          ->
            ()
      done;
      Alcotest.(check int) "open descriptors" before (open_fds ()))

(* Every cluster spawns one broker domain and its shutdown stops and
   joins it.  150 cycles go past the runtime's 128-domain cap, so a
   shutdown that left its broker running would fail a later create; and
   the broker has closed every descriptor it owned by the time shutdown
   returns. *)
let test_create_shutdown_cycles () =
  with_scratch (fun dir ->
      let before = open_fds () in
      for i = 1 to 150 do
        Live.shutdown (Live.create ~config:test_config ~universe:(ss [ 0 ]) ~dir ());
        Alcotest.(check int) (Printf.sprintf "open descriptors after cycle %d" i)
          before (open_fds ())
      done)

(* --- the site loop -------------------------------------------------------

   Every local site is stepped by one loop thread.  A site that dies —
   struck mid-wave, or severed by a kill — closes alone, and a restart
   hands the loop a fresh incarnation. *)

let open_threads () = Array.length (Sys.readdir "/proc/self/task")

(* Some closes finish a moment after the call that caused them: the
   broker drops a closed client's connection on its own domain, and a
   joined thread may linger in /proc after [Thread.join] returns.  Read
   the count until it comes back to [n], for up to a second. *)
let settles_to n count =
  let rec go tries =
    let now = count () in
    if now = n || tries = 0 then now
    else begin
      Thread.delay 0.01;
      go (tries - 1)
    end
  in
  go 100

(* Strike coordinator 1 after the last COMMIT send of a put: every site
   applied it, the coordinator dies before its reply.  Only site 1
   closes; the other three keep answering, and the restarted site
   answers again from the same loop. *)
let test_strike_closes_one_site () =
  with_scratch (fun dir ->
      let hub = Hub.create () in
      let cluster =
        Live.create ~config:test_config ~client_timeout:1.0 ~obs:hub ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) @@ fun () ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:1 ~key:"a" ~value:"1");
      Live.strike_after cluster 1 4;
      check_status "struck put is never answered" Wire.Aborted
        (Live.put c ~at:1 ~key:"a" ~value:"2");
      Alcotest.(check bool) "only site 1 is down" true
        (Site_set.equal (ss [ 0; 2; 3 ]) (Live.up_sites cluster));
      List.iter
        (fun at ->
          let r = Live.get c ~at ~key:"a" in
          check_status (Printf.sprintf "get at %d" at) Wire.Granted r;
          Alcotest.(check (option string))
            (Printf.sprintf "the struck put landed everywhere (read at %d)" at)
            (Some "2") r.Live.value)
        [ 0; 2; 3 ];
      check_status "put at 3 while 1 is down" Wire.Granted
        (Live.put c ~at:3 ~key:"a" ~value:"3");
      Live.restart cluster 1;
      let r = Live.get c ~at:1 ~key:"a" in
      check_status "restarted site coordinates" Wire.Granted r;
      Alcotest.(check (option string)) "restarted site reads the latest" (Some "3")
        r.Live.value;
      Alcotest.(check bool) "the site loop counted its wakeups" true
        (counter hub.Hub.metrics "live.loop.wakeups" > 0);
      check_clean "strike closes one site" (Live.check cluster))

(* Twenty kill/restart cycles of one durable site — each incarnation
   with its own syncer thread — leave the process's descriptors and
   threads where they started, and every audit safe. *)
let test_kill_restart_cycles () =
  with_scratch (fun dir ->
      let config = { test_config with Node.durable = true } in
      let cluster = Live.create ~config ~client_timeout:3.0 ~universe:u4 ~dir () in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) @@ fun () ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"0");
      check_status "site 2 has synced once" Wire.Granted (Live.get c ~at:2 ~key:"a");
      let fds = open_fds () and threads = open_threads () in
      for i = 1 to 20 do
        let name what = Printf.sprintf "cycle %d: %s" i what in
        Live.kill cluster 2;
        check_status (name "put while 2 is down") Wire.Granted
          (Live.put c ~at:0 ~key:"a" ~value:(string_of_int i));
        Live.restart cluster 2;
        (* RECOVER makes the stale site a recipient again, so it commits,
           opens its shard log and starts its syncer, as before the kill. *)
        check_status (name "recover 2") Wire.Granted (Live.recover_site c 2);
        let r = Live.get c ~at:2 ~key:"a" in
        check_status (name "get at the restarted site") Wire.Granted r;
        Alcotest.(check (option string)) (name "value") (Some (string_of_int i))
          r.Live.value;
        check_clean (name "audit") (Live.check cluster);
        Alcotest.(check int) (name "open descriptors") fds (settles_to fds open_fds);
        Alcotest.(check int) (name "threads") threads (settles_to threads open_threads)
      done)

(* One verdict over an audit (Live.safe), for the CLI, the bench and the
   crash matrix alike: the one-object oracle, every key's oracle and
   exactly-once must all hold. *)
let test_audit_verdict () =
  let clean =
    {
      Live.oracle = Oracle.create ~initial_content:"";
      torn = Site_set.empty;
      corrupt = 0;
      dup_applies = 0;
      records = 0;
      keys = 1;
      kviolations = [];
    }
  in
  Alcotest.(check bool) "clean audit" true (Live.safe clean);
  Alcotest.(check bool) "one keyed violation" false
    (Live.safe
       {
         clean with
         Live.kviolations =
           [ ("k", Oracle.Non_monotone_op { site = 0; before = 2; after = 1 }) ];
       });
  Alcotest.(check bool) "one duplicate apply" false
    (Live.safe { clean with Live.dup_applies = 1 })

let suite =
  [
    Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire truncation rejected" `Quick test_wire_truncation;
    Alcotest.test_case "wire bit flips rejected" `Quick test_wire_bitflip;
    prop_wire_garbage_rejected;
    prop_decoder_garbage_drains;
    Alcotest.test_case "oplog round trip" `Quick test_oplog_roundtrip;
    Alcotest.test_case "oplog torn tail" `Quick test_oplog_torn_tail;
    Alcotest.test_case "oplog floor scan" `Quick test_oplog_floor_scan;
    Alcotest.test_case "map blob round trip" `Quick test_map_blob_roundtrip;
    Alcotest.test_case "lease under clock steps" `Quick test_lease_clock_steps;
    Alcotest.test_case "no wall clock in lib/live" `Quick test_no_wall_clock_in_live;
    Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "worker seeds distinct" `Quick test_worker_seeds_distinct;
    Alcotest.test_case "basic replication" `Quick test_basic_replication;
    Alcotest.test_case "partition / heal / restart" `Quick test_partition_heal_recovery;
    Alcotest.test_case "coordinator struck mid-commit" `Quick
      test_coordinator_struck_mid_commit;
    Alcotest.test_case "participant killed mid-write" `Quick
      test_participant_killed_mid_write;
    Alcotest.test_case "amnesia recovery" `Quick test_amnesia_recovery;
    Alcotest.test_case "serial op costs at --shards 0" `Quick test_serial_op_costs;
    Alcotest.test_case "op costs at 3 and 5 sites" `Quick test_op_costs_by_size;
    Alcotest.test_case "a joined operation re-gathers with START" `Quick test_regather;
    Alcotest.test_case "no lock outlives its operation" `Quick
      test_no_lock_outlives_its_op;
    Alcotest.test_case "a releasing COMMIT wakes a rival" `Quick test_commit_wakes_rival;
    Alcotest.test_case "segment partition validation" `Quick
      test_segment_partition_validation;
    Alcotest.test_case "loadgen smoke" `Quick test_loadgen_smoke;
    Alcotest.test_case "loadgen: only coordinator killed" `Quick
      test_loadgen_coordinator_killed;
    Alcotest.test_case "put larger than the queue bound" `Quick
      test_put_larger_than_queue_bound;
    Alcotest.test_case "one audit verdict" `Quick test_audit_verdict;
    Alcotest.test_case "failed create releases everything" `Quick
      test_failed_create_releases;
    Alcotest.test_case "a strike closes only its site" `Quick test_strike_closes_one_site;
    Alcotest.test_case "20 kill/restart cycles" `Quick test_kill_restart_cycles;
    Alcotest.test_case "150 create/shutdown cycles" `Quick
      test_create_shutdown_cycles;
    Alcotest.test_case "soak (DYNVOTE_LIVE_SOAK)" `Slow test_soak;
  ]
