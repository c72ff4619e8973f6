(* The sharded object space: the Zipf key sampler, the per-shard
   log-structured store, the bounded-residency LRU map, and the keyed
   live protocol — group quorums, per-key oracles, exactly-once retries
   under a struck coordinator, amnesia after shard-log loss. *)

open Helpers
module Zipf = Dynvote_shard.Zipf
module Shard_store = Dynvote_shard.Shard_store
module Shard_map = Dynvote_shard.Shard_map
module Wire = Dynvote_live.Wire
module Live = Dynvote_live.Cluster
module Loadgen = Dynvote_live.Loadgen
module Node = Dynvote_live.Node
module Oracle = Dynvote_chaos.Oracle
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Rng = Dynvote_prng.Rng

let u4 = ss [ 0; 1; 2; 3 ]

(* --- scratch directories (same discipline as the live suite) -------- *)

let scratch_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_scratch f =
  incr scratch_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dynvote-shard-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

(* --- Zipf sampler ---------------------------------------------------- *)

let test_zipf_validation () =
  expect_invalid "n = 0" (fun () -> Zipf.create ~n:0 ~s:1.0);
  expect_invalid "negative s" (fun () -> Zipf.create ~n:8 ~s:(-0.5));
  expect_invalid "nan s" (fun () -> Zipf.create ~n:8 ~s:Float.nan);
  expect_invalid "infinite s" (fun () -> Zipf.create ~n:8 ~s:Float.infinity);
  let z = Zipf.create ~n:8 ~s:0.0 in
  Alcotest.(check int) "n recorded" 8 (Zipf.n z);
  check_float "s recorded" 0.0 (Zipf.s z)

let test_zipf_mass () =
  List.iter
    (fun s ->
      let z = Zipf.create ~n:50 ~s in
      let sum = ref 0.0 in
      for k = 0 to 49 do
        sum := !sum +. Zipf.mass z k
      done;
      check_float_tol 1e-9 (Printf.sprintf "mass sums to 1 at s=%.1f" s) 1.0 !sum)
    [ 0.0; 0.7; 1.0; 1.4 ];
  let uniform = Zipf.create ~n:10 ~s:0.0 in
  for k = 0 to 9 do
    check_float_tol 1e-9 "s=0 mass is uniform" 0.1 (Zipf.mass uniform k)
  done

let test_zipf_determinism () =
  let z = Zipf.create ~n:100 ~s:1.1 in
  let draw seed =
    let rng = Rng.create ~seed () in
    List.init 500 (fun _ -> Zipf.sample z (Rng.float rng))
  in
  Alcotest.(check (list int)) "same seed, same ranks" (draw 42L) (draw 42L);
  Alcotest.(check bool) "different seed diverges" true (draw 42L <> draw 43L);
  (* Monotone in the variate: equal variates give equal ranks, and the
     extremes map to the extremes of the rank space. *)
  Alcotest.(check int) "u=0 is rank 0" 0 (Zipf.sample z 0.0);
  Alcotest.(check bool) "ranks stay in range" true
    (List.for_all (fun k -> k >= 0 && k < 100) (draw 7L))

(* Sampling is total: any float variate — negative, >= 1, adversarially
   close to 1, or NaN — maps to a rank in [0, n), for any n and s.  The
   in-range argument is the loop invariant documented at the search;
   this is its executable counterpart. *)
let prop_zipf_sample_total =
  qcheck_case ~count:500 ~name:"zipf sample is total and in range"
    QCheck.(triple (int_range 1 200) (int_range 0 40) float)
    (fun (n, s_tenths, u) ->
      let z = Zipf.create ~n ~s:(float_of_int s_tenths /. 10.0) in
      let k = Zipf.sample z u in
      0 <= k && k < n)

let test_zipf_sample_edge_variates () =
  List.iter
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      List.iter
        (fun (name, u) ->
          let k = Zipf.sample z u in
          Alcotest.(check bool)
            (Printf.sprintf "u=%s in range at n=%d s=%.1f (got %d)" name n s k)
            true
            (0 <= k && k < n))
        [
          ("0", 0.0); ("pred 1", Float.pred 1.0); ("1", 1.0); ("2", 2.0);
          ("-1", -1.0); ("nan", Float.nan); ("inf", Float.infinity);
          ("-inf", Float.neg_infinity); ("min_float", Float.min_float);
          ("-0", -0.0);
        ])
    [ (1, 0.0); (1, 4.0); (2, 1.0); (7, 0.0); (100, 4.0) ]

(* The rank-frequency curve is a distribution at the exponents the
   soaks use (uniform and heavily skewed) and at the degenerate single
   rank, whatever the table size. *)
let prop_zipf_mass_sums =
  qcheck_case ~count:200 ~name:"zipf mass sums to 1 (s=0 and s=4)"
    QCheck.(pair (int_range 1 300) bool)
    (fun (n, skewed) ->
      let z = Zipf.create ~n ~s:(if skewed then 4.0 else 0.0) in
      let sum = ref 0.0 in
      for k = 0 to n - 1 do
        sum := !sum +. Zipf.mass z k
      done;
      Float.abs (!sum -. 1.0) <= 1e-9)

let test_zipf_single_rank () =
  List.iter
    (fun s ->
      let z = Zipf.create ~n:1 ~s in
      check_float_tol 1e-9
        (Printf.sprintf "n=1 mass is 1 at s=%.1f" s)
        1.0 (Zipf.mass z 0);
      Alcotest.(check int) "n=1 always samples rank 0" 0
        (Zipf.sample z 0.999999999999))
    [ 0.0; 4.0 ]

let empirical ~n ~s ~draws =
  let z = Zipf.create ~n ~s in
  let rng = Rng.create ~seed:11L () in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Zipf.sample z (Rng.float rng) in
    counts.(k) <- counts.(k) + 1
  done;
  (z, counts)

let test_zipf_uniform () =
  let _, counts = empirical ~n:10 ~s:0.0 ~draws:20_000 in
  Array.iteri
    (fun k c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d near 1/n (got %d)" k c)
        true
        (close_rel ~rel:0.1 2000.0 (float_of_int c)))
    counts

let test_zipf_slope () =
  let z, counts = empirical ~n:64 ~s:1.1 ~draws:40_000 in
  let freq k = float_of_int counts.(k) /. 40_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "head frequency matches mass (got %.4f, want %.4f)" (freq 0)
       (Zipf.mass z 0))
    true
    (close_rel ~rel:0.1 (Zipf.mass z 0) (freq 0));
  Alcotest.(check bool) "rank 0 beats rank 8" true (counts.(0) > counts.(8));
  Alcotest.(check bool) "rank 8 beats rank 32" true (counts.(8) > counts.(32))

(* --- Shard_store ----------------------------------------------------- *)

let mk_rid ~client ~req = (client lsl 32) lor req

let st ~op_no ~version ~partition ~data_version ~value =
  { Shard_store.op_no; version; partition; data_version; value }

let test_store_roundtrip () =
  with_scratch (fun dir ->
      let store, scan = Shard_store.open_store ~dir ~site:0 ~shards:4 () in
      Alcotest.(check int) "fresh store is empty" 0 scan.Shard_store.keys;
      let s1 =
        st ~op_no:2 ~version:2 ~partition:(ss [ 0; 1; 2 ]) ~data_version:2
          ~value:(Some "v1")
      in
      Shard_store.commit store ~key:"alpha" ~rid:(mk_rid ~client:1 ~req:5) s1;
      Shard_store.commit store ~key:"beta" ~rid:0
        (st ~op_no:3 ~version:1 ~partition:u4 ~data_version:1 ~value:None);
      (* Same value bytes again: exercises the Unchanged encoding. *)
      Shard_store.commit store ~key:"alpha" ~rid:(mk_rid ~client:1 ~req:6)
        { s1 with op_no = 3 };
      Shard_store.commit store ~key:"alpha" ~rid:(mk_rid ~client:2 ~req:1)
        (st ~op_no:4 ~version:3 ~partition:(ss [ 0; 1 ]) ~data_version:3
           ~value:(Some "v2"));
      Shard_store.save_rids store [ (9, 77) ];
      Shard_store.close store;
      let store2, scan2 = Shard_store.open_store ~dir ~site:0 ~shards:4 () in
      Alcotest.(check int) "both keys recovered" 2 scan2.Shard_store.keys;
      Alcotest.(check int) "no torn shards" 0 scan2.Shard_store.torn_shards;
      Alcotest.(check int) "no corruption" 0 scan2.Shard_store.corrupt;
      (match Shard_store.lookup store2 "alpha" with
      | None -> Alcotest.fail "alpha lost"
      | Some s ->
          Alcotest.(check int) "alpha op_no" 4 s.Shard_store.op_no;
          Alcotest.(check int) "alpha version" 3 s.Shard_store.version;
          Alcotest.check set_testable "alpha partition" (ss [ 0; 1 ])
            s.Shard_store.partition;
          Alcotest.(check (option string)) "alpha value" (Some "v2")
            s.Shard_store.value);
      (match Shard_store.lookup store2 "beta" with
      | None -> Alcotest.fail "beta lost"
      | Some s ->
          Alcotest.(check (option string)) "beta has no value" None
            s.Shard_store.value);
      Alcotest.(check (option reject)) "unknown key stays unknown" None
        (Option.map ignore (Shard_store.lookup store2 "ghost"));
      let rids = scan2.Shard_store.rids in
      Alcotest.(check bool) "client 1 high-water from the log" true
        (List.mem (1, 6) rids);
      Alcotest.(check bool) "sidecar rids merged" true (List.mem (9, 77) rids);
      Alcotest.(check int) "read_states sees both keys" 2
        (List.length (fst (Shard_store.read_states ~dir ~site:0)));
      Shard_store.close store2)

let test_store_torn_tail () =
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:1 ~shards:1 () in
      for i = 0 to 9 do
        Shard_store.commit store
          ~key:(Printf.sprintf "t%d" i)
          ~rid:(mk_rid ~client:1 ~req:(i + 1))
          (st ~op_no:1 ~version:1 ~partition:u4 ~data_version:1
             ~value:(Some (string_of_int i)))
      done;
      Shard_store.close store;
      (* A crash tears the tail: a length prefix promising more bytes
         than the file holds. *)
      let path =
        Filename.concat (Shard_store.shards_dir ~dir ~site:1) "shard-0.dvl"
      in
      write_file path (read_file path ^ "\x20\x00\x00\x00AB");
      let store2, scan = Shard_store.open_store ~dir ~site:1 ~shards:1 () in
      Alcotest.(check int) "torn shard counted" 1 scan.Shard_store.torn_shards;
      Alcotest.(check int) "a torn tail is not bit rot" 0 scan.Shard_store.corrupt;
      Alcotest.(check int) "intact records all recovered" 10
        scan.Shard_store.keys;
      (match Shard_store.lookup store2 "t7" with
      | Some s ->
          Alcotest.(check (option string)) "state survives" (Some "7")
            s.Shard_store.value
      | None -> Alcotest.fail "t7 lost to the torn tail");
      Shard_store.close store2)

let test_store_midlog_corruption () =
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      for i = 1 to 3 do
        Shard_store.commit store ~key:"c" ~rid:(mk_rid ~client:1 ~req:i)
          (st ~op_no:i ~version:i ~partition:u4 ~data_version:i
             ~value:(Some (Printf.sprintf "v%d" i)))
      done;
      Shard_store.close store;
      (* Rot a byte inside the first two records (key bytes, well past
         the length prefix): damage with an intact record after it. *)
      let path =
        Filename.concat (Shard_store.shards_dir ~dir ~site:0) "shard-0.dvl"
      in
      let raw = Bytes.of_string (read_file path) in
      let rec0_len = 4 + Int32.to_int (Bytes.get_int32_le raw 0) in
      let flip off =
        Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x01))
      in
      flip 15;
      flip (rec0_len + 15);
      write_file path (Bytes.to_string raw);
      let store2, scan = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Alcotest.(check bool) "mid-log damage surfaced" true
        (scan.Shard_store.corrupt >= 1);
      (match Shard_store.lookup store2 "c" with
      | Some s ->
          Alcotest.(check (option string)) "intact tail record wins" (Some "v3")
            s.Shard_store.value
      | None -> Alcotest.fail "intact record after the damage was dropped");
      Shard_store.close store2);
  (* One rotted record with intact ones after it is corruption too, not
     a torn tail: the log is left as evidence, and the later records —
     a newer state of the same key, another key — still count. *)
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      for i = 2 to 4 do
        Shard_store.commit store ~key:"a" ~rid:(mk_rid ~client:1 ~req:i)
          (st ~op_no:i ~version:i ~partition:u4 ~data_version:i
             ~value:(Some (Printf.sprintf "v%d" i)))
      done;
      Shard_store.commit store ~key:"c" ~rid:0
        (st ~op_no:1 ~version:1 ~partition:u4 ~data_version:1 ~value:(Some "c1"));
      Shard_store.close store;
      let path =
        Filename.concat (Shard_store.shards_dir ~dir ~site:0) "shard-0.dvl"
      in
      let raw = Bytes.of_string (read_file path) in
      let rec0_len = 4 + Int32.to_int (Bytes.get_int32_le raw 0) in
      let off = rec0_len + 15 in
      Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x01));
      let rotted = Bytes.to_string raw in
      write_file path rotted;
      let reopen () =
        let store, scan = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
        Alcotest.(check int) "one corrupt record" 1 scan.Shard_store.corrupt;
        Alcotest.(check int) "not a torn shard" 0 scan.Shard_store.torn_shards;
        Alcotest.(check string) "log left untruncated" rotted (read_file path);
        (match Shard_store.lookup store "a" with
        | Some s -> Alcotest.(check int) "a keeps its newest op" 4 s.Shard_store.op_no
        | None -> Alcotest.fail "a lost");
        (match Shard_store.lookup store "c" with
        | Some s ->
            Alcotest.(check (option string)) "later key survives" (Some "c1")
              s.Shard_store.value
        | None -> Alcotest.fail "the intact record for c was erased");
        Shard_store.close store
      in
      reopen ();
      reopen ())

let test_store_compaction () =
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:2 ~shards:1 () in
      let n = 1200 in
      for i = 1 to n do
        Shard_store.commit store ~key:"hot" ~rid:(mk_rid ~client:1 ~req:i)
          (st ~op_no:i ~version:i ~partition:u4 ~data_version:i
             ~value:(Some (if i = n then "last" else "v")))
      done;
      Alcotest.(check bool) "hot key triggered compaction" true
        (Shard_store.compactions store >= 1);
      Alcotest.(check bool) "superseded records dropped" true
        (Shard_store.log_records store < n);
      Shard_store.close store;
      let store2, scan = Shard_store.open_store ~dir ~site:2 ~shards:1 () in
      Alcotest.(check int) "one key" 1 scan.Shard_store.keys;
      Alcotest.(check int) "compacted log scans clean" 0 scan.Shard_store.corrupt;
      (match Shard_store.lookup store2 "hot" with
      | Some s ->
          Alcotest.(check int) "latest op_no survives" n s.Shard_store.op_no;
          Alcotest.(check (option string)) "latest value survives" (Some "last")
            s.Shard_store.value
      | None -> Alcotest.fail "hot key lost in compaction");
      (* Exactly-once memory must survive the rewrite: the rid summary
         record snapshots the applied-request table. *)
      Alcotest.(check bool) "rid high-water survives compaction" true
        (List.mem (1, n) scan.Shard_store.rids);
      Shard_store.close store2)

(* --- Shard_map ------------------------------------------------------- *)

let with_map ?(resident = 3) f =
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:2 () in
      Fun.protect
        ~finally:(fun () -> Shard_store.close store)
        (fun () ->
          f (Shard_map.create ~store ~resident ~universe:u4 ())))

let test_map_lru () =
  with_map ~resident:3 (fun map ->
      for i = 0 to 5 do
        ignore (Shard_map.find map (Printf.sprintf "k%d" i))
      done;
      Alcotest.(check int) "residency bounded" 3 (Shard_map.resident map);
      Alcotest.(check int) "six cold misses" 6 (Shard_map.materializations map);
      Alcotest.(check int) "three evictions" 3 (Shard_map.evictions map);
      ignore (Shard_map.find map "k5");
      Alcotest.(check int) "resident hit is free" 6
        (Shard_map.materializations map);
      ignore (Shard_map.find map "k0");
      Alcotest.(check int) "evicted key re-materializes" 7
        (Shard_map.materializations map);
      let e = Shard_map.find map "k5" in
      Alcotest.(check string) "entry knows its key" "k5" (Shard_map.key e);
      Alcotest.(check int) "untouched key starts at the paper's state" 1
        (Replica.version (Shard_map.replica e));
      Shard_map.set_value e (Some "x");
      Shard_map.set_data_version e 5;
      let s = Shard_map.state_of e in
      Alcotest.(check (option string)) "state_of sees the value" (Some "x")
        s.Shard_store.value;
      Alcotest.(check int) "state_of sees the data version" 5
        s.Shard_store.data_version)

let test_map_pin () =
  with_map ~resident:2 (fun map ->
      let a = Shard_map.find map "a" in
      Shard_map.pin a;
      ignore (Shard_map.find map "b");
      ignore (Shard_map.find map "c");
      (* The cap forced an eviction, but never of the pinned entry: the
         same physical entry must come back (a parked coordinator cannot
         race a divergent twin of its key). *)
      Alcotest.(check bool) "pinned entry survives pressure" true
        (Shard_map.find map "a" == a);
      Alcotest.(check int) "no re-materialization of a" 3
        (Shard_map.materializations map);
      Shard_map.unpin a;
      expect_invalid "double unpin" (fun () -> Shard_map.unpin a);
      ignore (Shard_map.find map "d");
      ignore (Shard_map.find map "e");
      ignore (Shard_map.find map "a");
      Alcotest.(check int) "unpinned entry became evictable" 6
        (Shard_map.materializations map))

let test_map_validation () =
  with_scratch (fun dir ->
      let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
      Fun.protect
        ~finally:(fun () -> Shard_store.close store)
        (fun () ->
          expect_invalid "zero residency" (fun () ->
              Shard_map.create ~store ~resident:0 ~universe:u4 ())))

(* --- the keyed live protocol ----------------------------------------- *)

(* Fast timeouts, no fsync: kills here are socket severs.  [shards > 0]
   turns on the sharded object space. *)
let shard_config =
  {
    Node.gather_timeout = 0.05;
    retries = 1;
    backoff = 2.0;
    lock_lease = 1.0;
    lock_retries = 6;
    lock_backoff = 0.02;
    durable = false;
    clock = Dynvote_obs.Clock.now;
    pipeline = 1;
    max_reuse = 0;
    shards = 8;
    resident = 64;
  }

(* Durable persistence ON for the struck-coordinator regressions: they
   are about what the dead site's stable storage remembers. *)
let shard_crash_config =
  {
    Node.default_config with
    Node.gather_timeout = 0.05;
    lock_lease = 1.0;
    lock_retries = 6;
    lock_backoff = 0.02;
    shards = 8;
    resident = 64;
  }

let with_shard_cluster ?(config = shard_config) ?(client_timeout = 3.0) f =
  with_scratch (fun dir ->
      let cluster =
        Live.create ~config ~client_timeout ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) (fun () -> f cluster))

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

let info_prefix prefix (reply : Live.reply) =
  String.length reply.Live.info >= String.length prefix
  && String.sub reply.Live.info 0 (String.length prefix) = prefix

let check_shard_audit name ?(min_keys = 1) cluster =
  let audit = Live.check cluster in
  Alcotest.(check bool)
    (Printf.sprintf "%s: audited >= %d keys (got %d)" name min_keys
       audit.Live.keys)
    true
    (audit.Live.keys >= min_keys);
  List.iter
    (fun (key, v) ->
      Alcotest.failf "%s: key %S: %a" name key Oracle.pp_violation v)
    audit.Live.kviolations;
  Alcotest.(check int) (name ^ ": no double applies") 0 audit.Live.dup_applies;
  List.iter
    (fun v -> Alcotest.failf "%s: %a" name Oracle.pp_violation v)
    (Oracle.violations audit.Live.oracle);
  audit

let test_live_multikey () =
  with_shard_cluster (fun cluster ->
      let c = Live.client cluster in
      check_status "write apple@0" Wire.Granted
        (Live.put c ~at:0 ~key:"apple" ~value:"1");
      check_status "write banana@1" Wire.Granted
        (Live.put c ~at:1 ~key:"banana" ~value:"2");
      check_status "write cherry@2" Wire.Granted
        (Live.put c ~at:2 ~key:"cherry" ~value:"3");
      let g = Live.get c ~at:3 ~key:"apple" in
      check_status "cross-site read" Wire.Granted g;
      Alcotest.(check (option string)) "apple fetched" (Some "1") g.Live.value;
      let g = Live.get c ~at:0 ~key:"banana" in
      Alcotest.(check (option string)) "banana fetched" (Some "2") g.Live.value;
      let g = Live.get c ~at:1 ~key:"ghost" in
      check_status "untouched key reads" Wire.Granted g;
      Alcotest.(check (option string)) "untouched key is empty" None
        g.Live.value;
      (* Keys vote independently: a minority segment is denied for every
         key, the majority side keeps writing. *)
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      check_status "minority write denied" Wire.Denied
        (Live.put c ~at:3 ~key:"apple" ~value:"x");
      check_status "minority read denied" Wire.Denied
        (Live.get c ~at:3 ~key:"banana");
      check_status "majority write lands" Wire.Granted
        (Live.put c ~at:0 ~key:"apple" ~value:"1b");
      Live.heal cluster;
      let g = Live.get c ~at:3 ~key:"apple" in
      check_status "healed minority reads" Wire.Granted g;
      Alcotest.(check (option string)) "healed site fetches the new value"
        (Some "1b") g.Live.value;
      (* Kill and restart: the shard logs are the site's memory; the
         next commit wave makes it fresh, no RECOVER involved. *)
      Live.kill cluster 2;
      check_status "3-of-4 write" Wire.Granted
        (Live.put c ~at:0 ~key:"durian" ~value:"4");
      Live.restart cluster 2;
      check_status "write reaches the restarted site" Wire.Granted
        (Live.put c ~at:0 ~key:"durian" ~value:"4b");
      let g = Live.get c ~at:2 ~key:"durian" in
      check_status "restarted site serves" Wire.Granted g;
      Alcotest.(check (option string)) "restarted site converged" (Some "4b")
        g.Live.value;
      ignore (check_shard_audit "multikey" ~min_keys:4 cluster))

let test_live_recover_refused () =
  with_shard_cluster (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      let r = Live.recover_site c 1 in
      check_status "RECOVER has no keyed meaning" Wire.Denied r;
      Alcotest.(check bool)
        (Printf.sprintf "says why (info: %s)" r.Live.info)
        true
        (info_prefix "recover:" r))

let test_live_amnesia () =
  with_shard_cluster (fun cluster ->
      let c = Live.client cluster in
      check_status "seed a" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      check_status "seed b" Wire.Granted (Live.put c ~at:1 ~key:"b" ~value:"2");
      Live.kill cluster 1;
      (* The whole shard directory evaporates: the restarted site must
         know it knows nothing — a guessed ensemble could vote a stale
         partition into a quorum. *)
      rm_rf (Shard_store.shards_dir ~dir:(Live.dir cluster) ~site:1);
      Live.restart cluster 1;
      let r = Live.get c ~at:1 ~key:"a" in
      check_status "amnesiac site refuses to coordinate" Wire.Denied r;
      Alcotest.(check bool)
        (Printf.sprintf "denial names amnesia (info: %s)" r.Live.info)
        true
        (info_prefix "amnesiac:" r);
      check_status "amnesiac write refused too" Wire.Denied
        (Live.put c ~at:1 ~key:"c" ~value:"3");
      (* A reboot does not restore what the wipe took. *)
      Live.kill cluster 1;
      Live.restart cluster 1;
      check_status "still refused after a reboot" Wire.Denied
        (Live.get c ~at:1 ~key:"a");
      (* The surviving sites still form quorums without its vote. *)
      check_status "cluster keeps serving" Wire.Granted
        (Live.put c ~at:0 ~key:"a" ~value:"1b");
      let g = Live.get c ~at:2 ~key:"b" in
      Alcotest.(check (option string)) "reads stay correct" (Some "2")
        g.Live.value;
      ignore (check_shard_audit "amnesia" ~min_keys:2 cluster))

let test_live_exactly_once_retry () =
  with_shard_cluster ~config:shard_crash_config ~client_timeout:0.8
    (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      (* Kill coordinator 0 after its LAST commit send: the keyed write
         is fully applied everywhere, but the client never hears.  The
         ambiguous retry re-coordinates at another site under the same
         request number — the global (client, req) dedup table must
         acknowledge, not re-apply. *)
      Live.strike_after cluster 0 4;
      let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
      check_status "retry acknowledges the committed write" Wire.Granted r;
      Alcotest.(check bool) "at least one hop" true (r.Live.retries >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "grant is a dedup ack (info: %s)" r.Live.info)
        true (info_prefix "duplicate" r);
      Live.restart cluster 0;
      let g = Live.get c ~at:2 ~key:"a" in
      Alcotest.(check (option string)) "applied once, value correct" (Some "2")
        g.Live.value;
      ignore (check_shard_audit "exactly-once" cluster))

let test_live_midwave_strike () =
  with_shard_cluster ~config:shard_crash_config ~client_timeout:0.8
    (fun cluster ->
      let c = Live.client cluster in
      check_status "seed" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      (* Kill after the SECOND send: the coordinator and site 1 applied
         the new generation, sites {2, 3} never hear.  Only site 1 of
         the previous quorum {0, 1, 2, 3} now holds the max version, so
         the dynamic-voting rule keeps everyone blocked — the keyed
         engine must deny rather than fork the half-committed write. *)
      Live.strike_after cluster 0 2;
      let r = Live.put ~retries:3 c ~at:0 ~key:"a" ~value:"2" in
      check_status "survivors alone stay blocked" Wire.Denied r;
      Alcotest.(check bool) "at least one hop" true (r.Live.retries >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "denied by the DV rule (info: %s)" r.Live.info)
        true (info_prefix "below majority" r);
      let g = Live.get c ~at:2 ~key:"a" in
      check_status "reads blocked too" Wire.Denied g;
      (* The restarted coordinator completes the picture: appliers
         {0, 1} make the 2-of-4 tie, and the lexicographic tie-break
         lets the half-committed generation win through. *)
      Live.restart cluster 0;
      let g = Live.get c ~at:2 ~key:"a" in
      check_status "restart unblocks the object" Wire.Granted g;
      Alcotest.(check (option string)) "maybe-committed write surfaced"
        (Some "2") g.Live.value;
      ignore (check_shard_audit "mid-wave strike" cluster))

(* The acquirer's own group gather is a fresh view, not a reuse: with
   [max_reuse = 0] nothing may count as reused, and a denial on that view
   is final — no second gather. *)
let test_live_fresh_gather_not_reused () =
  with_scratch (fun dir ->
      let hub = Hub.create () in
      let cluster =
        Live.create ~config:shard_config ~client_timeout:3.0 ~obs:hub
          ~universe:u4 ~dir ()
      in
      Fun.protect ~finally:(fun () -> Live.shutdown cluster) @@ fun () ->
      let m = hub.Hub.metrics in
      let read name = Metrics.counter_value (Metrics.counter m name) in
      let c = Live.client cluster in
      check_status "write" Wire.Granted (Live.put c ~at:0 ~key:"a" ~value:"1");
      check_status "read" Wire.Granted (Live.get c ~at:1 ~key:"a");
      Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
      let gathers = read "live.gather.rounds" in
      check_status "minority write denied" Wire.Denied
        (Live.put c ~at:3 ~key:"a" ~value:"x");
      Alcotest.(check int) "one gather per denied op" 1
        (read "live.gather.rounds" - gathers);
      Live.heal cluster;
      Alcotest.(check int) "nothing reused at max_reuse 0" 0
        (read "live.gather.reused"))

(* --- group quorums under pipelining ---------------------------------- *)

let test_live_group_batching () =
  let config = { shard_config with pipeline = 8; max_reuse = 32 } in
  with_shard_cluster ~config (fun cluster ->
      let lg =
        {
          Loadgen.default with
          Loadgen.clients = 16;
          duration = 0.8;
          write_ratio = 0.3;
          keys = 64;
          seed = 7;
          sites = Some (ss [ 1 ]);
        }
      in
      let result = Loadgen.run cluster lg in
      Alcotest.(check bool) "load completed" true
        (result.Loadgen.reads.Loadgen.granted
         + result.Loadgen.writes.Loadgen.granted
         > 0);
      Alcotest.(check bool) "hot-set stats populated" true
        (result.Loadgen.hotset.Loadgen.distinct > 1);
      (* The point of the group path: one lock round covers the whole
         scheduler burst, so the mean group size must beat single-key. *)
      let m = (Live.obs cluster).Hub.metrics in
      let h = Metrics.histogram m "live.shard.group.batch" in
      Alcotest.(check bool) "group rounds happened" true
        (Metrics.histogram_count h > 0);
      Alcotest.(check bool)
        (Printf.sprintf "mean lock-round batch > 1 key (got %.2f)"
           (Metrics.histogram_mean h))
        true
        (Metrics.histogram_mean h > 1.0);
      ignore (check_shard_audit "group batching" ~min_keys:2 cluster))

(* --- opt-in soak ------------------------------------------------------ *)

(* DYNVOTE_SHARD_SOAK=1: a longer skewed run with a partition, a heal,
   and a kill/restart mid-history, audited per key at the end. *)
let test_shard_soak () =
  match Sys.getenv_opt "DYNVOTE_SHARD_SOAK" with
  | None -> ()
  | Some _ ->
      let config = { shard_config with pipeline = 4; max_reuse = 16 } in
      with_shard_cluster ~config (fun cluster ->
          let lg =
            {
              Loadgen.default with
              Loadgen.clients = 8;
              duration = 1.0;
              write_ratio = 0.4;
              keys = 512;
              zipf = 1.1;
              seed = 13;
              retries = 2;
            }
          in
          ignore (Loadgen.run cluster lg);
          Live.partition cluster [ ss [ 0; 1; 2 ]; ss [ 3 ] ];
          ignore (Loadgen.run cluster { lg with seed = 14 });
          Live.heal cluster;
          Live.kill cluster 2;
          ignore (Loadgen.run cluster { lg with seed = 15 });
          Live.restart cluster 2;
          ignore (Loadgen.run cluster { lg with seed = 16 });
          ignore (check_shard_audit "soak" ~min_keys:64 cluster))

let suite =
  [
    Alcotest.test_case "zipf: create validates its arguments" `Quick
      test_zipf_validation;
    Alcotest.test_case "zipf: mass is a distribution" `Quick test_zipf_mass;
    Alcotest.test_case "zipf: seeded sampling is deterministic" `Quick
      test_zipf_determinism;
    prop_zipf_sample_total;
    Alcotest.test_case "zipf: edge variates stay in range" `Quick
      test_zipf_sample_edge_variates;
    prop_zipf_mass_sums;
    Alcotest.test_case "zipf: single rank degenerates cleanly" `Quick
      test_zipf_single_rank;
    Alcotest.test_case "zipf: s=0 draws uniformly" `Quick test_zipf_uniform;
    Alcotest.test_case "zipf: skew concentrates on low ranks" `Quick
      test_zipf_slope;
    Alcotest.test_case "store: states and rids survive reopen" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: torn tail cut, intact records kept" `Quick
      test_store_torn_tail;
    Alcotest.test_case "store: mid-log damage surfaced" `Quick
      test_store_midlog_corruption;
    Alcotest.test_case "store: hot key compacts without forgetting" `Quick
      test_store_compaction;
    Alcotest.test_case "map: LRU bounds residency" `Quick test_map_lru;
    Alcotest.test_case "map: pinned entries never evicted" `Quick test_map_pin;
    Alcotest.test_case "map: cap validated" `Quick test_map_validation;
    Alcotest.test_case "live: keys vote independently" `Quick
      test_live_multikey;
    Alcotest.test_case "live: RECOVER refused in the sharded space" `Quick
      test_live_recover_refused;
    Alcotest.test_case "live: shard loss boots amnesiac" `Quick
      test_live_amnesia;
    Alcotest.test_case "live: struck coordinator dedups the retry" `Quick
      test_live_exactly_once_retry;
    Alcotest.test_case "live: mid-wave strike stays exactly-once" `Quick
      test_live_midwave_strike;
    Alcotest.test_case "live: a fresh group gather is not a reuse" `Quick
      test_live_fresh_gather_not_reused;
    Alcotest.test_case "live: group quorums batch under pipelining" `Quick
      test_live_group_batching;
    Alcotest.test_case "live: skewed soak (DYNVOTE_SHARD_SOAK=1)" `Slow
      test_shard_soak;
  ]
