(* Golden bytes of every persistent and wire record: the oplog's record
   kinds (keyless and keyed), the shard log's state records (unchanged,
   set None, set Some), a compaction's rid summary, the rid sidecar, and
   one wire frame per payload family.  The hex was pinned against the
   byte layouts as first shipped; a codec rewrite must reproduce it
   exactly, or old logs stop replaying and mixed-version sites stop
   talking. *)

open Helpers
module Persist = Dynvote_live.Persist
module Wire = Dynvote_live.Wire
module Shard_store = Dynvote_shard.Shard_store

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

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
      (Printf.sprintf "dynvote-golden-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_all samples expected =
  Alcotest.(check (list string)) "sample names" (List.map fst expected)
    (List.map fst samples);
  List.iter2
    (fun (name, bytes) (_, want) -> Alcotest.(check string) name want (hex bytes))
    samples expected

let rid ~client ~req = (client lsl 32) lor req

(* --- oplog ----------------------------------------------------------- *)

let oplog_samples dir =
  let path = Filename.concat dir "oplog.dvl" in
  let one record =
    (try Sys.remove path with Sys_error _ -> ());
    let log = Persist.open_log ~path () in
    Persist.append log record;
    Persist.close_log log;
    read_file path
  in
  let partition = ss [ 0; 1; 3 ] and r = rid ~client:65 ~req:7 in
  Persist.
    [
      ( "commit, keyless",
        one
          (Log_kcommit { seq = 1; key = ""; op_no = 2; version = 3; partition; rid = r })
      );
      ("intent, keyless", one (Log_kintent { seq = 2; key = ""; content = "k=v" }));
      ( "write outcome, keyless",
        one
          (Log_koutcome
             { seq = 3; key = ""; kind = `Write; granted = true; content = Some "k=v";
               rid = r }) );
      ( "read outcome, keyless",
        one
          (Log_koutcome
             { seq = 4; key = ""; kind = `Read; granted = false; content = None;
               rid = 0 }) );
      ( "commit, keyed",
        one
          (Log_kcommit
             { seq = 5; key = "alpha"; op_no = 9; version = 8; partition; rid = 0 }) );
      ("intent, keyed", one (Log_kintent { seq = 6; key = "alpha"; content = "v1" }));
      ( "read outcome, keyed",
        one
          (Log_koutcome
             { seq = 7; key = "alpha"; kind = `Read; granted = true; content = Some "v1";
               rid = r }) );
      ( "recover outcome, keyed",
        one
          (Log_koutcome
             { seq = 8; key = "alpha"; kind = `Recover; granted = true; content = None;
               rid = 0 }) );
    ]

let oplog_expected =
  [
    ( "commit, keyless",
      "3100000044564f315a00c5020001000000000000000200000000000000030000\
       00000000000b000000000000000700000041000000" );
    ( "intent, keyless",
      "1800000044564f3125018402010200000000000000030000006b3d76" );
    ( "write outcome, keyless",
      "2300000044564f3172015c0d020300000000000000010101030000006b3d7607\
       00000041000000" );
    ( "read outcome, keyless",
      "1c00000044564f31070088000204000000000000000000000000000000000000" );
    ( "commit, keyed",
      "3800000044564f313002d44b0305000000000000000500616c70686109000000\
       0000000008000000000000000b000000000000000000000000000000" );
    ( "intent, keyed",
      "1e00000044564f31bf0290140406000000000000000500616c70686102000000\
       7631" );
    ( "read outcome, keyed",
      "2900000044564f310b0366320507000000000000000500616c70686100010102\
       00000076310700000041000000" );
    ( "recover outcome, keyed",
      "2300000044564f311c02441e0508000000000000000500616c70686102010000\
       00000000000000" );
  ]

let test_oplog () = with_scratch (fun dir -> check_all (oplog_samples dir) oplog_expected)

(* --- shard logs and the rid sidecar ---------------------------------- *)

let shard_samples dir =
  let store, _ = Shard_store.open_store ~dir ~site:0 ~shards:1 () in
  let path = Filename.concat (Shard_store.shards_dir ~dir ~site:0) "shard-0.dvl" in
  let seen = ref 0 in
  let appended () =
    let data = read_file path in
    let fresh = String.sub data !seen (String.length data - !seen) in
    seen := String.length data;
    fresh
  in
  let st ~op_no ~value =
    { Shard_store.op_no; version = op_no; partition = ss [ 0; 2 ]; data_version = op_no;
      value }
  in
  Shard_store.commit store ~key:"a" ~rid:(rid ~client:64 ~req:1)
    (st ~op_no:2 ~value:(Some "v1"));
  let set_some = appended () in
  Shard_store.commit store ~key:"a" ~rid:0 (st ~op_no:3 ~value:(Some "v1"));
  let unchanged = appended () in
  Shard_store.commit store ~key:"b" ~rid:(rid ~client:64 ~req:2)
    (st ~op_no:1 ~value:None);
  let set_none = appended () in
  Shard_store.save_rids store [ (70, 5) ];
  let sidecar =
    read_file (Filename.concat (Shard_store.shards_dir ~dir ~site:0) "rids.dvr")
  in
  Shard_store.close store;
  (* A compaction rewrites a shard as one rid summary followed by the
     latest record of each key; one hot key on a fresh site keeps the
     rewritten log small. *)
  let store, _ = Shard_store.open_store ~dir ~site:1 ~shards:1 () in
  for i = 1 to 1024 do
    Shard_store.commit store ~key:"hot" ~rid:(rid ~client:66 ~req:i)
      (st ~op_no:i ~value:(Some "h"))
  done;
  let compacted =
    read_file (Filename.concat (Shard_store.shards_dir ~dir ~site:1) "shard-0.dvl")
  in
  Alcotest.(check int) "compaction ran" 1 (Shard_store.compactions store);
  Shard_store.close store;
  [
    ("state, set Some", set_some);
    ("state, unchanged", unchanged);
    ("state, set None", set_none);
    ("rids.dvr", sidecar);
    ("compacted log: rid summary + state", compacted);
  ]

let shard_expected =
  [
    ( "state, set Some",
      "3b000000445653315a01a11b0001006102000000000000000200000000000000\
       05000000000000000200000000000000020200000076310100000040000000" );
    ( "state, unchanged",
      "35000000445653317100d1110001006103000000000000000300000000000000\
       05000000000000000300000000000000000000000000000000" );
    ( "state, set None",
      "3500000044565331af005e120001006201000000000000000100000000000000\
       05000000000000000100000000000000010200000040000000" );
    ( "rids.dvr",
      "445653319000ec09020000004000000002000000000000004600000005000000\
       00000000" );
    ( "compacted log: rid summary + state",
      "19000000445653314900660301010000004200000000040000000000003c0000\
       0044565331cb01d444000300686f740004000000000000000400000000000005\
       0000000000000000040000000000000201000000680000000000000000" );
  ]

let test_shard () = with_scratch (fun dir -> check_all (shard_samples dir) shard_expected)

(* --- wire ------------------------------------------------------------ *)

let wire_samples () =
  let replica = Replica.make ~op_no:4 ~version:3 ~partition:(ss [ 1; 2 ]) in
  List.map
    (fun payload ->
      let e = { Wire.src = 2; dst = 65; payload } in
      (Wire.kind_name payload, Wire.encode e))
    Wire.
      [
        Hello_site { site = 3 };
        Hello_client;
        Welcome { id = 70 };
        Lock_reply { op = 12; granted = true };
        Client_put { req = 5; key = "k"; value = "val" };
        Client_get { req = 6; key = "k" };
        Client_recover { req = 7 };
        Client_reply { req = 5; status = Degraded; value = Some "val"; info = "fenced" };
        Abstain { round = 9 };
        KLock_request { op = 13; keys = [ "a"; "bc" ] };
        KUnlock { op = 13; keys = [ "a" ] };
        KState_request { round = 10; keys = [ "a"; "" ] };
        KState_reply { round = 10; fresh = true; states = [ ("a", replica) ] };
        KCommit
          {
            key = "a";
            op_no = 5;
            version = 4;
            partition = ss [ 0; 1; 2 ];
            value = Some "new";
            rid = rid ~client:65 ~req:5;
          };
        KData_request { round = 11; key = "a" };
        KData_reply
          { round = 11; key = "a"; version = 4; value = None; rids = [ (65, 5); (66, 1) ] };
      ]

let wire_expected =
  [
    ( "hello-site",
      "0f000000445657314700600102004100000300" );
    ( "hello-client",
      "0d000000445657314500d3000200410001" );
    ( "welcome",
      "0f000000445657318c00ec0102004100024600" );
    ( "lock-reply",
      "12000000445657315700870202004100060c00000001" );
    ( "client-put",
      "1b0000004456573106027c0b020041000b0500000001006b0300000076616c" );
    ( "client-get",
      "1400000044565731c200a603020041000c0600000001006b" );
    ( "client-recover",
      "110000004456573158003f02020041000d07000000" );
    ( "client-reply",
      "22000000445657310c04b71d020041000e0500000003010300000076616c0600\
       66656e636564" );
    ( "abstain",
      "11000000445657315c005102020041000f09000000" );
    ( "klock-request",
      "1a000000445657318c01fc0802004100100d000000020001006102006263" );
    ( "kunlock",
      "1600000044565731c500be0402004100110d0000000100010061" );
    ( "kstate-request",
      "1800000044565731c4003a0602004100120a00000002000100610000" );
    ( "kstate-reply",
      "3700000044565731d702455802004100130a000000010100010061445654310e\
       00d800040000000000000003000000000000000600000000000000" );
    ( "kcommit",
      "38000000445657315e02962f0200410014010061050000000000000004000000\
       00000000070000000000000001030000006e65770500000041000000" );
    ( "kdata-request",
      "1400000044565731c600070402004100150b000000010061" );
    ( "kdata-reply",
      "390000004456573156013a2b02004100160b0000000100610400000000000000\
       0002000000410000000500000000000000420000000100000000000000" );
  ]

let test_wire () =
  let samples = wire_samples () in
  check_all samples wire_expected;
  List.iter
    (fun (name, frame) ->
      match Wire.decode frame with
      | Ok e -> Alcotest.(check string) (name ^ " re-encodes") frame (Wire.encode e)
      | Error reason -> Alcotest.failf "%s: %s" name reason)
    samples

let suite =
  [
    Alcotest.test_case "oplog records" `Quick test_oplog;
    Alcotest.test_case "shard records and rid sidecar" `Quick test_shard;
    Alcotest.test_case "wire frames" `Quick test_wire;
  ]
