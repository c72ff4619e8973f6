(* Stable-storage codec: round trips, corruption detection, atomic file
   persistence. *)

open Helpers

let sample = Replica.make ~op_no:42 ~version:17 ~partition:(ss [ 0; 2; 5; 61 ])

let test_roundtrip () =
  let encoded = Codec.encode_replica sample in
  Alcotest.(check int) "record size" Codec.encoded_size (String.length encoded);
  Alcotest.check replica_testable "round trip" sample (Codec.decode_replica encoded)

let test_corruption_detected () =
  let encoded = Bytes.of_string (Codec.encode_replica sample) in
  (* Flip one payload byte: checksum must catch it. *)
  Bytes.set encoded 10 (Char.chr (Char.code (Bytes.get encoded 10) lxor 0xFF));
  (match Codec.decode_replica (Bytes.to_string encoded) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupted record accepted");
  (* Wrong magic. *)
  let encoded = Bytes.of_string (Codec.encode_replica sample) in
  Bytes.set encoded 0 'X';
  (match Codec.decode_replica (Bytes.to_string encoded) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Truncated. *)
  match Codec.decode_replica "short" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated record accepted"

let test_file_persistence () =
  let path = Filename.temp_file "dynvote" ".state" in
  let load () =
    match Codec.read_file_result ~path () with
    | Ok data -> Codec.decode_replica data
    | Error reason -> Alcotest.fail reason
  in
  Codec.write_file_atomic ~path (Codec.encode_replica sample);
  Alcotest.check replica_testable "load after save" sample (load ());
  (* Overwrite with a newer state; the latest wins. *)
  let newer = Replica.make ~op_no:43 ~version:18 ~partition:(ss [ 0; 2 ]) in
  Codec.write_file_atomic ~path (Codec.encode_replica newer);
  Alcotest.check replica_testable "latest state" newer (load ());
  Sys.remove path;
  match Codec.read_file_result ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file read"

let prop_roundtrip =
  qcheck_case ~count:300 ~name:"encode/decode round trip"
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 1_000_000)
              (list_of_size (Gen.int_range 0 10) (int_range 0 61)))
    (fun (op_no, version, sites) ->
      let replica =
        Replica.make ~op_no ~version ~partition:(Site_set.of_list sites)
      in
      Replica.equal replica (Codec.decode_replica (Codec.encode_replica replica)))

let prop_single_bit_flips_detected =
  qcheck_case ~count:200 ~name:"any payload bit flip is detected"
    QCheck.(pair (int_range 8 31) (int_range 0 7))
    (fun (byte_index, bit) ->
      let encoded = Bytes.of_string (Codec.encode_replica sample) in
      Bytes.set encoded byte_index
        (Char.chr (Char.code (Bytes.get encoded byte_index) lxor (1 lsl bit)));
      match Codec.decode_replica (Bytes.to_string encoded) with
      | exception Codec.Corrupt _ -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "round trip" `Quick test_roundtrip;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "file persistence" `Quick test_file_persistence;
    prop_roundtrip;
    prop_single_bit_flips_detected;
  ]
