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

(* The C kernel against the OCaml loop it replaced (adler_ref.ml):
   random offsets and lengths up to three summing blocks and a byte
   (16,657), the lengths at each block edge among them, over bytes that
   are random, all 0xff (the largest sums a block can reach), or random
   with 0xff runs. *)
let adler_case =
  let edges = [ 0; 1; 15; 16; 17; 5551; 5552; 5553; 11104; 11105; 16656; 16657 ] in
  QCheck.make
    ~print:(fun (fill, off, len, seed) ->
      Printf.sprintf "fill %d, off %d, len %d, seed %d" fill off len seed)
    QCheck.Gen.(
      quad (int_range 0 2) (int_range 0 64)
        (oneof [ int_range 0 16_657; oneofl edges ])
        (int_bound 1_000_000))

let prop_adler32_matches_reference =
  qcheck_case ~count:300 ~name:"adler32 matches the OCaml reference" adler_case
    (fun (fill, off, len, seed) ->
      let rand = Random.State.make [| seed |] in
      let bytes =
        Bytes.init (off + len + Random.State.int rand 8) (fun i ->
            match fill with
            | 0 -> '\xff'
            | 1 -> Char.chr (Random.State.int rand 256)
            | _ ->
                if i / 700 mod 2 = 0 then '\xff' else Char.chr (Random.State.int rand 256))
      in
      Codec.adler32 bytes ~off ~len = Adler_ref.adler32 bytes ~off ~len)

let test_adler32_range () =
  let bytes = Bytes.make 16 'x' in
  List.iter
    (fun (off, len) ->
      match Codec.adler32 bytes ~off ~len with
      | _ -> Alcotest.failf "off %d, len %d accepted over 16 bytes" off len
      | exception Invalid_argument _ -> ())
    [ (0, 17); (1, 16); (16, 1); (17, 0); (-1, 1); (0, -1); (max_int, 1); (1, max_int) ];
  Alcotest.(check int) "empty range at the end" 1 (Codec.adler32 bytes ~off:16 ~len:0);
  Alcotest.(check int) "whole buffer" (Adler_ref.adler32 bytes ~off:0 ~len:16)
    (Codec.adler32 bytes ~off:0 ~len:16)

let suite =
  [
    Alcotest.test_case "round trip" `Quick test_roundtrip;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "file persistence" `Quick test_file_persistence;
    prop_roundtrip;
    prop_single_bit_flips_detected;
    prop_adler32_matches_reference;
    Alcotest.test_case "adler32 rejects a range past the end" `Quick test_adler32_range;
  ]
