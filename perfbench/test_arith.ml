(* The benchmark's own arithmetic. *)

let sorted n = Array.init n float_of_int
let opt = Alcotest.(option (float 0.0))
let close = Alcotest.float 1e-12

let test_tail_percentile () =
  (* p99 of 1,000 samples has exactly 10 beyond it; one sample fewer and
     it is withheld. *)
  Alcotest.check opt "p99 of 1000" (Some 989.0) (Arith.percentile (sorted 1000) 0.99);
  Alcotest.check opt "p99 of 999" None (Arith.percentile (sorted 999) 0.99);
  Alcotest.check opt "p50 of 19" None (Arith.percentile (sorted 19) 0.5);
  Alcotest.check opt "p50 of 20" (Some 9.0) (Arith.percentile (sorted 20) 0.5);
  Alcotest.check opt "empty" None (Arith.percentile [||] 0.5);
  Alcotest.check opt "median of one, no tail rule" (Some 0.0)
    (Arith.percentile ~min_beyond:0 (sorted 1) 0.5)

let test_median () =
  Alcotest.check close "odd" 2.0 (Arith.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Arith.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Arith.median []))

let test_at_reference () =
  (* Work and kernel both twice as slow as the reference: unchanged. *)
  Alcotest.check close "slow host" 0.5 (Arith.at_reference 1.0 (2.0 *. Arith.reference_s));
  Alcotest.check close "reference host" 0.5 (Arith.at_reference 0.5 Arith.reference_s);
  (* The work alone 10% faster: 10% less. *)
  Alcotest.check close "faster code" 0.45 (Arith.at_reference 0.45 Arith.reference_s)

let test_failed_share () =
  (* Denied + aborted + degraded over every operation issued, not over
     the granted ones. *)
  let issued = 200 and denied = 1 and aborted = 1 and degraded = 1 in
  Alcotest.check close "over issued" 0.015
    (Arith.failed_share ~attempted:issued ~failed:(denied + aborted + degraded));
  Alcotest.check close "none failed" 0.0 (Arith.failed_share ~attempted:5 ~failed:0);
  Alcotest.(check bool) "nothing attempted is nan" true
    (Float.is_nan (Arith.failed_share ~attempted:0 ~failed:0))

let test_per_op () =
  Alcotest.check close "ratio" 2.5 (Arith.per 5 2);
  Alcotest.(check bool) "nothing granted is nan" true (Float.is_nan (Arith.per 7 0));
  Alcotest.(check bool) "float, nothing granted" true (Float.is_nan (Arith.per_f 7.0 0.0))

let test_shares () =
  let parts = [ ("a", 0.31); ("b", 1.7); ("c", 0.0); ("d", 0.05) ] in
  let check total =
    let named, other = Arith.shares ~total parts in
    Alcotest.(check int) "one share per part" 4 (List.length named);
    Alcotest.check close "shares plus remainder" 1.0
      (List.fold_left (fun acc (_, s) -> acc +. s) other named)
  in
  check 4.2;
  (* Parts that overrun the total leave a negative remainder, shown as is. *)
  check 1.0;
  let _, other = Arith.shares ~total:1.0 parts in
  Alcotest.(check bool) "overrun is negative" true (other < 0.0)

let test_result_line () =
  Alcotest.(check string) "keys and null"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": \
     {\"value\": 1.5, \"unit\": \"ms\"}, \"y\": {\"value\": null, \"unit\": \"1/s\"}}}"
    (Arith.result_line ~correct:true ~attempted:3 ~failed:0
       [ Arith.metric "x_ms" "ms" 1.5; Arith.metric "y" "1/s" nan ])

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "tail percentile needs 10 beyond" `Quick test_tail_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "time at the reference speed" `Quick test_at_reference;
          Alcotest.test_case "failed_share denominator" `Quick test_failed_share;
          Alcotest.test_case "per-op ratio of nothing is nan" `Quick test_per_op;
          Alcotest.test_case "shares plus remainder sum to 1" `Quick test_shares;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
