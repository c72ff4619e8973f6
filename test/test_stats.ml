(* Statistics: Welford accumulators, Student-t table and batch
   means. *)

open Helpers
module Welford = Dynvote_stats.Welford
module Student_t = Dynvote_stats.Student_t
module Batch_means = Dynvote_stats.Batch_means

let test_welford_against_direct () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  let w = Welford.create () in
  List.iter (Welford.add w) xs;
  check_float "mean" 5.0 (Welford.mean w);
  (* Direct two-pass: sum of squared deviations = 32; n-1 = 7. *)
  check_float_tol 1e-9 "variance" (32.0 /. 7.0) (Welford.variance w);
  check_float "min" 2.0 (Welford.min_value w);
  check_float "max" 9.0 (Welford.max_value w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let test_welford_empty_and_single () =
  let w = Welford.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Welford.mean w));
  Welford.add w 3.0;
  check_float "single mean" 3.0 (Welford.mean w);
  Alcotest.(check bool) "single variance is nan" true (Float.is_nan (Welford.variance w))

let test_welford_merge () =
  let xs = List.init 100 (fun i -> float_of_int i *. 0.37) in
  let all = Welford.create () and left = Welford.create () and right = Welford.create () in
  List.iteri
    (fun i x ->
      Welford.add all x;
      if i < 40 then Welford.add left x else Welford.add right x)
    xs;
  let merged = Welford.merge left right in
  check_float_tol 1e-9 "merged mean" (Welford.mean all) (Welford.mean merged);
  check_float_tol 1e-9 "merged variance" (Welford.variance all) (Welford.variance merged);
  Alcotest.(check int) "merged count" 100 (Welford.count merged)

let test_welford_numerical_stability () =
  (* Large offset: naive sum-of-squares would lose all precision. *)
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1e9 +. 4.0; 1e9 +. 7.0; 1e9 +. 13.0; 1e9 +. 16.0 ];
  check_float_tol 1e-6 "variance with large offset" 30.0 (Welford.variance w)

let test_student_t_values () =
  check_float_tol 1e-3 "df=1" 12.706 (Student_t.critical_975 1);
  check_float_tol 1e-3 "df=10" 2.228 (Student_t.critical_975 10);
  check_float_tol 1e-3 "df=30" 2.042 (Student_t.critical_975 30);
  check_float_tol 0.01 "df=60" 2.000 (Student_t.critical_975 60);
  check_float_tol 0.01 "df large ~ normal" 1.96 (Student_t.critical_975 10_000);
  check_float_tol 1e-3 "99% df=5" 4.032 (Student_t.critical_995 5);
  Alcotest.check_raises "df=0" (Invalid_argument "Student_t: degrees of freedom must be >= 1")
    (fun () -> ignore (Student_t.critical_975 0))

let test_student_t_monotone () =
  (* Critical values decrease with df. *)
  let prev = ref infinity in
  for df = 1 to 200 do
    let v = Student_t.critical_975 df in
    if v > !prev +. 1e-9 then Alcotest.failf "not monotone at df=%d" df;
    prev := v
  done

let test_batch_means_interval () =
  let b = Batch_means.create ~batch_length:100.0 in
  List.iter (Batch_means.add_batch b) [ 0.10; 0.12; 0.08; 0.11; 0.09 ];
  let iv = Batch_means.interval b in
  check_float_tol 1e-9 "mean" 0.10 iv.Batch_means.mean;
  (* s = sqrt(0.00025/1... deviations: 0, .02, -.02, .01, -.01 -> ss=0.001;
     var = 0.001/4 = 0.00025; se = sqrt(var/5); t(4, .975) = 2.776. *)
  let se = sqrt (0.00025 /. 5.0) in
  check_float_tol 1e-6 "half width" (2.776 *. se) iv.Batch_means.half_width;
  Alcotest.(check int) "batches" 5 iv.Batch_means.batches;
  check_float_tol 1e-9 "bounds" iv.Batch_means.mean
    ((iv.Batch_means.lower +. iv.Batch_means.upper) /. 2.0)

let test_batch_means_few_batches () =
  let b = Batch_means.create ~batch_length:10.0 in
  Batch_means.add_batch b 0.5;
  let iv = Batch_means.interval b in
  check_float "single batch mean" 0.5 iv.Batch_means.mean;
  Alcotest.(check bool) "half width nan" true (Float.is_nan iv.Batch_means.half_width)

let test_batch_means_autocorrelation () =
  let b = Batch_means.create ~batch_length:1.0 in
  (* Alternating series: strong negative lag-1 correlation. *)
  List.iter (Batch_means.add_batch b) [ 1.0; 0.0; 1.0; 0.0; 1.0; 0.0; 1.0; 0.0 ];
  Alcotest.(check bool) "negative lag-1" true (Batch_means.lag1_autocorrelation b < -0.5);
  let c = Batch_means.create ~batch_length:1.0 in
  (* Constant series: autocorrelation 0 by convention (zero variance). *)
  List.iter (Batch_means.add_batch c) [ 0.3; 0.3; 0.3; 0.3 ];
  check_float "constant series" 0.0 (Batch_means.lag1_autocorrelation c)

let test_batch_means_validation () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Batch_means.create: batch_length must be positive") (fun () ->
      ignore (Batch_means.create ~batch_length:0.0))

let prop_welford_matches_two_pass =
  qcheck_case ~count:200 ~name:"welford matches two-pass computation"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let w = Welford.create () in
      List.iter (Welford.add w) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      within ~tolerance:(1e-6 *. (1.0 +. Float.abs mean)) mean (Welford.mean w)
      && within ~tolerance:(1e-6 *. (1.0 +. var)) var (Welford.variance w))

let suite =
  [
    Alcotest.test_case "welford vs direct" `Quick test_welford_against_direct;
    Alcotest.test_case "welford empty/single" `Quick test_welford_empty_and_single;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "welford stability" `Quick test_welford_numerical_stability;
    Alcotest.test_case "student-t values" `Quick test_student_t_values;
    Alcotest.test_case "student-t monotone" `Quick test_student_t_monotone;
    Alcotest.test_case "batch-means interval" `Quick test_batch_means_interval;
    Alcotest.test_case "batch-means few batches" `Quick test_batch_means_few_batches;
    Alcotest.test_case "batch-means autocorrelation" `Quick test_batch_means_autocorrelation;
    Alcotest.test_case "batch-means validation" `Quick test_batch_means_validation;
    prop_welford_matches_two_pass;
  ]
