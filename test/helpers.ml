(* Shared test utilities. *)

let ss sites = Site_set.of_list sites

let set_testable = Alcotest.testable Site_set.pp Site_set.equal

let replica_testable = Alcotest.testable Replica.pp Replica.equal

let verdict_testable =
  Alcotest.testable Decision.pp_verdict (fun a b ->
      match (a, b) with
      | Decision.Granted x, Decision.Granted y ->
          Site_set.equal x.Decision.q y.Decision.q
          && Site_set.equal x.Decision.s y.Decision.s
          && Site_set.equal x.Decision.p_m y.Decision.p_m
      | Decision.Denied x, Decision.Denied y -> x = y
      | _ -> false)

(* Build a replica-state array over [n] sites; [specs] gives (site, o, v,
   partition-as-list); unspecified sites keep the initial state over the
   given universe. *)
let states ?(n = 8) ~universe specs =
  let arr = Array.make n (Replica.initial (ss universe)) in
  List.iter
    (fun (site, o, v, partition) ->
      arr.(site) <- Replica.make ~op_no:o ~version:v ~partition:(ss partition))
    specs;
  arr

let check_float = Alcotest.check (Alcotest.float 1e-9)

let check_float_tol tol = Alcotest.check (Alcotest.float tol)

let within ~tolerance expected actual =
  Float.abs (expected -. actual) <= tolerance

(* Relative closeness for stochastic comparisons. *)
let close_rel ~rel expected actual =
  if expected = 0.0 then Float.abs actual <= rel
  else Float.abs (actual -. expected) /. Float.abs expected <= rel

(* Minor words allocated over [calls] calls of [f] (a closure built
   before the count starts). *)
let minor_words ~calls f =
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  Gc.minor_words () -. before

let qcheck_case ?(count = 200) ~name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* A fresh temp directory for [f], removed afterwards whatever [f] does. *)
let with_scratch f =
  let dir = Dynvote_live.Cluster.temp_dir "dynvote-test" in
  Fun.protect ~finally:(fun () -> Dynvote_live.Cluster.remove_dir dir) (fun () -> f dir)
