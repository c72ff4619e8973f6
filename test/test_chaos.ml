(* Chaos harness: determinism of campaigns, the published-TDV regression
   catch (with qcheck shrinking down to a minimal trace), the
   atomic-update requirement, delivery-order independence under
   duplication and delay, and the torn-stable-record recovery path. *)

open Helpers
module Harness = Dynvote_chaos.Harness
module Schedule = Dynvote_chaos.Schedule
module Oracle = Dynvote_chaos.Oracle
module Fault_plan = Dynvote_chaos.Fault_plan
module Splitmix64 = Dynvote_prng.Splitmix64

let policy name =
  match Harness.policy_of_string name with
  | Some p -> p
  | None -> Alcotest.failf "no policy %S" name

(* --- Campaign determinism --- *)

let test_determinism () =
  let campaign () =
    Harness.run_many ~policy:(policy "ldv") ~seed:99L ~schedules:60 ()
  in
  let a = campaign () and b = campaign () in
  Alcotest.(check bool) "same seed, identical summary" true (a = b);
  Alcotest.(check int) "all schedules ran" 60 a.Harness.schedules;
  Alcotest.(check bool) "campaign did real work" true (a.Harness.granted > 0);
  let c = Harness.run_many ~policy:(policy "ldv") ~seed:100L ~schedules:60 () in
  Alcotest.(check bool) "different seed, different campaign" true (a <> c)

let test_safe_policies_hold () =
  List.iter
    (fun p ->
      let s = Harness.run_many ~policy:p ~seed:11L ~schedules:120 () in
      if p.Harness.expect_safe then
        Alcotest.(check int)
          (p.Harness.name ^ " has no violations")
          0 s.Harness.failures;
      Alcotest.(check bool) (p.Harness.name ^ " verdict ok") true
        (Harness.verdict_ok s))
    Harness.policies

(* --- The regression catch: TDV as published is unsafe --- *)

(* Two sites on one segment: the smallest universe where a stale site can
   claim its partner's vote.  Integer codes stay below 96 so every value
   decodes to a step with detail 0..3 — the space qcheck shrinks in. *)
let two_sites flavor =
  {
    (Harness.default_config ~flavor ()) with
    Harness.universe = Site_set.of_list [ 0; 1 ];
    segment_of = (fun _ -> 0);
  }

let no_violations flavor codes =
  (Harness.run_ints (two_sites flavor) codes).Harness.violations = []

let schedule_codes = Generators.schedule_codes

let test_tdv_hole_caught () =
  let cell =
    QCheck.Test.make ~count:500 ~name:"tdv (as published) is safe"
      schedule_codes
      (no_violations Decision.tdv_flavor)
  in
  match QCheck.Test.check_exn ~rand:(Random.State.make [| 0x7d7 |]) cell with
  | () -> Alcotest.fail "harness failed to catch the published TDV hole"
  | exception QCheck.Test.Test_fail (_, counterexamples) ->
      Alcotest.(check bool) "shrunk counterexample reported" true
        (counterexamples <> [])

(* The shrunk trace the generator converges to: crash a site, advance the
   survivor past it (claiming the crashed vote), crash the survivor,
   restart the stale site — which now claims the *other* vote with stale
   knowledge and re-issues the same generation. *)
let minimal_trace = [ 13; 0; 12; 17; 1 ]
(* = [crash 1; write@0; crash 0; restart 1; write@1] at two sites *)

let test_minimal_trace_trips_tdv () =
  let r = Harness.run_ints (two_sites Decision.tdv_flavor) minimal_trace in
  Alcotest.(check bool) "generation conflict found" true
    (List.exists
       (function Oracle.Generation_conflict _ -> true | _ -> false)
       r.Harness.violations);
  Alcotest.(check bool) "content fork found" true
    (List.exists
       (function Oracle.Content_fork _ -> true | _ -> false)
       r.Harness.violations)

let prop_tdv_safe_survives =
  qcheck_case ~count:500 ~name:"tdv-safe survives the tdv-killing generator"
    schedule_codes
    (no_violations Decision.tdv_safe_flavor)

let test_minimal_trace_safe_for_corrected () =
  List.iter
    (fun flavor ->
      let r = Harness.run_ints (two_sites flavor) minimal_trace in
      Alcotest.(check int) "no violations" 0 (List.length r.Harness.violations))
    [ Decision.dv_flavor; Decision.ldv_flavor; Decision.tdv_safe_flavor ]

(* --- The atomic-update requirement --- *)

(* Tear a commit wave in half: partition {0,1,2}, write there with the
   coordinator killed mid-commit, heal, lose the one surviving applier —
   the remaining majority of the *old* partition knows nothing of the
   half-committed operation and re-issues its generation number.  The
   paper avoids this by making update operations atomic; the harness
   reproduces it the moment that assumption is dropped. *)
let mid_commit_steps crash_site =
  Schedule.
    [ Partition 0b00111; Crash_coordinator 0; Heal; Crash crash_site; Write 3 ]

let test_mid_commit_splits_brain () =
  let unsafe =
    {
      (Harness.default_config ()) with
      Harness.crash_point = `Mid_commit;
      expose_commits = true;
    }
  in
  List.iter
    (fun crash_site ->
      let r, _ =
        Harness.run unsafe
          { Schedule.steps = mid_commit_steps crash_site; faults = Fault_plan.silent }
      in
      Alcotest.(check bool) "generation committed twice" true
        (List.exists
           (function Oracle.Generation_conflict _ -> true | _ -> false)
           r.Harness.violations))
    [ 1; 2 ]

let test_after_decide_crash_is_safe () =
  (* Same schedule under the paper's model (atomic updates, coordinator
     crashes only ever abort): nothing to flag. *)
  List.iter
    (fun crash_site ->
      let r, _ =
        Harness.run (Harness.default_config ())
          { Schedule.steps = mid_commit_steps crash_site; faults = Fault_plan.silent }
      in
      Alcotest.(check int) "no violations" 0 (List.length r.Harness.violations))
    [ 1; 2 ]

(* --- Delivery-order independence (duplication + delay only) --- *)

(* Duplicated and reordered-but-bounded delivery must be invisible:
   commit installation is idempotent and gathers are round-tagged, so a
   faulty run's operation log matches the fault-free run step for step. *)
let dup_delay_faults =
  { Fault_plan.silent with Fault_plan.duplicate = 0.3; delay = 0.4; delay_bound = 0.05 }

let prop_dup_delay_invisible =
  qcheck_case ~count:250 ~name:"duplication+delay do not change outcomes"
    QCheck.(
      pair (int_range 0 1_000_000)
        (list_of_size Gen.(int_range 5 20) (int_range 0 245_759)))
    (fun (seed, codes) ->
      let config = Harness.default_config () in
      let rng () = Splitmix64.create (Int64.of_int seed) in
      let clean = Harness.run_ints ~rng:(rng ()) config codes in
      let noisy =
        Harness.run_ints ~rng:(rng ()) ~faults:dup_delay_faults config codes
      in
      clean.Harness.op_log = noisy.Harness.op_log
      && clean.Harness.violations = [] && noisy.Harness.violations = [])

(* --- Torn stable records: fuzz the codec, then recover through it --- *)

let codec_sample = Replica.make ~op_no:7 ~version:5 ~partition:(ss [ 0; 1; 2 ])

let prop_decode_total_on_junk =
  qcheck_case ~count:500 ~name:"decode_result never raises on junk"
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun junk ->
      match Codec.decode_result junk with Ok _ | Error _ -> true)

let prop_mutations_rejected =
  qcheck_case ~count:500 ~name:"truncated/flipped/zeroed records decode to Error"
    QCheck.(triple (int_range 0 2) small_nat small_nat)
    (fun (kind, a, b) ->
      let encoded = Codec.encode_replica codec_sample in
      let mutated =
        match kind with
        | 0 -> String.sub encoded 0 (a mod String.length encoded)
        | 1 ->
            let bytes = Bytes.of_string encoded in
            let i = a mod Bytes.length bytes in
            Bytes.set bytes i
              (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (b mod 8))));
            Bytes.to_string bytes
        | _ -> ""
      in
      match Codec.decode_result mutated with Error _ -> true | Ok _ -> false)

let test_corrupt_record_recovery () =
  (* A crash tears the stable record; the restarted site must come back
     amnesiac (a silent non-voter), reintegrate through RECOVER, and then
     serve operations — all without tripping the oracle. *)
  List.iter
    (fun corruption ->
      let steps =
        Schedule.
          [
            Write 0;
            Crash 1;
            Restart (1, Some corruption);
            Recover 1;
            Write 1;
            Read 1;
          ]
      in
      let r, _ =
        Harness.run (Harness.default_config ())
          { Schedule.steps; faults = Fault_plan.silent }
      in
      Alcotest.(check int)
        (Schedule.corruption_name corruption ^ ": no violations")
        0
        (List.length r.Harness.violations);
      Alcotest.(check int)
        (Schedule.corruption_name corruption ^ ": one record corrupted")
        1 r.Harness.corrupted;
      match List.rev r.Harness.op_log with
      | (Schedule.Read 1, true, Some content) :: _ ->
          Alcotest.(check string)
            (Schedule.corruption_name corruption ^ ": read sees last write")
            "w2" content
      | _ -> Alcotest.fail "final read at the recovered site was not granted")
    [ Schedule.Truncate; Schedule.Bit_flip; Schedule.Zero ]

(* The parallel checker's domains all write through one harness: the
   interned write contents must be safe to read from several domains at
   once, interned range and beyond. *)
let test_write_content_domains () =
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for round = 0 to 200 do
              for n = 0 to 1_100 do
                let n = (n + (d * 37) + round) mod 1_500 in
                if Harness.write_content n <> Printf.sprintf "w%d" n then ok := false
              done
            done;
            !ok))
  in
  Alcotest.(check bool) "every domain reads w<n>" true
    (List.for_all Fun.id (List.map Domain.join domains))

let suite =
  [
    Alcotest.test_case "campaigns are deterministic" `Quick test_determinism;
    Alcotest.test_case "safe policies hold under chaos" `Quick test_safe_policies_hold;
    Alcotest.test_case "published tdv hole is caught" `Quick test_tdv_hole_caught;
    Alcotest.test_case "minimal trace trips tdv" `Quick test_minimal_trace_trips_tdv;
    prop_tdv_safe_survives;
    Alcotest.test_case "minimal trace safe for corrected flavors" `Quick
      test_minimal_trace_safe_for_corrected;
    Alcotest.test_case "mid-commit crash splits the brain" `Quick
      test_mid_commit_splits_brain;
    Alcotest.test_case "after-decide crash is safe" `Quick
      test_after_decide_crash_is_safe;
    prop_dup_delay_invisible;
    prop_decode_total_on_junk;
    prop_mutations_rejected;
    Alcotest.test_case "corrupt record -> amnesia -> recover" `Quick
      test_corrupt_record_recovery;
    Alcotest.test_case "write contents are domain-safe" `Quick
      test_write_content_domains;
  ]
