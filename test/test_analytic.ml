(* Analytic models: the CTMC solver, closed forms, and the exact Markov
   model of dynamic voting — including cross-validation against the
   discrete-event simulator. *)

open Helpers
module Ctmc = Dynvote_analytic.Ctmc
module Kofn = Dynvote_analytic.Kofn
module Voting_model = Dynvote_analytic.Voting_model
module Site_spec = Dynvote_failures.Site_spec
module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config

(* --- CTMC --- *)

let test_ctmc_two_state () =
  (* Up/down machine: fail rate l, repair rate m; availability m/(l+m). *)
  let l = 0.3 and m = 1.7 in
  let chain =
    Ctmc.explore ~initial:`Up
      ~transitions:(function `Up -> [ (l, `Down) ] | `Down -> [ (m, `Up) ])
      ()
  in
  Alcotest.(check int) "two states" 2 (Ctmc.n_states chain);
  check_float_tol 1e-12 "availability" (m /. (l +. m)) (Ctmc.probability chain `Up);
  check_float_tol 1e-12 "mass sums to one" 1.0 (Ctmc.mass chain (fun _ -> true))

let test_ctmc_birth_death () =
  (* M/M/1/3 queue: arrivals 1.0, service 2.0, capacity 3.
     pi_k = (1/2)^k * pi_0. *)
  let chain =
    Ctmc.explore ~initial:0
      ~transitions:(fun k ->
        (if k < 3 then [ (1.0, k + 1) ] else []) @ if k > 0 then [ (2.0, k - 1) ] else [])
      ()
  in
  let pi0 = 1.0 /. (1.0 +. 0.5 +. 0.25 +. 0.125) in
  check_float_tol 1e-12 "pi_0" pi0 (Ctmc.probability chain 0);
  check_float_tol 1e-12 "pi_3" (pi0 *. 0.125) (Ctmc.probability chain 3)

let test_ctmc_validation () =
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Ctmc.explore: rates must be finite and non-negative") (fun () ->
          ignore (Ctmc.explore ~initial:0 ~transitions:(fun _ -> [ (rate, 1) ]) ())))
    [ -1.0; Float.nan; Float.infinity ]

let test_ctmc_hitting_time () =
  (* Two-state machine: expected time from Up to Down is 1/l. *)
  let l = 0.25 and m = 3.0 in
  let transitions = function `Up -> [ (l, `Down) ] | `Down -> [ (m, `Up) ] in
  let hitting_time initial =
    Ctmc.expected_hitting_time (Ctmc.explore ~initial ~transitions ()) ~target:(fun s ->
        s = `Down)
  in
  check_float_tol 1e-9 "up -> down" (1.0 /. l) (hitting_time `Up);
  check_float "already there" 0.0 (hitting_time `Down)

let test_ctmc_hitting_time_birth_death () =
  (* Pure birth chain 0 -> 1 -> 2 with rate 2: expected time to 2 is 1. *)
  let transitions k = if k < 2 then [ (2.0, k + 1) ] else [] in
  check_float_tol 1e-9 "two steps of mean 1/2" 1.0
    (Ctmc.expected_hitting_time (Ctmc.explore ~initial:0 ~transitions ()) ~target:(fun k ->
         k = 2));
  (* With a backward edge the time lengthens. *)
  let transitions k =
    (if k < 2 then [ (2.0, k + 1) ] else []) @ if k = 1 then [ (2.0, 0) ] else []
  in
  (* From 1: rate 4 total, half restart: h1 = 1/4 + (1/2) h0; h0 = 1/2 + h1
     => h0 = 1/2 + 1/4 + h0/2 => h0 = 3/2. *)
  check_float_tol 1e-9 "with regression" 1.5
    (Ctmc.expected_hitting_time (Ctmc.explore ~initial:0 ~transitions ()) ~target:(fun k ->
         k = 2))

let test_ctmc_max_states () =
  (* A 100-state birth-death chain against a bound of 10 states: the walk,
     the one entry point every query goes through, refuses it, and within
     the bound it still solves. *)
  let transitions k =
    (if k < 99 then [ (1.0, k + 1) ] else []) @ if k > 0 then [ (2.0, k - 1) ] else []
  in
  Alcotest.check_raises "Ctmc.explore" (Failure "Ctmc.explore: state space too large")
    (fun () -> ignore (Ctmc.explore ~max_states:10 ~initial:0 ~transitions ()));
  let chain = Ctmc.explore ~max_states:100 ~initial:0 ~transitions () in
  Alcotest.(check int) "100 states within a bound of 100" 100 (Ctmc.n_states chain);
  Alcotest.(check bool) "and it solves" true (Ctmc.probability chain 99 > 0.0)

(* A birth–death chain 0..k: up at [up], down at [down]. *)
let birth_death ~up ~down ~k i =
  (if i < k then [ (up, i + 1) ] else []) @ if i > 0 then [ (down, i - 1) ] else []

let test_ctmc_one_walk () =
  (* Every question is a query on the walked chain: after the walk, the
     stationary law, the passage time, a flux and R at two horizons ask
     no state for its transitions again. *)
  let asked = Hashtbl.create 8 in
  let transitions i =
    Hashtbl.replace asked i (1 + Option.value ~default:0 (Hashtbl.find_opt asked i));
    birth_death ~up:1.0 ~down:2.0 ~k:4 i
  in
  let chain = Ctmc.explore ~initial:0 ~transitions () in
  let target i = i = 4 in
  ignore (Ctmc.probability chain 0);
  ignore (Ctmc.expected_hitting_time chain ~target);
  ignore (Ctmc.flux chain ~target);
  ignore (Ctmc.survival chain ~target ~times:[ 1.0; 10.0 ]);
  Alcotest.(check (list (pair int int))) "each state asked once"
    (List.init 5 (fun i -> (i, 1)))
    (List.sort compare (List.of_seq (Hashtbl.to_seq asked)))

let test_ctmc_tail_state () =
  (* pi_4 is 1e-12 of pi_0: the solver keeps it accurate relative to
     itself, where an elimination accurate relative to 1 is off in the
     seventh digit. *)
  let chain = Ctmc.explore ~initial:0 ~transitions:(birth_death ~up:1e-3 ~down:1.0 ~k:4) () in
  let expected = 1e-12 /. (1.0 +. 1e-3 +. 1e-6 +. 1e-9 +. 1e-12) in
  let pi4 = Ctmc.probability chain 4 in
  if not (close_rel ~rel:1e-9 expected pi4) then
    Alcotest.failf "pi_4 = %.17g, expected %.17g" pi4 expected

let test_ctmc_rare_target () =
  (* Target 6 of a chain pulled back ten times harder than it climbs: the
     mean time to climb from i to i+1 is t_0 = 1/up, t_i = (1 + down
     t_(i-1)) / up, and the passage 0 -> 6 takes their sum, 123,456.
     Gauss–Seidel on the first-passage equations needs 2.2 million sweeps
     here and stops 1e-8 short; the regenerative solve needs a few dozen. *)
  let up = 1.0 and down = 10.0 and k = 6 in
  let expected = ref 0.0 and climb = ref 0.0 in
  for i = 0 to k - 1 do
    climb := if i = 0 then 1.0 /. up else (1.0 +. (down *. !climb)) /. up;
    expected := !expected +. !climb
  done;
  let mttf =
    Ctmc.expected_hitting_time
      (Ctmc.explore ~initial:0 ~transitions:(birth_death ~up ~down ~k) ())
      ~target:(fun i -> i = k)
  in
  if not (close_rel ~rel:1e-9 !expected mttf) then
    Alcotest.failf "MTTF %.17g, expected %.17g" mttf !expected

let test_ctmc_unreachable_target () =
  (* No edge enters the target, or a state that cannot leave is reached
     first with positive probability: either way the passage is never
     sure to end. *)
  let transitions = function `Up -> [ (1.0, `Down) ] | _ -> [ (2.0, `Up) ] in
  check_float "no edge into the target" infinity
    (Ctmc.expected_hitting_time (Ctmc.explore ~initial:`Up ~transitions ()) ~target:(fun s ->
         s = `Gone));
  let transitions = function 0 -> [ (1.0, 1); (1.0, 2) ] | _ -> [] in
  let chain = Ctmc.explore ~initial:0 ~transitions () in
  check_float "a trap beside the target" infinity
    (Ctmc.expected_hitting_time chain ~target:(fun s -> s = 2));
  Alcotest.check_raises "a reducible chain has no stationary distribution"
    (Failure "Ctmc: reducible chain") (fun () -> ignore (Ctmc.probability chain 0))

(* A random chain on 0..n-1: a ring i -> i+1 keeps it irreducible, and
   each other edge is present with probability 1/2; rates in [0.1, 3]. *)
let random_chain rng =
  let module Rng = Dynvote_prng.Rng in
  let n = 2 + Rng.int rng 7 in
  let rates = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j = (i + 1) mod n || (i <> j && Rng.int rng 2 = 0) then
        rates.(i).(j) <- Rng.uniform rng ~lo:0.1 ~hi:3.0
    done
  done;
  let transitions i =
    List.filter_map
      (fun j -> if rates.(i).(j) > 0.0 then Some (rates.(i).(j), j) else None)
      (List.init n Fun.id)
  in
  (n, rates, transitions)

let exit_rate rates i = Array.fold_left ( +. ) 0.0 rates.(i)

let test_ctmc_random_balance () =
  (* Every state's outflow pi_j q_j equals its inflow sum_i pi_i q_ij, and
     the probabilities sum to one. *)
  let rng = Dynvote_prng.Rng.create ~seed:21L () in
  for _ = 1 to 20 do
    let n, rates, transitions = random_chain rng in
    let chain = Ctmc.explore ~initial:0 ~transitions () in
    Alcotest.(check int) "every state reached" n (Ctmc.n_states chain);
    let pi = Array.init n (Ctmc.probability chain) in
    check_float_tol 1e-12 "mass sums to one" 1.0 (Array.fold_left ( +. ) 0.0 pi);
    for j = 0 to n - 1 do
      let outflow = pi.(j) *. exit_rate rates j in
      let inflow = ref 0.0 in
      for i = 0 to n - 1 do
        inflow := !inflow +. (pi.(i) *. rates.(i).(j))
      done;
      if not (close_rel ~rel:1e-9 outflow !inflow) then
        Alcotest.failf "%d states, state %d: outflow %.17g, inflow %.17g" n j outflow !inflow
    done
  done

let test_ctmc_random_passage () =
  (* The mean passage times h_i to the last state solve the first-passage
     equations q_i h_i = 1 + sum_j q_ij h_j (h = 0 at the target), solved
     here once per starting state. *)
  let rng = Dynvote_prng.Rng.create ~seed:22L () in
  for _ = 1 to 20 do
    let n, rates, transitions = random_chain rng in
    let target j = j = n - 1 in
    let h =
      Array.init n (fun i ->
          Ctmc.expected_hitting_time (Ctmc.explore ~initial:i ~transitions ()) ~target)
    in
    check_float "zero at the target" 0.0 h.(n - 1);
    for i = 0 to n - 2 do
      let rhs = ref 1.0 in
      for j = 0 to n - 1 do
        rhs := !rhs +. (rates.(i).(j) *. h.(j))
      done;
      let lhs = exit_rate rates i *. h.(i) in
      if not (close_rel ~rel:1e-9 !rhs lhs) then
        Alcotest.failf "%d states, from %d: q h = %.17g, 1 + sum q h = %.17g" n i lhs !rhs
    done
  done

let test_survival_single_copy () =
  (* One copy: R(t) = exp(-lambda t), independent of the repair rate. *)
  let chain =
    Voting_model.chain ~flavor:Decision.ldv_flavor ~fail_rate:[| 0.1 |]
      ~repair_rate:[| 2.0 |] ~ordering:(Ordering.default 1) ()
  in
  let survival t = List.hd (Voting_model.survival chain ~times:[ t ]) in
  check_float_tol 1e-9 "R(0)" 1.0 (survival 0.0);
  check_float_tol 1e-8 "R(5)" (exp (-0.5)) (survival 5.0);
  check_float_tol 1e-8 "R(30)" (exp (-3.0)) (survival 30.0);
  (* Large horizons must not underflow to garbage. *)
  check_float_tol 1e-9 "R(400) ~ e^-40" (exp (-40.0)) (survival 400.0);
  (* Every horizon asked in one call, in any order, reads the same. *)
  let times = [ 400.0; 0.0; 30.0; 5.0 ] in
  Alcotest.(check (list (float 0.0))) "one call" (List.map survival times)
    (Voting_model.survival chain ~times)

let test_survival_monotone_and_ordered () =
  let fail_rate = [| 0.1; 0.1; 0.1 |] and repair_rate = [| 1.0; 1.0; 1.0 |] in
  let ordering = Ordering.default 3 in
  let r flavor t =
    List.hd
      (Voting_model.survival
         (Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering ())
         ~times:[ t ])
  in
  (* Decreasing in t. *)
  let prev = ref 1.0 in
  List.iter
    (fun t ->
      let v = r Decision.ldv_flavor t in
      if v > !prev +. 1e-12 then Alcotest.failf "not monotone at t=%g" t;
      prev := v)
    [ 1.0; 5.0; 20.0; 60.0; 120.0 ];
  (* TDV survives longer than LDV, LDV longer than DV. *)
  Alcotest.(check bool) "TDV > LDV at 60d" true
    (r Decision.tdv_flavor 60.0 > r Decision.ldv_flavor 60.0);
  Alcotest.(check bool) "LDV > DV at 60d" true
    (r Decision.ldv_flavor 60.0 > r Decision.dv_flavor 60.0)

let test_survival_consistent_with_mttf () =
  (* Integral of R(t) dt = MTTF; check with a coarse trapezoid. *)
  let fail_rate = [| 0.2; 0.2 |] and repair_rate = [| 2.0; 2.0 |] in
  let ordering = Ordering.default 2 in
  let chain =
    Voting_model.chain ~flavor:Decision.ldv_flavor ~fail_rate ~repair_rate ~ordering ()
  in
  let mttf = Voting_model.mean_time_to_unavailability chain in
  let dt = 0.25 in
  let r =
    Array.of_list
      (Voting_model.survival chain ~times:(List.init 4001 (fun i -> float_of_int i *. dt)))
  in
  let integral = ref 0.0 in
  let i = ref 0 in
  while r.(!i) > 1e-6 && !i < 4000 do
    integral := !integral +. (dt *. ((r.(!i) +. r.(!i + 1)) /. 2.0));
    incr i
  done;
  Alcotest.(check bool) "integral of R ~ MTTF" true (close_rel ~rel:0.02 mttf !integral)

let test_period_statistics_single_copy () =
  let p =
    Voting_model.period_statistics
      (Voting_model.chain ~flavor:Decision.ldv_flavor ~fail_rate:[| 0.1 |]
         ~repair_rate:[| 0.5 |] ~ordering:(Ordering.default 1) ())
  in
  check_float_tol 1e-9 "availability" (0.5 /. 0.6) p.Voting_model.availability;
  check_float_tol 1e-9 "mean up = MTTF" 10.0 p.Voting_model.mean_up_days;
  check_float_tol 1e-9 "mean down = MTTR" 2.0 p.Voting_model.mean_down_days;
  (* Failure frequency = availability * fail rate. *)
  check_float_tol 1e-9 "frequency" (0.5 /. 0.6 *. 0.1) p.Voting_model.failures_per_day

let test_period_statistics_tdv_paper () =
  (* Paper TDV on one segment: down only when all are down; the
     unavailable period ends at the first repair: mean down = 1/(n mu). *)
  let n = 3 in
  let l = 0.2 and m = 1.0 in
  let p =
    Voting_model.period_statistics
      (Voting_model.chain ~flavor:Decision.tdv_flavor ~fail_rate:(Array.make n l)
         ~repair_rate:(Array.make n m) ~ordering:(Ordering.default n) ())
  in
  check_float_tol 1e-9 "mean down = 1/(3 mu)" (1.0 /. 3.0) p.Voting_model.mean_down_days

let test_mean_time_to_unavailability_ordering () =
  let fail_rate = [| 0.1; 0.1; 0.1 |] and repair_rate = [| 1.0; 1.0; 1.0 |] in
  let ordering = Ordering.default 3 in
  let mttf flavor =
    Voting_model.mean_time_to_unavailability
      (Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering ())
  in
  let dv = mttf Decision.dv_flavor
  and ldv = mttf Decision.ldv_flavor
  and tdv = mttf Decision.tdv_flavor in
  Alcotest.(check bool) "DV fails first" true (dv < ldv);
  Alcotest.(check bool) "TDV lasts longest" true (tdv > ldv);
  (* From all-up, the first unavailability of paper and safe TDV coincide
     (the safe guard only matters after restarts). *)
  check_float_tol 1e-6 "TDV variants agree from a clean start" tdv
    (mttf Decision.tdv_safe_flavor)

(* --- k-of-n --- *)

let test_up_count_distribution () =
  let dist = Kofn.up_count_distribution [| 0.5; 0.5 |] in
  Alcotest.(check (array (float 1e-12))) "fair coins" [| 0.25; 0.5; 0.25 |] dist;
  let dist = Kofn.up_count_distribution [| 1.0; 0.0; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "deterministic" [| 0.0; 0.0; 1.0; 0.0 |] dist

let test_mcv_closed_form () =
  (* Three identical sites with availability a: MCV = a^3 + 3 a^2 (1-a). *)
  let a = 0.9 in
  let expected = (a ** 3.0) +. (3.0 *. a *. a *. (1.0 -. a)) in
  check_float_tol 1e-12 "binomial majority" expected (Kofn.mcv_availability [| a; a; a |])

let test_mcv_lexicographic_form () =
  (* Four sites: strict majority (>=3) plus exactly-half pairs containing
     site 0. *)
  let ps = [| 0.9; 0.8; 0.7; 0.6 |] in
  let strict = Kofn.at_least ~probabilities:ps ~quorum:3 in
  (* Pairs with site 0: {0,1}, {0,2}, {0,3}. *)
  let q = Array.map (fun p -> 1.0 -. p) ps in
  let pair i = ps.(0) *. ps.(i) *. Array.fold_left ( *. ) 1.0
    (Array.mapi (fun j qj -> if j = 0 || j = i then 1.0 else qj) q)
  in
  let expected = strict +. pair 1 +. pair 2 +. pair 3 in
  check_float_tol 1e-12 "lexicographic MCV" expected
    (Kofn.mcv_lexicographic_availability ps ~ordering:(Ordering.default 4))

let test_predicate_matches_threshold () =
  let ps = [| 0.95; 0.6; 0.8; 0.5; 0.7 |] in
  check_float_tol 1e-12 "predicate = threshold"
    (Kofn.at_least ~probabilities:ps ~quorum:3)
    (Kofn.predicate_availability ps (fun up -> Site_set.cardinal up >= 3))

(* --- Voting model vs closed forms --- *)

let ordering3 = Ordering.default 3

let test_voting_model_mcv_like () =
  (* A block that never changes is not expressible here, but with a single
     site the DV model reduces to the two-state machine. *)
  let u =
    Voting_model.unavailability
      (Voting_model.chain ~flavor:Decision.ldv_flavor ~fail_rate:[| 0.1 |]
         ~repair_rate:[| 0.9 |] ~ordering:(Ordering.default 1) ())
  in
  check_float_tol 1e-12 "single copy" 0.1 u

let test_voting_model_tdv_single_segment () =
  (* TDV on one segment behaves like available copy: the file is down only
     when no member of the current block is up.  P(all sites down) is a
     strict lower bound; the gap above it is the straggler effect (a
     repaired non-member cannot resurrect the file by itself). *)
  let l = 0.2 and m = 2.0 in
  let u flavor =
    Voting_model.unavailability
      (Voting_model.chain ~flavor ~fail_rate:[| l; l; l |] ~repair_rate:[| m; m; m |]
         ~ordering:ordering3 ())
  in
  let down = l /. (l +. m) in
  let all_down = down ** 3.0 in
  (* Paper-literal TDV: any live site resurrects the file, so its
     unavailability is exactly P(all down). *)
  check_float_tol 1e-9 "paper TDV = P(all down)" all_down (u Decision.tdv_flavor);
  (* The safe variant pays the straggler penalty and the rival-lineage
     guard: strictly above P(all down), and no longer comparable to LDV
     (the guard denies some groups LDV would grant, the claims grant some
     groups LDV would deny). *)
  let safe = u Decision.tdv_safe_flavor in
  Alcotest.(check bool) "safe TDV above P(all down)" true (safe > all_down);
  Alcotest.(check bool) "safe TDV above paper TDV" true
    (safe > u Decision.tdv_flavor);
  Alcotest.(check bool) "safe TDV well below a single copy" true
    (safe < l /. (l +. m))

let test_voting_model_flavors_ordered () =
  let fail_rate = [| 0.1; 0.2; 0.15 |] and repair_rate = [| 1.0; 0.8; 1.2 |] in
  let u flavor =
    Voting_model.unavailability
      (Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering:ordering3 ())
  in
  let dv = u Decision.dv_flavor
  and ldv = u Decision.ldv_flavor
  and tdv = u Decision.tdv_flavor
  and tdv_safe = u Decision.tdv_safe_flavor in
  Alcotest.(check bool) "LDV <= DV" true (ldv <= dv +. 1e-12);
  Alcotest.(check bool) "TDV <= LDV" true (tdv <= ldv +. 1e-12);
  Alcotest.(check bool) "TDV <= safe TDV (paper variant grants more)" true
    (tdv <= tdv_safe +. 1e-12);
  Alcotest.(check bool) "all positive" true
    (dv > 0.0 && ldv > 0.0 && tdv > 0.0 && tdv_safe > 0.0)

let test_voting_model_optimistic_rate_limits () =
  (* As the access rate grows, the optimistic model approaches the
     instantaneous one. *)
  let fail_rate = [| 0.1; 0.12; 0.09 |] and repair_rate = [| 1.5; 1.1; 1.3 |] in
  let u ?access_rate () =
    Voting_model.unavailability
      (Voting_model.chain ~flavor:Decision.ldv_flavor ?access_rate ~fail_rate ~repair_rate
         ~ordering:ordering3 ())
  in
  let inst = u () in
  let opt rate = u ~access_rate:rate () in
  Alcotest.(check bool) "rate 1000 ~ instantaneous" true
    (close_rel ~rel:0.02 inst (opt 1000.0));
  (* With rare accesses the quorum decorrelates from the network state;
     the unavailability must differ measurably from the instantaneous
     value and stay a proper probability. *)
  let slow = opt 0.001 in
  Alcotest.(check bool) "rare accesses change the value" true
    (not (close_rel ~rel:0.001 inst slow));
  Alcotest.(check bool) "still a probability" true (slow > 0.0 && slow < 1.0)

let test_voting_model_validation () =
  let chain ?access_rate ~fail_rate ~repair_rate () =
    ignore
      (Voting_model.chain ~flavor:Decision.dv_flavor ?access_rate ~fail_rate ~repair_rate
         ~ordering:(Ordering.default 1) ())
  in
  List.iter
    (fun rate ->
      let refuses what f =
        Alcotest.check_raises
          (Printf.sprintf "%s %g refused" what rate)
          (Invalid_argument "Voting_model: rates must be positive") f
      in
      refuses "fail rate" (chain ~fail_rate:[| rate |] ~repair_rate:[| 1.0 |]);
      refuses "repair rate" (chain ~fail_rate:[| 1.0 |] ~repair_rate:[| rate |]);
      refuses "access rate" (chain ~access_rate:rate ~fail_rate:[| 1.0 |] ~repair_rate:[| 1.0 |]))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* The four figures read one chain: the renewal analysis sees the
   stationary availability, the reliability function starts at 1 and
   never rises, and the mean time to unavailability is a finite positive
   number of days. *)
let test_voting_model_figures_agree () =
  let fail_rate = [| 0.1; 0.2; 0.15 |] and repair_rate = [| 1.0; 0.8; 1.2 |] in
  List.iter
    (fun (name, flavor, access_rate) ->
      let chain =
        Voting_model.chain ~flavor ?access_rate ~fail_rate ~repair_rate ~ordering:ordering3 ()
      in
      let u = Voting_model.unavailability chain in
      let p = Voting_model.period_statistics chain in
      check_float_tol 1e-12 (name ^ ": availability = 1 - unavailability") (1.0 -. u)
        p.Voting_model.availability;
      let times = [ 0.5; 2.0; 10.0; 50.0 ] in
      let r = Voting_model.survival chain ~times:(0.0 :: times) in
      check_float (name ^ ": R(0)") 1.0 (List.hd r);
      let prev = ref 1.0 in
      List.iter2
        (fun t v ->
          if v > !prev +. 1e-12 then Alcotest.failf "%s: R rises at t=%g" name t;
          prev := v)
        times (List.tl r);
      let mttf = Voting_model.mean_time_to_unavailability chain in
      Alcotest.(check bool) (name ^ ": finite positive MTTF") true
        (mttf > 0.0 && Float.is_finite mttf))
    [ ("DV", Decision.dv_flavor, None);
      ("LDV", Decision.ldv_flavor, None);
      ("TDV", Decision.tdv_flavor, None);
      ("TDV-safe", Decision.tdv_safe_flavor, None);
      ("ODV", Decision.ldv_flavor, Some 1.0) ]

(* The six rows of [dynvote reliability] at MTTF 10 and MTTR 1, pinned at
   the values the dense Gaussian elimination gave: unavailability (the
   denied states' mass), mean time to unavailability, and the mean up and
   down periods.  Relative 1e-9 covers the dense solve's own error
   (its 1 - availability form drifted 6e-10 at five-copy OTDV). *)
let dense_reference =
  [ (3, "DV", 0.043160241165841932, 24.999999999999979, 23.277945619335373,
     1.0499999999999801);
    (3, "LDV", 0.0226077453725839, 45.151515151515092, 43.23262839879154,
     0.99999999999999867);
    (3, "TDV (paper)", 0.00075131480090160014, 468.33333333332627, 443.33333333333252,
     0.33333333333340331);
    (3, "TDV (safe)", 0.0021762221819218745, 468.33333333332627, 458.51190476190447,
     1.0000000000004108);
    (3, "ODV", 0.031813578901417422, 26.195166798003651, 23.450334460188458,
     0.77055311803208926);
    (3, "OTDV", 0.00075131480090157748, 468.33333333332871, 443.33333333333388,
     0.33333333333325643);
    (5, "DV", 0.001235323731542707, 867.83333333331689, 848.92962330796979,
     1.0500000000063647);
    (5, "LDV", 0.00061910733160914447, 1634.7380952380367, 1614.2288124273978,
     1.0000000000009286);
    (5, "TDV (paper)", 6.2092132306085692e-06, 33077.833333310387, 32209.999999997686,
     0.20000000000673679);
    (5, "TDV (safe)", 3.0408120473127453e-05, 33077.833333310387, 32884.952319429132,
     0.99999999993836364);
    (5, "ODV", 0.0068874616101633548, 76.882791800224595, 68.346482666182055,
     0.47399842148422455);
    (5, "OTDV", 6.2092132305916454e-06, 33077.833333369774, 32209.999999999349,
     0.20000000011760535) ]

let test_voting_model_dense_reference () =
  List.iter
    (fun (copies, name, unavailability, mttf, up, down) ->
      let flavor, access_rate =
        match name with
        | "DV" -> (Decision.dv_flavor, None)
        | "LDV" -> (Decision.ldv_flavor, None)
        | "TDV (paper)" -> (Decision.tdv_flavor, None)
        | "TDV (safe)" -> (Decision.tdv_safe_flavor, None)
        | "ODV" -> (Decision.ldv_flavor, Some 1.0)
        | _ -> (Decision.tdv_flavor, Some 1.0)
      in
      let fail_rate = Array.make copies 0.1 and repair_rate = Array.make copies 1.0 in
      let ordering = Ordering.default copies in
      let chain = Voting_model.chain ~flavor ?access_rate ~fail_rate ~repair_rate ~ordering () in
      let p = Voting_model.period_statistics chain in
      let check figure expected actual =
        if not (close_rel ~rel:1e-9 expected actual) then
          Alcotest.failf "%d copies, %s, %s: %.17g, dense %.17g" copies name figure actual
            expected
      in
      check "unavailability" unavailability (Voting_model.unavailability chain);
      check "MTTF" mttf (Voting_model.mean_time_to_unavailability chain);
      check "mean up" up p.Voting_model.mean_up_days;
      check "mean down" down p.Voting_model.mean_down_days)
    dense_reference

(* --- Simulator cross-validation (the headline check) --- *)

(* Identical sites, exponential repair, one segment: the simulator's DV /
   LDV / TDV unavailabilities must match the exact Markov values within a
   few percent. *)
let test_simulator_matches_ctmc () =
  let n = 3 in
  let mttf = 10.0 and mttr = 1.0 in
  let specs =
    Site_spec.uniform ~n ~mttf_days:mttf ~repair_hours:(mttr *. 24.0)
  in
  let topology = Dynvote_net.Topology.single_segment n in
  let configs =
    [ Dynvote_sim.Config.create ~label:"X" ~copies:(Site_set.universe n) () ]
  in
  let parameters =
    { Study.default_parameters with horizon = 300_360.0; batches = 10; seed = 17 }
  in
  let results =
    Study.run ~parameters ~configs ~specs ~topology
      ~kinds:[ Policy.Dv; Policy.Ldv; Policy.Tdv; Policy.Mcv ] ()
  in
  let fail_rate = Array.make n (1.0 /. mttf) in
  let repair_rate = Array.make n (1.0 /. mttr) in
  let expect flavor =
    Voting_model.unavailability
      (Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering:(Ordering.default n) ())
  in
  let check kind flavor =
    let r = List.find (fun r -> r.Study.kind = kind) results in
    let expected = expect flavor in
    if not (close_rel ~rel:0.08 expected r.Study.unavailability) then
      Alcotest.failf "%s: simulated %.6f vs exact %.6f" (Policy.kind_name kind)
        r.Study.unavailability expected
  in
  check Policy.Dv Decision.dv_flavor;
  check Policy.Ldv Decision.ldv_flavor;
  check Policy.Tdv Decision.tdv_flavor;
  (* The safe TDV variant, exercised through the flavor override and the
     driver interface. *)
  let safe_driver =
    Driver.of_policy
      (Policy.create ~flavor:Decision.tdv_safe_flavor Policy.Tdv
         ~universe:(Site_set.universe n) ~n_sites:n
         ~segment_of:(Dynvote_net.Topology.segment_of topology)
         ~ordering:(Ordering.default n))
  in
  (match
     Study.run_drivers ~parameters ~specs ~topology ~drivers:[ ((), safe_driver) ] ()
   with
  | [ ((), s) ] ->
      let expected = expect Decision.tdv_safe_flavor in
      if not (close_rel ~rel:0.08 expected s.Study.unavailability) then
        Alcotest.failf "safe TDV: simulated %.6f vs exact %.6f" s.Study.unavailability
          expected
  | _ -> Alcotest.fail "unexpected driver result shape");
  (* MCV against the lexicographic closed form. *)
  let avail = Voting_model.site_availability ~fail_rate ~repair_rate in
  let expected = 1.0 -. Kofn.mcv_lexicographic_availability avail ~ordering:(Ordering.default n) in
  let r = List.find (fun r -> r.Study.kind = Policy.Mcv) results in
  if not (close_rel ~rel:0.08 expected r.Study.unavailability) then
    Alcotest.failf "MCV: simulated %.6f vs exact %.6f" r.Study.unavailability expected

let suite =
  [
    Alcotest.test_case "ctmc two-state" `Quick test_ctmc_two_state;
    Alcotest.test_case "ctmc birth-death" `Quick test_ctmc_birth_death;
    Alcotest.test_case "ctmc validation" `Quick test_ctmc_validation;
    Alcotest.test_case "ctmc hitting time" `Quick test_ctmc_hitting_time;
    Alcotest.test_case "ctmc hitting time (birth-death)" `Quick
      test_ctmc_hitting_time_birth_death;
    Alcotest.test_case "ctmc max_states on every entry point" `Quick test_ctmc_max_states;
    Alcotest.test_case "ctmc: every query reads the one walk" `Quick test_ctmc_one_walk;
    Alcotest.test_case "ctmc: a 1e-12 tail state is exact" `Quick test_ctmc_tail_state;
    Alcotest.test_case "ctmc: a rare target's MTTF" `Quick test_ctmc_rare_target;
    Alcotest.test_case "ctmc: an unreachable target gives infinity" `Quick
      test_ctmc_unreachable_target;
    Alcotest.test_case "ctmc: random chains balance" `Quick test_ctmc_random_balance;
    Alcotest.test_case "ctmc: random passage times" `Quick test_ctmc_random_passage;
    Alcotest.test_case "survival single copy" `Quick test_survival_single_copy;
    Alcotest.test_case "survival monotone/ordered" `Quick test_survival_monotone_and_ordered;
    Alcotest.test_case "survival integral = MTTF" `Slow test_survival_consistent_with_mttf;
    Alcotest.test_case "period statistics (single copy)" `Quick
      test_period_statistics_single_copy;
    Alcotest.test_case "period statistics (paper TDV)" `Quick test_period_statistics_tdv_paper;
    Alcotest.test_case "mean time to unavailability ordering" `Quick
      test_mean_time_to_unavailability_ordering;
    Alcotest.test_case "up-count distribution" `Quick test_up_count_distribution;
    Alcotest.test_case "MCV closed form" `Quick test_mcv_closed_form;
    Alcotest.test_case "lexicographic MCV closed form" `Quick test_mcv_lexicographic_form;
    Alcotest.test_case "predicate = threshold" `Quick test_predicate_matches_threshold;
    Alcotest.test_case "voting model: single copy" `Quick test_voting_model_mcv_like;
    Alcotest.test_case "voting model: TDV = all-down" `Quick test_voting_model_tdv_single_segment;
    Alcotest.test_case "voting model: flavor ordering" `Quick test_voting_model_flavors_ordered;
    Alcotest.test_case "voting model: access-rate limits" `Quick
      test_voting_model_optimistic_rate_limits;
    Alcotest.test_case "voting model validation" `Quick test_voting_model_validation;
    Alcotest.test_case "voting model: four figures, one chain" `Quick
      test_voting_model_figures_agree;
    Alcotest.test_case "voting model: the dense solver's figures" `Quick
      test_voting_model_dense_reference;
    Alcotest.test_case "simulator matches exact CTMC" `Slow test_simulator_matches_ctmc;
  ]
