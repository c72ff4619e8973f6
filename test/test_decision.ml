(* Decision: Algorithm 1 with all three flavors, including the worked
   states of the paper's §2 and §3, and the central mutual-exclusion
   property. *)

open Helpers

let ordering8 = Ordering.default 8
let same_segment = fun _ -> 0

let eval ?(flavor = Decision.ldv_flavor) ?(segment_of = same_segment) ?fresh states reachable
    =
  Decision.evaluate flavor ~ordering:ordering8 ~segment_of ?fresh ~states
    ~reachable:(ss reachable) ()

let granted = function Decision.Granted _ -> true | Decision.Denied _ -> false

(* Initial state: everyone participates, any single majority works. *)
let test_initial_majority () =
  let states = states ~universe:[ 0; 1; 2 ] [] in
  Alcotest.(check bool) "all three" true (granted (eval states [ 0; 1; 2 ]));
  Alcotest.(check bool) "two of three" true (granted (eval states [ 0; 2 ]));
  Alcotest.(check bool) "one of three" false (granted (eval states [ 1 ]))

let test_empty_reachable () =
  let states = states ~universe:[ 0; 1; 2 ] [] in
  match eval states [] with
  | Decision.Denied Decision.No_reachable_copy -> ()
  | v -> Alcotest.failf "expected No_reachable_copy, got %a" Decision.pp_verdict v

(* The paper's §2 walkthrough: after B fails and the quorum shrank to
   {A, C}, the A-C link fails.  A alone wins the tie (A > C); C loses. *)
let test_paper_tie_break () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 11, 11, [ 0; 2 ]); (2, 11, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  Alcotest.(check bool) "A alone wins the tie" true (granted (eval states [ 0 ]));
  Alcotest.(check bool) "C alone loses the tie" false (granted (eval states [ 2 ]));
  (match eval states [ 2 ] with
  | Decision.Denied (Decision.Tie_lost { max_element }) ->
      Alcotest.(check int) "tie lost to A" 0 max_element
  | v -> Alcotest.failf "expected Tie_lost, got %a" Decision.pp_verdict v);
  (* Plain DV cannot break the tie on either side. *)
  (match eval ~flavor:Decision.dv_flavor states [ 0 ] with
  | Decision.Denied Decision.Tie_unbroken -> ()
  | v -> Alcotest.failf "expected Tie_unbroken, got %a" Decision.pp_verdict v);
  Alcotest.(check bool) "DV: C denied too" false
    (granted (eval ~flavor:Decision.dv_flavor states [ 2 ]))

(* The stale copy B cannot grant against the advanced quorum {A, C}. *)
let test_stale_minority () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 11, 11, [ 0; 2 ]); (2, 11, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  (match eval states [ 1 ] with
  | Decision.Denied (Decision.Below_majority { have; quorum_size }) ->
      Alcotest.(check int) "one supporter" 1 have;
      Alcotest.(check int) "of three" 3 quorum_size
  | v -> Alcotest.failf "expected Below_majority, got %a" Decision.pp_verdict v);
  (* B together with a current copy is decided by the current copy's
     partition set — {A, C} — so {B, C} holds half with C not the max... *)
  Alcotest.(check bool) "B+C: tie lost (A is max)" false (granted (eval states [ 1; 2 ]));
  (* ...while {A, B} holds the max element A. *)
  Alcotest.(check bool) "A+B: tie won" true (granted (eval states [ 0; 1 ]))

let test_q_and_s_fields () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 12, 11, [ 0; 2 ]); (2, 12, 11, [ 0; 2 ]); (1, 8, 8, [ 0; 1; 2 ]) ]
  in
  match eval states [ 0; 1; 2 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "Q = current sites" (ss [ 0; 2 ]) g.Decision.q;
      Alcotest.check set_testable "S = max version" (ss [ 0; 2 ]) g.Decision.s;
      Alcotest.check set_testable "P_m" (ss [ 0; 2 ]) g.Decision.p_m
  | v -> Alcotest.failf "expected grant, got %a" Decision.pp_verdict v

(* S can be wider than Q: a copy that missed read-quorum updates (lower o)
   but holds the newest data (same v). *)
let test_s_wider_than_q () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 12, 9, [ 0; 2 ]); (2, 12, 9, [ 0; 2 ]); (1, 10, 9, [ 0; 1; 2 ]) ]
  in
  match eval states [ 0; 1; 2 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "Q excludes the op-stale copy" (ss [ 0; 2 ]) g.Decision.q;
      Alcotest.check set_testable "S includes it" (ss [ 0; 1; 2 ]) g.Decision.s
  | v -> Alcotest.failf "expected grant, got %a" Decision.pp_verdict v

(* §3 topological example: A and B on segment alpha, C on gamma, D on
   delta.  With quorum {A, B}, B alone can claim A's vote. *)
let segment_3 site = match site with 0 | 1 -> 0 | 2 -> 1 | _ -> 2

let test_topological_claim () =
  let states =
    states ~universe:[ 0; 1; 2; 3 ]
      [
        (0, 15, 15, [ 0; 1 ]); (1, 15, 15, [ 0; 1 ]);
        (2, 11, 11, [ 0; 1; 2 ]); (3, 8, 8, [ 0; 1; 2; 3 ]);
      ]
  in
  (* Under LDV, B alone loses the tie to A... *)
  Alcotest.(check bool) "LDV: B alone denied" false
    (granted (eval ~segment_of:segment_3 states [ 1 ]));
  (* ...but under TDV, B claims A's vote since they share segment alpha. *)
  (match eval ~flavor:Decision.tdv_flavor ~segment_of:segment_3 states [ 1 ] with
  | Decision.Granted g ->
      Alcotest.check set_testable "claimed set is {A, B}" (ss [ 0; 1 ]) g.Decision.claimed
  | v -> Alcotest.failf "expected TDV grant, got %a" Decision.pp_verdict v);
  (* C cannot claim anything: it is alone on its segment. *)
  Alcotest.(check bool) "TDV: C alone denied" false
    (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:segment_3 states [ 2 ]))

(* A claimed dead site cannot carry the lexicographic tie-break: with
   P_m = {A, B, C, D}, A+B down, C claiming nothing... arrange a tie where
   T reaches exactly half through claiming but max(P_m) is dead. *)
let test_claimed_votes_no_tie_break () =
  (* A, B share a segment; C, D share another.  P = {A,B,C,D}.  C alone:
     T = {C, D} = half, but max(P) = A is not in Q = {C}. *)
  let seg site = if site <= 1 then 0 else 1 in
  let states = states ~universe:[ 0; 1; 2; 3 ] [] in
  (match eval ~flavor:Decision.tdv_flavor ~segment_of:seg states [ 2 ] with
  | Decision.Denied (Decision.Tie_lost _) -> ()
  | v -> Alcotest.failf "expected Tie_lost, got %a" Decision.pp_verdict v);
  (* A alone: T = {A, B} = half and A = max(P) is present: granted. *)
  Alcotest.(check bool) "A claims B and wins tie" true
    (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:seg states [ 0 ]))

(* The freshness condition: a restarted (non-fresh) site cannot claim dead
   same-segment votes.  Without the condition, site 0 — which crashed at
   o = 5 and restarted while the real majority block {2} (o = 9) is down —
   would claim its dead segment-mates and resurrect the file with stale
   data. *)
let test_stale_site_cannot_resurrect () =
  let states =
    states ~universe:[ 0; 1; 2 ]
      [ (0, 5, 5, [ 0; 1; 2 ]); (1, 7, 7, [ 1; 2 ]); (2, 9, 9, [ 2 ]) ]
  in
  (* Site 0 restarted: it is reachable but not fresh. *)
  (match
     eval ~flavor:Decision.tdv_safe_flavor ~fresh:Site_set.empty states [ 0 ]
   with
  | Decision.Denied (Decision.Rival_possible { rivals }) ->
      (* The dead sites 1 and 2 — unsilenced, since nobody here is fresh —
         could have continued the file by claiming their segment-mates. *)
      Alcotest.check set_testable "rival lineage identified" (ss [ 0; 1; 2 ]) rivals
  | v -> Alcotest.failf "expected Rival_possible, got %a" Decision.pp_verdict v);
  (* The figure-literal flavor grants here even when told nobody is fresh
     — documenting exactly the split-brain the safe variant prevents. *)
  Alcotest.(check bool) "paper flavor is unsafe here" true
    (granted (eval ~flavor:Decision.tdv_flavor ~fresh:Site_set.empty states [ 0 ]));
  (* The true majority block member restarting alone *can* proceed: it is
     a majority of its own (singleton) quorum, no claiming needed. *)
  Alcotest.(check bool) "block member restarts fine" true
    (granted (eval ~flavor:Decision.tdv_safe_flavor ~fresh:Site_set.empty states [ 2 ]))

(* When every copy shares one segment, TDV degenerates to available copy:
   any single live quorum member suffices. *)
let test_tdv_available_copy_degeneration () =
  let states = states ~universe:[ 0; 1; 2; 3 ] [] in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d alone suffices" site)
        true
        (granted (eval ~flavor:Decision.tdv_flavor ~segment_of:same_segment states [ site ])))
    [ 0; 1; 2; 3 ]

(* Mutual exclusion: whatever the (reachable-consistent) replica states,
   no two disjoint groups are granted simultaneously.  We generate states
   by running random refresh histories — which is how reachable states
   arise — then test every 2-partition of the universe. *)

let random_history_states rng n_ops =
  let universe = ss [ 0; 1; 2; 3; 4 ] in
  let arr = Array.make 8 (Replica.initial universe) in
  let ctx =
    { Operation.flavor = Decision.ldv_flavor; ordering = ordering8; segment_of = same_segment }
  in
  for _ = 1 to n_ops do
    (* Random subset as the live component. *)
    let live =
      Site_set.filter (fun _ -> QCheck.Gen.bool rng) universe
    in
    if not (Site_set.is_empty live) then ignore (Operation.refresh ctx arr ~reachable:live ())
  done;
  arr

let arb_history_states =
  QCheck.make
    (QCheck.Gen.map
       (fun (seed_ops : int) ->
         let rng = Random.State.make [| seed_ops |] in
         random_history_states rng (5 + (seed_ops mod 20)))
       QCheck.Gen.(0 -- 10_000))
    ~print:(fun arr ->
      String.concat "; "
        (List.init 5 (fun i -> Fmt.str "%d:%a" i Replica.pp arr.(i))))

let all_two_partitions universe =
  let members = Site_set.to_list universe in
  let n = List.length members in
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 2 do
    let a =
      List.fold_left
        (fun (i, acc) site ->
          (i + 1, if mask land (1 lsl i) <> 0 then Site_set.add site acc else acc))
        (0, Site_set.empty) members
      |> snd
    in
    let b = Site_set.diff universe a in
    out := (a, b) :: !out
  done;
  !out

(* Physically possible partitions never split a segment (carrier-sense
   networks cannot partition internally) — the assumption TDV's safety
   rests on. *)
let segment_respecting partitions segment_of =
  List.filter
    (fun (a, b) ->
      let intact side =
        Site_set.for_all
          (fun i ->
            Site_set.for_all
              (fun j -> segment_of i <> segment_of j || Site_set.mem j side)
              (Site_set.union a b))
          side
      in
      intact a && intact b)
    partitions

let mutual_exclusion_prop ?(respect_segments = false) flavor segment_of states =
  let universe = ss [ 0; 1; 2; 3; 4 ] in
  let partitions = all_two_partitions universe in
  let partitions =
    if respect_segments then segment_respecting partitions segment_of else partitions
  in
  List.for_all
    (fun (a, b) ->
      let va =
        Decision.evaluate flavor ~ordering:ordering8 ~segment_of ~states ~reachable:a ()
      in
      let vb =
        Decision.evaluate flavor ~ordering:ordering8 ~segment_of ~states ~reachable:b ()
      in
      not (Decision.is_granted va && Decision.is_granted vb))
    partitions

let seg_mixed site = match site with 0 | 1 -> 0 | 2 | 3 -> 1 | _ -> 2

(* The flip side: if a partition could split a segment, TDV would grant two
   disjoint groups — demonstrating why the indivisible-segment assumption
   is load-bearing. *)
let test_tdv_unsafe_on_split_segment () =
  let states = Array.make 8 (Replica.initial (ss [ 0; 1 ])) in
  let seg = fun _ -> 0 in
  let eval r =
    Decision.evaluate Decision.tdv_flavor ~ordering:ordering8 ~segment_of:seg ~states
      ~reachable:(ss r) ()
  in
  Alcotest.(check bool) "left half grants" true (Decision.is_granted (eval [ 0 ]));
  Alcotest.(check bool) "right half grants too" true (Decision.is_granted (eval [ 1 ]))

let props =
  [
    qcheck_case ~count:300 ~name:"mutual exclusion (DV)" arb_history_states
      (mutual_exclusion_prop Decision.dv_flavor same_segment);
    qcheck_case ~count:300 ~name:"mutual exclusion (LDV)" arb_history_states
      (mutual_exclusion_prop Decision.ldv_flavor same_segment);
    qcheck_case ~count:300 ~name:"mutual exclusion (TDV, segment-respecting)"
      arb_history_states
      (mutual_exclusion_prop ~respect_segments:true Decision.tdv_flavor seg_mixed);
    qcheck_case ~count:300 ~name:"DV grants imply LDV grants" arb_history_states
      (fun states ->
        let universe = ss [ 0; 1; 2; 3; 4 ] in
        List.for_all
          (fun (a, _) ->
            let dv =
              Decision.evaluate Decision.dv_flavor ~ordering:ordering8
                ~segment_of:same_segment ~states ~reachable:a ()
            in
            let ldv =
              Decision.evaluate Decision.ldv_flavor ~ordering:ordering8
                ~segment_of:same_segment ~states ~reachable:a ()
            in
            (not (Decision.is_granted dv)) || Decision.is_granted ldv)
          (all_two_partitions universe));
  ]

(* The allocation-free rewrite of Algorithm 1 against the fold-and-list
   version it replaced ({!Decision_ref}): same verdict on random inputs,
   grant fields and denial reasons included.  Op and version numbers are
   drawn from 1-3 so ties are common, and the segment maps put every site
   on one segment, each on its own, or mix them. *)
type case = {
  n : int;
  segments : int array;
  ranking : int list;
  replicas : (int * int * int) array;  (* op, version, partition mask *)
  reachable : int;
  fresh : int option;
  flavor : int;
}

let flavors =
  [| Decision.dv_flavor; Decision.ldv_flavor; Decision.tdv_flavor; Decision.tdv_safe_flavor |]

let gen_case =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  let subset = int_bound ((1 lsl n) - 1) in
  oneof [ return (Array.make n 0); return (Array.init n Fun.id); array_repeat n (int_bound 2) ]
  >>= fun segments ->
  shuffle_l (List.init n Fun.id) >>= fun ranking ->
  array_repeat n (triple (int_range 1 3) (int_range 1 3) subset) >>= fun replicas ->
  subset >>= fun reachable ->
  opt subset >>= fun fresh ->
  int_bound 3 >|= fun flavor -> { n; segments; ranking; replicas; reachable; fresh; flavor }

let print_case c =
  Printf.sprintf "n=%d segments=[%s] ranking=[%s] replicas=[%s] R=%d fresh=%s flavor=%d" c.n
    (String.concat ";" (Array.to_list (Array.map string_of_int c.segments)))
    (String.concat ";" (List.map string_of_int c.ranking))
    (String.concat ";"
       (Array.to_list (Array.map (fun (o, v, p) -> Printf.sprintf "(%d,%d,%d)" o v p) c.replicas)))
    c.reachable
    (match c.fresh with None -> "-" | Some f -> string_of_int f)
    c.flavor

let decide_both c =
  let states =
    Array.map
      (fun (op_no, version, mask) ->
        Replica.make ~op_no ~version ~partition:(Site_set.of_int_unsafe mask))
      c.replicas
  in
  let ordering = Ordering.of_ranking c.ranking in
  let segment_of site = c.segments.(site) in
  let fresh = Option.map Site_set.of_int_unsafe c.fresh in
  let reachable = Site_set.of_int_unsafe c.reachable in
  let flavor = flavors.(c.flavor) in
  ( Decision.evaluate flavor ~ordering ~segment_of ?fresh ~states ~reachable (),
    Decision_ref.evaluate flavor ~ordering ~segment_of ?fresh ~states ~reachable () )

let reference_props =
  [
    qcheck_case ~count:3000 ~name:"agrees with the reference decision"
      (QCheck.make gen_case ~print:print_case)
      (fun c ->
        let got, want = decide_both c in
        got = want);
  ]

(* A granted decision allocates its verdict and little else: the paper's
   four-copy topology, every copy up, fresh and current, under the
   flavor with every guard on.  The fold-and-list version allocated 218
   words. *)
let test_granted_allocation () =
  let universe = Site_set.universe 4 in
  let states = Array.make 4 (Replica.initial universe) in
  let ordering = Ordering.default 4 in
  let segment_of site = match site with 0 | 1 -> 0 | 2 -> 1 | _ -> 2 in
  let decide () =
    ignore
      (Sys.opaque_identity
         (Decision.evaluate Decision.tdv_safe_flavor ~ordering ~segment_of ~fresh:universe
            ~states ~reachable:universe ()))
  in
  Alcotest.(check bool) "granted" true
    (Decision.is_granted
       (Decision.evaluate Decision.tdv_safe_flavor ~ordering ~segment_of ~fresh:universe ~states
          ~reachable:universe ()));
  let words = minor_words ~calls:1_000 decide /. 1_000.0 in
  if words > 32.0 then Alcotest.failf "a granted decision allocates %.1f minor words (at most 32)" words

let suite =
  [
    Alcotest.test_case "initial majority" `Quick test_initial_majority;
    Alcotest.test_case "empty reachable set" `Quick test_empty_reachable;
    Alcotest.test_case "paper tie-break (A beats C)" `Quick test_paper_tie_break;
    Alcotest.test_case "stale minority denied" `Quick test_stale_minority;
    Alcotest.test_case "Q and S fields" `Quick test_q_and_s_fields;
    Alcotest.test_case "S wider than Q" `Quick test_s_wider_than_q;
    Alcotest.test_case "topological vote claiming" `Quick test_topological_claim;
    Alcotest.test_case "claimed votes cannot tie-break" `Quick test_claimed_votes_no_tie_break;
    Alcotest.test_case "stale site cannot resurrect (freshness)" `Quick
      test_stale_site_cannot_resurrect;
    Alcotest.test_case "TDV degenerates to available copy" `Quick
      test_tdv_available_copy_degeneration;
    Alcotest.test_case "TDV unsafe if a segment could split" `Quick
      test_tdv_unsafe_on_split_segment;
    Alcotest.test_case "a granted decision allocates at most 32 words" `Quick
      test_granted_allocation;
  ]
  @ props @ reference_props
