(* Site_set: unit tests plus a property suite checking the bitset against
   OCaml's Set.Make as a reference implementation. *)

open Helpers

module Ref_set = Set.Make (Int)

let to_ref s = Ref_set.of_list (Site_set.to_list s)
let of_ref r = Site_set.of_list (Ref_set.elements r)

let test_empty () =
  Alcotest.(check bool) "empty is empty" true (Site_set.is_empty Site_set.empty);
  Alcotest.(check int) "cardinal 0" 0 (Site_set.cardinal Site_set.empty);
  Alcotest.(check (list int)) "no members" [] (Site_set.to_list Site_set.empty)

let test_singleton () =
  let s = Site_set.singleton 5 in
  Alcotest.(check bool) "mem 5" true (Site_set.mem 5 s);
  Alcotest.(check bool) "not mem 4" false (Site_set.mem 4 s);
  Alcotest.(check int) "cardinal 1" 1 (Site_set.cardinal s)

let test_universe () =
  let u = Site_set.universe 8 in
  Alcotest.(check int) "cardinal" 8 (Site_set.cardinal u);
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (Site_set.to_list u);
  Alcotest.(check bool) "universe 0 empty" true (Site_set.is_empty (Site_set.universe 0))

let test_add_remove () =
  let s = ss [ 1; 3; 5 ] in
  Alcotest.check set_testable "add" (ss [ 1; 2; 3; 5 ]) (Site_set.add 2 s);
  Alcotest.check set_testable "add existing" s (Site_set.add 3 s);
  Alcotest.check set_testable "remove" (ss [ 1; 5 ]) (Site_set.remove 3 s);
  Alcotest.check set_testable "remove absent" s (Site_set.remove 4 s)

let test_set_algebra () =
  let a = ss [ 0; 1; 2 ] and b = ss [ 2; 3 ] in
  Alcotest.check set_testable "union" (ss [ 0; 1; 2; 3 ]) (Site_set.union a b);
  Alcotest.check set_testable "inter" (ss [ 2 ]) (Site_set.inter a b);
  Alcotest.check set_testable "diff" (ss [ 0; 1 ]) (Site_set.diff a b);
  Alcotest.(check bool) "subset yes" true (Site_set.subset (ss [ 1; 2 ]) a);
  Alcotest.(check bool) "subset no" false (Site_set.subset b a);
  Alcotest.(check bool) "disjoint no" false (Site_set.disjoint a b);
  Alcotest.(check bool) "disjoint yes" true (Site_set.disjoint (ss [ 0 ]) (ss [ 1 ]))

let test_extrema () =
  let s = ss [ 3; 1; 7 ] in
  Alcotest.(check int) "min" 1 (Site_set.min_elt s);
  Alcotest.(check int) "max" 7 (Site_set.max_elt s);
  Alcotest.(check int) "choose deterministic" 1 (Site_set.choose s);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Site_set.min_elt Site_set.empty));
  Alcotest.check_raises "max of empty" Not_found (fun () ->
      ignore (Site_set.max_elt Site_set.empty))

let test_iteration () =
  let s = ss [ 2; 4; 6 ] in
  Alcotest.(check int) "fold sum" 12 (Site_set.fold ( + ) s 0);
  Alcotest.(check bool) "for_all even" true (Site_set.for_all (fun i -> i mod 2 = 0) s);
  Alcotest.(check bool) "exists > 5" true (Site_set.exists (fun i -> i > 5) s);
  Alcotest.(check bool) "exists > 7" false (Site_set.exists (fun i -> i > 7) s);
  Alcotest.check set_testable "filter" (ss [ 4; 6 ]) (Site_set.filter (fun i -> i > 2) s)

let test_bounds () =
  Alcotest.check_raises "negative id" (Invalid_argument "Site_set: site id -1 outside [0, 62)")
    (fun () -> ignore (Site_set.singleton (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Site_set: site id 62 outside [0, 62)")
    (fun () -> ignore (Site_set.mem 62 Site_set.empty));
  (* The largest legal id works. *)
  Alcotest.(check int) "id 61" 61 (Site_set.max_elt (Site_set.singleton 61))

let test_pp () =
  Alcotest.(check string) "pp" "{0, 2}" (Fmt.str "%a" Site_set.pp (ss [ 0; 2 ]));
  Alcotest.(check string) "pp names" "{A, C}"
    (Fmt.str "%a" (Site_set.pp_names [| "A"; "B"; "C" |]) (ss [ 0; 2 ]))

(* Sets are words, and the simulator and the model checker query them
   at every decision: the queries allocate nothing, and a walk's cost in
   minor words does not grow with the members it visits. *)
let test_allocation_free () =
  let s = Sys.opaque_identity (ss [ 0; 2; 3; 5 ]) in
  let zero name f =
    Alcotest.(check (float 0.0)) (name ^ ": 0 words over 10,000 calls") 0.0
      (minor_words ~calls:10_000 f)
  in
  zero "min_elt" (fun () -> ignore (Sys.opaque_identity (Site_set.min_elt s)));
  zero "max_elt" (fun () -> ignore (Sys.opaque_identity (Site_set.max_elt s)));
  zero "choose" (fun () -> ignore (Sys.opaque_identity (Site_set.choose s)));
  zero "mem" (fun () -> ignore (Sys.opaque_identity (Site_set.mem 3 s)));
  zero "cardinal" (fun () -> ignore (Sys.opaque_identity (Site_set.cardinal s)));
  let fold_words set =
    minor_words ~calls:1_000 (fun () ->
        ignore (Sys.opaque_identity (Site_set.fold ( + ) set 0)))
  in
  let eight = Sys.opaque_identity (Site_set.universe 8)
  and one = Sys.opaque_identity (ss [ 7 ]) in
  Alcotest.(check bool) "a fold over 8 members allocates no more than over 1" true
    (fold_words eight <= fold_words one)

(* Property tests against the reference Set implementation. *)

let gen_set = QCheck.Gen.(map (fun l -> Site_set.of_list l) (list_size (0 -- 12) (0 -- 15)))

let arb_set =
  QCheck.make gen_set ~print:(fun s -> Fmt.str "%a" Site_set.pp s)

let arb_pair = QCheck.pair arb_set arb_set

let props =
  let make name arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name arb law) in
  [
    make "union agrees with reference" arb_pair (fun (a, b) ->
        Site_set.equal (Site_set.union a b) (of_ref (Ref_set.union (to_ref a) (to_ref b))));
    make "inter agrees with reference" arb_pair (fun (a, b) ->
        Site_set.equal (Site_set.inter a b) (of_ref (Ref_set.inter (to_ref a) (to_ref b))));
    make "diff agrees with reference" arb_pair (fun (a, b) ->
        Site_set.equal (Site_set.diff a b) (of_ref (Ref_set.diff (to_ref a) (to_ref b))));
    make "cardinal agrees with reference" arb_set (fun a ->
        Site_set.cardinal a = Ref_set.cardinal (to_ref a));
    make "subset agrees with reference" arb_pair (fun (a, b) ->
        Site_set.subset a b = Ref_set.subset (to_ref a) (to_ref b));
    make "to_list sorted and unique" arb_set (fun a ->
        let l = Site_set.to_list a in
        List.sort_uniq compare l = l);
    make "union is commutative" arb_pair (fun (a, b) ->
        Site_set.equal (Site_set.union a b) (Site_set.union b a));
    make "diff then union restores" arb_pair (fun (a, b) ->
        Site_set.equal (Site_set.union (Site_set.diff a b) (Site_set.inter a b)) a);
    make "max_elt is the largest member" arb_set (fun a ->
        Site_set.is_empty a
        || List.fold_left max (-1) (Site_set.to_list a) = Site_set.max_elt a);
  ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "universe" `Quick test_universe;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "extrema" `Quick test_extrema;
    Alcotest.test_case "iteration" `Quick test_iteration;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "queries and walks allocate nothing" `Quick test_allocation_free;
  ]
  @ props
