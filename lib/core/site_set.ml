(* Sets of site identifiers as immutable machine-word bitsets.  The
   simulator evaluates millions of quorum decisions, each involving a
   handful of set operations, so sets must be allocation-free.  Site ids
   range over 0..61 (one OCaml int, keeping one bit of headroom); the paper
   never needs more than 8. *)

type t = int

type site = int

let max_sites = 62

let empty = 0

let check_site i =
  if i < 0 || i >= max_sites then
    invalid_arg (Printf.sprintf "Site_set: site id %d outside [0, %d)" i max_sites)

let singleton i =
  check_site i;
  1 lsl i

let universe n =
  if n < 0 || n > max_sites then invalid_arg "Site_set.universe: bad size";
  if n = 0 then 0 else (1 lsl n) - 1

let mem i t =
  check_site i;
  t land (1 lsl i) <> 0

let add i t =
  check_site i;
  t lor (1 lsl i)

let remove i t =
  check_site i;
  t land lnot (1 lsl i)

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let is_empty t = t = 0
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

(* Kernighan popcount; sets are tiny (<= 8 members) in practice. *)
let cardinal t =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go t 0

(* Every walk below is a top-level recursion that takes the set (and the
   callback) as arguments, so it allocates nothing of its own: a local
   [go] closing over either would be a fresh closure on every call.  The
   member walks shift the set right one bit per step, carrying the id of
   its low bit. *)
let rec lowest t i = if t land (1 lsl i) <> 0 then i else lowest t (i + 1)

(* The highest member is the least [i] with no member above it. *)
let rec highest t i = if t lsr (i + 1) = 0 then i else highest t (i + 1)

let min_elt t =
  if t = 0 then raise Not_found;
  lowest t 0

let max_elt t =
  if t = 0 then raise Not_found;
  highest t 0

let choose = min_elt

let rec fold_from f t i acc =
  if t = 0 then acc
  else fold_from f (t lsr 1) (i + 1) (if t land 1 <> 0 then f i acc else acc)

let fold f t init = fold_from f t 0 init

let rec iter_from f t i =
  if t <> 0 then begin
    if t land 1 <> 0 then f i;
    iter_from f (t lsr 1) (i + 1)
  end

let iter f t = iter_from f t 0

let rec for_all_from p t i =
  t = 0 || ((t land 1 = 0 || p i) && for_all_from p (t lsr 1) (i + 1))

let for_all p t = for_all_from p t 0

let rec exists_from p t i =
  t <> 0 && ((t land 1 <> 0 && p i) || exists_from p (t lsr 1) (i + 1))

let exists p t = exists_from p t 0

let rec filter_from p t i acc =
  if t = 0 then acc
  else
    filter_from p (t lsr 1) (i + 1)
      (if t land 1 <> 0 && p i then acc lor (1 lsl i) else acc)

let filter p t = filter_from p t 0 empty

let of_list l = List.fold_left (fun acc i -> add i acc) empty l

(* Highest first, so the list comes out ascending without a reversal. *)
let rec to_list_onto t acc =
  if t = 0 then acc
  else
    let i = highest t 0 in
    to_list_onto (t land lnot (1 lsl i)) (i :: acc)

let to_list t = to_list_onto t []

let to_int t = t

let of_int_unsafe i = i

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") int) (to_list t)

let pp_names names ppf t =
  let name i = if i >= 0 && i < Array.length names then names.(i) else string_of_int i in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") string) (List.map name (to_list t))
