(* The static linear ordering of sites used by the lexicographic tie-break
   (Jajodia's extension, adopted by ODV/TDV/OTDV).  The paper writes
   "A > B > C": the earliest-listed site is the *maximum* element.  We store
   a rank per site; higher rank = greater site. *)

type t = { rank : int array }

let of_ranking sites =
  let n = List.length sites in
  if n = 0 then invalid_arg "Ordering.of_ranking: empty ranking";
  let max_id = List.fold_left max 0 sites in
  let rank = Array.make (max_id + 1) (-1) in
  List.iteri
    (fun position site ->
      if site < 0 then invalid_arg "Ordering.of_ranking: negative site id";
      if rank.(site) >= 0 then invalid_arg "Ordering.of_ranking: duplicate site";
      (* First in the list gets the highest rank. *)
      rank.(site) <- n - position)
    sites;
  { rank }

(* Default ordering for a universe of [n] sites: site 0 is the maximum,
   matching the paper's convention that site 1 (our id 0) ranks first. *)
let default n =
  if n <= 0 then invalid_arg "Ordering.default: n must be positive";
  of_ranking (List.init n (fun i -> i))

let rank t site =
  if site < 0 || site >= Array.length t.rank || t.rank.(site) < 0 then
    invalid_arg (Printf.sprintf "Ordering.rank: site %d not ranked" site);
  t.rank.(site)

let greater t a b = rank t a > rank t b

(* Walks the members in ascending id order, keeping the first of the
   highest rank; a recursion over the set rather than a [fold] whose
   callback would close over [t]. *)
let rec best_of t set best best_rank =
  if Site_set.is_empty set then best
  else
    let site = Site_set.min_elt set in
    let r = rank t site in
    let rest = Site_set.remove site set in
    if r > best_rank then best_of t rest site r else best_of t rest best best_rank

let max_element t set =
  if Site_set.is_empty set then raise Not_found;
  let first = Site_set.min_elt set in
  best_of t (Site_set.remove first set) first (rank t first)

let pp ppf t =
  let sites =
    Array.to_list (Array.mapi (fun site r -> (site, r)) t.rank)
    |> List.filter (fun (_, r) -> r >= 0)
    |> List.sort (fun (_, r1) (_, r2) -> compare r2 r1)
    |> List.map fst
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any " > ") int) sites
