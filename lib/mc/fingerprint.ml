(* Canonical state fingerprints for the explorer's seen set.

   A fingerprint serializes everything that determines a session's future
   behavior: every site's ensemble (o, v, P), data version and content,
   amnesia and stable-record status; the cluster's up/fresh sets and
   declared partition groups; and the safety oracle's memory (its
   register model and monotonicity watermarks are part of the product
   state — two cluster states are only interchangeable if the oracle can
   still detect the same future violations from both).

   Content strings are canonicalized by first-occurrence renaming: the
   literal bytes "w3" vs "w5" record how many write steps a path
   attempted, not anything the protocol can branch on, so states that
   differ only in those labels collapse.  (Violation reports quote the
   literal strings, but a violating state terminates the search — it is
   never fingerprinted for re-expansion.)

   An optional site permutation relabels sites before serialization; the
   canonical form under a symmetry group is the minimum serialization
   over its permutations.  Relabeling is only sound when the transition
   relation commutes with it — which the lexicographic tie-break breaks,
   so callers restrict symmetry to tie-break-free flavors and to
   permutations within a segment (preserving [segment_of]). *)

module Cluster = Dynvote_msgsim.Cluster
module Node = Dynvote_msgsim.Node
module Harness = Dynvote_chaos.Harness
module Spec = Dynvote_invariant.Spec

let identity ~n_sites = Array.init n_sites Fun.id

(* All permutations of the universe that map every segment onto itself,
   identity included (it is the identity of the group, hence always
   first).  Sites outside the universe map to themselves. *)
let segment_perms ~universe ~segment_of =
  let n_sites = Site_set.max_elt universe + 1 in
  let by_segment = Hashtbl.create 4 in
  Site_set.iter
    (fun site ->
      let seg = segment_of site in
      Hashtbl.replace by_segment seg (site :: (Option.value ~default:[] (Hashtbl.find_opt by_segment seg))))
    universe;
  let rec permutations = function
    | [] -> [ [] ]
    | items ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) items in
            List.map (fun p -> x :: p) (permutations rest))
          items
  in
  (* One (members, images) choice per segment; the cartesian product of
     per-segment permutations is the full symmetry group. *)
  let groups =
    List.sort compare
      (Hashtbl.fold (fun _ members acc -> List.sort compare members :: acc) by_segment [])
  in
  let assignments =
    List.fold_left
      (fun acc members ->
        let perms = permutations members in
        List.concat_map
          (fun assignment ->
            List.map (fun images -> List.combine members images :: assignment) perms)
          acc)
      [ [] ] groups
  in
  let arrays =
    List.map
      (fun assignment ->
        let perm = identity ~n_sites in
        List.iter (List.iter (fun (site, image) -> perm.(site) <- image)) assignment;
        perm)
      assignments
  in
  (* Deterministic order with the identity first. *)
  let id = identity ~n_sites in
  id :: List.filter (fun p -> p <> id) (List.sort compare arrays)

(* The stale ensemble an amnesiac site's stable record still decodes
   to, if any.  A record of the wrong size (zeroed, truncated) cannot
   decode, and checking that first keeps it off the codec's
   error-formatting path. *)
let stale_record node =
  let record = Node.stable_record node in
  if String.length record <> Codec.encoded_size then None
  else Result.to_option (Codec.decode_result record)

(* A worker's reusable fingerprint machinery: the relabelings, the
   decoded records of amnesiac sites (read once per state, whatever the
   number of relabelings), and two writers.  With one relabeling only
   [best] is written, and it stores bytes only for {!canonical}; under a
   symmetry group each relabeling is written into [next] and swapped
   into [best] when its bytes are smaller. *)
type hasher = {
  gc : bool;
  perms : int array list;
  stale : Replica.t option array;
  mutable best : Fingerprint_buf.t;
  mutable next : Fingerprint_buf.t;
}

let make ~keep ~gc ~perms =
  match perms with
  | [] -> invalid_arg "Fingerprint.hasher: no relabeling"
  | first :: rest ->
      let keep = keep || rest <> [] in
      {
        gc;
        perms;
        stale = Array.make (Array.length first) None;
        best = Fingerprint_buf.create ~keep ();
        next = Fingerprint_buf.create ~keep ();
      }

let hasher ?(gc = false) ~perms () = make ~keep:false ~gc ~perms

(* One site's fields under the writer's relabeling. *)
let write_site w ~stale ~oracle node site =
  let module W = Fingerprint_buf in
  let replica = Node.replica node in
  W.op w (Replica.op_no replica);
  W.version w (Replica.version replica);
  W.set w (Replica.partition replica);
  W.version w (Node.data_version node);
  (* The live content of the oracle's committed-versions set: membership
     of the versions sites currently hold.  A version nobody holds can
     only be re-acquired through a fresh commit, which re-inserts it —
     so these bits replace serializing the (monotonically growing) set
     itself. *)
  W.int w (if Spec.mem_committed_version oracle (Node.data_version node) then 1 else 0);
  W.content w (Node.content node);
  (* Stable-record status.  Steps keep record and ensemble in sync for
     every non-amnesiac site (commits rewrite the record; a clean reload
     restores the ensemble from it; corruption is applied only
     immediately before the reload that discovers it), so the record
     carries extra information only on the amnesiac path — where it
     either still decodes to some stale ensemble or is mangled. *)
  if not (Node.is_amnesiac node) then W.int w 0
  else
    match stale.(site) with
    | Some r ->
        W.int w 1;
        W.op w (Replica.op_no r);
        W.version w (Replica.version r);
        W.set w (Replica.partition r)
    | None -> W.int w 2

let rec write_groups w = function
  | [] -> ()
  | mask :: rest ->
      Fingerprint_buf.int w mask;
      write_groups w rest

(* One serialization of [session] through [w], already reset. *)
let serialize w ~stale session =
  let module W = Fingerprint_buf in
  let cluster = Harness.cluster session in
  let oracle = Harness.oracle session in
  let universe = Cluster.universe cluster in
  (* Sites in ascending canonical-id order; the ids themselves are the
     sorted universe under any in-group permutation, hence carry no
     information and are omitted — keeping the identity and permuted
     shapes byte-compatible (the min over the group must compare like
     with like). *)
  for c = 0 to W.sites w - 1 do
    let site = W.site_at w c in
    if Site_set.mem site universe then write_site w ~stale ~oracle (Cluster.node cluster site) site
  done;
  W.set w (Cluster.up_sites cluster);
  W.set w (Cluster.fresh_sites cluster);
  (match Cluster.groups cluster with
  | None -> W.int w (-1)
  | Some groups ->
      W.int w (List.length groups);
      write_groups w (List.sort Int.compare (List.map (W.image w) groups)));
  Spec.fingerprint_memory oracle w

(* The rest of a symmetry group: each relabeling is written into [next]
   and kept in [best] when its bytes are smaller. *)
let rec minimum h ~o_base ~v_base ~op_floor session = function
  | [] -> ()
  | perm :: rest ->
      let w = h.next in
      Fingerprint_buf.reset w ~perm ~o_base ~v_base ~op_floor;
      serialize w ~stale:h.stale session;
      if Fingerprint_buf.compare w h.best < 0 then begin
        h.next <- h.best;
        h.best <- w
      end;
      minimum h ~o_base ~v_base ~op_floor session rest

(* Leave the canonical form of [session] in [h.best]: its serialization
   under each relabeling, the minimum kept. *)
let select h session =
  let cluster = Harness.cluster session in
  let universe = Cluster.universe cluster in
  (* One pass over the sites serves every permutation.

     Counter rebasing.  Operation and version numbers are only ever
     compared for order and equality (within their own domain — versions
     also against data versions) and advance by increments, so
     subtracting each domain's per-state minimum preserves behavior
     exactly while collapsing states that differ by a uniformly committed
     prefix — the rebasing is what lets the reachable space close instead
     of growing with history length.  Amnesiac sites' decodable stable
     records can resurface as replicas, so their counters join the
     minima.

     Generation-table GC floor: a future commit's operation number always
     exceeds its coordinator's, and without amnesiac restarts in the
     alphabet no site's operation number ever decreases (clean restarts
     reload a record kept in sync with the replica), so the floor is
     monotone along every path and entries below it stay inert forever.
     Recovery re-witnesses an {e adopted} ensemble at a peer's own
     operation number — hence strictly-below, not at-or-below.  With
     amnesia in the alphabet the floor can drop (a corrupted site revives
     an arbitrarily stale ensemble), so the caller must disable GC. *)
  let o_base = ref max_int and v_base = ref max_int and floor = ref max_int in
  for site = 0 to Array.length h.stale - 1 do
    if Site_set.mem site universe then begin
      let node = Cluster.node cluster site in
      let replica = Node.replica node in
      floor := Int.min !floor (Replica.op_no replica);
      o_base := Int.min !o_base (Replica.op_no replica);
      v_base :=
        Int.min !v_base (Int.min (Replica.version replica) (Node.data_version node));
      (* [stale] is read only for the sites found amnesiac here. *)
      if Node.is_amnesiac node then begin
        h.stale.(site) <- stale_record node;
        match h.stale.(site) with
        | Some r ->
            o_base := Int.min !o_base (Replica.op_no r);
            v_base := Int.min !v_base (Replica.version r)
        | None -> ()
      end
    end
  done;
  let o_base = !o_base and v_base = !v_base in
  let op_floor = if h.gc then !floor else 0 in
  match h.perms with
  | [] -> assert false
  | perm :: rest ->
      Fingerprint_buf.reset h.best ~perm ~o_base ~v_base ~op_floor;
      serialize h.best ~stale:h.stale session;
      minimum h ~o_base ~v_base ~op_floor session rest

let hash h session =
  select h session;
  Fingerprint_buf.hash h.best

let canonical ?buf ?(gc = false) ~perms session =
  let perms =
    match perms with
    | [] ->
        [ identity ~n_sites:(Site_set.max_elt (Cluster.universe (Harness.cluster session)) + 1) ]
    | perms -> perms
  in
  let h = make ~keep:true ~gc ~perms in
  select h session;
  let fp = Fingerprint_buf.contents h.best in
  Option.iter
    (fun buf ->
      Buffer.clear buf;
      Buffer.add_string buf fp)
    buf;
  fp
