(* The seen-state store: lock-striped, open-addressing, hash-compacted,
   optionally disk-spilled.

   In the spirit of Stern & Dill's parallel Murphi, the only shared
   structure of the parallel search is this table, and it only needs
   per-state atomicity — a mutex per shard gives that without
   serializing unrelated states.

   Hash compaction: a state is stored as a 62-bit hash of its canonical
   fingerprint bytes, which the explorer's writer hashes as it emits
   them ({!Fingerprint.hash}), so no fingerprint string exists on the
   search path; [claim] hashes a string for callers that have one.  Two
   distinct states colliding makes the search believe one was already
   explored — a soundness-for-capacity trade every hash-compacted
   checker (Murphi, TLC) makes: at n distinct states the collision
   probability is about
   n^2 / 2^63 (~5e-8 at a million states), far below the chance of any
   competing systematic error, and the cross-validating chaos replay
   would catch a collision-suppressed counterexample's absence at the
   published depths.  The payoff is a fixed 16 bytes per state (two
   unboxed int-array slots) instead of a boxed key string plus hashtable
   spine.

   Each shard is a pair of power-of-two int arrays ([fps]/[meta], linear
   probing, grown at 7/8 load) under its own mutex; fingerprint 0 is
   remapped so 0 can mark empty slots.  The metadata word packs the
   remaining-depth budget with the partial-order
   reduction context ({!Por.rank} of the action the state was entered
   by): see [claim_hash] for the transposition rule both feed.

   The spill tier bounds resident memory: when a shard's resident count
   reaches its threshold, the resident entries are sorted and merged
   into the shard's single on-disk run (an LSM with one level), and the
   arrays shrink back to their seed size.  Lookups probe the resident
   table first, then binary-search the run; an entry that needs updating
   is re-inserted resident, shadowing the run copy until the next merge
   deduplicates.  Run files are unlinked the moment they are opened, so
   they vanish with the process.  Spilling changes where an entry lives,
   never what [claim] answers — verdicts and traversal statistics are
   identical with the tier on or off, which the cram gate pins. *)

type shard = {
  mutex : Mutex.t;
  mutable fps : int array;  (* 0 = empty slot *)
  mutable meta : int array; (* budget lsl ctx_bits lor ctx *)
  mutable resident : int;
  mutable admitted : int;   (* distinct states first seen in this shard *)
  mutable run_fd : Unix.file_descr option; (* sorted (fp, meta) pairs *)
  mutable run_len : int;
}

type t = {
  shards : shard array;
  shard_shift : int;
  count : int Atomic.t; (* distinct states admitted, for the global budget *)
  max_states : int;
  spill_at : int; (* per-shard resident threshold; 0 = spilling disabled *)
}

type verdict = Expand of { filter : int; covered : int } | Prune | Budget

(* Packed metadata: one (budget, context) statement is 31 bits —
   Por.max_ctx < 2^19, and search budgets clamp to 12 bits (a weaker
   recorded statement is never a wrong prune, and a search bound past
   4095 is computationally unreachable anyway) — so the 62 usable bits
   of the meta word hold TWO statements.  A state reached both through a
   protocol action (context 0) and through a fault action keeps both
   coverage facts, which is what keeps context conflicts, and the
   difference re-expansions they force, rare. *)
let ctx_bits = 19
let ctx_mask = (1 lsl ctx_bits) - 1
let () = assert (Por.max_ctx <= ctx_mask + 1)
let budget_bits = 12
let budget_mask = (1 lsl budget_bits) - 1
let stmt_bits = ctx_bits + budget_bits
let stmt_mask = (1 lsl stmt_bits) - 1
let stmt ~budget ~ctx = (min budget budget_mask lsl ctx_bits) lor ctx
let stmt_budget s = s lsr ctx_bits
let stmt_ctx s = s land ctx_mask

(* [by] prunes everything [s] would: at least the budget, and a filter
   no stronger (unfiltered, or identical). *)
let stmt_subsumes ~by s =
  stmt_budget by >= stmt_budget s && (stmt_ctx by = 0 || stmt_ctx by = stmt_ctx s)

(* The packed pair [kept] (an empty slot is 0) with [s] added, unless it
   is empty or a kept statement subsumes it; a third is dropped. *)
let keep kept s =
  let a = kept land stmt_mask and b = kept lsr stmt_bits in
  if s = 0 || (a <> 0 && stmt_subsumes ~by:a s) then kept
  else if a = 0 then s
  else if b = 0 then kept lor (s lsl stmt_bits)
  else kept

(* The two strongest of the (at most three) true statements, packed:
   the stored pair [prior] and [ours], strongest budget first (a stable
   sort, by three compare-and-swaps), each kept unless an earlier one
   subsumes it.  The empty statement 0 = (budget 0, context 0) is
   vacuously true and needs no slot. *)
let join prior ours =
  let x = ref (prior land stmt_mask) and y = ref (prior lsr stmt_bits) and z = ref ours in
  if stmt_budget !x < stmt_budget !y then begin
    let t = !x in
    x := !y;
    y := t
  end;
  if stmt_budget !y < stmt_budget !z then begin
    let t = !y in
    y := !z;
    z := t
  end;
  if stmt_budget !x < stmt_budget !y then begin
    let t = !x in
    x := !y;
    y := t
  end;
  keep (keep (keep 0 !x) !y) !z

(* FNV-1a over the fingerprint string, then a splitmix-style finalizer:
   {!Fingerprint_buf.hash_string}, the hash a fingerprint writer
   accumulates as it writes.  The low bits index the probe table, the
   high bits pick the shard, so the two stay uncorrelated. *)
let fingerprint_hash = Fingerprint_buf.hash_string

let seed_capacity = 64

let env_spill () =
  match Sys.getenv_opt "DYNVOTE_MC_SPILL" with
  | None | Some "" | Some "0" -> None
  | Some v -> (
      match int_of_string_opt v with Some n when n > 0 -> Some n | _ -> None)

let create ?(shards = 64) ?spill ~max_states () =
  let n =
    let rec pow2 n = if n >= shards then n else pow2 (n * 2) in
    pow2 1
  in
  let spill = match spill with Some s -> Some s | None -> env_spill () in
  let spill_at =
    match spill with None -> 0 | Some total -> max 1 (total / n)
  in
  {
    shards =
      Array.init n (fun _ ->
          {
            mutex = Mutex.create ();
            fps = Array.make seed_capacity 0;
            meta = Array.make seed_capacity 0;
            resident = 0;
            admitted = 0;
            run_fd = None;
            run_len = 0;
          });
    (* Shards come from bits 50+ of the hash (up to 4096 shards before
       running out of the 62), disjoint from the probe index's low bits. *)
    shard_shift = 50;
    count = Atomic.make 0;
    max_states;
    spill_at;
  }

let shard_of t fp = t.shards.((fp lsr t.shard_shift) land (Array.length t.shards - 1))

(* --- resident table --- *)

let rec probe fps fp mask i =
  let f = Array.unsafe_get fps i in
  if f = 0 || f = fp then i else probe fps fp mask ((i + 1) land mask)

let find_slot fps fp =
  let mask = Array.length fps - 1 in
  probe fps fp mask (fp land mask)

let grow shard =
  let old_fps = shard.fps and old_meta = shard.meta in
  let cap = Array.length old_fps * 2 in
  shard.fps <- Array.make cap 0;
  shard.meta <- Array.make cap 0;
  Array.iteri
    (fun i fp ->
      if fp <> 0 then begin
        let j = find_slot shard.fps fp in
        shard.fps.(j) <- fp;
        shard.meta.(j) <- old_meta.(i)
      end)
    old_fps

let insert shard fp meta =
  if (shard.resident + 1) * 8 > Array.length shard.fps * 7 then grow shard;
  let i = find_slot shard.fps fp in
  if shard.fps.(i) = 0 then begin
    shard.fps.(i) <- fp;
    shard.resident <- shard.resident + 1
  end;
  shard.meta.(i) <- meta

(* --- the disk run --- *)

let entry_bytes = 16

let read_entry fd i =
  let b = Bytes.create entry_bytes in
  ignore (Unix.lseek fd (i * entry_bytes) Unix.SEEK_SET);
  let rec fill off =
    if off < entry_bytes then
      let k = Unix.read fd b off (entry_bytes - off) in
      if k = 0 then failwith "Striped_seen: truncated spill run" else fill (off + k)
  in
  fill 0;
  (Int64.to_int (Bytes.get_int64_le b 0), Int64.to_int (Bytes.get_int64_le b 8))

(* Binary search the sorted run for [fp]; (-1) when absent (metas are
   non-negative). *)
let run_find shard fp =
  match shard.run_fd with
  | None -> -1
  | Some fd ->
      let rec go lo hi =
        if lo > hi then -1
        else
          let mid = (lo + hi) / 2 in
          let f, m = read_entry fd mid in
          if f = fp then m else if f < fp then go (mid + 1) hi else go lo (mid - 1)
      in
      go 0 (shard.run_len - 1)

(* Merge the sorted resident batch with the existing run into a fresh
   run file (created and immediately unlinked, so it disappears with the
   process).  On duplicate fingerprints the resident entry wins — it is
   the newer statement. *)
let flush shard =
  let batch = Array.make shard.resident (0, 0) in
  let k = ref 0 in
  Array.iteri
    (fun i fp ->
      if fp <> 0 then begin
        batch.(!k) <- (fp, shard.meta.(i));
        incr k
      end)
    shard.fps;
  Array.sort compare batch;
  let path = Filename.temp_file "dynvote-mc-spill" ".run" in
  let out = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Unix.unlink path;
  let wbuf = Buffer.create 8192 in
  let written = ref 0 in
  let push fp meta =
    let b = Bytes.create entry_bytes in
    Bytes.set_int64_le b 0 (Int64.of_int fp);
    Bytes.set_int64_le b 8 (Int64.of_int meta);
    Buffer.add_bytes wbuf b;
    incr written;
    if Buffer.length wbuf >= 8192 then begin
      let s = Buffer.to_bytes wbuf in
      ignore (Unix.write out s 0 (Bytes.length s));
      Buffer.clear wbuf
    end
  in
  let old_fd = shard.run_fd and old_len = shard.run_len in
  (match old_fd with Some fd -> ignore (Unix.lseek fd 0 Unix.SEEK_SET) | None -> ());
  let next_old =
    let i = ref 0 in
    fun () ->
      match old_fd with
      | Some fd when !i < old_len ->
          let e = read_entry fd !i in
          incr i;
          Some e
      | _ -> None
  in
  let rec merge old j =
    match (old, if j < Array.length batch then Some batch.(j) else None) with
    | None, None -> ()
    | Some (fp, m), None ->
        push fp m;
        merge (next_old ()) j
    | None, Some (fp, m) ->
        push fp m;
        merge None (j + 1)
    | Some (ofp, om), Some (bfp, _) when ofp < bfp ->
        push ofp om;
        merge (next_old ()) j
    | Some (ofp, _), Some (bfp, bm) when ofp = bfp ->
        (* resident shadows the stale run copy *)
        push bfp bm;
        merge (next_old ()) (j + 1)
    | old, Some (bfp, bm) ->
        push bfp bm;
        merge old (j + 1)
  in
  merge (next_old ()) 0;
  if Buffer.length wbuf > 0 then begin
    let s = Buffer.to_bytes wbuf in
    ignore (Unix.write out s 0 (Bytes.length s))
  end;
  (match old_fd with Some fd -> Unix.close fd | None -> ());
  shard.run_fd <- Some out;
  shard.run_len <- !written;
  shard.fps <- Array.make seed_capacity 0;
  shard.meta <- Array.make seed_capacity 0;
  shard.resident <- 0

(* --- the claim rule --- *)

(* The context-tagged transposition rule.  A stored (budget b', context
   k') is the statement "every path of length <= b' from this state, in
   the reduced graph whose first level is filtered by Por context k',
   has been (or is on the current stack being) explored".  k' = 0 means
   unfiltered — the strongest statement at its budget.

   A revisit at (b, k) is covered, and pruned, iff some stored
   statement has b' >= b and a filter no stronger than ours: k' = 0
   (everything we would explore was explored) or k' = k (the identical
   subset was).  A context conflict (k' differing from both 0 and k) at
   b' >= b means the statement covers our budget but not our whole
   first level: the protocol actions and every fault action awake under
   both contexts were explored, so only the {e difference} — fault
   actions slept under k' but awake under k — needs expanding
   (Godefroid's re-exploration rule for sleep sets under state
   caching).  Either expansion — full when no statement reaches our
   budget, difference when one does — makes our own (b, k) a true
   statement, and [join] keeps the two strongest of the three; dropping
   a true statement is never unsound, only a possible re-expansion
   later.  This is what makes partial-order reduction sound in the
   presence of state caching (the "ignored states" problem): a pruned
   sorted path can only land on entries whose recorded exploration
   subsumes its own continuations.

   Admission of a fresh state goes through one compare-and-set loop on
   the global counter, so exactly [max_states] distinct states are ever
   admitted and the counter never drifts past the cap: a state rejected
   on the Budget path is {e not} counted (it was never admitted), which
   keeps [distinct] = [length] an invariant the report path asserts. *)
let rec admit t =
  let c = Atomic.get t.count in
  if c >= t.max_states then false
  else if Atomic.compare_and_set t.count c (c + 1) then true
  else admit t

let covers s ~budget ~ctx = stmt_budget s >= budget && (stmt_ctx s = 0 || stmt_ctx s = ctx)

(* The revisit of a stored state, whose statements are [prior], at slot
   [slot] of the resident table, or (-1) in the run only.  A slot that
   covers our budget necessarily holds a conflicting nonzero context (a
   covering one would have pruned): expand only its sleep difference.
   Either way the expansion makes our own statement true, so it joins
   the slot pair; re-inserting a run entry resident shadows the run copy
   until the next merge, and admission counters are untouched — the
   state was counted when first admitted. *)
let revisit shard ~slot fp prior ~budget ~ctx =
  let s1 = prior land stmt_mask and s2 = prior lsr stmt_bits in
  if covers s1 ~budget ~ctx || covers s2 ~budget ~ctx then Prune
  else begin
    let covered =
      if stmt_budget s1 >= budget then stmt_ctx s1
      else if stmt_budget s2 >= budget then stmt_ctx s2
      else 0
    in
    let meta = join prior (stmt ~budget ~ctx) in
    if slot >= 0 then shard.meta.(slot) <- meta else insert shard fp meta;
    Expand { filter = ctx; covered }
  end

let claim_hash t fp ~budget ~ctx =
  if fp = 0 then invalid_arg "Striped_seen.claim_hash: 0 is no fingerprint hash";
  let shard = shard_of t fp in
  Mutex.lock shard.mutex;
  let i = find_slot shard.fps fp in
  let verdict =
    if shard.fps.(i) = fp then revisit shard ~slot:i fp shard.meta.(i) ~budget ~ctx
    else
      match run_find shard fp with
      | -1 ->
          if not (admit t) then Budget
          else begin
            insert shard fp (stmt ~budget ~ctx);
            shard.admitted <- shard.admitted + 1;
            Expand { filter = ctx; covered = 0 }
          end
      | prior -> revisit shard ~slot:(-1) fp prior ~budget ~ctx
  in
  if t.spill_at > 0 && shard.resident >= t.spill_at then flush shard;
  Mutex.unlock shard.mutex;
  verdict

let claim t s ~budget ~ctx = claim_hash t (fingerprint_hash s) ~budget ~ctx

let distinct t = Atomic.get t.count

let length t =
  Array.fold_left (fun acc shard -> acc + shard.admitted) 0 t.shards

let spilled t =
  Array.fold_left (fun acc shard -> acc + shard.run_len) 0 t.shards

let resident t =
  Array.fold_left (fun acc shard -> acc + shard.resident) 0 t.shards

let close t =
  Array.iter
    (fun shard ->
      match shard.run_fd with
      | Some fd ->
          Unix.close fd;
          shard.run_fd <- None;
          shard.run_len <- 0
      | None -> ())
    t.shards
