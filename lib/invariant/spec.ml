(* The paper's safety contract as one executable spec — the single
   module every checker in the tree evaluates.

   The invariants are the dynamic-voting analogues of the TLA+ [Voting]
   module's [VotesSafe] / [OneValuePerBallot]:

   - Generation agreement: at most one component may be granted per
     generation, so every commit carrying operation number [o] must carry
     the same (version, partition) everywhere.  Two different ensembles
     for one generation is the split-brain signature.

   - One committed version per (o, v) / no content forks: two sites
     agreeing on a committed version number must hold identical bytes.

   - Per-site monotonicity: the operation numbers a site applies must be
     strictly increasing, and a commit may never lower a site's version
     number (the nodes promise this; the spec re-verifies it
     independently).

   - Register-read consistency (one-copy equivalence): a granted read
     must return the latest cleanly committed write, or the content of a
     later write whose coordinator died mid-operation (a "maybe
     committed" write — the client was told it aborted, but its effects
     may have partially escaped).

   Three checkers feed it: the chaos harness attaches it to a msgsim
   cluster's commit-witness stream (Dynvote_chaos.Oracle, a thin
   adapter over this module), the bounded model checker evaluates and
   fingerprints it at every explored state, and the live service's
   audit replays recorded per-node operation logs through {!replay}.
   The evaluation order is identical in all three — a verdict is a
   property of the event stream, not of the checker that produced it. *)

type violation =
  | Generation_conflict of {
      op_no : int;
      site_a : Site_set.site;
      version_a : int;
      partition_a : Site_set.t;
      site_b : Site_set.site;
      version_b : int;
      partition_b : Site_set.t;
    }
  | Non_monotone_op of { site : Site_set.site; before : int; after : int }
  | Version_regression of { site : Site_set.site; before : int; after : int }
  | Stale_read of { at : Site_set.site; got : string; wanted : string list }
  | Content_fork of {
      version : int;
      site_a : Site_set.site;
      content_a : string;
      site_b : Site_set.site;
      content_b : string;
    }

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

module Fork_set = Set.Make (struct
  type t = int * Site_set.site * Site_set.site

  let compare = compare
end)

(* A site's watermark: the operation and version numbers of the last
   commit it applied. *)
type mark = { op : int; version : int }

(* All tables are immutable maps rebound in place: a backtracking
   explorer checkpoints and restores the spec state on every transition,
   and persistent structures make both operations constant-time pointer
   copies (the tables are tiny, so the log-time updates are noise). *)
type t = {
  mutable violations : violation list; (* newest first *)
  mutable committed : string;          (* latest cleanly committed content *)
  mutable maybe : string list;         (* contents of aborted writes since *)
  mutable generations : (int * Site_set.t * Site_set.site) Int_map.t;
      (* op_no -> first witnessed (version, partition, site) *)
  mutable committed_versions : Int_set.t;
  mutable last : mark Int_map.t;       (* site -> watermark *)
  mutable flagged_forks : Fork_set.t;
      (* forks already reported, so the per-step scan flags each once *)
  mutable commits_seen : int;
  mutable reads_checked : int;
}

let create ~initial_content =
  {
    violations = [];
    committed = initial_content;
    maybe = [];
    generations = Int_map.empty;
    committed_versions = Int_set.empty;
    last = Int_map.empty;
    flagged_forks = Fork_set.empty;
    commits_seen = 0;
    reads_checked = 0;
  }

let flag t violation = t.violations <- violation :: t.violations

(* The generation-agreement predicate lives HERE and only here: the
   first witnessed (version, partition) for an operation number is the
   reference, and any later commit disagreeing in either component is
   the split-brain.  Checkers must not restate this comparison — they
   feed commits in and read violations out. *)
let witness t site replica =
  t.commits_seen <- t.commits_seen + 1;
  let op_no = Replica.op_no replica in
  let version = Replica.version replica in
  let partition = Replica.partition replica in
  t.committed_versions <- Int_set.add version t.committed_versions;
  (* Lookups raise rather than return an option: this runs at every
     applied commit of every checker transition. *)
  (match Int_map.find op_no t.generations with
  | version_a, partition_a, site_a ->
      if version_a <> version || not (Site_set.equal partition_a partition) then
        flag t
          (Generation_conflict
             {
               op_no;
               site_a;
               version_a;
               partition_a;
               site_b = site;
               version_b = version;
               partition_b = partition;
             })
  | exception Not_found ->
      t.generations <- Int_map.add op_no (version, partition, site) t.generations);
  (match Int_map.find site t.last with
  | before ->
      if before.op >= op_no then
        flag t (Non_monotone_op { site; before = before.op; after = op_no });
      if before.version > version then
        flag t (Version_regression { site; before = before.version; after = version })
  | exception Not_found -> ());
  t.last <- Int_map.add site { op = op_no; version } t.last

(* Client-visible outcomes feed the register model.  A write that aborted
   after its decision may or may not have escaped; its content joins the
   maybe set until the next clean write supersedes it. *)
let write_flags t ~granted ~aborted ~content =
  if granted then begin
    t.committed <- content;
    t.maybe <- []
  end
  else if aborted then t.maybe <- content :: t.maybe

let read_flags t ~at ~granted ~content =
  if granted then begin
    t.reads_checked <- t.reads_checked + 1;
    match content with
    | None -> ()
    | Some got ->
        if got <> t.committed && not (List.mem got t.maybe) then
          flag t (Stale_read { at; got; wanted = t.committed :: t.maybe })
  end

(* Content-fork scan: among versions some commit actually carried, equal
   version numbers must mean equal bytes.  (Residue of an aborted write
   sits at a version no commit ever used and is skipped — the client was
   told that write failed.)  The scan is incremental: it may run after
   every schedule step, so the model checker reports the {e first}
   violating state; a (version, pair) already flagged is not re-reported
   on later calls. *)
let check_fork t ~site_a ~version ~content_a ~site_b ~version_b ~content_b =
  if
    site_a < site_b && version = version_b
    && Int_set.mem version t.committed_versions
    && content_a <> content_b
    && not (Fork_set.mem (version, site_a, site_b) t.flagged_forks)
  then begin
    t.flagged_forks <- Fork_set.add (version, site_a, site_b) t.flagged_forks;
    flag t (Content_fork { version; site_a; content_a; site_b; content_b })
  end

let check_states t holders =
  List.iter
    (fun (site_a, version, content_a) ->
      List.iter
        (fun (site_b, version_b, content_b) ->
          check_fork t ~site_a ~version ~content_a ~site_b ~version_b ~content_b)
        holders)
    holders

(* Replay: the same invariants, fed from recorded events instead of a
   live cluster — the entry point the networked service's per-node
   operation logs go through.  A write's content is tracked from its
   intent record: the moment a coordinator starts distributing COMMITs
   the content may escape, so it joins the maybe set immediately and is
   promoted to cleanly-committed only when the matching granted outcome
   appears.  An intent whose coordinator died mid-wave never produces an
   outcome and simply stays maybe — exactly the aborted-write semantics
   of [write_flags]. *)
type replay_event =
  | Replay_commit of { site : Site_set.site; replica : Replica.t }
  | Replay_intent of { content : string }
  | Replay_write of { granted : bool; content : string }
  | Replay_read of { at : Site_set.site; granted : bool; content : string option }

let replay_event t = function
  | Replay_commit { site; replica } -> witness t site replica
  | Replay_intent { content } -> t.maybe <- content :: t.maybe
  | Replay_write { granted; content } ->
      (* The intent already holds the maybe slot; a granted outcome
         promotes it, anything else leaves it there. *)
      write_flags t ~granted ~aborted:false ~content
  | Replay_read { at; granted; content } -> read_flags t ~at ~granted ~content

let replay ~initial_content ?(final = []) events =
  let t = create ~initial_content in
  List.iter (replay_event t) events;
  check_states t final;
  t

(* Snapshots let a backtracking explorer unwind the spec state along with
   the cluster.  Every field is immutable data rebound in place, so both
   directions are constant-time field copies. *)
type snapshot = {
  snap_violations : violation list;
  snap_committed : string;
  snap_maybe : string list;
  snap_generations : (int * Site_set.t * Site_set.site) Int_map.t;
  snap_committed_versions : Int_set.t;
  snap_last : mark Int_map.t;
  snap_flagged_forks : Fork_set.t;
  snap_commits_seen : int;
  snap_reads_checked : int;
}

let snapshot t =
  {
    snap_violations = t.violations;
    snap_committed = t.committed;
    snap_maybe = t.maybe;
    snap_generations = t.generations;
    snap_committed_versions = t.committed_versions;
    snap_last = t.last;
    snap_flagged_forks = t.flagged_forks;
    snap_commits_seen = t.commits_seen;
    snap_reads_checked = t.reads_checked;
  }

let restore t s =
  t.violations <- s.snap_violations;
  t.committed <- s.snap_committed;
  t.maybe <- s.snap_maybe;
  t.generations <- s.snap_generations;
  t.committed_versions <- s.snap_committed_versions;
  t.last <- s.snap_last;
  t.flagged_forks <- s.snap_flagged_forks;
  t.commits_seen <- s.snap_commits_seen;
  t.reads_checked <- s.snap_reads_checked

let mem_committed_version t version = Int_set.mem version t.committed_versions

(* Serialize the spec's memory — the part of the product state that
   determines which {e future} violations it can still detect — through
   the canonical writer [w], which renames content strings (the literal
   bytes of "w3" vs "w5" are schedule artifacts), relabels sites so a
   symmetry-reducing explorer can fold equivalent states, and rebases
   the operation and version counters (the protocols and these checks
   compare them only for order and equality and advance them by
   increments, so a caller may rebase them to collapse histories
   differing by a committed prefix).  Already-flagged forks are
   deliberately excluded: any state carrying one also carries a
   violation and is never expanded further.

   Two liveness filters keep the serialization from growing with history
   length (the monotone tables would otherwise make every state
   path-dependent and defeat the explorer's seen set):

   - Generation entries whose op_no the writer calls dead (below its
     floor, raw, unrebased) are dropped.  A future commit's operation
     number exceeds its coordinator's current one, so with the floor at
     the minimum operation number any site could still present as
     coordinator, entries strictly below it can never be re-witnessed —
     they are inert for Generation_conflict detection.  (The caller owns
     the soundness argument; a floor of 0 keeps everything, e.g. when
     amnesiac restarts can revive arbitrarily stale ensembles.)

   - The committed-versions set is NOT serialized here.  The fork check
     only consults it for a version two sites currently hold, and a
     version with no holder anywhere can only be re-acquired through a
     fresh commit — which re-inserts its membership.  Callers instead
     record one bit per site ("this site's data version is a committed
     version"), which is the live content of the set.

   The explorer writes this once per transition, so the walks below are
   top-level functions that take the writer as their accumulator: no
   closure is built per state. *)
let rec write_contents w = function
  | [] -> ()
  | s :: rest ->
      Fingerprint_buf.content w s;
      write_contents w rest

let count_generation op_no _ w =
  Fingerprint_buf.count_live w op_no;
  w

(* The stored first-witness site is report attribution only — the
   conflict predicate compares version and partition — so it stays out
   of the fingerprint: states differing in nothing but which site
   happened to witness a generation first flag the same future
   violations. *)
let write_generation op_no (version, partition, _site) w =
  if Fingerprint_buf.live_op w op_no then begin
    Fingerprint_buf.op w op_no;
    Fingerprint_buf.version w version;
    Fingerprint_buf.set w partition
  end;
  w

let write_op_mark site mark w =
  Fingerprint_buf.int w site;
  Fingerprint_buf.op w mark.op;
  w

let write_version_mark site mark w =
  Fingerprint_buf.int w site;
  Fingerprint_buf.version w mark.version;
  w

(* Per-site watermarks as (canonical site, value) pairs in ascending
   canonical-site order — the map's own order under the identity. *)
let write_marks w table ~version =
  let module W = Fingerprint_buf in
  W.int w (Int_map.cardinal table);
  if W.identity w then
    ignore (Int_map.fold (if version then write_version_mark else write_op_mark) table w : W.t)
  else
    for c = 0 to W.sites w - 1 do
      let site = W.site_at w c in
      if Int_map.mem site table then begin
        let mark = Int_map.find site table in
        W.int w c;
        if version then W.version w mark.version else W.op w mark.op
      end
    done

let fingerprint_memory t w =
  let module W = Fingerprint_buf in
  W.int w (List.length t.violations);
  W.content w t.committed;
  W.int w (List.length t.maybe);
  write_contents w t.maybe;
  (* Map folds run in ascending key order. *)
  W.int w (W.live_count (Int_map.fold count_generation t.generations w));
  ignore (Int_map.fold write_generation t.generations w : W.t);
  write_marks w t.last ~version:false;
  write_marks w t.last ~version:true

let violations t = List.rev t.violations
let is_safe t = t.violations = []
let commits_seen t = t.commits_seen
let reads_checked t = t.reads_checked

let pp_violation ppf = function
  | Generation_conflict g ->
      Fmt.pf ppf
        "generation %d committed twice: site %d saw (v%d, %a) but site %d saw (v%d, %a)"
        g.op_no g.site_a g.version_a Site_set.pp g.partition_a g.site_b g.version_b
        Site_set.pp g.partition_b
  | Non_monotone_op { site; before; after } ->
      Fmt.pf ppf "site %d applied operation %d after %d" site after before
  | Version_regression { site; before; after } ->
      Fmt.pf ppf "site %d regressed from version %d to %d" site before after
  | Stale_read { at; got; wanted } ->
      Fmt.pf ppf "read at site %d returned %S, legal: %a" at got
        Fmt.(list ~sep:comma (quote string))
        wanted
  | Content_fork { version; site_a; content_a; site_b; content_b } ->
      Fmt.pf ppf "version %d forked: site %d holds %S, site %d holds %S" version
        site_a content_a site_b content_b
