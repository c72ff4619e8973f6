(* The crash-point recovery matrix: one small live cluster per cell,
   crashing a victim site at every persist point under every storage
   fault class and grading what recovery produces.  A cell is healthy
   when the victim either returns to full service (Recovered) or fences
   itself read-only and says so (Fenced); it fails when the majority
   stops serving (Unavailable) or — the one outcome the whole exercise
   exists to rule out — the audit finds damage nobody admitted to
   (Corrupt).

   Each cell is hermetic: its own directory, its own switchboard port,
   its own seeded fault-injection filesystem on the victim.  Cells are
   independent, so the sweep fans out over a domain pool; everything a
   cell prints into the table is deterministic (letters, not timings). *)

module Storage = Dynvote_chaos.Fault_plan.Storage
module Faultfs = Dynvote_faultfs.Faultfs
module Oracle = Dynvote_invariant.Spec
module Pool = Dynvote_exec.Pool
module Hub = Dynvote_obs.Hub
module Clock = Dynvote_obs.Clock
module Shard_store = Dynvote_shard.Shard_store

type point = { p_file : Storage.file_class; p_op : Storage.op; p_compaction : bool }

(* Every stable-storage operation the commit path performs: the
   shard-log append and its batch fsync, the atomic replace of the rid
   sidecar that a data fetch makes (write, fsync, rename, directory
   fsync — Codec.write_file_atomic's four steps), and the oplog append.
   Creates are excluded: a failed open is indistinguishable from a
   failed first write, and reads only happen at boot (where every fault
   class already lands via the restart leg). *)
let replace_ops = [ Storage.Write; Storage.Fsync; Storage.Rename; Storage.Fsync_dir ]

let point ?(compaction = false) file op =
  { p_file = file; p_op = op; p_compaction = compaction }

let points =
  List.map (point Storage.Shard) [ Storage.Write; Storage.Fsync ]
  @ List.map (point Storage.Rids) replace_ops
  @ [ point Storage.Oplog Storage.Write ]

(* The store's compaction rewrite is a persist point too — one the
   cluster cells above never reach, because it fires at a record-count
   threshold of the store's own choosing. *)
let compaction_points = List.map (point ~compaction:true Storage.Shard) replace_ops

let point_name p =
  Printf.sprintf "%s.%s"
    (if p.p_compaction then "compaction" else Storage.file_name p.p_file)
    (Storage.op_name p.p_op)

type outcome =
  | Recovered  (** the victim serves writes again after restart + RECOVER *)
  | Fenced of string  (** the victim refuses service and says why *)
  | Unavailable of string  (** the healthy majority stopped serving *)
  | Corrupt of string  (** the audit found damage nobody admitted to *)

let outcome_letter = function
  | Recovered -> 'R'
  | Fenced _ -> 'F'
  | Unavailable _ -> 'U'
  | Corrupt _ -> 'C'

let ok = function
  | Recovered | Fenced _ -> true
  | Unavailable _ | Corrupt _ -> false

type cell = {
  c_point : point;
  c_fault : Storage.fault;
  c_outcome : outcome;
  c_recovery : float;  (** seconds from restart to the victim's verdict *)
  c_injected : int;  (** triggers that actually fired (0 = never reached) *)
}

let universe = Site_set.of_list [ 0; 1; 2; 3 ]
let victim = 0

(* Tight timeouts: a cell that loses a site must conclude in tenths of a
   second, not the default multi-second patience. *)
let cell_config =
  {
    Node.default_config with
    Node.gather_timeout = 0.05;
    backoff = 1.5;
    lock_lease = 1.0;
    lock_retries = 8;
    lock_backoff = 0.02;
  }

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_cell ~dir ~seed point fault =
  let cell_dir =
    Filename.concat dir
      (Printf.sprintf "%s-%s" (point_name point) (Storage.fault_name fault))
  in
  mkdir_p cell_dir;
  let ff = Faultfs.create ~seed () in
  let vfs_of site = if site = victim then Faultfs.vfs ff else Vfs.real in
  let cluster =
    Cluster.create ~config:cell_config ~client_timeout:1.5 ~obs:Hub.noop
      ~vfs_of ~universe ~dir:cell_dir ()
  in
  let client = Cluster.client cluster in
  (* A healthy baseline write, so every site holds post-initial data and
     the armed trigger cannot land on setup traffic.  A rid-sidecar cell
     keeps the victim out of it: only a stale coordinator fetches, and
     only a fetch replaces the sidecar. *)
  let stale = point.p_file = Storage.Rids in
  if stale then
    Cluster.partition cluster
      [ Site_set.singleton victim; Site_set.remove victim universe ];
  ignore (Cluster.put client ~at:1 ~key:"base" ~value:"baseline" : Cluster.reply);
  if stale then Cluster.heal cluster;
  Faultfs.arm_next ff { Storage.fault; file = point.p_file; op = point.p_op; nth = 1 };
  (* The struck write: coordinated at the victim so its own persist path
     runs through every point; retries hop to healthy sites under the
     same request number, so a committed-then-lost ack dedups. *)
  ignore (Cluster.put ~retries:3 client ~at:victim ~key:"k1" ~value:"struck"
          : Cluster.reply);
  ignore (Cluster.put client ~at:1 ~key:"k2" ~value:"witness" : Cluster.reply);
  (* Power cut: kill the victim, then force its files back to what was
     genuinely durable (un-fsynced bytes gone, lying fsyncs exposed,
     volatile renames undone, log tail torn at a seeded-random cut). *)
  Cluster.kill cluster victim;
  Faultfs.simulate_crash ff;
  let t0 = Clock.now () in
  Cluster.restart cluster victim;
  ignore (Cluster.recover_site client victim : Cluster.reply);
  let verdict = Cluster.put client ~at:victim ~key:"k3" ~value:"after" in
  let recovery = Clock.now () -. t0 in
  let healthy = Cluster.put client ~at:1 ~key:"k4" ~value:"healthy" in
  let fenced_reason = Cluster.degraded cluster victim in
  Cluster.shutdown cluster;
  let audit = Cluster.check_dir ~universe ~dir:cell_dir in
  let outcome =
    if not (Cluster.safe audit) then
      Corrupt
        (match
           List.length (Oracle.violations audit.Cluster.oracle)
           + List.length audit.Cluster.kviolations
         with
        | 0 ->
            Printf.sprintf "%d request(s) applied more than once"
              audit.Cluster.dup_applies
        | n -> Printf.sprintf "oracle: %d violation(s)" n)
    else if audit.Cluster.corrupt > 0 && verdict.Cluster.status = Wire.Granted
    then
      (* Mid-log corruption with the victim still acking writes: the
         damage went unnoticed — exactly the silent failure the fence
         exists to prevent. *)
      Corrupt
        (Printf.sprintf "%d mid-log corrupt record(s) but the site kept serving"
           audit.Cluster.corrupt)
    else if healthy.Cluster.status <> Wire.Granted then
      Unavailable
        (Printf.sprintf "healthy site stopped serving: %s" healthy.Cluster.info)
    else
      match verdict.Cluster.status with
      | Wire.Granted -> Recovered
      | Wire.Degraded ->
          Fenced (Option.value ~default:verdict.Cluster.info fenced_reason)
      | Wire.Denied -> Fenced ("denied: " ^ verdict.Cluster.info)
      | Wire.Aborted ->
          Unavailable ("victim kept aborting: " ^ verdict.Cluster.info)
  in
  {
    c_point = point;
    c_fault = fault;
    c_outcome = outcome;
    c_recovery = recovery;
    c_injected = Faultfs.injected_total ff;
  }

(* A compaction cell needs no cluster: it drives one store to its
   compaction threshold with the fault armed on the rewrite itself, cuts
   the power, and regrades from a clean offline scan.  The store is
   opened [durable:false] — the mode in which the rewrite's own
   discipline is all that stands between a mid-flight fault and the
   durably-empty-log window — with the history explicitly fsynced before
   the strike, so everything up to the threshold is durable and any
   post-crash state older than that (or damaged) is corruption.

   [Fsync_lie] is deliberately not in a store-level sweep: a lying
   fsync makes the compacted bytes silently volatile, and with no peer
   to refetch from a single store cannot detect the resulting empty
   log.  The cluster-level matrix covers that class — recovery refetches
   from the healthy majority. *)
let compaction_faults =
  [ Storage.Eio; Storage.Enospc; Storage.Short_write; Storage.Fsync_fail;
    Storage.Rename_loss; Storage.Crash ]

let run_compaction_cell ~dir ~seed point fault =
  let cell_dir =
    Filename.concat dir
      (Printf.sprintf "%s-%s" (point_name point) (Storage.fault_name fault))
  in
  mkdir_p cell_dir;
  let ff = Faultfs.create ~seed () in
  let store, _ =
    Shard_store.open_store ~vfs:(Faultfs.vfs ff) ~durable:false ~dir:cell_dir
      ~site:0 ~shards:1 ()
  in
  let state v =
    {
      Shard_store.op_no = v;
      version = v;
      partition = Site_set.of_list [ 0 ];
      data_version = v;
      value = Some (Printf.sprintf "v%d" v);
    }
  in
  (* One record short of the compaction threshold, all made durable. *)
  for v = 1 to 1023 do
    Shard_store.commit store ~key:"k" ~rid:v (state v)
  done;
  Shard_store.fsync store;
  (* The 1024th commit appends (shard write #1 since arming) and then
     crosses the threshold: the rewrite's temp write, fsync, rename and
     directory fsync are the next shard-class operations. *)
  let nth = match point.p_op with Storage.Write -> 2 | _ -> 1 in
  Faultfs.arm_next ff { Storage.fault; file = point.p_file; op = point.p_op; nth };
  let died =
    match Shard_store.commit store ~key:"k" ~rid:1024 (state 1024) with
    | () -> false
    | exception Vfs.Fault _ -> false (* surfaced error; the process lives *)
    | exception Vfs.Crash_point _ -> true
  in
  (* The promoter: a later durable sidecar replace fsyncs the same
     directory, making any pending rename durable — the sequence that
     turns an unsynced compaction rename into a durably empty log. *)
  if not died then
    (try Shard_store.save_rids ~fsync:true store []
     with Vfs.Fault _ | Vfs.Crash_point _ -> ());
  Shard_store.close store;
  Faultfs.simulate_crash ff;
  let t0 = Clock.now () in
  let rescan, info = Shard_store.open_store ~dir:cell_dir ~site:0 ~shards:1 () in
  let recovered = Shard_store.lookup rescan "k" in
  Shard_store.close rescan;
  let recovery = Clock.now () -. t0 in
  let outcome =
    if info.Shard_store.corrupt > 0 then
      Corrupt (Printf.sprintf "%d mid-log corrupt record(s)" info.Shard_store.corrupt)
    else
      match recovered with
      | Some st when st.Shard_store.value = Some "v1024" -> Recovered
      | Some st when st.Shard_store.value = Some "v1023" ->
          Recovered (* the struck record was volatile; fsynced history intact *)
      | Some st ->
          Corrupt
            (Printf.sprintf "fsynced history lost: recovered %s"
               (Option.value ~default:"<none>" st.Shard_store.value))
      | None -> Corrupt "key vanished: shard log durably empty"
  in
  {
    c_point = point;
    c_fault = fault;
    c_outcome = outcome;
    c_recovery = recovery;
    c_injected = Faultfs.injected_total ff;
  }

let run ?jobs ?(seed = 1) ?(faults = Storage.all_faults)
    ?(points = points) ~dir () =
  let cells =
    List.concat_map (fun p -> List.map (fun f -> (p, f)) faults) points
    (* Compaction cells grade only their meaningful fault classes (see
       [compaction_faults]); dropped combinations render as '-'. *)
    |> List.filter (fun (p, f) ->
           (not p.p_compaction) || List.mem f compaction_faults)
  in
  (* Per-cell seeds differ so torn-tail cuts are not correlated across
     cells; they stay a pure function of (seed, point, fault) position. *)
  let numbered = List.mapi (fun i pf -> (i, pf)) cells in
  Pool.with_pool ?jobs (fun pool ->
      Pool.map_list pool
        (fun (i, (p, f)) ->
          let seed = seed + (997 * i) in
          if p.p_compaction then run_compaction_cell ~dir ~seed p f
          else run_cell ~dir ~seed p f)
        numbered)

(* The letter table: rows are persist points, columns fault classes.
   Deterministic by construction — no timings, no counts — so the cram
   test can pin it byte-for-byte. *)
let pp_table ppf cells =
  let faults =
    List.sort_uniq compare (List.map (fun c -> c.c_fault) cells)
  in
  let row_points =
    List.filter
      (fun p -> List.exists (fun c -> c.c_point = p) cells)
      (points @ compaction_points)
  in
  let width = 12 in
  let row label columns =
    let b = Buffer.create 80 in
    Buffer.add_string b (Printf.sprintf "%-20s" label);
    List.iter (fun c -> Buffer.add_string b (Printf.sprintf "%-*s" width c)) columns;
    (* No trailing blanks: expected-output tests pin these lines. *)
    let s = Buffer.contents b in
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    Fmt.pf ppf "%s@," (String.sub s 0 !n)
  in
  Fmt.pf ppf "@[<v>";
  row "persist point" (List.map Storage.fault_name faults);
  List.iter
    (fun p ->
      row (point_name p)
        (List.map
           (fun f ->
             match
               List.find_opt (fun c -> c.c_point = p && c.c_fault = f) cells
             with
             | Some c -> String.make 1 (outcome_letter c.c_outcome)
             | None -> "-")
           faults))
    row_points;
  let bad = List.filter (fun c -> not (ok c.c_outcome)) cells in
  List.iter
    (fun c ->
      let detail =
        match c.c_outcome with
        | Corrupt d | Unavailable d | Fenced d -> d
        | Recovered -> ""
      in
      Fmt.pf ppf "FAIL %s x %s: %s@," (point_name c.c_point)
        (Storage.fault_name c.c_fault) detail)
    bad;
  Fmt.pf ppf
    "%d cells: R recovered, F fenced (explicit, safe), U unavailable, C corrupt@,"
    (List.length cells);
  Fmt.pf ppf "%s@]"
    (if bad = [] then "matrix: PASS (every cell recovered or fenced)"
     else Printf.sprintf "matrix: FAIL (%d cell(s) unavailable or corrupt)"
            (List.length bad))
