(* The chaos harness: execute fault schedules against the message-level
   protocol engine with the safety oracle attached, and aggregate what
   the adversary managed to do.

   Each schedule gets its own cluster (relaxed [Deadline] delivery — the
   paper's quiet-network model has nothing to be chaotic about), its own
   seeded fault plan on the transport, and its own oracle.  Crash steps
   use the cluster's chaos hooks to kill coordinators at the configured
   crash point; restart steps optionally mangle the stable record first,
   so the codec's recovery path is exercised end to end. *)

module Cluster = Dynvote_msgsim.Cluster
module Node = Dynvote_msgsim.Node
module Transport = Dynvote_msgsim.Transport
module Splitmix64 = Dynvote_prng.Splitmix64

type config = {
  flavor : Decision.flavor;
  universe : Site_set.t;
  segment_of : Site_set.site -> int;
  delivery : Cluster.delivery;
  initial_content : string;
  crash_point : [ `After_decide | `Mid_commit ];
      (* where Crash_coordinator steps strike.  [`After_decide] aborts
         before anything is distributed and is safe under every flavor;
         [`Mid_commit] tears the commit wave in half — outside the
         paper's atomic-update model, and duly flagged by the oracle. *)
  expose_commits : bool;
      (* force [atomic_commits = false] on every fault plan, subjecting
         COMMITs to loss/flap/delay like any other message — the second
         half of dropping the atomic-update assumption. *)
}

let default_config ?(flavor = Decision.ldv_flavor) () =
  {
    flavor;
    universe = Site_set.of_list [ 0; 1; 2; 3; 4 ];
    segment_of = (fun site -> site / 2);
    delivery = Cluster.Deadline { timeout = 0.25; retries = 2; backoff = 2.0 };
    initial_content = "g0";
    crash_point = `After_decide;
    expose_commits = false;
  }

type result = {
  violations : Oracle.violation list;
  granted : int;
  denied : int;
  aborted : int;
  commits : int;
  corrupted : int;          (* stable records mangled before a restart *)
  op_log : (Schedule.step * bool * string option) list;
      (* executed operations in order: step, granted, read content *)
}

let corrupt_record ~rng node corruption =
  let record = Node.stable_record node in
  let mangled =
    match corruption with
    | Schedule.Zero -> ""
    | Schedule.Truncate -> String.sub record 0 (String.length record / 2)
    | Schedule.Bit_flip ->
        if String.length record = 0 then ""
        else begin
          let bytes = Bytes.of_string record in
          let i = Splitmix64.next_int rng (Bytes.length bytes) in
          let bit = Splitmix64.next_int rng 8 in
          Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl bit)));
          Bytes.to_string bytes
        end
  in
  Node.set_stable_record node mangled

(* A session is one live schedule execution: the cluster, its oracle and
   the running tallies, with steps applied one at a time.  [run] below is
   a session driven start to finish; the model checker drives a session
   step by step, branching via checkpoint/rollback — both execute the
   exact same transition code, which is what makes counterexamples
   portable between the two. *)
type session = {
  s_config : config;
  cluster : Cluster.t;
  oracle : Oracle.t;
  rng : Splitmix64.t;
  topological : bool;
  ranked : Site_set.site list;
  mutable s_granted : int;
  mutable s_denied : int;
  mutable s_aborted : int;
  mutable s_corrupted : int;
  mutable writes : int;
  mutable last_granted : bool;  (* the newest client operation's outcome *)
  mutable last_content : string option;
}

let make_session ?(rng = Splitmix64.create 0x51D1CEL) ?(faults = Fault_plan.silent)
    config =
  let cluster =
    Cluster.create ~flavor:config.flavor ~segment_of:config.segment_of
      ~initial_content:config.initial_content ~delivery:config.delivery
      ~universe:config.universe ()
  in
  (* Topological flavors read same-segment silence as site death: their
     network model (LAN segments joined by gateways) permits neither
     lossy intra-segment links nor partitions that cut a segment in two.
     Chaos must honour that model to make a fair safety claim, so for
     those flavors intra-segment links are reliable and partition masks
     select whole segments. *)
  let topological = config.flavor.Decision.topological in
  let reliable a b = topological && config.segment_of a = config.segment_of b in
  let faults =
    if config.expose_commits then { faults with Fault_plan.atomic_commits = false }
    else faults
  in
  Transport.set_plan (Cluster.transport cluster)
    (Fault_plan.make ~rng:(Splitmix64.split rng) ~reliable faults);
  let oracle = Oracle.create ~initial_content:config.initial_content in
  Oracle.attach oracle cluster;
  {
    s_config = config;
    cluster;
    oracle;
    rng;
    topological;
    ranked = Site_set.to_list config.universe;
    s_granted = 0;
    s_denied = 0;
    s_aborted = 0;
    s_corrupted = 0;
    writes = 0;
    last_granted = false;
    last_content = None;
  }

let cluster s = s.cluster
let oracle s = s.oracle

(* A client operation's outcome: tallied, and kept until the next one for
   {!run}'s op log (the session keeps no log, so a checker rolling back
   at every transition has none to rewind). *)
let note s (outcome : Cluster.outcome) =
  if outcome.Cluster.granted then s.s_granted <- s.s_granted + 1
  else if outcome.Cluster.aborted then s.s_aborted <- s.s_aborted + 1
  else s.s_denied <- s.s_denied + 1;
  s.last_granted <- outcome.Cluster.granted;
  s.last_content <- outcome.Cluster.content

let client_ops s = s.s_granted + s.s_denied + s.s_aborted
let last_op s = (s.last_granted, s.last_content)

(* Write contents are "w<n>"; a model-checking session applies millions
   of write transitions and rolls the counter back constantly, so the
   strings for the counts a bounded search reaches are built once, in an
   immutable table every checker domain may read without a lock. *)
let interned_contents = Array.init 1024 (Printf.sprintf "w%d")

let write_content n =
  if n >= 0 && n < Array.length interned_contents then interned_contents.(n)
  else Printf.sprintf "w%d" n

let do_write s site ~with_crash =
  s.writes <- s.writes + 1;
  let content = write_content s.writes in
  let outcome =
    if not with_crash then Cluster.write s.cluster ~at:site ~content
    else begin
      let armed = ref true in
      Cluster.set_chaos_hook s.cluster (fun event ->
          match (event, s.s_config.crash_point) with
          | Cluster.After_decide { coordinator; granted = true }, `After_decide
            when !armed && coordinator = site ->
              armed := false;
              Cluster.crash s.cluster site
          | Cluster.After_commit_send { coordinator; sent; total; _ }, `Mid_commit
            when !armed && coordinator = site && sent >= max 1 (total / 2) ->
              armed := false;
              Cluster.crash s.cluster site
          | _ -> ());
      Fun.protect
        ~finally:(fun () -> Cluster.clear_chaos_hook s.cluster)
        (fun () -> Cluster.write s.cluster ~at:site ~content)
    end
  in
  Oracle.note_write s.oracle ~content outcome;
  note s outcome

let up s site = Site_set.mem site (Cluster.up_sites s.cluster)

let can_coordinate s site =
  up s site && not (Node.is_amnesiac (Cluster.node s.cluster site))

let apply_step s step =
  match step with
  | Schedule.Write site -> if can_coordinate s site then do_write s site ~with_crash:false
  | Schedule.Crash_coordinator site ->
      if can_coordinate s site then do_write s site ~with_crash:true
  | Schedule.Read site ->
      if can_coordinate s site then begin
        let outcome = Cluster.read s.cluster ~at:site in
        Oracle.note_read s.oracle ~at:site outcome;
        note s outcome
      end
  | Schedule.Crash site -> if up s site then Cluster.crash s.cluster site
  | Schedule.Restart (site, corruption) ->
      if not (up s site) then begin
        (match corruption with
        | Some c ->
            s.s_corrupted <- s.s_corrupted + 1;
            corrupt_record ~rng:s.rng (Cluster.node s.cluster site) c
        | None -> ());
        Cluster.restart_silently s.cluster site
      end
  | Schedule.Recover site -> note s (Cluster.recover s.cluster ~site)
  | Schedule.Partition mask ->
      let selected i site =
        if s.topological then mask land (1 lsl (s.s_config.segment_of site)) <> 0
        else mask land (1 lsl i) <> 0
      in
      let group_a = Site_set.of_list (List.filteri selected s.ranked) in
      let group_b = Site_set.diff s.s_config.universe group_a in
      if Site_set.is_empty group_a || Site_set.is_empty group_b then
        Cluster.heal s.cluster
      else Cluster.partition s.cluster [ group_a; group_b ]
  | Schedule.Heal -> Cluster.heal s.cluster

let result_with s ~op_log =
  {
    violations = Oracle.violations s.oracle;
    granted = s.s_granted;
    denied = s.s_denied;
    aborted = s.s_aborted;
    commits = Oracle.commits_seen s.oracle;
    corrupted = s.s_corrupted;
    op_log;
  }

let session_result s = result_with s ~op_log:[]

(* Checkpoints snapshot everything [apply_step] mutates except the rng
   stream (only consumed by [Bit_flip] corruption, which an explorer's
   action alphabet excludes precisely so its branches stay rng-free) and
   the last operation's outcome (read only right after the step that
   set it). *)
type checkpoint = {
  ck_cluster : Cluster.snapshot;
  ck_oracle : Oracle.snapshot;
  ck_granted : int;
  ck_denied : int;
  ck_aborted : int;
  ck_corrupted : int;
  ck_writes : int;
}

let checkpoint s =
  {
    ck_cluster = Cluster.snapshot s.cluster;
    ck_oracle = Oracle.snapshot s.oracle;
    ck_granted = s.s_granted;
    ck_denied = s.s_denied;
    ck_aborted = s.s_aborted;
    ck_corrupted = s.s_corrupted;
    ck_writes = s.writes;
  }

let rollback s ck =
  Cluster.restore s.cluster ck.ck_cluster;
  Oracle.restore s.oracle ck.ck_oracle;
  s.s_granted <- ck.ck_granted;
  s.s_denied <- ck.ck_denied;
  s.s_aborted <- ck.ck_aborted;
  s.s_corrupted <- ck.ck_corrupted;
  s.writes <- ck.ck_writes

(* The op log: every step that ran a client operation, with what it left
   in [last_granted]/[last_content]. *)
let run ?rng config (schedule : Schedule.t) =
  let s = make_session ?rng ~faults:schedule.faults config in
  let op_log =
    List.fold_left
      (fun log step ->
        let ops = client_ops s in
        apply_step s step;
        if client_ops s = ops then log else (step, s.last_granted, s.last_content) :: log)
      [] schedule.steps
  in
  Oracle.final_check s.oracle s.cluster;
  (result_with s ~op_log:(List.rev op_log), Transport.stats (Cluster.transport s.cluster))

(* Integer-encoded entry point: what the qcheck properties shrink. *)
let run_ints ?rng ?(faults = Fault_plan.silent) config codes =
  let n_sites = Site_set.cardinal config.universe in
  fst (run ?rng config (Schedule.of_ints ~n_sites ~faults codes))

(* --- Policies --- *)

type policy = { name : string; flavor : Decision.flavor; expect_safe : bool }

(* The message engine drives the dynamic policies; MCV is stateless (no
   (o, v, P) protocol rounds) and has nothing for the chaos harness to
   attack, so it is not listed.  TDV/OTDV appear twice: as published
   (expected unsafe — the stale-claim hole) and with the freshness
   correction. *)
let policies =
  [
    { name = "dv"; flavor = Decision.dv_flavor; expect_safe = true };
    { name = "ldv"; flavor = Decision.ldv_flavor; expect_safe = true };
    { name = "odv"; flavor = Decision.ldv_flavor; expect_safe = true };
    { name = "tdv"; flavor = Decision.tdv_flavor; expect_safe = false };
    { name = "otdv"; flavor = Decision.tdv_flavor; expect_safe = false };
    { name = "tdv-safe"; flavor = Decision.tdv_safe_flavor; expect_safe = true };
    { name = "otdv-safe"; flavor = Decision.tdv_safe_flavor; expect_safe = true };
  ]

let policy_of_string name =
  List.find_opt (fun p -> p.name = String.lowercase_ascii name) policies

(* --- Campaigns --- *)

type summary = {
  policy : string;
  expect_safe : bool;
  schedules : int;
  steps : int;
  granted : int;
  denied : int;
  aborted : int;
  commits : int;
  corrupted : int;
  sent : int;
  delivered : int;
  dropped_partition : int;
  dropped_fault : int;
  duplicated : int;
  delayed : int;
  flapped : int;
  failure : (int * Schedule.t * Oracle.violation list) option;
      (* first failing schedule: index, schedule, its violations *)
  failures : int; (* schedules with at least one violation *)
}

let run_many ?config ~policy ~seed ~schedules () =
  let config =
    match config with Some c -> c | None -> default_config ~flavor:policy.flavor ()
  in
  let n_sites = Site_set.cardinal config.universe in
  let master = Splitmix64.create seed in
  let acc =
    ref
      {
        policy = policy.name;
        expect_safe = policy.expect_safe;
        schedules = 0;
        steps = 0;
        granted = 0;
        denied = 0;
        aborted = 0;
        commits = 0;
        corrupted = 0;
        sent = 0;
        delivered = 0;
        dropped_partition = 0;
        dropped_fault = 0;
        duplicated = 0;
        delayed = 0;
        flapped = 0;
        failure = None;
        failures = 0;
      }
  in
  for index = 0 to schedules - 1 do
    let rng = Splitmix64.split master in
    let length = 12 + Splitmix64.next_int rng 24 in
    let intensity = Splitmix64.next_float rng in
    let schedule = Schedule.random ~rng ~n_sites ~intensity ~length () in
    let result, stats = run ~rng config schedule in
    let s = !acc in
    acc :=
      {
        s with
        schedules = s.schedules + 1;
        steps = s.steps + List.length schedule.steps;
        granted = s.granted + result.granted;
        denied = s.denied + result.denied;
        aborted = s.aborted + result.aborted;
        commits = s.commits + result.commits;
        corrupted = s.corrupted + result.corrupted;
        sent = s.sent + stats.Transport.sent;
        delivered = s.delivered + stats.Transport.delivered;
        dropped_partition = s.dropped_partition + stats.Transport.dropped_partition;
        dropped_fault = s.dropped_fault + stats.Transport.dropped_fault;
        duplicated = s.duplicated + stats.Transport.duplicated;
        delayed = s.delayed + stats.Transport.delayed;
        flapped = s.flapped + stats.Transport.flapped;
        failures = (s.failures + if result.violations = [] then 0 else 1);
        failure =
          (match s.failure with
          | Some _ as f -> f
          | None ->
              if result.violations = [] then None
              else Some (index, schedule, result.violations));
      }
  done;
  !acc

let verdict_ok summary = summary.failures = 0 || not summary.expect_safe

let pp_summary ppf s =
  Fmt.pf ppf
    "%-9s %5d schedules %6d ops (%d granted / %d denied / %d aborted) %7d msgs \
     (lost=%d flapped=%d dup=%d delayed=%d partition=%d) %d corrupt records | %s"
    s.policy s.schedules
    (s.granted + s.denied + s.aborted)
    s.granted s.denied s.aborted s.sent
    (s.dropped_fault - s.flapped)
    s.flapped s.duplicated s.delayed s.dropped_partition s.corrupted
    (if s.failures = 0 then "safety: OK"
     else if s.expect_safe then Printf.sprintf "safety: %d VIOLATIONS" s.failures
     else Printf.sprintf "safety: %d violations (expected unsafe)" s.failures)

let pp_failure ppf s =
  match s.failure with
  | None -> ()
  | Some (index, schedule, violations) ->
      Fmt.pf ppf "first failing schedule #%d: %a@,%a" index Schedule.pp schedule
        Fmt.(list ~sep:cut Oracle.pp_violation)
        violations
