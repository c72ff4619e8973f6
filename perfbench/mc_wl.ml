(* The model-checker workload: exhaustive bounds of tdv-safe over the
   full action alphabet on the paper's §3 four-copy topology, with
   partial-order reduction, automatic symmetry and the work-stealing
   frontier at 2 jobs (the CLI default on a 2-core box).

   The window repeats the depth-6 bound (124,761 states, about 2 s), each
   followed by the calibration kernel, and reports the median bound at
   the reference speed (Arith.at_reference): on a shared box the same
   bound's wall time drifts 1.5x over minutes with other tenants' memory
   traffic, and the kernel beside it drifts with it.
   The depth-7 bound (654,191 states, about 10 s) runs once per run,
   untimed, as the output check and the memory high-water; the traced run
   times it at 1 and 2 jobs.  The search is exhaustive, so the seed only
   drives the traced run's replay. *)

module Harness = Dynvote_chaos.Harness
module Oracle = Dynvote_chaos.Oracle
module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Space = Dynvote_mc.Space
module Fingerprint = Dynvote_mc.Fingerprint
module Striped_seen = Dynvote_mc.Striped_seen
module Por = Dynvote_mc.Por
module Pool = Dynvote_exec.Pool

let policy = Option.get (Harness.policy_of_string "tdv-safe")
let jobs = 2
let max_states = 1_000_000

let depth = 7
let timed_depth = 6

(* Set-up is a depth-5 bound before each timed one: domain start, heap
   growth and anything a later change does once per call, or caches
   across calls, lands there and not in the timed bounds.  It is their
   median at the reference speed, as the window is. *)
let setup_depth = 5

(* The exact state count of each bound the workload runs. *)
let expected_distinct = [ (5, 23_020); (6, 124_761); (7, 654_191) ]

let check ~jobs ~depth =
  Probe.time (fun () ->
      Checker.check ~space:Space.full ~por:true ~max_states ~jobs ~policy ~depth
        (Checker.paper_config ()))

let safe_to ~depth (r : Checker.report) =
  match r.Checker.verdict with
  | Checker.Clean _ -> r.Checker.result.Explorer.depth = depth
  | Checker.Counterexample _ | Checker.Inconclusive -> false

(* The expected answer: Safe to the bound with exactly its state count. *)
let verdict_ok ~depth r =
  safe_to ~depth r
  && List.assoc_opt depth expected_distinct = Some r.Checker.result.Explorer.distinct

let describe (r : Checker.report) wall =
  let x = r.Checker.result in
  Printf.sprintf "%s to depth %d: %d distinct, %d transitions, %.3f s"
    (match r.Checker.verdict with
    | Checker.Clean _ -> "safe"
    | Checker.Counterexample _ -> "VIOLATION"
    | Checker.Inconclusive -> "out of budget")
    x.Explorer.depth x.Explorer.distinct x.Explorer.transitions wall

let run ~seconds =
  Probe.say "mc-bound: %s, full alphabet, POR on, symmetry auto, -j%d, max_states %d; \
             window of depth-%d bounds" policy.Harness.name jobs max_states timed_depth;
  let t0 = Probe.now () in
  (* Each round: a set-up bound, a timed bound, the calibration kernel. *)
  let rec rounds acc =
    if acc <> [] && Probe.now () -. t0 >= seconds then List.rev acc
    else
      let warm = check ~jobs ~depth:setup_depth in
      let timed = check ~jobs ~depth:timed_depth in
      rounds ((warm, timed, Probe.calibrate ()) :: acc)
  in
  let rounds = rounds [] in
  let warm = List.map (fun (w, _, _) -> w) rounds and runs = List.map (fun (_, r, _) -> r) rounds in
  let at_reference pick =
    List.map (fun ((_, _, k) as r) -> Arith.at_reference (snd (pick r)) k) rounds
  in
  let setup_s = Arith.median (at_reference (fun (w, _, _) -> w)) in
  let wall = Arith.median (at_reference (fun (_, r, _) -> r)) in
  let walls = List.sort compare (List.map snd runs) in
  Probe.say "setup_s %.4f s at reference speed: median of %d depth-%d bounds, one before each \
             timed bound (raw fastest %.4f s)"
    setup_s (List.length warm) setup_depth (List.fold_left Float.min infinity (List.map snd warm));
  Probe.say "window: %d bounds, raw fastest %.1f ms, median %.1f ms, slowest %.1f ms; \
             calibration kernel median %.1f ms"
    (List.length runs) (List.hd walls *. 1e3) (Arith.median walls *. 1e3)
    (List.nth walls (List.length walls - 1) *. 1e3)
    (Arith.median (List.map (fun (_, _, k) -> k) rounds) *. 1e3);
  (* The output check: the depth-7 bound, untimed. *)
  let full, full_wall = check ~jobs ~depth in
  Probe.say "  %s" (describe full full_wall);
  let checks =
    verdict_ok ~depth full
    :: List.map (fun (r, _) -> verdict_ok ~depth:timed_depth r) runs
    @ List.map (fun (r, _) -> verdict_ok ~depth:setup_depth r) warm
  in
  let failed = List.length (List.filter not checks) in
  let states_per_s = float_of_int (List.assoc timed_depth expected_distinct) /. wall in
  let correct = failed = 0 in
  let rss = Probe.peak_rss_mb () in
  Probe.say "states_per_s %.1f states/s  bound wall %.1f ms  (at reference speed, median of \
             n = %d)" states_per_s (wall *. 1e3) (List.length runs);
  Probe.say "failed_share %.4f (%d of %d)  peak_rss_mb %.1f MB"
    (Arith.failed_share ~attempted:(List.length checks) ~failed)
    failed (List.length checks) rss;
  {
    Probe.correct;
    attempted = List.length checks;
    failed;
    metrics =
      [
        Arith.metric "goodput_per_s" "1/s" states_per_s;
        Arith.metric "latency_ms" "ms" (wall *. 1e3);
        Arith.metric "setup_s" "s" setup_s;
        Arith.metric "peak_rss_mb" "MB" rss;
      ];
  }

(* --- the traced run ------------------------------------------------------ *)

let layers = [ "enabled"; "apply_step"; "check_step"; "fingerprint"; "claim"; "rollback" ]

type replay = {
  calls : (string, int ref) Hashtbl.t;
  secs : (string, float ref) Hashtbl.t;
  mutable expansions : int;  (* enabled calls *)
  mutable successors : int;  (* steps they returned after reduction *)
  mutable unsafe : bool;
}

(* A seeded replay of the explorer's inner loop through the layers'
   public functions, timing every call: at each state of a random walk,
   enumerate and reduce the enabled steps, then apply, check, fingerprint,
   claim and roll back each successor, as the sequential search does;
   descend into one successor at random. *)
let replay ~seed ~budget =
  let config =
    { (Checker.paper_config ()) with Harness.flavor = policy.Harness.flavor }
  in
  let session = Harness.make_session config in
  let cluster = Harness.cluster session and oracle = Harness.oracle session in
  let perms =
    if policy.Harness.flavor.Decision.tie_break then
      [ Fingerprint.identity ~n_sites:(Site_set.max_elt config.Harness.universe + 1) ]
    else
      Fingerprint.segment_perms ~universe:config.Harness.universe
        ~segment_of:config.Harness.segment_of
  in
  let gc = Space.amnesia_free Space.full in
  let buf = Buffer.create 256 in
  let seen = Striped_seen.create ~shards:1 ~max_states () in
  let rng = Random.State.make [| seed |] in
  let r =
    {
      calls = Hashtbl.create 8;
      secs = Hashtbl.create 8;
      expansions = 0;
      successors = 0;
      unsafe = false;
    }
  in
  List.iter
    (fun l ->
      Hashtbl.replace r.calls l (ref 0);
      Hashtbl.replace r.secs l (ref 0.0))
    layers;
  let timed layer f =
    let t0 = Probe.now () in
    let v = f () in
    let dt = Probe.now () -. t0 in
    incr (Hashtbl.find r.calls layer);
    let s = Hashtbl.find r.secs layer in
    s := !s +. dt;
    v
  in
  let root = Harness.checkpoint session in
  let t_end = Probe.now () +. budget in
  while Probe.now () < t_end && not r.unsafe do
    Harness.rollback session root;
    let rec walk d ctx =
      if d < depth then begin
        let ck = Harness.checkpoint session in
        let steps =
          timed "enabled" (fun () -> Por.filter ~ctx (Space.enabled Space.full ~config ~cluster))
        in
        r.expansions <- r.expansions + 1;
        r.successors <- r.successors + List.length steps;
        List.iter
          (fun step ->
            timed "apply_step" (fun () -> Harness.apply_step session step);
            timed "check_step" (fun () -> Oracle.check_step oracle cluster);
            if not (Oracle.is_safe oracle) then r.unsafe <- true;
            let fp = timed "fingerprint" (fun () -> Fingerprint.canonical ~buf ~gc ~perms session) in
            ignore
              (timed "claim" (fun () ->
                   Striped_seen.claim seen fp ~budget:(depth - d - 1) ~ctx:(Por.rank step))
                : Striped_seen.verdict);
            timed "rollback" (fun () -> Harness.rollback session ck))
          steps;
        match steps with
        | [] -> ()
        | _ ->
            let step = List.nth steps (Random.State.int rng (List.length steps)) in
            Harness.apply_step session step;
            Oracle.check_step oracle cluster;
            walk (d + 1) (Por.rank step)
      end
    in
    walk 0 0
  done;
  Striped_seen.close seen;
  r

(* The resident bytes per state of the store the -j2 search builds, at
   the bound's own distinct count: a store created as the stealing
   frontier creates it, filled with that many distinct fingerprints.  It
   keeps 62-bit hashes only, so its size depends on the count, not on
   which states they are. *)
let store_bytes_per_state ~distinct =
  let seen = Striped_seen.create ~max_states () in
  for i = 1 to distinct do
    ignore (Striped_seen.claim seen (string_of_int i) ~budget:1 ~ctx:0 : Striped_seen.verdict)
  done;
  let words = Obj.reachable_words (Obj.repr seen) in
  let stored = Striped_seen.distinct seen in
  Striped_seen.close seen;
  if stored <> distinct then nan else Arith.per_f (8.0 *. float_of_int words) (float_of_int stored)

(* One bound at [jobs]: whether it found the expected answer, its report
   and its wall time. *)
let bound_at ~jobs =
  let r, wall = check ~jobs ~depth in
  Probe.say "  -j%d: %s" jobs (describe r wall);
  (verdict_ok ~depth r, r, wall)

let traced ~seed ~seconds =
  let ok1, r1, t1 = bound_at ~jobs:1 in
  let ok2, r2, t2 = bound_at ~jobs in
  let rp = replay ~seed ~budget:(Float.min 5.0 (Float.max 1.0 (seconds /. 3.0))) in
  let x1 = r1.Checker.result in
  let transitions = x1.Explorer.transitions in
  let overhead = Probe.timer_overhead () in
  let per_call l =
    let calls = float_of_int !(Hashtbl.find rp.calls l) in
    Float.max 0.0 (Arith.per_f !(Hashtbl.find rp.secs l) calls -. overhead)
  in
  (* The explorer's own call counts at -j1: one apply, check, fingerprint,
     claim and rollback per transition; one enabled call per expanded
     state, estimated as transitions over the replay's mean branching. *)
  let branching = Arith.per rp.successors rp.expansions in
  let count l =
    if l = "enabled" then float_of_int transitions /. branching else float_of_int transitions
  in
  let named, other = Arith.shares ~total:t1 (List.map (fun l -> (l, per_call l *. count l)) layers) in
  let workers = r2.Checker.result.Explorer.workers in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let tasks = sum (fun w -> w.Pool.tasks_executed) in
  let steals = sum (fun w -> w.Pool.steals) and failed_steals = sum (fun w -> w.Pool.failed_steals) in
  let max_tasks = Array.fold_left (fun acc w -> max acc w.Pool.tasks_executed) 0 workers in
  let checks = [ ok1; ok2; not rp.unsafe ] in
  let correct = List.for_all Fun.id checks in
  Probe.say "  replay: %d expansions, mean branching %.2f, %s" rp.expansions branching
    (if rp.unsafe then "VIOLATION" else "safe");
  let m = Arith.metric in
  {
    Probe.correct;
    attempted = List.length checks;
    failed = List.length (List.filter not checks);
    metrics =
      [
        m "mc.transitions_per_state" "count" (Arith.per transitions x1.Explorer.distinct);
        m "mc.bytes_per_state" "B" (store_bytes_per_state ~distinct:r2.Checker.result.Explorer.distinct);
      ]
      @ List.map (fun l -> m ("mc." ^ l ^ "_us") "us" (1e6 *. per_call l)) layers
      @ List.map (fun (l, s) -> m ("mc." ^ l ^ "_share") "ratio" s) named
      @ [
          m "mc.other_share" "ratio" other;
          m "exec.parallel_efficiency" "ratio" (t1 /. (float_of_int jobs *. t2));
          m "exec.steal_success_share" "ratio" (Arith.per steals (steals + failed_steals));
          m "exec.failed_steals_per_ktask" "count" (1e3 *. Arith.per failed_steals tasks);
          m "exec.task_imbalance" "ratio"
            (Arith.per_f (float_of_int max_tasks)
               (Arith.per tasks (Array.length workers)));
        ];
  }
