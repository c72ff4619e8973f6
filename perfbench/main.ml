(* The benchmark's one command: run a workload, check its output, print
   a human report and, last, one JSON line with the end-to-end metrics
   (--trace 0) or the per-layer metrics of a separate traced run
   (--trace 1).  Exit 1 when any output check failed. *)

let workloads =
  [
    ("serve-keyed", Serve_wl.run, Serve_wl.traced);
    ( "mc-bound",
      (fun ~seed:_ ~seconds -> Mc_wl.run ~seconds),
      fun ~seed ~seconds -> Probe.both (Mc_wl.traced ~seed ~seconds) (Study_wl.traced ()) );
  ]

(* Name and unit of every metric, as BENCHMARK.json declares them. *)
let end_to_end =
  [ ("goodput_per_s", "1/s"); ("latency_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("storage.fsync_per_op", "count"); ("storage.fsync_ms_per_op", "ms");
    ("storage.write_kb_per_op", "KB"); ("storage.busy_share", "ratio");
    ("recovery.history_ops", "count"); ("recovery.read_mb", "MB"); ("recovery.read_s", "s");
    ("recovery.decode_s", "s"); ("live.lock_rounds_per_op", "count");
    ("live.anchor_reuse_share", "ratio"); ("live.commit_waves_per_op", "count");
    ("live.commit_batch_mean", "count"); ("live.inflight_mean", "count");
    ("live.node_op_ms", "ms"); ("live.single_site_p50_ms", "ms"); ("live.latency_p99_ms", "ms");
    ("wire.frames_per_op", "count"); ("wire.frames_per_write", "count");
    ("wire.wakeups_per_op", "count"); ("wire.client_gap_ms", "ms");
    ("shard.materialized_per_op", "count"); ("shard.evicted_per_op", "count");
    ("shard.group_batch_mean", "count"); ("gc.minor_words_per_op", "words");
    ("gc.major_per_kop", "count"); ("trace.overhead_share", "ratio");
    ("mc.transitions_per_state", "count"); ("mc.bytes_per_state", "B");
  ]
  @ List.map (fun l -> ("mc." ^ l ^ "_us", "us")) Mc_wl.layers
  @ List.map (fun l -> ("mc." ^ l ^ "_share", "ratio")) Mc_wl.layers
  @ [
      ("mc.other_share", "ratio"); ("exec.parallel_efficiency", "ratio");
      ("exec.steal_success_share", "ratio"); ("exec.failed_steals_per_ktask", "count");
      ("exec.task_imbalance", "ratio"); ("sim.transitions", "count");
      ("failures.next_us", "us"); ("net.view_us", "us"); ("core.callback_us", "us");
      ("failures.share", "ratio"); ("net.share", "ratio"); ("core.share", "ratio");
    ]
  @ List.map
      (fun k -> ("core.share." ^ String.lowercase_ascii (Policy.kind_name k), "ratio"))
      Policy.all_kinds
  @ [ ("sim.other_share", "ratio") ]

(* The workload's metrics in declared order; a layer the workload does
   not exercise reads 0. *)
let complete declared (metrics : Arith.metric list) =
  List.iter
    (fun (m : Arith.metric) ->
      if List.assoc_opt m.Arith.name declared <> Some m.Arith.unit then
        failwith (Printf.sprintf "undeclared metric %s (%s)" m.Arith.name m.Arith.unit))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Arith.metric) -> m.Arith.name = name) metrics with
      | Some m -> (m, true)
      | None -> (Arith.metric name unit 0.0, false))
    declared

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve-keyed|mc-bound) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let rec parse acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get name = match List.assoc_opt name opts with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let run =
    match List.find_opt (fun (n, _, _) -> n = workload) workloads with
    | Some (_, run, traced) -> if trace = 0 then run else traced
    | None -> usage ()
  in
  let o = run ~seed ~seconds:(float_of_int seconds) in
  let metrics = complete (if trace = 0 then end_to_end else per_layer) o.Probe.metrics in
  if trace = 1 then
    List.iter
      (fun ((m : Arith.metric), measured) ->
        if measured then Probe.say "  %-30s %14.6g %s" m.Arith.name m.Arith.value m.Arith.unit)
      metrics;
  Probe.say "output checks: %s" (if o.Probe.correct then "PASS" else "FAIL");
  print_endline
    (Arith.result_line ~correct:o.Probe.correct ~attempted:o.Probe.attempted
       ~failed:o.Probe.failed (List.map fst metrics));
  exit (if o.Probe.correct then 0 else 1)
