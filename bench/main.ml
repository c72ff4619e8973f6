(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, runs the extra experiments from DESIGN.md, and
   finishes with bechamel micro-benchmarks of the core primitives.

     TABLE1     site characteristics (input, Table 1)
     FIGURE8    the network (input, Figure 8)
     TABLE2     replicated file unavailabilities   (paper Table 2)
     TABLE3     mean duration of unavailable periods (paper Table 3)
     CLAIMS     the qualitative findings of section 4, checked on this run
     SWEEP      E1: access-rate ablation for the optimistic policies
     MESSAGES   E2: per-operation and connection-vector message costs
     VALIDATE   E3: simulator vs exact CTMC / closed forms
     EXTENSIONS E4: strict MCV, weighted voting, JM-DV, available copy,
                    witnesses, and the TDV safety-correction ablation
     CHAOS      fault-injection campaign throughput and the cost of
                    relaxed (Deadline) delivery vs the quiet network
     MC         bounded model-checking throughput on the §3 example
     MICRO      bechamel micro-benchmarks

     PAR        the domain-pool execution layer: a fixed workload at
                    -j 1 and -j N, results asserted identical, wall
                    times and speedup recorded in BENCH_PAR.json

     SHARD      the sharded object space: per-op cost 10^3 -> 10^6
                    keys under the residency cap, and the live
                    group-quorum batch payoff (BENCH_SHARD.json)

   The environment variable DYNVOTE_BENCH_HORIZON (simulated days,
   default 400360 - about 1100 years) scales the main study.  The
   compute-bound sections (TABLE2, SWEEP, REPLICATIONS, MC) fan out over
   a domain pool: -j N on the command line or DYNVOTE_JOBS in the
   environment picks the width (default: the hardware's recommended
   domain count). *)

module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config
module Table = Dynvote_sim.Table
module Paper = Dynvote_sim.Paper_values
module Site_spec = Dynvote_failures.Site_spec
module Event_gen = Dynvote_failures.Event_gen
module Topology = Dynvote_net.Topology
module Connectivity = Dynvote_net.Connectivity
module Text_table = Dynvote_report.Text_table
module Json = Dynvote_report.Json
module Voting_model = Dynvote_analytic.Voting_model
module Kofn = Dynvote_analytic.Kofn
module Cluster = Dynvote_msgsim.Cluster
module Harness = Dynvote_chaos.Harness
module Checker = Dynvote_mc.Checker
module Explorer = Dynvote_mc.Explorer
module Pool = Dynvote_exec.Pool
module Clock = Dynvote_obs.Clock

(* -j N (or -jN), falling back to DYNVOTE_JOBS, falling back to the
   hardware's recommended domain count. *)
let jobs =
  let rec scan i =
    if i >= Array.length Sys.argv then Pool.default_jobs ()
    else
      let arg = Sys.argv.(i) in
      if arg = "-j" && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n > 0 -> min n Pool.max_jobs
        | _ -> scan (i + 2)
      else if String.length arg > 2 && String.sub arg 0 2 = "-j" then
        match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
        | Some n when n > 0 -> min n Pool.max_jobs
        | _ -> scan (i + 1)
      else scan (i + 1)
  in
  scan 1

(* [f ()] and the seconds it took on the monotonic clock: the one
   stopwatch of every timed section. *)
let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Every BENCH_*.json goes through the one JSON printer. *)
let write_bench path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Fmt.pr "wrote %s@." path

let json_steals (t : Pool.steal_stats) =
  Json.(
    Obj
      [ ("tasks_executed", Int t.Pool.tasks_executed); ("steals", Int t.Pool.steals);
        ("failed_steals", Int t.Pool.failed_steals);
        ("max_deque_depth", Int t.Pool.max_deque_depth) ])

let section name description =
  Fmt.pr "@.=================== %s ===================@." name;
  Fmt.pr "%s@.@." description

let horizon =
  match Sys.getenv_opt "DYNVOTE_BENCH_HORIZON" with
  | Some v -> float_of_string v
  | None -> Study.default_parameters.Study.horizon

let parameters = { Study.default_parameters with horizon }

(* ------------------------------------------------------------------ *)

let table1 () =
  section "TABLE1" "Site characteristics (simulation input; paper Table 1).";
  Text_table.print (Table.table1 Site_spec.ucsd_sites);
  Fmt.pr "Sites 1, 3 and 5 are down 3 h every 90 days for maintenance (staggered).@."

let figure8 () =
  section "FIGURE8" "The modelled network (paper Figure 8).";
  Fmt.pr "%a@." Topology.pp_ascii Topology.ucsd

(* Shape agreement: fraction of within-configuration policy pairs whose
   order (who is more available) matches the paper's Table 2. *)
let shape_agreement results =
  let measured config kind =
    (List.find
       (fun r -> Config.label r.Study.config = config && r.Study.kind = kind)
       results)
      .Study.unavailability
  in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun config ->
      List.iteri
        (fun i ki ->
          List.iteri
            (fun j kj ->
              if j > i then
                match
                  ( Paper.table2_value ~config ~kind:ki,
                    Paper.table2_value ~config ~kind:kj )
                with
                | Some pi, Some pj when Float.abs (pi -. pj) > 1e-6 ->
                    incr total;
                    if pi < pj = (measured config ki < measured config kj) then incr agree
                | _ -> ())
            Paper.kinds)
        Paper.kinds)
    Paper.config_labels;
  (!agree, !total)

let tables23 () =
  section "TABLE2"
    (Printf.sprintf
       "Replicated file unavailabilities, 8 configurations x 6 policies\n\
        (paper Table 2).  Horizon %.0f simulated days, warm-up %.0f days,\n\
        %d batches, one access per day for the optimistic policies."
       parameters.Study.horizon parameters.Study.warmup parameters.Study.batches);
  let results, seconds = timed (fun () -> Study.run ~parameters ~jobs ()) in
  Fmt.pr "(simulated %.0f years for 48 policy instances in %.1f s)@.@."
    ((parameters.Study.horizon -. parameters.Study.warmup) /. 365.0)
    seconds;
  Text_table.print (Table.table2 results);
  Fmt.pr "@.Paper vs measured (ratio = measured / paper):@.";
  Text_table.print (Table.comparison Table.Unavailability results);
  let agree, total = shape_agreement results in
  Fmt.pr "@.Shape agreement with the paper: %d of %d policy-pair orderings match (%.0f%%).@."
    agree total
    (100.0 *. float_of_int agree /. float_of_int total);

  section "TABLE3" "Mean duration of unavailable periods, in days (paper Table 3).";
  Text_table.print (Table.table3 results);
  Fmt.pr "@.Paper vs measured:@.";
  Text_table.print (Table.comparison Table.Outage_duration results);

  Fmt.pr "@.Confidence intervals and outage statistics:@.";
  Text_table.print (Table.intervals results);
  results

let claims results =
  section "CLAIMS" "The qualitative findings of section 4, checked on this run.";
  let u config kind =
    (List.find
       (fun r -> Config.label r.Study.config = config && r.Study.kind = kind)
       results)
      .Study.unavailability
  in
  let check name ok = Fmt.pr "  [%s] %s@." (if ok then "PASS" else "FAIL") name in
  check "DV worse than MCV for three copies (A-D)"
    (List.for_all (fun c -> u c Policy.Dv >= u c Policy.Mcv) [ "A"; "B"; "C"; "D" ]);
  check "DV much better than MCV in E (four copies on one segment)"
    (u "E" Policy.Dv < u "E" Policy.Mcv);
  check "DV collapses in F (a single failure causes a lasting tie)"
    (u "F" Policy.Dv > 10.0 *. u "F" Policy.Mcv);
  check "LDV outperforms MCV and DV in all cases"
    (List.for_all
       (fun c -> u c Policy.Ldv <= u c Policy.Mcv && u c Policy.Ldv <= u c Policy.Dv)
       Paper.config_labels);
  check "ODV comparable to LDV everywhere (within 4x)"
    (List.for_all
       (fun c -> u c Policy.Odv <= 4.0 *. Float.max (u c Policy.Ldv) 1e-7)
       Paper.config_labels);
  let odv_wins =
    List.filter (fun c -> u c Policy.Odv < u c Policy.Ldv) Paper.config_labels
  in
  Fmt.pr
    "  [INFO] configurations where ODV beats LDV on this trace: [%s] (the paper
    \         found three of eight; the crossover is within the simulation noise
    \         of both studies - see the RECOVERY ablation below)@."
    (String.concat "; " odv_wins);
  check "TDV much better when copies share a segment (A, B, E, F, G, H)"
    (List.for_all
       (fun c -> u c Policy.Tdv < u c Policy.Ldv /. 2.0)
       [ "A"; "B"; "E"; "F"; "G"; "H" ]);
  check "TDV = LDV and OTDV = ODV when every copy is alone (C)"
    (u "C" Policy.Tdv = u "C" Policy.Ldv && u "C" Policy.Otdv = u "C" Policy.Odv);
  let e_tdv =
    List.find
      (fun r -> Config.label r.Study.config = "E" && r.Study.kind = Policy.Tdv)
      results
  in
  Fmt.pr
    "  [INFO] configuration E under TDV: longest continuously-available stretch\n\
    \         %.0f days = %.0f years (unavailability %.7f); the paper reports\n\
    \         continuous availability exceeding three hundred years.@."
    e_tdv.Study.longest_up_days
    (e_tdv.Study.longest_up_days /. 365.0)
    e_tdv.Study.unavailability

(* E1: access-rate sweep. *)
let sweep () =
  section "SWEEP"
    "E1: unavailability of the optimistic policies vs file access rate\n\
     (configuration F; LDV as the instantaneous reference).  The paper\n\
     evaluates only one access per day; this ablation shows the whole\n\
     optimism spectrum, including the region where staleness helps.";
  let parameters = { parameters with Study.horizon = Float.min horizon 100_360.0 } in
  let table =
    Text_table.create
      ~aligns:[ Text_table.Right; Text_table.Right; Text_table.Right; Text_table.Right ]
      ~header:[ "Accesses/day"; "ODV"; "OTDV"; "LDV (ref)" ] ()
  in
  List.iter
    (fun (rate, results) ->
      let cell kind =
        match List.find_opt (fun r -> r.Study.kind = kind) results with
        | Some r -> Text_table.cell_float r.Study.unavailability
        | None -> ""
      in
      Text_table.add_row table
        [ Printf.sprintf "%g" rate; cell Policy.Odv; cell Policy.Otdv; cell Policy.Ldv ])
    (Study.sweep_access_rate ~parameters ~config_label:"F" ~jobs ());
  Text_table.print table

(* Recovery-discipline ablation: when does a repaired site reintegrate
   under the optimistic policies?  Figure 3's "repeat until successful"
   loop suggests immediately; folding it into the next access costs less
   traffic.  Both readings are simulated here against LDV. *)
let recovery_ablation () =
  section "RECOVERY"
    "Ablation: optimistic recovery at the next access (default) vs driven
     by the recovering site immediately (Figure 3's retry loop), against
     LDV as the instantaneous reference.";
  let parameters = { parameters with Study.horizon = Float.min horizon 200_360.0 } in
  let at_access = Study.run ~parameters ~kinds:[ Policy.Odv; Policy.Otdv; Policy.Ldv ] () in
  let at_repair =
    Study.run ~parameters ~recovery:`At_repair ~kinds:[ Policy.Odv; Policy.Otdv ] ()
  in
  let cell results config kind =
    match
      List.find_opt
        (fun r -> Config.label r.Study.config = config && r.Study.kind = kind)
        results
    with
    | Some r -> Text_table.cell_float r.Study.unavailability
    | None -> ""
  in
  let table =
    Text_table.create
      ~aligns:
        (Text_table.Left :: List.init 5 (fun _ -> Text_table.Right))
      ~header:
        [ "Config"; "ODV"; "ODV@repair"; "OTDV"; "OTDV@repair"; "LDV (ref)" ] ()
  in
  List.iter
    (fun config ->
      Text_table.add_row table
        [ config;
          cell at_access config Policy.Odv;
          cell at_repair config Policy.Odv;
          cell at_access config Policy.Otdv;
          cell at_repair config Policy.Otdv;
          cell at_access config Policy.Ldv ])
    Paper.config_labels;
  Text_table.print table

(* E2: message costs. *)
let messages () =
  section "MESSAGES"
    "E2: wire-level message cost per operation (identical for MCV and the\n\
     optimistic policies), plus the connection-vector traffic only the\n\
     non-optimistic policies pay.";
  let table =
    Text_table.create
      ~aligns:[ Text_table.Right; Text_table.Right; Text_table.Right ]
      ~header:[ "Copies"; "Msgs/read"; "Msgs/write" ] ()
  in
  List.iter
    (fun n ->
      let universe = Site_set.universe n in
      let cluster = Cluster.create ~universe () in
      let read_total = ref 0 and write_total = ref 0 in
      let reads = ref 0 and writes = ref 0 in
      for i = 0 to 59 do
        let at = i mod n in
        if i mod 3 = 0 then begin
          incr writes;
          write_total :=
            !write_total + (Cluster.write cluster ~at ~content:"x").Cluster.messages
        end
        else begin
          incr reads;
          read_total := !read_total + (Cluster.read cluster ~at).Cluster.messages
        end
      done;
      Text_table.add_row table
        [ string_of_int n;
          Printf.sprintf "%.1f" (float_of_int !read_total /. float_of_int !reads);
          Printf.sprintf "%.1f" (float_of_int !write_total /. float_of_int !writes) ])
    [ 3; 4; 5; 8 ];
  Text_table.print table;
  (* Connection-vector bill over a simulated year of Figure 8 topology
     events. *)
  let connectivity = Connectivity.create Topology.ucsd in
  let generator = Event_gen.create ~seed:11 Site_spec.ucsd_sites in
  let up = ref (Topology.all_sites Topology.ucsd) in
  let events = ref 0 and extra = ref 0 in
  let rec loop () =
    let tr = Event_gen.next generator in
    if tr.Event_gen.time < 365.0 then begin
      up :=
        if tr.Event_gen.now_up then Site_set.add tr.Event_gen.site !up
        else Site_set.remove tr.Event_gen.site !up;
      incr events;
      extra := !extra + Cluster.connection_vector_messages (Connectivity.components connectivity ~up:!up);
      loop ()
    end
  in
  loop ();
  Fmt.pr
    "@.Connection-vector maintenance (DV/LDV/TDV only): %d topology events in a\n\
     simulated year -> %d extra messages on the 8-site network; the optimistic\n\
     policies send none (the paper's efficiency claim).@."
    !events !extra

(* E3's configuration: 3 identical sites, MTTF 10 days, exponential
   repair of mean 1 day, one segment.  VALIDATE and RELIABILITY read one
   study run of it: the policy instances share one failure trace and
   never interact, so each cell is what a run of that policy alone would
   give. *)
let e3_sites = 3
let e3_mttf = 10.0 and e3_mttr = 1.0
let e3_fail_rate = Array.make e3_sites (1.0 /. e3_mttf)
let e3_repair_rate = Array.make e3_sites (1.0 /. e3_mttr)
let e3_ordering = Ordering.default e3_sites

let e3_study () =
  let specs =
    Site_spec.uniform ~n:e3_sites ~mttf_days:e3_mttf ~repair_hours:(e3_mttr *. 24.0)
  in
  let topology = Topology.single_segment e3_sites in
  let configs = [ Config.create ~label:"U" ~copies:(Site_set.universe e3_sites) () ] in
  let parameters =
    { Study.default_parameters with horizon = Float.min horizon 300_360.0; batches = 10 }
  in
  Study.run ~parameters ~configs ~specs ~topology
    ~kinds:[ Policy.Mcv; Policy.Dv; Policy.Ldv; Policy.Tdv ] ()

(* E3: exact-model validation. *)
let validate results =
  section "VALIDATE"
    "E3: the simulator against the exact CTMC (3 identical sites, MTTF 10\n\
     days, exponential repair of mean 1 day, one segment) and against the\n\
     closed-form MCV availability.  Ratios near 1.000 certify the simulator\n\
     against an independent model.";
  let fail_rate = e3_fail_rate and repair_rate = e3_repair_rate in
  let ordering = e3_ordering in
  let exact = function
    | Policy.Mcv ->
        1.0
        -. Kofn.mcv_lexicographic_availability
             (Voting_model.site_availability ~fail_rate ~repair_rate)
             ~ordering
    | kind ->
        let flavor = Option.get (Policy.flavor_of_kind kind) in
        Voting_model.unavailability
          (Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering ())
  in
  let table =
    Text_table.create
      ~aligns:[ Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Right ]
      ~header:[ "Policy"; "Simulated"; "Exact"; "Ratio" ] ()
  in
  List.iter
    (fun r ->
      let e = exact r.Study.kind in
      Text_table.add_row table
        [ Policy.kind_name r.Study.kind;
          Text_table.cell_float r.Study.unavailability;
          Text_table.cell_float e;
          Printf.sprintf "%.3f" (r.Study.unavailability /. e) ])
    results;
  Text_table.print table

(* Reliability: exact renewal quantities (mean up / down periods, mean
   time to first unavailability) against the simulator's outage counts. *)
let reliability results =
  section "RELIABILITY"
    "Mean lengths of available/unavailable periods and the file's mean time\n\
     to first unavailability (3 identical sites, MTTF 10 d, repair 1 d, one\n\
     segment): simulated vs exact renewal analysis of the Markov chain.";
  let fail_rate = e3_fail_rate and repair_rate = e3_repair_rate in
  let ordering = e3_ordering in
  let table =
    Text_table.create
      ~aligns:(Text_table.Left :: List.init 5 (fun _ -> Text_table.Right))
      ~header:[ "Policy"; "Up sim (d)"; "Up exact"; "Down sim (d)"; "Down exact"; "MTTF (d)" ]
      ()
  in
  List.iter
    (fun r ->
      let flavor = Option.get (Policy.flavor_of_kind r.Study.kind) in
      let chain = Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering () in
      let exact = Voting_model.period_statistics chain in
      let up_sim =
        r.Study.observed_days *. (1.0 -. r.Study.unavailability)
        /. float_of_int (max r.Study.outages 1)
      in
      Text_table.add_row table
        [ Policy.kind_name r.Study.kind;
          Printf.sprintf "%.2f" up_sim;
          Printf.sprintf "%.2f" exact.Voting_model.mean_up_days;
          Printf.sprintf "%.4f" r.Study.mean_outage_days;
          Printf.sprintf "%.4f" exact.Voting_model.mean_down_days;
          Printf.sprintf "%.1f" (Voting_model.mean_time_to_unavailability chain) ])
    (* MCV has no dynamic chain. *)
    (List.filter (fun r -> r.Study.kind <> Policy.Mcv) results);
  Text_table.print table

(* E4: extensions and ablations. *)
let extensions () =
  section "EXTENSIONS"
    "E4: protocols beyond the paper's six, on the same failure trace -\n\
     strict MCV (no even-split rule), Gifford weighted voting (2 votes for\n\
     site 1), the Jajodia-Mutchler integer protocol, and the TDV/OTDV\n\
     safety-correction ablation (safe_claims; see DESIGN.md).";
  let topology = Topology.ucsd in
  let n_sites = Topology.n_sites topology in
  let segment_of = Topology.segment_of topology in
  let ordering = Ordering.default n_sites in
  let parameters = { parameters with Study.horizon = Float.min horizon 200_360.0 } in
  let names =
    [ "MCV"; "MCV-strict"; "WMCV"; "DV"; "JM-DV"; "WDV"; "TDV"; "TDV-safe"; "OTDV";
      "OTDV-safe" ]
  in
  let drivers_for config =
    let universe = Config.copies config in
    let label = Config.label config in
    let policy ?flavor kind =
      Driver.of_policy (Policy.create ?flavor kind ~universe ~n_sites ~segment_of ~ordering)
    in
    let weights = Array.init n_sites (fun i -> if i = 0 then 2 else 1) in
    [
      ((label, "MCV"), policy Policy.Mcv);
      ((label, "MCV-strict"), Policy_extra.strict_mcv ~universe);
      ((label, "WMCV"), Policy_extra.weighted_mcv ~weights ~universe ~ordering ());
      ((label, "DV"), policy Policy.Dv);
      ((label, "JM-DV"), Policy_extra.jm_dv ~universe ~n_sites);
      ((label, "WDV"), Policy_extra.weighted_dv ~weights ~universe ~n_sites ~ordering ());
      ((label, "TDV"), policy Policy.Tdv);
      ((label, "TDV-safe"), policy ~flavor:Decision.tdv_safe_flavor Policy.Tdv);
      ((label, "OTDV"), policy Policy.Otdv);
      ((label, "OTDV-safe"), policy ~flavor:Decision.tdv_safe_flavor Policy.Otdv);
    ]
  in
  let configs = Config.ucsd_configurations in
  let drivers = List.concat_map drivers_for configs in
  let results = Study.run_drivers ~parameters ~drivers () in
  let table =
    Text_table.create
      ~aligns:(Text_table.Left :: List.map (fun _ -> Text_table.Right) names)
      ~header:("Config" :: names) ()
  in
  List.iter
    (fun config ->
      let label = Config.label config in
      let cells =
        List.map
          (fun name ->
            match List.assoc_opt (label, name) results with
            | Some (s : Study.summary) -> Text_table.cell_float s.Study.unavailability
            | None -> "")
          names
      in
      Text_table.add_row table (label :: cells))
    configs;
  Text_table.print table;
  let jm_equals_dv =
    List.for_all
      (fun config ->
        let label = Config.label config in
        (List.assoc (label, "DV") results : Study.summary).Study.unavailability
        = (List.assoc (label, "JM-DV") results : Study.summary).Study.unavailability)
      configs
  in
  Fmt.pr "@.JM-DV identical to DV on every configuration: %b (expected: true)@." jm_equals_dv;

  (* Witnesses and available copy on the partition-free configuration A. *)
  let a = Option.get (Config.find "A") in
  let copies = Config.copies a in
  let sites = Site_set.to_list copies in
  let two_copies = Site_set.of_list [ List.nth sites 0; List.nth sites 1 ] in
  let witness_site = Site_set.of_list [ List.nth sites 2 ] in
  let ac, ac_driver = Policy_extra.available_copy ~universe:copies in
  let aw, aw_driver =
    Adaptive_witness.make ~initial_copies:two_copies ~witnesses:witness_site
      ~min_copies:2 ~max_copies:2 ~n_sites ~segment_of ~ordering ()
  in
  let drivers =
    [
      ( "LDV, 3 copies",
        Driver.of_policy
          (Policy.create Policy.Ldv ~universe:copies ~n_sites ~segment_of ~ordering) );
      ( "LDV, 2 copies + 1 witness",
        Policy_extra.witness ~data_sites:two_copies ~witnesses:witness_site ~n_sites
          ~segment_of ~ordering () );
      ("LDV, adaptive witness (2..2)", aw_driver);
      ("Available copy", ac_driver);
    ]
  in
  let results = Study.run_drivers ~parameters ~drivers () in
  Fmt.pr "@.Witnesses and available copy on configuration A's sites (1, 2, 4):@.";
  List.iter
    (fun ((name : string), (s : Study.summary)) ->
      Fmt.pr "  %-28s unavailability %.6f, mean outage %s d@." name s.Study.unavailability
        (Text_table.cell_float ~decimals:3 s.Study.mean_outage_days))
    results;
  Fmt.pr
    "  (available-copy mutual-exclusion violations on this run: %d; configuration\n\
    \   A cannot partition, so the protocol is safe here.  The adaptive witness\n\
    \   performed %d promotions and %d demotions while storing only two real\n\
    \   copies at rest.)@."
    (Policy_extra.Available_copy.violations ac)
    (Adaptive_witness.promotions aw) (Adaptive_witness.demotions aw)

(* Cross-seed replications for the contentious cells: is ODV's advantage
   over LDV on configurations E, F, H (the paper's finding) statistically
   resolvable? *)
let replications () =
  section "REPLICATIONS"
    "Five independent failure histories (distinct seeds), pooled per cell\n\
     with Student-t intervals: run-to-run noise for the ODV-vs-LDV\n\
     crossover cells the paper highlights (E, F, H).";
  let parameters = { parameters with Study.horizon = Float.min horizon 200_360.0 } in
  let configs =
    List.filter
      (fun c -> List.mem (Config.label c) [ "E"; "F"; "H" ])
      Config.ucsd_configurations
  in
  let pooled =
    Study.replicate ~parameters ~replications:5 ~configs
      ~kinds:[ Policy.Odv; Policy.Ldv ] ~jobs ()
  in
  let table =
    Text_table.create
      ~aligns:[ Text_table.Left; Text_table.Left; Text_table.Right; Text_table.Right ]
      ~header:[ "Config"; "Policy"; "Unavail (5 seeds)"; "95% +/-" ] ()
  in
  List.iter
    (fun ((config, kind), (r : Study.replicated)) ->
      Text_table.add_row table
        [ Config.label config; Policy.kind_name kind;
          Text_table.cell_float r.Study.mean_unavailability;
          Text_table.cell_float r.Study.half_width_95 ])
    pooled;
  Text_table.print table;
  List.iter
    (fun label ->
      let get kind =
        snd
          (List.find
             (fun ((c, k), _) -> Config.label c = label && k = kind)
             pooled)
      in
      let odv = get Policy.Odv and ldv = get Policy.Ldv in
      let diff = odv.Study.mean_unavailability -. ldv.Study.mean_unavailability in
      let spread = odv.Study.half_width_95 +. ldv.Study.half_width_95 in
      Fmt.pr "  %s: ODV - LDV = %+.6f (+/- %.6f): %s@." label diff spread
        (if Float.abs diff <= spread then "statistically indistinguishable"
         else if diff < 0.0 then "ODV significantly better (the paper's finding)"
         else "LDV significantly better"))
    [ "E"; "F"; "H" ]

(* Chaos-harness throughput and the price of relaxed delivery. *)
let chaos () =
  section "CHAOS"
    "Fault-injection campaign throughput (randomized schedules per second,\n\
     safety oracle attached), and what relaxed [Deadline] delivery costs\n\
     over the paper's quiet network on a fault-free 5-site cluster.";
  let schedules = 500 in
  let table =
    Text_table.create
      ~aligns:[ Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Left ]
      ~header:[ "Policy"; "Schedules/s"; "Ops/s"; "Verdict" ] ()
  in
  List.iter
    (fun (p : Harness.policy) ->
      let s, dt = timed (fun () -> Harness.run_many ~policy:p ~seed:2026L ~schedules ()) in
      Text_table.add_row table
        [ p.Harness.name;
          Printf.sprintf "%.0f" (float_of_int schedules /. dt);
          Printf.sprintf "%.0f"
            (float_of_int (s.Harness.granted + s.Harness.denied + s.Harness.aborted) /. dt);
          (if s.Harness.failures = 0 then "OK"
           else if s.Harness.expect_safe then
             Printf.sprintf "%d VIOLATIONS" s.Harness.failures
           else Printf.sprintf "%d violations (expected)" s.Harness.failures) ])
    Harness.policies;
  Text_table.print table;
  (* Deadline vs Quiet on the same operation mix, no faults: the retry
     machinery costs time when nothing goes wrong, while piggybacking the
     data on COMMIT saves the separate data round — this measures both. *)
  let universe = Site_set.universe 5 in
  let time_delivery delivery =
    let cluster = Cluster.create ~universe ?delivery () in
    let iterations = 20_000 in
    let messages, dt =
      timed (fun () ->
          let messages = ref 0 in
          for i = 0 to iterations - 1 do
            let at = i mod 5 in
            let outcome =
              if i mod 3 = 0 then Cluster.write cluster ~at ~content:"x"
              else Cluster.read cluster ~at
            in
            messages := !messages + outcome.Cluster.messages
          done;
          !messages)
    in
    ( 1e9 *. dt /. float_of_int iterations,
      float_of_int messages /. float_of_int iterations )
  in
  let quiet_ns, quiet_msgs = time_delivery None in
  let deadline_ns, deadline_msgs =
    time_delivery (Some (Cluster.Deadline { timeout = 0.25; retries = 2; backoff = 2.0 }))
  in
  Fmt.pr
    "@.Fault-free operation cost (5 copies, 1 write : 2 reads):@.\
    \  quiet network  %8.0f ns/op  %.1f msgs/op@.\
    \  deadline mode  %8.0f ns/op  %.1f msgs/op  (%.0f%% time overhead)@."
    quiet_ns quiet_msgs deadline_ns deadline_msgs
    (100.0 *. (deadline_ns -. quiet_ns) /. quiet_ns)

(* Bounded model checking throughput on the paper's four-copy example:
   distinct states, transition counts with and without partial-order
   reduction (verdicts asserted identical), states/s and transitions/s
   of both runs — the reduction pays only if it saves more transitions
   than its per-transition bookkeeping costs — and the fingerprint
   store's memory footprint against the (string, int) hashtable it
   replaced — measured on real canonical fingerprints, resident and
   with the disk-spill tier engaged.  DYNVOTE_MC_DEPTH picks the bound
   (default 6; the acceptance sweep uses 8, roughly a minute for all
   four policies).  Everything lands in BENCH_MC.json. *)

let mc_verdict_text (report : Checker.report) =
  let r = report.Checker.result in
  match report.Checker.verdict with
  | Checker.Clean { closed } ->
      Printf.sprintf "safe to depth %d%s" r.Explorer.depth
        (if closed then " (closed)" else "")
  | Checker.Counterexample { schedule; replay_matches; _ } ->
      Printf.sprintf "violation in %d steps%s"
        (List.length schedule.Dynvote_chaos.Schedule.steps)
        (if replay_matches then ", replays" else ", REPLAY DIVERGED")
  | Checker.Inconclusive -> "out of budget"

(* The store comparison: feed one stream of real canonical fingerprints
   (random walks over the §3 config, the same strings the explorer
   hands to Striped_seen.claim) to the old representation — a
   (string, int) hashtable keyed by the full canonical string — and to
   the new fingerprint store, resident and spilling.  Sizes by
   Obj.reachable_words over the live structure. *)
let mc_store_bytes () =
  let config = Checker.paper_config () in
  let n_sites = Site_set.cardinal config.Harness.universe in
  let perms = [ Dynvote_mc.Fingerprint.identity ~n_sites ] in
  let target = 20_000 in
  let distinct = Hashtbl.create target in
  let stream = ref [] in
  let buf = Buffer.create 256 in
  let rand = Random.State.make [| 0xd47 |] in
  let bytes_total = ref 0 in
  while Hashtbl.length distinct < target do
    let session = Harness.make_session config in
    for _ = 1 to 12 do
      Harness.apply_step session
        (Dynvote_chaos.Schedule.step_of_int ~n_sites
           (Random.State.int rand 245_760));
      let fp = Dynvote_mc.Fingerprint.canonical ~buf ~perms session in
      stream := fp :: !stream;
      if not (Hashtbl.mem distinct fp) then begin
        Hashtbl.add distinct fp ();
        bytes_total := !bytes_total + String.length fp
      end
    done
  done;
  let stream = List.rev !stream in
  let n = Hashtbl.length distinct in
  let words v = Obj.reachable_words (Obj.repr v) in
  let old_table : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun fp -> Hashtbl.replace old_table fp 1) stream;
  let old_words = words old_table in
  let feed store =
    List.iter
      (fun fp ->
        ignore (Dynvote_mc.Striped_seen.claim store fp ~budget:1 ~ctx:0
                : Dynvote_mc.Striped_seen.verdict))
      stream
  in
  let resident_store =
    Dynvote_mc.Striped_seen.create ~shards:64 ~max_states:(2 * n) ()
  in
  feed resident_store;
  assert (Dynvote_mc.Striped_seen.distinct resident_store = n);
  let resident_words = words resident_store in
  let spill_store =
    Dynvote_mc.Striped_seen.create ~shards:64 ~spill:(n / 16)
      ~max_states:(2 * n) ()
  in
  feed spill_store;
  assert (Dynvote_mc.Striped_seen.distinct spill_store = n);
  let spill_words = words spill_store in
  let spilled = Dynvote_mc.Striped_seen.spilled spill_store in
  Dynvote_mc.Striped_seen.close resident_store;
  Dynvote_mc.Striped_seen.close spill_store;
  let per w = 8.0 *. float_of_int w /. float_of_int n in
  ( n,
    float_of_int !bytes_total /. float_of_int n,
    per old_words, per resident_words, per spill_words, spilled )

let mc () =
  let depth =
    match Sys.getenv_opt "DYNVOTE_MC_DEPTH" with
    | Some v when v <> "" -> int_of_string v
    | _ -> 6
  in
  section "MC"
    (Printf.sprintf
       "Exhaustive bounded search of the message protocols, 4 sites on the\n\
        paper's §3 topology, depth %d (DYNVOTE_MC_DEPTH to change).\n\
        Each policy runs with and without partial-order reduction; the\n\
        verdicts must match." depth);
  let table =
    Text_table.create
      ~aligns:
        [ Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Right;
          Text_table.Right; Text_table.Right; Text_table.Right; Text_table.Right;
          Text_table.Right; Text_table.Left ]
      ~header:
        [ "Policy"; "States"; "Full trans"; "POR trans"; "Reduction";
          "States/s POR"; "States/s full"; "Trans/s POR"; "Trans/s full";
          "Verdict" ]
      ()
  in
  (* One untimed check first, so that no timed leg runs in a cold
     process (a fresh heap, the pool's first domains). *)
  ignore
    (Checker.check ~policy:(Option.get (Harness.policy_of_string "dv")) ~depth ~jobs
       ~por:true (Checker.paper_config ())
      : Checker.report);
  let policy_rows =
    List.map
      (fun name ->
        let p = Option.get (Harness.policy_of_string name) in
        let check por =
          timed (fun () ->
              Checker.check ~policy:p ~depth ~jobs ~por (Checker.paper_config ()))
        in
        let reduced, reduced_s = check true in
        let full, full_s = check false in
        let rr = reduced.Checker.result and rf = full.Checker.result in
        let verdict = mc_verdict_text reduced in
        (* Same soundness gate as the test suite: a completed bound must
           agree on closure and state count; a violation compares by
           counterexample length (the reduction may pick a different
           equally-short representative). *)
        let summary (report : Checker.report) =
          match report.Checker.verdict with
          | Checker.Clean { closed } ->
              `Safe (closed, report.Checker.result.Explorer.distinct)
          | Checker.Counterexample { schedule; _ } ->
              `Violation
                (List.length schedule.Dynvote_chaos.Schedule.steps)
          | Checker.Inconclusive -> `Out_of_budget
        in
        if summary full <> summary reduced then
          failwith ("MC: POR changed the verdict for " ^ name);
        let reduction =
          float_of_int rf.Explorer.transitions
          /. float_of_int (max 1 rr.Explorer.transitions)
        in
        let per_s n seconds = float_of_int n /. seconds in
        let states_por = per_s rr.Explorer.distinct reduced_s
        and states_full = per_s rf.Explorer.distinct full_s
        and trans_por = per_s rr.Explorer.transitions reduced_s
        and trans_full = per_s rf.Explorer.transitions full_s in
        Text_table.add_row table
          [ name;
            string_of_int rr.Explorer.distinct;
            string_of_int rf.Explorer.transitions;
            string_of_int rr.Explorer.transitions;
            Printf.sprintf "%.2fx" reduction;
            Printf.sprintf "%.0f" states_por;
            Printf.sprintf "%.0f" states_full;
            Printf.sprintf "%.0f" trans_por;
            Printf.sprintf "%.0f" trans_full;
            verdict ];
        let totals = Dynvote_mc.Report.steal_totals rr.Explorer.workers in
        ( name,
          totals,
          Json.(
            Obj
              [ ("states", Int rr.Explorer.distinct);
                ("transitions_full", Int rf.Explorer.transitions);
                ("transitions_reduced", Int rr.Explorer.transitions);
                ("reduction", Float reduction); ("states_per_s_reduced", Float states_por);
                ("states_per_s_full", Float states_full);
                ("trans_per_s_reduced", Float trans_por); ("trans_per_s_full", Float trans_full);
                ("verdict", String verdict); ("steal_totals", json_steals totals) ]) ))
      [ "dv"; "odv"; "tdv"; "tdv-safe" ]
  in
  Text_table.print table;
  if jobs > 1 then begin
    Fmt.pr "@.Stealing frontier (-j%d, reduced runs):@." jobs;
    List.iter
      (fun (name, (t : Pool.steal_stats), _) ->
        Fmt.pr "  %-9s %d continuations, %d steals, %d failed steals, max deque %d@."
          name t.Pool.tasks_executed t.Pool.steals t.Pool.failed_steals
          t.Pool.max_deque_depth)
      policy_rows
  end;
  let sampled, canon_bytes, old_bs, resident_bs, spill_bs, spilled =
    mc_store_bytes ()
  in
  Fmt.pr
    "@.Fingerprint store, %d real canonical states (avg %.0f canonical bytes):@."
    sampled canon_bytes;
  Fmt.pr "  (string,int) hashtable  %8.1f bytes/state@." old_bs;
  Fmt.pr "  fingerprint store       %8.1f bytes/state  (%.1fx smaller)@."
    resident_bs (old_bs /. resident_bs);
  Fmt.pr "  + spill tier            %8.1f bytes/state resident  (%.1fx, %d spilled)@."
    spill_bs (old_bs /. spill_bs) spilled;
  write_bench "BENCH_MC.json"
    Json.(
      Obj
        [ ("schema", String "dynvote-bench-mc/3"); ("depth", Int depth); ("jobs", Int jobs);
          ("policies", Obj (List.map (fun (name, _, row) -> (name, row)) policy_rows));
          ( "store",
            Obj
              [ ("sampled_states", Int sampled); ("canonical_bytes_avg", Float canon_bytes);
                ("hashtbl_bytes_per_state", Float old_bs);
                ("resident_bytes_per_state", Float resident_bs);
                ("spill_resident_bytes_per_state", Float spill_bs);
                ("spilled_states", Int spilled);
                ("resident_ratio", Float (old_bs /. resident_bs));
                ("spill_ratio", Float (old_bs /. spill_bs)) ] ) ])

(* ------------------------------------------------------------------ *)
(* PAR: the execution layer itself.  The workload scales with the
   detected core count so per-worker work stays large against dispatch
   overhead (the schema-1 bench ran a fixed tiny workload on which pool
   overhead dominated and the measured "speedup" said nothing about the
   scheduler).  The identity assertions are the portable gate — they
   hold on any machine, including 1-core CI containers where wall-clock
   speedups are meaningless.  -jN is the -j width (at least 2, so a
   1-core box still exercises the parallel path).

   The model-checker workload is deliberately deep-narrow: one policy
   over the FULL action alphabet, the shape that starves any static
   partition of the root alphabet.  It runs at -j1 and -jN over the
   work-first frontier, with the verdict asserted identical and the
   frontier's steal counters recorded in BENCH_PAR.json (schema 3). *)

let par () =
  let n = max jobs 2 in
  let cores = Domain.recommended_domain_count () in
  section "PAR"
    (Printf.sprintf
       "Domain-pool execution layer: core-scaled workloads at -j 1 and -j %d\n\
        (%d core%s available).  Per-cell study results must be bit-identical;\n\
        model-checker verdicts must agree between -j1 and the -j%d frontier." n cores
       (if cores = 1 then "" else "s") n);
  (* Enough horizon per core that each of the 48 study cells hands every
     worker a meaningful slice; capped so a big box stays a bench, not a
     soak. *)
  let horizon = 20_360.0 *. float_of_int (min cores 16) in
  let study_parameters = { Study.default_parameters with Study.horizon } in
  let study_seq, study_seq_s = timed (fun () -> Study.run ~parameters:study_parameters ~jobs:1 ()) in
  let study_par, study_par_s = timed (fun () -> Study.run ~parameters:study_parameters ~jobs:n ()) in
  (* [compare] (not [=]) so the nan mean_outage_days cells of
     never-unavailable policies compare equal to themselves. *)
  let study_identical = compare study_seq study_par = 0 in
  Fmt.pr "  study (48 cells, %.0f-day horizon): -j1 %.2f s, -j%d %.2f s  [%s]@."
    study_parameters.Study.horizon study_seq_s n study_par_s
    (if study_identical then "IDENTICAL" else "MISMATCH");
  (* Deep-narrow bounded search: tdv-safe (the largest safe state space)
     over the full alphabet, one bound deeper where a second core can
     pay for it. *)
  let mc_depth = if cores >= 2 then 6 else 5 in
  let mc_policy = "tdv-safe" in
  let verdict_summary (report : Checker.report) =
    (* Exactly the scheduling-independent part of the result: the
       verdict, the bound, and the distinct-state count on Safe outcomes
       (on a violation the table size reflects when the search
       stopped). *)
    let r = report.Checker.result in
    match r.Explorer.outcome with
    | Explorer.Safe { closed } ->
        Printf.sprintf "safe depth=%d closed=%b distinct=%d" r.Explorer.depth closed
          r.Explorer.distinct
    | Explorer.Violation { trace; _ } ->
        Printf.sprintf "violation len=%d replays=%b" (List.length trace)
          (match report.Checker.verdict with
          | Checker.Counterexample { replay_matches; _ } -> replay_matches
          | _ -> false)
    | Explorer.Out_of_budget -> Printf.sprintf "budget depth=%d" r.Explorer.depth
  in
  let p = Option.get (Harness.policy_of_string mc_policy) in
  let run_mc ~jobs =
    Checker.check ~space:Dynvote_mc.Space.full ~policy:p ~depth:mc_depth ~jobs
      (Checker.paper_config ())
  in
  let mc_seq, mc_seq_s = timed (fun () -> run_mc ~jobs:1) in
  let mc_par, mc_par_s = timed (fun () -> run_mc ~jobs:n) in
  let base = verdict_summary mc_seq in
  let mc_identical = verdict_summary mc_par = base in
  Fmt.pr "  mc (%s, full alphabet, depth %d): -j1 %.2f s, -j%d %.2f s  [%s]@." mc_policy
    mc_depth mc_seq_s n mc_par_s
    (if mc_identical then "IDENTICAL" else "MISMATCH");
  Fmt.pr "    verdict: %s@." base;
  let totals = Dynvote_mc.Report.steal_totals mc_par.Checker.result.Explorer.workers in
  Fmt.pr "    frontier: %d continuations, %d steals, %d failed steals, max deque %d@."
    totals.Pool.tasks_executed totals.Pool.steals totals.Pool.failed_steals
    totals.Pool.max_deque_depth;
  let total_seq = study_seq_s +. mc_seq_s
  and total_par = study_par_s +. mc_par_s in
  let speedup = total_seq /. total_par in
  Fmt.pr "  total: -j1 %.2f s, -j%d %.2f s, speedup %.2fx on %d core%s@." total_seq n
    total_par speedup cores (if cores = 1 then "" else "s");
  write_bench "BENCH_PAR.json"
    Json.(
      let walls seq par =
        [ ("j1_wall_s", Float seq); ("jn_wall_s", Float par); ("speedup", Float (seq /. par)) ]
      in
      Obj
        [ ("schema", String "dynvote-bench-par/3"); ("jobs", Int n); ("cores", Int cores);
          ( "sections",
            Obj
              [ ( "study",
                  Obj
                    ((("horizon_days", Float horizon) :: walls study_seq_s study_par_s)
                    @ [ ("identical", Bool study_identical) ]) );
                ( "mc",
                  Obj
                    ([ ("policy", String mc_policy); ("space", String "full");
                       ("depth", Int mc_depth) ]
                    @ walls mc_seq_s mc_par_s
                    @ [ ("identical", Bool mc_identical); ("verdict", String base);
                        ("steal_totals", json_steals totals) ]) ) ] );
          ("total", Obj (walls total_seq total_par)) ]);
  if not (study_identical && mc_identical) then
    failwith "PAR: parallel results diverged from sequential"

(* The boxed array-of-records layout the structure-of-arrays
   Event_queue replaced, kept as the MICRO baseline so the before/after
   ns/op stays measured rather than remembered. *)
module Boxed_queue = struct
  type 'a entry = { time : float; seq : int; payload : 'a }

  type 'a t = { mutable heap : 'a entry array; mutable size : int; mutable next_seq : int }

  let create () = { heap = [||]; size = 0; next_seq = 0 }
  let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let capacity = Array.length t.heap in
    let heap = Array.make (if capacity = 0 then 16 else capacity * 2) t.heap.(0) in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if precedes t.heap.(i) t.heap.(parent) then begin
        let tmp = t.heap.(i) in
        t.heap.(i) <- t.heap.(parent);
        t.heap.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 in
    if left < t.size then begin
      let right = left + 1 in
      let smallest =
        if right < t.size && precedes t.heap.(right) t.heap.(left) then right else left
      in
      if precedes t.heap.(smallest) t.heap.(i) then begin
        let tmp = t.heap.(i) in
        t.heap.(i) <- t.heap.(smallest);
        t.heap.(smallest) <- tmp;
        sift_down t smallest
      end
    end

  let add t ~time payload =
    let entry = { time; seq = t.next_seq; payload } in
    t.next_seq <- t.next_seq + 1;
    if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
    if t.size = Array.length t.heap then grow t;
    t.heap.(t.size) <- entry;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      Some (top.time, top.payload)
    end
end

(* Bechamel micro-benchmarks of the hot primitives. *)
let micro () =
  section "MICRO" "Bechamel micro-benchmarks of the core primitives (ns per call).";
  let open Bechamel in
  let ordering = Ordering.default 8 in
  let segment_of = Topology.segment_of Topology.ucsd in
  let states =
    let universe = Site_set.of_list [ 0; 1; 3; 5 ] in
    Array.make 8 (Replica.initial universe)
  in
  let reachable = Site_set.of_list [ 0; 1; 5 ] in
  let connectivity = Connectivity.create Topology.ucsd in
  let up = Site_set.remove 3 (Topology.all_sites Topology.ucsd) in
  let rng = Dynvote_prng.Rng.of_seed 99 in
  let queue = Dynvote_des.Event_queue.create () in
  let boxed_queue = Boxed_queue.create () in
  for i = 1 to 1024 do
    Dynvote_des.Event_queue.add queue ~time:(float_of_int (i * 7 mod 1024)) i;
    Boxed_queue.add boxed_queue ~time:(float_of_int (i * 7 mod 1024)) i
  done;
  let refresh_ctx = Operation.make_ctx ordering in
  (* The checksum over a stable record's 24 payload bytes and over a
     64 KiB frame. *)
  let checksum_sizes = [ ("24B", "24 B", 24); ("64KiB", "64 KiB", 65536) ] in
  let checksum_buf = Bytes.init 65536 (fun i -> Char.chr (i * 131 land 0xff)) in
  let tests =
    List.map
      (fun (name, _, len) ->
        Test.make ~name:("adler32_" ^ name)
          (Staged.stage (fun () -> ignore (Codec.adler32 checksum_buf ~off:0 ~len : int))))
      checksum_sizes
    @ [
      Test.make ~name:"decision_evaluate_ldv"
        (Staged.stage (fun () ->
             ignore
               (Decision.evaluate Decision.ldv_flavor ~ordering ~segment_of ~states
                  ~reachable ())));
      Test.make ~name:"decision_evaluate_tdv"
        (Staged.stage (fun () ->
             ignore
               (Decision.evaluate Decision.tdv_flavor ~ordering ~segment_of ~states
                  ~reachable ())));
      Test.make ~name:"connectivity_components"
        (Staged.stage (fun () -> ignore (Connectivity.components connectivity ~up)));
      Test.make ~name:"site_set_algebra"
        (Staged.stage (fun () ->
             ignore
               (Site_set.cardinal (Site_set.union reachable (Site_set.inter up reachable)))));
      Test.make ~name:"event_queue_add_pop"
        (Staged.stage (fun () ->
             Dynvote_des.Event_queue.add queue ~time:512.5 0;
             ignore (Dynvote_des.Event_queue.pop queue)));
      Test.make ~name:"event_queue_add_pop_boxed"
        (Staged.stage (fun () ->
             Boxed_queue.add boxed_queue ~time:512.5 0;
             ignore (Boxed_queue.pop boxed_queue)));
      Test.make ~name:"rng_exponential"
        (Staged.stage (fun () -> ignore (Dynvote_prng.Rng.exponential rng ~mean:36.5)));
      Test.make ~name:"refresh_operation"
        (Staged.stage (fun () ->
             let states = Array.make 8 (Replica.initial (Site_set.universe 5)) in
             ignore (Operation.refresh refresh_ctx states ~reachable:(Site_set.universe 5) ())));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"core" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns = match Analyze.OLS.estimates result with Some (t :: _) -> t | _ -> nan in
      rows := (name, ns) :: !rows)
    analyzed;
  let table =
    Text_table.create ~aligns:[ Text_table.Left; Text_table.Right ]
      ~header:[ "Primitive"; "ns/call" ] ()
  in
  List.iter
    (fun (name, ns) -> Text_table.add_row table [ name; Printf.sprintf "%.1f" ns ])
    (List.sort compare !rows);
  Text_table.print table;
  let per_byte (name, label, len) =
    let ns = try List.assoc ("core/adler32_" ^ name) !rows with Not_found -> nan in
    Printf.sprintf "%.2f ns/byte at %s" (ns /. float_of_int len) label
  in
  Fmt.pr "@.Checksum (Codec.adler32): %s@."
    (String.concat ", " (List.map per_byte checksum_sizes))

(* ------------------------------------------------------------------ *)
(* The live sections — SERVE, SERVE-SWEEP, OBS, CRASH and SHARD — all
   measure through [live_run]. *)

module Live = Dynvote_live.Cluster
module Live_node = Dynvote_live.Node
module Loadgen = Dynvote_live.Loadgen
module Hub = Dynvote_obs.Hub
module Batch_means = Dynvote_stats.Batch_means
module Obs_metrics = Dynvote_obs.Metrics

(* Loopback tuning: the library default (0.2 s rounds) is patience for a
   real network; here every peer is micro-seconds away and snappy rounds
   keep lock contention cheap.  Buffered unless a run asks for fsync. *)
let loopback =
  {
    Live_node.default_config with
    Live_node.gather_timeout = 0.05;
    lock_backoff = 0.02;
    durable = false;
  }

(* Every live run draws the same client schedule. *)
let load = { Loadgen.default with Loadgen.seed = 11 }

(* One live run: the load generator's result, the end-of-run audit and
   its verdict, and the hub's instruments as the audit left them. *)
type live = {
  result : Loadgen.result;
  audit : Live.audit;
  safe : bool;
  metrics : Obs_metrics.snapshot;
  backend : string;  (* the switchboard's readiness backend *)
  fenced : int;  (* sites fenced read-only at the end of the run *)
}

(* Boot a 4-site cluster in a fresh temp directory, drive it with
   [driver] (the in-process herd unless a section says otherwise),
   audit it, snapshot its hub, shut it down and remove the directory. *)
let live_run ?(config = loopback) ?(obs = Hub.create ()) ?vfs_of
    ?(driver = Loadgen.run) load =
  let dir = Live.temp_dir "dynvote-bench" in
  let cluster =
    Live.create ~config ~obs ?vfs_of ~universe:(Site_set.universe 4) ~dir ()
  in
  let result = driver cluster load in
  let audit = Live.check cluster in
  let run =
    {
      result;
      audit;
      safe = Live.safe audit;
      metrics = Obs_metrics.snapshot obs.Hub.metrics;
      backend = Live.backend cluster;
      fenced =
        Site_set.cardinal
          (Site_set.filter
             (fun s -> Live.degraded cluster s <> None)
             (Live.universe cluster));
    }
  in
  Live.shutdown cluster;
  Live.remove_dir dir;
  run

(* Instruments a live hub registers at boot; a missing name is a bench
   bug, so it raises. *)
let counter run name = List.assoc name run.metrics.Obs_metrics.counters
let histogram run name = List.assoc name run.metrics.Obs_metrics.histograms

let goodput run = run.result.Loadgen.goodput.Batch_means.mean
let half_width run = run.result.Loadgen.goodput.Batch_means.half_width
let verdict run = if run.safe then "SAFE" else "UNSAFE"

let json_ops (o : Loadgen.op_stats) =
  Json.(
    Obj
      [ ("issued", Int o.Loadgen.issued); ("granted", Int o.Loadgen.granted);
        ("denied", Int o.Loadgen.denied); ("aborted", Int o.Loadgen.aborted);
        ("degraded", Int o.Loadgen.degraded); ("retried", Int o.Loadgen.retried);
        ("dup_acks", Int o.Loadgen.dup_acks); ("p50", Float o.Loadgen.p50);
        ("p95", Float o.Loadgen.p95); ("p99", Float o.Loadgen.p99) ])

let json_histogram (h : Obs_metrics.histogram_summary) =
  Json.(
    Obj
      [ ("n", Int h.Obs_metrics.h_count); ("mean", Float h.Obs_metrics.h_mean);
        ("max", Float h.Obs_metrics.h_max) ])

(* The goodput and per-op-kind fields a run record opens and closes
   with. *)
let json_goodput run =
  Json.[ ("goodput", Float (goodput run)); ("half_width", Float (half_width run)) ]

let json_reads_writes run =
  [ ("reads", json_ops run.result.Loadgen.reads);
    ("writes", json_ops run.result.Loadgen.writes) ]

(* ------------------------------------------------------------------ *)
(* SERVE: the live socket-backed service under closed-loop load,
   durable (one shard-log fsync per commit batch) against buffered (no
   fsync) — the price of the paper's stable-storage requirement on this
   disk. *)

(* The shape of one serve configuration; [coordinator] funnels every
   call to one site (where anchoring and pipelining pay off). *)
type serve_shape = {
  sh_clients : int;
  sh_pipeline : int;
  sh_max_reuse : int;
  sh_coordinator : int option;
}

let baseline_shape =
  {
    sh_clients = 4;
    sh_pipeline = 1;
    sh_max_reuse = 0;
    sh_coordinator = None;
  }

let pipelined_shape =
  {
    sh_clients = 32;
    sh_pipeline = 8;
    sh_max_reuse = 64;
    sh_coordinator = Some 1;
  }

let serve_run ?driver ?obs ~duration ~durable shape =
  live_run ?driver ?obs
    ~config:
      { loopback with
        Live_node.durable;
        pipeline = shape.sh_pipeline;
        max_reuse = shape.sh_max_reuse }
    { load with
      Loadgen.clients = shape.sh_clients;
      duration;
      sites = Option.map Site_set.singleton shape.sh_coordinator }

(* Baseline (sequential coordinator, four clients spread over the sites)
   against the event-driven pipelined service (a 32-client herd at one
   coordinator, anchored lock rounds).  The acceptance gate is >= 10x
   goodput at equal safety: audits green and zero duplicate applies on
   both sides. *)
let serve () =
  section "SERVE"
    "Live service: 4 sites on loopback sockets, 30% writes.  Baseline is \
     the\nsequential coordinator (pipeline 1, 4 clients over all sites); \
     pipelined funnels\na 32-client herd at one coordinator (pipeline 8, \
     anchor reuse 64).  Durable\npays one shard-log fsync per commit batch \
     per site; buffered skips it and\ntrusts the page cache.";
  let runs =
    List.map
      (fun (name, durable, shape) ->
        let run = serve_run ~duration:2.0 ~durable shape in
        Fmt.pr "[%s] audit %s  loop %s@.@[<v>%a@]@." name (verdict run)
          run.backend Loadgen.pp_result run.result;
        if shape.sh_pipeline > 1 then
          Fmt.pr
            "pipeline: %d lock rounds for %d granted (%d joined an anchor)  \
             commit batch mean %.1f  frame batch mean %.2f@."
            (counter run "live.lock.rounds")
            (run.result.Loadgen.reads.Loadgen.granted
            + run.result.Loadgen.writes.Loadgen.granted)
            (counter run "live.gather.reused")
            (histogram run "live.commit.batch").Obs_metrics.h_mean
            (histogram run "net.batch.frames").Obs_metrics.h_mean;
        Fmt.pr "@.";
        (name, shape, run))
      [
        ("durable", true, baseline_shape);
        ("buffered", false, baseline_shape);
        ("pipelined-durable", true, pipelined_shape);
        ("pipelined-buffered", false, pipelined_shape);
      ]
  in
  let find name =
    let _, _, run = List.find (fun (n, _, _) -> n = name) runs in
    run
  in
  let speedup base pipelined =
    let b = find base and p = find pipelined in
    ((if goodput b > 0.0 then goodput p /. goodput b else nan), b.safe && p.safe)
  in
  let durable_speedup, durable_safe = speedup "durable" "pipelined-durable" in
  let buffered_speedup, buffered_safe = speedup "buffered" "pipelined-buffered" in
  let gate = buffered_speedup >= 10.0 && buffered_safe in
  Fmt.pr
    "speedup: durable %.1fx (%s), buffered %.1fx (%s)@.gate: %s - pipelined \
     buffered >= 10x baseline at equal safety@.@."
    durable_speedup
    (if durable_safe then "safe" else "UNSAFE")
    buffered_speedup
    (if buffered_safe then "safe" else "UNSAFE")
    (if gate then "PASS" else "FAIL");
  (runs, (durable_speedup, buffered_speedup, gate))

(* One sweep step's client herd in a separate process.  RLIMIT_NOFILE
   is per-process, and without CAP_SYS_RESOURCE the hard cap cannot be
   raised — so when both ends of ten thousand loopback sockets cannot
   share one descriptor table, the herd's end moves out: the child
   re-executes this binary with a hidden flag, drives
   [Loadgen.run_at] against the parent's switchboard port, and ships
   the marshalled result back over a pipe. *)
let herd_child_flag = "--herd-child"

let herd_child_config ~clients ~duration ~seed =
  {
    Loadgen.default with
    Loadgen.clients;
    duration;
    seed;
    sites = Option.map Site_set.singleton pipelined_shape.sh_coordinator;
  }

let herd_child_main () =
  match Sys.argv with
  | [| _; flag; port; clients; duration; seed |] when flag = herd_child_flag ->
      let config =
        herd_child_config ~clients:(int_of_string clients)
          ~duration:(float_of_string duration) ~seed:(int_of_string seed)
      in
      let result =
        Loadgen.run_at ~port:(int_of_string port)
          ~universe:(Site_set.universe 4) config
      in
      set_binary_mode_out stdout true;
      Marshal.to_channel stdout result [];
      exit 0
  | _ -> ()

let run_herd_in_child cluster (config : Loadgen.config) =
  let rd, wr = Unix.pipe () in
  let argv =
    [|
      Sys.executable_name;
      herd_child_flag;
      string_of_int (Live.port cluster);
      string_of_int config.Loadgen.clients;
      Printf.sprintf "%.17g" config.Loadgen.duration;
      string_of_int config.Loadgen.seed;
    |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  set_binary_mode_in ic true;
  let result =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        (Marshal.from_channel ic : Loadgen.result))
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "herd child exited abnormally");
  result

(* The goodput/latency knee: the same pipelined-buffered service under a
   widening client herd.  Ten thousand clients are ten thousand
   sockets on each side of the broker, so the fd limit is raised first;
   a step whose two socket ends cannot share the descriptor table runs
   its herd in a child process (each process has its own limit), and a
   step that cannot fit even then is dropped loudly, never silently. *)
let serve_sweep () =
  section "SERVE-SWEEP"
    "Client scaling, 10 -> 10k: the pipelined-buffered configuration under \
     a\ngrowing client herd.  Goodput saturates at the coordinator's capacity; \
     the\nlatency knee is where queueing for the pipeline begins.";
  let steps = [ 10; 32; 100; 320; 1000; 3200; 10000 ] in
  let limit = Dynvote_live.Evloop.raise_fd_limit (2 * 10000 + 4096) in
  let fits_in_process c = (2 * c) + 512 <= limit in
  let fits_with_child c = c + 512 <= limit in
  let rows =
    List.filter_map
      (fun clients ->
        let shape = { pipelined_shape with sh_clients = clients } in
        let driver =
          if fits_in_process clients then Some Loadgen.run
          else if fits_with_child clients then begin
            Fmt.pr
              "%d clients: both socket ends exceed the fd limit (%d); running \
               the herd in a child process@."
              clients limit;
            Some run_herd_in_child
          end
          else begin
            Fmt.pr "skipping %d clients: fd limit %d is too low even split \
                    across two processes@."
              clients limit;
            None
          end
        in
        (* The measurement window opens before the herd connects, and a
           ten-thousand-client handshake wave takes several seconds on
           its own — scale the window so the biggest herds still get a
           few seconds of steady state inside it. *)
        let duration = Float.max 2.5 (float_of_int clients /. 800.) in
        Option.map
          (fun driver ->
            (clients, serve_run ~driver ~duration ~durable:false shape))
          driver)
      steps
  in
  let table =
    Text_table.create
      ~aligns:
        [ Text_table.Right; Text_table.Right; Text_table.Right;
          Text_table.Right; Text_table.Right; Text_table.Right; Text_table.Left ]
      ~header:
        [ "clients"; "goodput"; "p50 ms"; "p95 ms"; "p99 ms"; "late"; "audit" ]
      ()
  in
  List.iter
    (fun (clients, run) ->
      let r = run.result in
      let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" (v *. 1e3) in
      let p q =
        (* reads and writes see the same queue; report the slower side *)
        Float.max
          (match q with
          | `P50 -> r.Loadgen.reads.Loadgen.p50
          | `P95 -> r.Loadgen.reads.Loadgen.p95
          | `P99 -> r.Loadgen.reads.Loadgen.p99)
          (match q with
          | `P50 -> r.Loadgen.writes.Loadgen.p50
          | `P95 -> r.Loadgen.writes.Loadgen.p95
          | `P99 -> r.Loadgen.writes.Loadgen.p99)
      in
      Text_table.add_row table
        [
          string_of_int clients;
          Printf.sprintf "%.0f" (goodput run);
          ms (p `P50);
          ms (p `P95);
          ms (p `P99);
          string_of_int r.Loadgen.late;
          verdict run;
        ])
    rows;
  Text_table.print table;
  Fmt.pr "@.";
  rows

(* ------------------------------------------------------------------ *)
(* OBS: what the observability layer costs.  The same buffered run with
   the hub live (counters + histograms + trace ring on every frame and
   operation) and with the compiled-in no-op hub, goodput against
   goodput.  The acceptance budget is 5%, but a point-estimate
   comparison is meaningless when the batch-means intervals are wider
   than the budget — so the run length doubles until both half-widths
   are under ~10% of their means (capped), and the gate is CI overlap:
   the overhead is undetectable when the live and no-op intervals
   intersect.                                                          *)

let obs_bench () =
  section "OBS"
    "Instrumentation overhead: the buffered SERVE workload with the \
     metrics+trace\nhub live vs. the compiled-in no-op hub.  The run is \
     lengthened until the\ngoodput CIs resolve; the gate is CI overlap.";
  let rel_hw run =
    let g = goodput run in
    if g <= 0.0 then infinity else half_width run /. g
  in
  let target = 0.10 and max_duration = 12.0 in
  let rec measure duration =
    let live = serve_run ~duration ~durable:false baseline_shape in
    let noop = serve_run ~obs:Hub.noop ~duration ~durable:false baseline_shape in
    let worst = Float.max (rel_hw live) (rel_hw noop) in
    if worst > target && duration *. 2.0 <= max_duration then begin
      Fmt.pr "  (%.1f s runs leave a +/-%.0f%% goodput CI - above the %.0f%% \
              target; doubling)@."
        duration (100.0 *. worst) (100.0 *. target);
      measure (duration *. 2.0)
    end
    else (live, noop, duration)
  in
  let live, noop, duration = measure 3.0 in
  let overhead_pct =
    let g_noop = goodput noop in
    if g_noop <= 0.0 then nan else (g_noop -. goodput live) /. g_noop *. 100.0
  in
  let ci_overlap =
    Float.abs (goodput noop -. goodput live) <= half_width noop +. half_width live
  in
  let table = Text_table.create ~header:[ "hub"; "goodput ops/s"; "95% CI"; "audit" ] () in
  List.iter
    (fun (name, run) ->
      Text_table.add_row table
        [
          name;
          Printf.sprintf "%.1f" (goodput run);
          Printf.sprintf "+/- %.1f (%.0f%%)" (half_width run) (100.0 *. rel_hw run);
          verdict run;
        ])
    [ ("live", live); ("noop", noop) ];
  Text_table.print table;
  Fmt.pr
    "instrumentation overhead: %.1f%% of no-op goodput over %.1f s runs \
     (budget 5%%)@.gate: %s - the live and no-op goodput CIs %s@."
    overhead_pct duration
    (if ci_overlap || overhead_pct <= 5.0 then "PASS" else "FAIL")
    (if ci_overlap then "overlap (overhead undetectable at this precision)"
     else "do not overlap");
  (live, noop, overhead_pct, ci_overlap, duration)

(* BENCH_SERVE.json: the machine-readable perf trajectory of the live
   service — one record per configuration, plus the instrumentation
   overhead, so regressions show up as a diff.                         *)

let bench_serve_json (runs, (durable_speedup, buffered_speedup, speedup_gate)) sweep
    (obs_live, obs_noop, overhead_pct, ci_overlap, obs_duration) =
  let open Json in
  let result run =
    json_goodput run
    @ [ ("batches", Int run.result.Loadgen.goodput.Batch_means.batches);
        ("wall", Float run.result.Loadgen.wall); ("late", Int run.result.Loadgen.late);
        ("safe", Bool run.safe) ]
    @ json_reads_writes run
  in
  let shape s =
    [ ("clients", Int s.sh_clients); ("pipeline", Int s.sh_pipeline);
      ("max_reuse", Int s.sh_max_reuse);
      ("coordinator", match s.sh_coordinator with None -> Null | Some c -> Int c) ]
  in
  let extras run =
    [ ("dup_applies", Int run.audit.Live.dup_applies);
      ("lock_rounds", Int (counter run "live.lock.rounds"));
      ("gather_reused", Int (counter run "live.gather.reused"));
      ("batch_frames", json_histogram (histogram run "net.batch.frames"));
      ("rounds_inflight", json_histogram (histogram run "live.rounds.inflight"));
      ("commit_batch", json_histogram (histogram run "live.commit.batch")) ]
  in
  let gate pass = String (if pass then "pass" else "fail") in
  Obj
    [ ("schema", String "dynvote-bench-serve/5");
      ( "loop_backend",
        String (match runs with (_, _, run) :: _ -> run.backend | [] -> "unknown") );
      ( "runs",
        Obj
          (List.map (fun (name, s, run) -> (name, Obj (shape s @ result run @ extras run))) runs
          @ List.map
              (fun (name, run) -> (name, Obj (shape baseline_shape @ result run)))
              [ ("obs-live", obs_live); ("obs-noop", obs_noop) ]) );
      ( "speedup",
        Obj
          [ ("durable", Float durable_speedup); ("buffered", Float buffered_speedup);
            ("gate", gate speedup_gate); ("floor", Float 10.0) ] );
      ( "sweep",
        List (List.map (fun (clients, run) -> Obj (("clients", Int clients) :: result run)) sweep)
      );
      ("obs_overhead_pct", Float overhead_pct); ("obs_ci_overlap", Bool ci_overlap);
      ("obs_duration_s", Float obs_duration);
      ("obs_gate", gate (ci_overlap || overhead_pct <= 5.0)) ]

(* ------------------------------------------------------------------ *)
(* CRASH: what surviving a disk costs.  A slice of the crash-point
   recovery matrix (restart-to-verdict times per cell), then goodput
   with one of four sites fenced after a storage fault — clients retry
   across sites under the same request number, so the run also counts
   dedup acknowledgements and fenced-site rejections.                  *)

module Crash_matrix = Dynvote_live.Crash_matrix
module Faultfs = Dynvote_faultfs.Faultfs
module Storage = Dynvote_chaos.Fault_plan.Storage

let crash_bench () =
  section "CRASH"
    "Crash-point recovery matrix (one point per file class x {eio, \
     fsync-lie, crash}),\nthen degraded-mode goodput: the same closed-loop \
     load with site 0 fenced by a\ndisk fault, clients retrying across \
     sites under the same request number.";
  let points =
    List.filter
      (fun p ->
        List.mem (Crash_matrix.point_name p)
          [ "shard.fsync"; "rids.rename"; "oplog.write" ])
      Crash_matrix.points
  in
  let faults = [ Storage.Eio; Storage.Fsync_lie; Storage.Crash ] in
  let dir = Live.temp_dir "dynvote-bench-crashmat" in
  let cells = Crash_matrix.run ~jobs ~seed:1 ~faults ~points ~dir () in
  Live.remove_dir dir;
  Fmt.pr "@[<v>%a@]@.@." Crash_matrix.pp_table cells;
  let recoveries = List.map (fun c -> c.Crash_matrix.c_recovery) cells in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let fenced_cells =
    List.length
      (List.filter
         (fun c ->
           match c.Crash_matrix.c_outcome with
           | Crash_matrix.Fenced _ -> true
           | _ -> false)
         cells)
  in
  Fmt.pr
    "restart-to-verdict: min %.0f ms, mean %.0f ms, max %.0f ms over %d \
     cells (%d fenced)@.@."
    (1000.0 *. List.fold_left Float.min infinity recoveries)
    (1000.0 *. mean recoveries)
    (1000.0 *. List.fold_left Float.max 0.0 recoveries)
    (List.length cells) fenced_cells;
  let run ~fenced =
    let ff = Faultfs.create ~seed:3 () in
    live_run
      ~vfs_of:(fun site -> if fenced && site = 0 then Faultfs.vfs ff else Vfs.real)
      ~driver:(fun cluster load ->
        (* Site 0's very next shard-log write fails: the first commit
           that touches it fences it for the whole run. *)
        if fenced then
          Faultfs.arm_next ff
            { Storage.fault = Storage.Eio; file = Storage.Shard;
              op = Storage.Write; nth = 1 };
        Loadgen.run cluster load)
      { load with Loadgen.clients = 4; duration = 1.5; retries = 2 }
  in
  let healthy = run ~fenced:false in
  let degraded = run ~fenced:true in
  let table =
    Text_table.create
      ~header:[ "run"; "goodput ops/s"; "retries"; "dup acks"; "fenced replies"; "audit" ]
      ()
  in
  List.iter
    (fun (name, run) ->
      let r = run.result in
      Text_table.add_row table
        [
          name;
          Printf.sprintf "%.1f" (goodput run);
          string_of_int (r.Loadgen.reads.Loadgen.retried + r.Loadgen.writes.Loadgen.retried);
          string_of_int (r.Loadgen.reads.Loadgen.dup_acks + r.Loadgen.writes.Loadgen.dup_acks);
          string_of_int (r.Loadgen.reads.Loadgen.degraded + r.Loadgen.writes.Loadgen.degraded);
          verdict run;
        ])
    [ ("healthy", healthy); ("one site fenced", degraded) ];
  Text_table.print table;
  let g_h = goodput healthy and g_d = goodput degraded in
  if g_h > 0.0 then
    Fmt.pr "degraded-mode goodput: %.0f%% of healthy (%d site(s) fenced)@."
      (100.0 *. g_d /. g_h) degraded.fenced;
  write_bench "BENCH_CRASH.json"
    Json.(
      Obj
        [ ("schema", String "dynvote-bench-crash/1");
          ( "cells",
            List
              (List.map
                 (fun (c : Crash_matrix.cell) ->
                   Obj
                     [ ("point", String (Crash_matrix.point_name c.Crash_matrix.c_point));
                       ("fault", String (Storage.fault_name c.Crash_matrix.c_fault));
                       ( "outcome",
                         String
                           (String.make 1 (Crash_matrix.outcome_letter c.Crash_matrix.c_outcome))
                       );
                       ("recovery_s", Float c.Crash_matrix.c_recovery);
                       ("injected", Int c.Crash_matrix.c_injected) ])
                 cells) );
          ( "runs",
            Obj
              [ ( "healthy",
                  Obj
                    (json_goodput healthy @ [ ("safe", Bool healthy.safe) ]
                    @ json_reads_writes healthy) );
                ( "degraded",
                  Obj
                    (json_goodput degraded
                    @ [ ("safe", Bool degraded.safe); ("fenced_sites", Int degraded.fenced) ]
                    @ json_reads_writes degraded) ) ] ) ])

(* ------------------------------------------------------------------ *)
(* SHARD: the sharded object space at scale.  Per-operation cost of the
   storage spine plus the LRU residency layer as the key space grows
   10^3 -> 10^6 (the million-object claim: cost is bounded by the
   residency cap, not the key count), then the live group-quorum
   payoff — keys per lock round under a skewed client herd.           *)

module Shard_store = Dynvote_shard.Shard_store
module Shard_map = Dynvote_shard.Shard_map
module Zipf = Dynvote_shard.Zipf

type shard_tier = {
  t_keys : int;
  t_populate_s : float;  (** wall time to commit every key once *)
  t_passes : float list;
      (** ns/op of each timed pass of the skewed get/update mix through
          the LRU layer, ascending *)
  t_ns_per_op : float;  (** the median of [t_passes] *)
  t_materialized : int;  (** per pass *)
  t_evicted : int;
}

let shard_resident_cap = 4096
let shard_tier_ops = 200_000

(* Timed passes of each tier's mix, after one untimed pass: a single
   pass of the short 1k-key tier moved the gate's ratio by 2x between
   runs. *)
let shard_passes = 5

let shard_tier ~keys =
  let dir = Live.temp_dir "dynvote-bench-shard" in
  let universe = Site_set.universe 4 in
  let store, _info =
    Shard_store.open_store ~durable:false ~dir ~site:0 ~shards:64 ()
  in
  let key = Printf.sprintf "key-%07d" in
  let (), populate_s =
    timed (fun () ->
        for k = 0 to keys - 1 do
          Shard_store.commit store ~key:(key k) ~rid:0
            {
              Shard_store.op_no = 2;
              version = 2;
              partition = universe;
              data_version = 2;
              value = Some "seed";
            }
        done)
  in
  let zipf = Zipf.create ~n:keys ~s:1.1 in
  (* One pass: a fresh residency map and the same draws every time, so
     every pass does the same work and the counts are per pass. *)
  let mix () =
    let map =
      Shard_map.create ~store ~resident:shard_resident_cap ~universe ()
    in
    let rng = Dynvote_prng.Rng.of_seed 42 in
    for i = 0 to shard_tier_ops - 1 do
      let k = key (Zipf.sample zipf (Dynvote_prng.Rng.float rng)) in
      let e = Shard_map.find map k in
      Shard_map.pin e;
      if i mod 3 = 0 then begin
        let r = Shard_map.replica e in
        Shard_map.set_replica e
          (Replica.with_commit r ~op_no:(Replica.op_no r + 1)
             ~version:(Replica.version r + 1) ~partition:universe);
        Shard_map.set_data_version e (Replica.version (Shard_map.replica e));
        Shard_map.set_value e (Some "update");
        Shard_store.commit store ~key:k ~rid:0 (Shard_map.state_of e)
      end
      else ignore (Shard_map.value e);
      Shard_map.unpin e
    done;
    map
  in
  let map = mix () in
  let passes =
    List.init shard_passes (fun _ ->
        let _, mix_s = timed mix in
        1e9 *. mix_s /. float_of_int shard_tier_ops)
    |> List.sort Float.compare
  in
  let tier =
    {
      t_keys = keys;
      t_populate_s = populate_s;
      t_passes = passes;
      t_ns_per_op = List.nth passes (shard_passes / 2);
      t_materialized = Shard_map.materializations map;
      t_evicted = Shard_map.evictions map;
    }
  in
  Shard_store.close store;
  Live.remove_dir dir;
  tier

(* The live side: a sharded pipelined cluster under a skewed client herd
   funnelled at one coordinator, so scheduler bursts carry many keys
   and the group path locks them in one wire round. *)
let shard_load =
  { load with
    Loadgen.clients = 32;
    duration = 2.0;
    keys = 512;
    zipf = 1.1;
    sites = Some (Site_set.singleton 1) }

let shard_bench () =
  section "SHARD"
    "The sharded object space: per-operation cost of the spine + LRU\n\
     residency layer as the key space grows 1k -> 1M (Zipf 1.1 mix, one\n\
     update per two reads; the median of 5 timed passes after one untimed\n\
     pass), then the live group-quorum payoff under a skewed client herd.\n\
     The gate: the million-key median per-op cost stays within 2x of the\n\
     thousand-key one — residency, not key count, bounds it.";
  let tiers =
    List.map (fun keys -> shard_tier ~keys) [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let table =
    Text_table.create
      ~aligns:
        [ Text_table.Right; Text_table.Right; Text_table.Right;
          Text_table.Right; Text_table.Right; Text_table.Right ]
      ~header:
        [ "keys"; "populate s"; "ns/op"; "min-max"; "materialized"; "evicted" ]
      ()
  in
  List.iter
    (fun t ->
      Text_table.add_row table
        [
          string_of_int t.t_keys;
          Printf.sprintf "%.2f" t.t_populate_s;
          Printf.sprintf "%.0f" t.t_ns_per_op;
          Printf.sprintf "%.0f-%.0f" (List.hd t.t_passes)
            (List.nth t.t_passes (shard_passes - 1));
          string_of_int t.t_materialized;
          string_of_int t.t_evicted;
        ])
    tiers;
  Text_table.print table;
  let cost keys =
    (List.find (fun t -> t.t_keys = keys) tiers).t_ns_per_op
  in
  let ratio = cost 1_000_000 /. cost 1_000 in
  let gate = ratio <= 2.0 in
  Fmt.pr
    "@.median per-op cost at 1M keys: %.2fx the 1k-key cost (floor: a key\n\
     space 1000x larger may cost at most 2x per op)@.gate: %s@.@."
    ratio
    (if gate then "PASS" else "FAIL");
  let live =
    live_run
      ~config:
        { loopback with
          Live_node.pipeline = 8;
          max_reuse = 64;
          shards = 64;
          resident = shard_resident_cap }
      shard_load
  in
  let batch = histogram live "live.shard.group.batch" in
  Fmt.pr "[group quorums] audit %s  %d keys audited@.@[<v>%a@]@." (verdict live)
    live.audit.Live.keys Loadgen.pp_result live.result;
  Fmt.pr
    "group path: %d lock rounds, %.2f keys per round (max %.0f) — the\n\
     batching the per-key protocol buys back@."
    batch.Obs_metrics.h_count batch.Obs_metrics.h_mean batch.Obs_metrics.h_max;
  write_bench "BENCH_SHARD.json"
    Json.(
      Obj
        [ ("schema", String "dynvote-bench-shard/2"); ("resident_cap", Int shard_resident_cap);
          ("ops_per_tier", Int shard_tier_ops); ("timed_passes", Int shard_passes);
          ( "tiers",
            List
              (List.map
                 (fun t ->
                   Obj
                     [ ("keys", Int t.t_keys); ("populate_s", Float t.t_populate_s);
                       ("ns_per_op", Float t.t_ns_per_op);
                       ("ns_per_op_passes", List (List.map (fun v -> Float v) t.t_passes));
                       ("materialized", Int t.t_materialized); ("evicted", Int t.t_evicted) ])
                 tiers) );
          ( "gate",
            Obj
              [ ("ratio_1m_over_1k", Float ratio); ("ceiling", Float 2.0);
                ("verdict", String (if gate then "pass" else "fail")) ] );
          ( "live",
            Obj
              ([ ("clients", Int shard_load.Loadgen.clients);
                 ("keys", Int shard_load.Loadgen.keys); ("zipf", Float shard_load.Loadgen.zipf) ]
              @ json_goodput live
              @ [ ("safe", Bool live.safe); ("keys_audited", Int live.audit.Live.keys);
                  ("hotset_distinct", Int live.result.Loadgen.hotset.Loadgen.distinct);
                  ("hotset_top_share", Float live.result.Loadgen.hotset.Loadgen.top_share);
                  ("group_batch", json_histogram batch) ]) ) ])

(* DYNVOTE_BENCH_SECTIONS: a comma-separated allow-list of section
   names (paper, chaos, mc, par, serve, crash, shard, micro); unset or
   empty runs everything.  Refreshing one BENCH_*.json artifact no
   longer costs a full study rerun. *)
let section_wanted =
  match Sys.getenv_opt "DYNVOTE_BENCH_SECTIONS" with
  | None | Some "" -> fun _ -> true
  | Some spec ->
      let names = String.split_on_char ',' spec |> List.map String.trim in
      fun name -> List.mem name names

let () =
  (* A child herd re-exec sees the flag before anything prints. *)
  herd_child_main ();
  Fmt.pr "dynvote benchmark harness - 'Efficient Dynamic Voting Algorithms' (ICDE 1988)@.";
  Fmt.pr "jobs: %d (-j N or DYNVOTE_JOBS to change; hardware recommends %d)@." jobs
    (Pool.recommended ());
  if section_wanted "paper" then begin
    table1 ();
    figure8 ();
    let results = tables23 () in
    claims results;
    sweep ();
    recovery_ablation ();
    messages ();
    let e3 = e3_study () in
    validate e3;
    reliability e3;
    extensions ();
    replications ()
  end;
  if section_wanted "chaos" then chaos ();
  if section_wanted "mc" then mc ();
  if section_wanted "par" then par ();
  if section_wanted "serve" then begin
    let serve_results = serve () in
    let sweep_results = serve_sweep () in
    let obs_results = obs_bench () in
    write_bench "BENCH_SERVE.json"
      (bench_serve_json serve_results sweep_results obs_results)
  end;
  if section_wanted "crash" then crash_bench ();
  if section_wanted "shard" then shard_bench ();
  if section_wanted "micro" then micro ();
  Fmt.pr "@.done.@."
