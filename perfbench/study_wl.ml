(* The availability study of the paper's §4: configurations A-H times
   the six policies over one seeded failure trace, with a 360-day
   warm-up, 20 batches and daily access, run sequentially.

   It is not a workload of its own: on a shared 2-core box its wall time
   drifts 1.4x in spells of a minute or more, so runs of the length the
   benchmark can afford spread past any bound (see README.md).  The
   traced run of mc-bound measures its layers here, on the paper's own
   parameters, and checks the answer against the pinned one. *)

module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config
module Event_gen = Dynvote_failures.Event_gen
module Site_spec = Dynvote_failures.Site_spec
module Topology = Dynvote_net.Topology
module Connectivity = Dynvote_net.Connectivity

(* Every cell, printed exactly, so two runs compare bit for bit. *)
let cells results =
  List.map
    (fun (r : Study.result) ->
      Printf.sprintf "%s/%s %.17g %.17g %d %.17g %.17g" (Config.label r.Study.config)
        (Policy.kind_name r.Study.kind) r.Study.unavailability r.Study.mean_outage_days
        r.Study.outages r.Study.longest_up_days r.Study.observed_days)
    results

let digest results = Digest.to_hex (Digest.string (String.concat "\n" (cells results)))

(* The study's answer with the paper's parameters, pinned: a digest of
   every cell of Tables 2 and 3. *)
let pinned_digest = "7be4007c1b964018e0403a3478074490"

let plausible results =
  List.length results = List.length Config.ucsd_configurations * List.length Policy.all_kinds
  && List.for_all
       (fun (r : Study.result) ->
         r.Study.unavailability >= 0.0 && r.Study.unavailability <= 1.0)
       results

let run_study p = Probe.time (fun () -> Study.run ~parameters:p ~jobs:1 ())

(* --- the traced run ------------------------------------------------------ *)

(* The drivers exactly as Study.run builds them, each closure timed per
   policy kind. *)
let timed_drivers ~record =
  let topology = Topology.ucsd in
  let n_sites = Topology.n_sites topology in
  let segment_of = Topology.segment_of topology in
  let ordering = Ordering.default n_sites in
  List.concat_map
    (fun config ->
      List.map
        (fun kind ->
          let d =
            Driver.of_policy
              (Policy.create kind ~universe:(Config.copies config) ~n_sites ~segment_of
                 ~ordering)
          in
          let add = record kind in
          let wrap f x =
            let t0 = Probe.now () in
            let v = f x in
            add (Probe.now () -. t0);
            v
          in
          ( (config, kind),
            {
              d with
              Driver.on_topology_change = wrap d.Driver.on_topology_change;
              on_repair = (fun view -> wrap (d.Driver.on_repair view));
              on_access = wrap d.Driver.on_access;
              available = wrap d.Driver.available;
            } ))
        Policy.all_kinds)
    Config.ucsd_configurations

let traced () =
  let p = Study.default_parameters in
  let results, wall = run_study p in
  let pinned_ok = digest results = pinned_digest in
  (* The twin: run_drivers over timed closures must give the same cells. *)
  let calls = Hashtbl.create 8 and secs = Hashtbl.create 8 in
  let record kind =
    if not (Hashtbl.mem calls kind) then begin
      Hashtbl.replace calls kind (ref 0);
      Hashtbl.replace secs kind (ref 0.0)
    end;
    let c = Hashtbl.find calls kind and s = Hashtbl.find secs kind in
    fun dt ->
      incr c;
      s := !s +. dt
  in
  let drivers = timed_drivers ~record in
  let twin, twin_wall = Probe.time (fun () -> Study.run_drivers ~parameters:p ~drivers ()) in
  let twin_results =
    List.map
      (fun ((config, kind), (s : Study.summary)) ->
        {
          Study.config;
          kind;
          interval = s.Study.interval;
          unavailability = s.Study.unavailability;
          mean_outage_days = s.Study.mean_outage_days;
          outages = s.Study.outages;
          longest_up_days = s.Study.longest_up_days;
          observed_days = s.Study.observed_days;
        })
      twin
  in
  let identical = cells twin_results = cells results && compare twin_results results = 0 in
  (* The failure trace and the connectivity views over the same seed and
     horizon, each timed as one loop. *)
  let ups = ref [] in
  let (), gen_s =
    Probe.time (fun () ->
        let gen = Event_gen.create ~seed:p.Study.seed Site_spec.ucsd_sites in
        let rec loop () =
          let tr = Event_gen.next gen in
          if tr.Event_gen.time < p.Study.horizon then begin
            ups := Event_gen.up_set gen :: !ups;
            loop ()
          end
        in
        loop ())
  in
  let ups = Array.of_list (List.rev !ups) in
  let transitions = Array.length ups in
  let connectivity = Connectivity.create Topology.ucsd in
  let (), view_s =
    Probe.time (fun () ->
        Array.iter (fun up -> ignore (Connectivity.view connectivity ~up : Policy.view)) ups)
  in
  let overhead = Probe.timer_overhead () in
  let kind_s kind =
    match Hashtbl.find_opt secs kind with
    | None -> 0.0
    | Some s -> Float.max 0.0 (!s -. (overhead *. float_of_int !(Hashtbl.find calls kind)))
  in
  let core_calls = Hashtbl.fold (fun _ c acc -> acc + !c) calls 0 in
  let core_s = List.fold_left (fun acc k -> acc +. kind_s k) 0.0 Policy.all_kinds in
  let named, other =
    Arith.shares ~total:wall [ ("failures", gen_s); ("net", view_s); ("core", core_s) ]
  in
  let kinds, _ =
    Arith.shares ~total:wall (List.map (fun k -> (Policy.kind_name k, kind_s k)) Policy.all_kinds)
  in
  Probe.say "  study at seed %d: %.3f s, cells digest %s (%s); traced twin %.3f s (%s); %d \
             transitions, timer %.1f ns/call"
    p.Study.seed wall (digest results)
    (if pinned_ok then "matches the pinned value" else "PINNED VALUE DIFFERS")
    twin_wall (if identical then "cells identical" else "CELLS DIFFER") transitions
    (overhead *. 1e9);
  let checks = [ plausible results && pinned_ok; identical ] in
  let m = Arith.metric in
  {
    Probe.correct = List.for_all Fun.id checks;
    attempted = List.length checks;
    failed = List.length (List.filter not checks);
    metrics =
      [
        m "sim.transitions" "count" (float_of_int transitions);
        m "failures.next_us" "us" (1e6 *. Arith.per_f gen_s (float_of_int (transitions + 1)));
        m "net.view_us" "us" (1e6 *. Arith.per_f view_s (float_of_int transitions));
        m "core.callback_us" "us" (1e6 *. Arith.per_f core_s (float_of_int core_calls));
      ]
      @ List.map (fun (l, s) -> m (l ^ ".share") "ratio" s) named
      @ List.map (fun (k, s) -> m ("core.share." ^ String.lowercase_ascii k) "ratio" s) kinds
      @ [ m "sim.other_share" "ratio" other ];
  }
