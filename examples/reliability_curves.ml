(* Reliability analysis without simulation: exact Markov models of the
   voting policies, rendered as curves.

   For three identical sites (MTTF 10 days, mean repair 1 day, one
   segment) we compute, per policy: steady-state unavailability, mean time
   to first unavailability, and the full reliability function R(t) — the
   probability of surviving t days without a single denial — then plot the
   curves side by side.

   Run with:  dune exec examples/reliability_curves.exe *)

module Voting_model = Dynvote_analytic.Voting_model
module Ascii_plot = Dynvote_report.Ascii_plot

let fail_rate = Array.make 3 (1.0 /. 10.0)
let repair_rate = Array.make 3 1.0
let ordering = Ordering.default 3

let times = List.init 30 (fun i -> float_of_int (i + 1) *. 10.0)

(* One walked chain per policy, and R(t) at every horizon from one pass. *)
let rows =
  List.map
    (fun (name, flavor) ->
      let chain = Voting_model.chain ~flavor ~fail_rate ~repair_rate ~ordering () in
      (name, chain, Voting_model.survival chain ~times))
    [ ("DV", Decision.dv_flavor); ("LDV", Decision.ldv_flavor);
      ("TDV", Decision.tdv_flavor) ]

let () =
  Fmt.pr "Exact reliability analysis: 3 copies, MTTF 10 d, repair 1 d.@.@.";
  List.iter
    (fun (name, chain, _) ->
      let p = Voting_model.period_statistics chain in
      Fmt.pr
        "  %-4s unavailability %.6f; first denial after %.1f days on average;@.\
        \       mean available period %.1f d, mean outage %.3f d@."
        name
        (Voting_model.unavailability chain)
        (Voting_model.mean_time_to_unavailability chain)
        p.Voting_model.mean_up_days p.Voting_model.mean_down_days)
    rows;

  let series =
    List.map
      (fun (name, _, survival) ->
        {
          Ascii_plot.label = name;
          points = List.map2 (fun t r -> (t, Float.max 1e-6 r)) times survival;
        })
      rows
  in
  Fmt.pr "@.R(t) = P(no unavailability before day t), log scale:@.@.";
  Ascii_plot.print ~width:66 ~height:18 ~scale:Ascii_plot.Log10 series;
  let _, _, tdv = List.find (fun (name, _, _) -> name = "TDV") rows in
  Fmt.pr
    "@.Reading: after 300 days, DV has almost certainly stalled at least@.\
     once, LDV retains a few permille, while topological voting still@.\
     survives with probability %.2f — the protocol design is worth two@.\
     orders of magnitude of reliability on the same hardware.@."
    (List.assoc 300.0 (List.combine times tdv))
