(* The benchmark's own arithmetic: medians, percentiles that are printed
   only when the sample supports them, per-op ratios, layer shares with an
   explicit remainder, and the result line the runner prints last. *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [Loadgen.percentile] (nearest rank, ascending array), printed only
   when the sample supports it: a tail percentile says something only
   when enough samples lie beyond it, so it is [None] unless at least
   [min_beyond] (default 10) samples are strictly past its rank.  p99
   needs 1,000 samples. *)
let percentile ?(min_beyond = 10) sorted p =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  if n = 0 || n - rank < min_beyond then None
  else Some (Dynvote_live.Loadgen.percentile sorted p)

(* A time [t] taken beside a calibration-kernel run of [k] seconds, at
   the reference speed: the speed at which the kernel takes
   [reference_s], about its time on the box the benchmark was written on
   when the neighbours are quiet.  A host that slows the work and the
   kernel by the same factor leaves it unchanged; code that makes the
   work faster makes it smaller by the same factor. *)
let reference_s = 0.1
let at_reference t k = t *. reference_s /. k

(* [num] per unit of [den]: nan, not an exception, when nothing was
   counted (a run that granted no operation has no per-op cost). *)
let per num den = if den = 0 then nan else float_of_int num /. float_of_int den
let per_f num den = if den = 0.0 then nan else num /. den

(* Failed over attempted.  On the live service failed is denied + aborted
   + degraded and attempted is every operation issued. *)
let failed_share ~attempted ~failed = per failed attempted

(* Each named part of [total] as a share of it, plus the remainder that
   the named parts leave unexplained, so the shares sum to 1 by
   construction; the remainder is reported, never hidden. *)
let shares ~total parts =
  let named = List.map (fun (name, t) -> (name, per_f t total)) parts in
  let remainder = 1.0 -. List.fold_left (fun acc (_, s) -> acc +. s) 0.0 named in
  (named, remainder)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The last line of a run: exactly the keys correct, attempted, failed and
   metrics.  Non-finite values become null. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
