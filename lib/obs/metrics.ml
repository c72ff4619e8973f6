(* The registry hands out instruments, not names: call sites resolve
   "live.op.granted" once and then update an Atomic (counters, gauges) or
   a mutex-guarded bucket array (histograms).  The noop registry hands
   out [None] instruments so disabled instrumentation costs one branch
   per update and allocates nothing. *)

module Welford = Dynvote_stats.Welford

(* --- histogram geometry ------------------------------------------- *)

(* 16 geometric buckets per decade over [1e-6, 1e3] s: fine enough that
   a bucket-midpoint quantile is within ~15% of the exact one, coarse
   enough that the whole array is 146 ints. *)
let buckets_per_decade = 16
let lo_bound = 1e-6
let decades = 9
let n_buckets = decades * buckets_per_decade
let hi_bound = lo_bound *. (10. ** float_of_int decades)

(* Regular buckets are 1..n_buckets; 0 is underflow, n_buckets+1 overflow. *)
let bucket_of v =
  if not (v > lo_bound) then 0
  else if v >= hi_bound then n_buckets + 1
  else
    let i =
      int_of_float
        (Float.log10 (v /. lo_bound) *. float_of_int buckets_per_decade)
    in
    1 + max 0 (min (n_buckets - 1) i)

(* Bounds of regular bucket [i] (1-based); under/overflow get the
   conventional open ends. *)
let bucket_bounds i =
  let edge k =
    lo_bound *. (10. ** (float_of_int k /. float_of_int buckets_per_decade))
  in
  if i = 0 then (0.0, lo_bound)
  else if i > n_buckets then (hi_bound, infinity)
  else (edge (i - 1), edge i)

(* --- instruments --------------------------------------------------- *)

type counter = int Atomic.t option
type gauge = float Atomic.t option

type histo = {
  h_mutex : Mutex.t;
  buckets : int array; (* n_buckets + 2 *)
  welford : Welford.t;
}

type histogram = histo option

type t = {
  is_live : bool;
  mutex : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, float Atomic.t) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let make is_live =
  {
    is_live;
    mutex = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histos = Hashtbl.create 8;
  }

let create () = make true
let noop = make false
let live t = t.is_live

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find_or_add t table name build =
  locked t (fun () ->
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
          let v = build () in
          Hashtbl.add table name v;
          v)

let counter t name =
  if not t.is_live then None
  else Some (find_or_add t t.counters name (fun () -> Atomic.make 0))

let incr = function
  | None -> ()
  | Some a -> ignore (Atomic.fetch_and_add a 1 : int)

let add c n =
  match c with
  | None -> ()
  | Some a -> ignore (Atomic.fetch_and_add a n : int)

let counter_value = function None -> 0 | Some a -> Atomic.get a

let gauge t name =
  if not t.is_live then None
  else Some (find_or_add t t.gauges name (fun () -> Atomic.make 0.0))

let set_gauge g v = match g with None -> () | Some a -> Atomic.set a v
let gauge_value = function None -> 0.0 | Some a -> Atomic.get a

let histogram t name =
  if not t.is_live then None
  else
    Some
      (find_or_add t t.histos name (fun () ->
           {
             h_mutex = Mutex.create ();
             buckets = Array.make (n_buckets + 2) 0;
             welford = Welford.create ();
           }))

let h_locked h f =
  Mutex.lock h.h_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.h_mutex) f

let observe h v =
  match h with
  | None -> ()
  | Some h ->
      h_locked h (fun () ->
          let i = bucket_of v in
          h.buckets.(i) <- h.buckets.(i) + 1;
          Welford.add h.welford v)

let histogram_count = function
  | None -> 0
  | Some h -> h_locked h (fun () -> Welford.count h.welford)

let histogram_mean = function
  | None -> nan
  | Some h -> h_locked h (fun () -> Welford.mean h.welford)

let histogram_max = function
  | None -> nan
  | Some h -> h_locked h (fun () -> Welford.max_value h.welford)

(* The bucket holding the [ceil (q * count)]-th smallest sample. *)
let quantile_bucket_locked h q =
  let total = Welford.count h.welford in
  if total = 0 then None
  else
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec scan i seen =
      if i > n_buckets + 1 then Some (n_buckets + 1)
      else
        let seen = seen + h.buckets.(i) in
        if seen >= target then Some i else scan (i + 1) seen
    in
    scan 0 0

let quantile h q =
  match h with
  | None -> nan
  | Some h ->
      h_locked h (fun () ->
          match quantile_bucket_locked h q with
          | None -> nan
          | Some i when i > n_buckets -> Welford.max_value h.welford
          | Some i ->
              let lo, hi = bucket_bounds i in
              if i = 0 then lo_bound /. 2.0 else sqrt (lo *. hi))

let quantile_bounds h q =
  match h with
  | None -> (nan, nan)
  | Some h ->
      h_locked h (fun () ->
          match quantile_bucket_locked h q with
          | None -> (nan, nan)
          | Some i -> bucket_bounds i)

(* --- snapshots ------------------------------------------------------ *)

type histogram_summary = {
  h_count : int;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  let counters =
    locked t (fun () ->
        Hashtbl.fold (fun k v acc -> (k, Atomic.get v) :: acc) t.counters [])
  in
  let gauges =
    locked t (fun () ->
        Hashtbl.fold (fun k v acc -> (k, Atomic.get v) :: acc) t.gauges [])
  in
  let histo_list =
    locked t (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.histos [])
  in
  let histograms =
    List.map
      (fun (name, h) ->
        let hh = Some h in
        ( name,
          {
            h_count = histogram_count hh;
            h_mean = histogram_mean hh;
            h_p50 = quantile hh 0.50;
            h_p95 = quantile hh 0.95;
            h_p99 = quantile hh 0.99;
            h_max = histogram_max hh;
          } ))
      histo_list
  in
  {
    counters = List.sort by_name counters;
    gauges = List.sort by_name gauges;
    histograms = List.sort by_name histograms;
  }

let pp_seconds ppf v =
  if Float.is_nan v then Fmt.string ppf "-"
  else if v < 1e-3 then Fmt.pf ppf "%.1f us" (v *. 1e6)
  else if v < 1.0 then Fmt.pf ppf "%.2f ms" (v *. 1e3)
  else Fmt.pf ppf "%.3f s" v

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v>";
  List.iter (fun (name, v) -> Fmt.pf ppf "%-36s %d@," name v) s.counters;
  List.iter (fun (name, v) -> Fmt.pf ppf "%-36s %g@," name v) s.gauges;
  List.iter
    (fun (name, h) ->
      Fmt.pf ppf "%-36s n=%d mean %a  p50 %a  p95 %a  p99 %a  max %a@," name
        h.h_count pp_seconds h.h_mean pp_seconds h.h_p50 pp_seconds h.h_p95
        pp_seconds h.h_p99 pp_seconds h.h_max)
    s.histograms;
  Fmt.pf ppf "@]"

let snapshot_to_json s =
  let module Json = Dynvote_report.Json in
  let section f items = Json.Obj (List.map (fun (k, v) -> (k, f v)) items) in
  Json.to_string
    (Json.Obj
       [
         ("counters", section (fun v -> Json.Int v) s.counters);
         ("gauges", section (fun v -> Json.Float v) s.gauges);
         ( "histograms",
           section
             (fun h ->
               Json.Obj
                 [
                   ("count", Json.Int h.h_count);
                   ("mean", Json.Float h.h_mean);
                   ("p50", Json.Float h.h_p50);
                   ("p95", Json.Float h.h_p95);
                   ("p99", Json.Float h.h_p99);
                   ("max", Json.Float h.h_max);
                 ])
             s.histograms );
       ])
