(* The live-service workload: a 4-site cluster on loopback, two
   closed-loop clients multiplexed on one thread, both coordinating at
   site 1.  One run records a seeded history of a fixed number of
   operations, restarts all four sites cold over it (set-up), warms up,
   measures a window of repeated fixed-size bursts, and audits the whole
   history.

   The client loop is the benchmark's own rather than Loadgen's: the
   history needs a fixed operation count (a fixed duration would carry
   goodput noise into the recovery time), and latency percentiles need
   the exact samples of reads and writes pooled. *)

open Dynvote_live
module Rng = Dynvote_prng.Rng
module Hub = Dynvote_obs.Hub
module Metrics = Dynvote_obs.Metrics
module Zipf = Dynvote_shard.Zipf

type shape = {
  name : string;
  config : Node.config;
  draw_key : Rng.t -> int;
  keys : string;  (* for the report *)
}

(* The workload: the sharded engine, buffered, over 100,000 Zipf keys
   with a resident cache of 4,096. *)
let keyed =
  let zipf = Zipf.create ~n:100_000 ~s:1.1 in
  {
    name = "serve-keyed";
    config =
      {
        Node.default_config with
        durable = false;
        pipeline = 8;
        max_reuse = 64;
        shards = 16;
        resident = 4096;
      };
    draw_key = (fun rng -> Zipf.sample zipf (Rng.float rng));
    keys = "100000 keys, Zipf s=1.1, 4096 resident";
  }

(* The fsync-bound engine: single object, every commit flushed, 16
   uniform keys.  Its goodput and latency spread too widely from run to
   run to be bounded (see README.md), so it is not a workload of its
   own: the traced run measures the storage layer on a short window of
   it, since the keyed engine's buffered logs skip every fsync. *)
let durable =
  {
    name = "serve-durable";
    config =
      { Node.default_config with durable = true; pipeline = 8; max_reuse = 64; shards = 0 };
    draw_key = (fun rng -> Rng.int rng 16);
    keys = "16 uniform keys";
  }

(* Operations per client in the restart history: enough that a cold
   restart does hundreds of milliseconds of recovery work. *)
let history_ops = 10000

(* Operations per client in one burst of the window, about 0.4 s. *)
let burst_ops = 500

let sites = 4
let coordinator = 1
let clients = 2
let write_ratio = 0.3
let value_bytes = 64
let warmup_s = 1.0
let restarts = 7

(* --- the closed-loop client ------------------------------------------ *)

type tally = {
  mutable issued : int;
  mutable granted : int;
  mutable granted_writes : int;
  mutable denied : int;
  mutable aborted : int;
  mutable degraded : int;
  mutable lat : float array;  (* seconds, every answered call *)
  mutable n : int;
}

let tally () =
  {
    issued = 0;
    granted = 0;
    granted_writes = 0;
    denied = 0;
    aborted = 0;
    degraded = 0;
    lat = Array.make 4096 0.0;
    n = 0;
  }

let failed t = t.denied + t.aborted + t.degraded

let record t latency =
  if t.n = Array.length t.lat then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.lat 0 bigger 0 t.n;
    t.lat <- bigger
  end;
  t.lat.(t.n) <- latency;
  t.n <- t.n + 1

(* Several tallies as one. *)
let merge ts =
  let t = tally () in
  List.iter
    (fun b ->
      t.issued <- t.issued + b.issued;
      t.granted <- t.granted + b.granted;
      t.granted_writes <- t.granted_writes + b.granted_writes;
      t.denied <- t.denied + b.denied;
      t.aborted <- t.aborted + b.aborted;
      t.degraded <- t.degraded + b.degraded;
      for i = 0 to b.n - 1 do
        record t b.lat.(i)
      done)
    ts;
  t

let latencies t =
  let a = Array.sub t.lat 0 t.n in
  Array.sort compare a;
  a

type conn = {
  index : int;
  fd : Unix.file_descr;
  ev : Evconn.t;
  rng : Rng.t;
  mutable id : int;
  mutable req : int;
  mutable ops : int;
  mutable start : float;
  mutable is_write : bool;
  mutable outstanding : bool;
  mutable writing : bool;
  mutable closed : bool;
}

type stop = Ops of int | Until of float

(* Every drive call numbers its writes apart, so no two writes of a run
   carry the same value and the audit's content scan stays sharp. *)
let drives = ref 0

(* One seeded key/value stream per client: the same seed and phase draw
   the same operations.  A stream carries on across the drive calls it is
   passed to. *)
let streams ~seed ~phase =
  Array.map (fun s -> Rng.create ~seed:s ()) (Loadgen.worker_seeds ~seed:((seed * 8) + phase) ~n:clients)

let drive ~port shape ~streams ?(write_ratio = write_ratio) stop =
  incr drives;
  let drive_no = !drives in
  let t = tally () in
  let loop = Evloop.create () in
  let conns =
    Array.init clients (fun index ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let c =
          {
            index;
            fd;
            ev = Evconn.of_fd fd;
            rng = streams.(index);
            id = 0;
            req = 0;
            ops = 0;
            start = 0.0;
            is_write = false;
            outstanding = false;
            writing = false;
            closed = false;
          }
        in
        Evloop.add loop fd ~read:true ~write:false;
        ignore
          (Evconn.enqueue c.ev
             { Wire.src = 0; dst = Wire.broker_id; payload = Wire.Hello_client }
            : [ `Ok | `Overflow ]);
        c)
  in
  let live = ref clients in
  let close c =
    if not c.closed then begin
      c.closed <- true;
      if c.outstanding then begin
        c.outstanding <- false;
        t.aborted <- t.aborted + 1
      end;
      decr live;
      Evloop.remove loop c.fd;
      Evconn.close c.ev
    end
  in
  let sync c =
    match Evconn.flush c.ev with
    | `Closed -> close c
    | `Idle | `Blocked ->
        let want = Evconn.want_write c.ev in
        if want <> c.writing then begin
          c.writing <- want;
          Evloop.modify loop c.fd ~read:true ~write:want
        end
  in
  let finished c =
    match stop with Ops n -> c.ops >= n | Until deadline -> Probe.now () >= deadline
  in
  let issue c =
    if finished c then close c
    else begin
      c.req <- c.req + 1;
      c.ops <- c.ops + 1;
      t.issued <- t.issued + 1;
      let key = Printf.sprintf "k%d" (shape.draw_key c.rng) in
      c.is_write <- Rng.float c.rng < write_ratio;
      let payload =
        if c.is_write then
          let tag = Printf.sprintf "%d.%d.%d." drive_no c.index c.req in
          let value = tag ^ String.make (max 0 (value_bytes - String.length tag)) 'x' in
          Wire.Client_put { req = c.req; key; value }
        else Wire.Client_get { req = c.req; key }
      in
      c.outstanding <- true;
      c.start <- Probe.now ();
      match Evconn.enqueue c.ev { Wire.src = c.id; dst = coordinator; payload } with
      | `Overflow -> close c
      | `Ok -> sync c
    end
  in
  let on_frame c (env : Wire.envelope) =
    match env.Wire.payload with
    | Wire.Welcome { id } ->
        c.id <- id;
        issue c
    | Wire.Client_reply { req; status; _ } when req = c.req && c.outstanding ->
        c.outstanding <- false;
        record t (Probe.now () -. c.start);
        (match status with
        | Wire.Granted ->
            t.granted <- t.granted + 1;
            if c.is_write then t.granted_writes <- t.granted_writes + 1
        | Wire.Denied -> t.denied <- t.denied + 1
        | Wire.Aborted -> t.aborted <- t.aborted + 1
        | Wire.Degraded -> t.degraded <- t.degraded + 1);
        issue c
    | _ -> ()
  in
  let by_fd fd = Array.find_opt (fun c -> c.fd = fd && not c.closed) conns in
  (* A stalled cluster must not hang the run: past this the calls still
     outstanding count as aborted. *)
  let hard_end =
    match stop with Until deadline -> deadline +. 10.0 | Ops _ -> Probe.now () +. 120.0
  in
  Array.iter sync conns;
  while !live > 0 && Probe.now () < hard_end do
    List.iter
      (fun (ev : Evloop.event) ->
        match by_fd ev.Evloop.fd with
        | None -> ()
        | Some c ->
            if ev.Evloop.error then close c
            else begin
              if ev.Evloop.writable then sync c;
              if ev.Evloop.readable && not c.closed then begin
                let frames, state = Evconn.on_readable c.ev in
                List.iter
                  (function Ok env -> if not c.closed then on_frame c env | Error _ -> close c)
                  frames;
                if state = `Eof then close c
              end
            end)
      (Evloop.wait loop ~timeout:0.05)
  done;
  Array.iter close conns;
  Evloop.close loop;
  t

(* --- cluster life cycle ------------------------------------------------ *)

let universe = Site_set.universe sites

let boot ?obs ?vfs_of ?(universe = universe) shape dir =
  Cluster.create ~config:shape.config ?obs ?vfs_of ~universe ~dir ()

(* Cold restart: every site boots from its files; set-up ends at the
   first granted operation. *)
let cold_restart ?obs ?vfs_of shape dir =
  let t0 = Probe.now () in
  let cluster = boot ?obs ?vfs_of shape dir in
  let client = Cluster.client cluster in
  let rec first tries =
    let reply = Cluster.get client ~at:coordinator ~key:"k0" in
    if reply.Cluster.status = Wire.Granted then true
    else if tries = 0 then false
    else begin
      Thread.delay 0.01;
      first (tries - 1)
    end
  in
  let ok = first 200 in
  (cluster, Probe.now () -. t0, ok)

type audit = { safe : bool; detail : string }

let audit cluster =
  let a = Cluster.check cluster in
  let oracle_safe = Dynvote_chaos.Oracle.is_safe a.Cluster.oracle in
  let safe =
    oracle_safe && a.Cluster.dup_applies = 0 && a.Cluster.kviolations = []
    && a.Cluster.corrupt = 0
  in
  {
    safe;
    detail =
      Printf.sprintf "%s: %d records, %d keys, dup_applies %d, kviolations %d, corrupt %d"
        (if safe then "SAFE" else "UNSAFE")
        a.Cluster.records a.Cluster.keys a.Cluster.dup_applies
        (List.length a.Cluster.kviolations) a.Cluster.corrupt;
  }

(* --- the storage seam, timed (traced run only) ------------------------- *)

let io_ops = [| "create"; "append"; "write"; "fsync"; "close"; "rename"; "fsync_dir"; "read"; "truncate" |]
let op_index name =
  let rec find i = if io_ops.(i) = name then i else find (i + 1) in
  find 0

type io = { calls : int array; secs : float array; mutable written : int; mutable read : int }

let io () =
  { calls = Array.make (Array.length io_ops) 0; secs = Array.make (Array.length io_ops) 0.0;
    written = 0; read = 0 }

let sum_io ios =
  let total = io () in
  Array.iter
    (fun io ->
      Array.iteri (fun k n -> total.calls.(k) <- total.calls.(k) + n) io.calls;
      Array.iteri (fun k s -> total.secs.(k) <- total.secs.(k) +. s) io.secs;
      total.written <- total.written + io.written;
      total.read <- total.read + io.read)
    ios;
  total

let diff_io a b =
  {
    calls = Array.mapi (fun k n -> n - b.calls.(k)) a.calls;
    secs = Array.mapi (fun k s -> s -. b.secs.(k)) a.secs;
    written = a.written - b.written;
    read = a.read - b.read;
  }

(* One site's filesystem with every call counted and timed.  Each site's
   record is touched only by the thread doing that site's I/O. *)
let timed_vfs io (v : Vfs.t) : Vfs.t =
  let timed k f =
    let t0 = Probe.now () in
    Fun.protect
      ~finally:(fun () ->
        io.calls.(k) <- io.calls.(k) + 1;
        io.secs.(k) <- io.secs.(k) +. (Probe.now () -. t0))
      f
  in
  let file (f : Vfs.file) : Vfs.file =
    {
      Vfs.write =
        (fun buf off len ->
          let n = timed 2 (fun () -> f.Vfs.write buf off len) in
          io.written <- io.written + n;
          n);
      fsync = (fun () -> timed 3 f.Vfs.fsync);
      close = (fun () -> timed 4 f.Vfs.close);
    }
  in
  {
    Vfs.create = (fun p -> file (timed 0 (fun () -> v.Vfs.create p)));
    append = (fun p -> file (timed 1 (fun () -> v.Vfs.append p)));
    rename = (fun ~src ~dst -> timed 5 (fun () -> v.Vfs.rename ~src ~dst));
    fsync_dir = (fun d -> timed 6 (fun () -> v.Vfs.fsync_dir d));
    read =
      (fun p ->
        let s = timed 7 (fun () -> v.Vfs.read p) in
        io.read <- io.read + String.length s;
        s);
    truncate = (fun p n -> timed 8 (fun () -> v.Vfs.truncate p n));
  }

(* --- hub counters ------------------------------------------------------ *)

let counter hub name = Metrics.counter_value (Metrics.counter hub.Hub.metrics name)

let hist hub name =
  let h = Metrics.histogram hub.Hub.metrics name in
  let n = Metrics.histogram_count h in
  (n, if n = 0 then 0.0 else float_of_int n *. Metrics.histogram_mean h)

let counters =
  [ "live.lock.rounds"; "live.gather.rounds"; "live.gather.reused"; "live.commit.waves";
    "net.frames.sent"; "net.loop.wakeups"; "live.shard.materialized"; "live.shard.evicted" ]

let histograms =
  [ "live.node.op.seconds"; "live.commit.batch"; "live.rounds.inflight"; "live.shard.group.batch" ]

type snap = { c : (string * int) list; h : (string * (int * float)) list; gc : Gc.stat }

let snap hub =
  {
    c = List.map (fun n -> (n, counter hub n)) counters;
    h = List.map (fun n -> (n, hist hub n)) histograms;
    gc = Gc.quick_stat ();
  }

(* --- one workload run --------------------------------------------------- *)

(* The window is a run of bursts of [burst_ops] operations per client,
   repeated until [seconds] have passed, each drawing on from the same
   seeded streams (so the workload keeps missing its resident set).
   Its goodput is the median burst's rate.  A stall (another tenant's CPU
   steal or disk traffic, a major GC slice) then costs one burst a place
   in the order rather than the whole window its share of the time.  The
   fastest burst would be no steadier: bursts draw different keys, and
   the fastest is the luckiest draw (on serve-keyed the fastest of some
   thirty bursts spread 0.40 over three runs, the median 0.07).  With
   [~calibrate:true] the calibration kernel runs after each burst, and
   the burst's figures can be taken at the reference speed. *)
type burst = { tally : tally; secs : float; kernel : float }
type window = { bursts : burst list; total : tally; busy : float }

let window ?(calibrate = false) ~port shape ~streams ~seconds () =
  let t0 = Probe.now () in
  let rec go acc =
    if acc <> [] && Probe.now () -. t0 >= seconds then List.rev acc
    else
      let tally, secs = Probe.time (fun () -> drive ~port shape ~streams (Ops burst_ops)) in
      let kernel = if calibrate then Probe.calibrate () else nan in
      go ({ tally; secs; kernel } :: acc)
  in
  let bursts = go [] in
  {
    bursts;
    total = merge (List.map (fun b -> b.tally) bursts);
    busy = List.fold_left (fun acc b -> acc +. b.secs) 0.0 bursts;
  }

let burst_goodput b = Arith.per_f (float_of_int b.tally.granted) b.secs

(* The median burst's granted operations per second. *)
let goodput w = Arith.median (List.map burst_goodput w.bursts)

(* The same at the reference speed. *)
let goodput_ref w =
  Arith.median
    (List.map
       (fun b -> Arith.per_f (float_of_int b.tally.granted) (Arith.at_reference b.secs b.kernel))
       w.bursts)

(* Median client latency over the window, reads and writes pooled, in
   seconds. *)
let latency w = Arith.percentile (latencies w.total) 0.5

(* The same with each burst's samples at the reference speed. *)
let latency_ref w =
  let scaled =
    Array.concat
      (List.map
         (fun b ->
           Array.init b.tally.n (fun i -> Arith.at_reference b.tally.lat.(i) b.kernel))
         w.bursts)
  in
  Array.sort compare scaled;
  Arith.percentile scaled 0.5

let report_window label w =
  let lat = latencies w.total in
  let ms = function Some v -> Printf.sprintf "%.3f ms" (v *. 1e3) | None -> "n/a" in
  let rates = List.sort compare (List.map burst_goodput w.bursts) in
  let slowest, fastest =
    match rates with [] -> (nan, nan) | r :: _ -> (r, List.nth rates (List.length rates - 1))
  in
  Probe.say "%s: %d bursts of %d x %d ops, %d issued, %d granted (%d writes), %d denied, \
             %d aborted, %d degraded over %.2f s" label (List.length w.bursts) clients
    burst_ops w.total.issued w.total.granted w.total.granted_writes
    w.total.denied w.total.aborted w.total.degraded w.busy;
  Probe.say "  goodput_ops_s %.1f ops/s (median burst; fastest %.1f, slowest %.1f, window %.1f)"
    (goodput w) fastest slowest
    (Arith.per_f (float_of_int w.total.granted) w.busy);
  Probe.say "  latency_p50_ms %s  latency_p99_ms %s  (n = %d)" (ms (latency w))
    (ms (Arith.percentile lat 0.99)) (Array.length lat);
  Probe.say "  bursts in order, ops/s: %s"
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.0f" (burst_goodput b)) w.bursts))

let warm_up ~port shape ~streams =
  ignore (drive ~port shape ~streams (Until (Probe.now () +. warmup_s)) : tally)

let history shape ~seed dir =
  let cluster = boot shape dir in
  let h =
    drive ~port:(Cluster.port cluster) shape ~streams:(streams ~seed ~phase:0) (Ops history_ops)
  in
  Cluster.shutdown cluster;
  Probe.say "history: %d ops (%d granted), %d bytes on disk" h.issued h.granted (Probe.du dir);
  h

let run ~seed ~seconds =
  let shape = keyed in
  let dir = Probe.fresh_dir shape.name in
  Fun.protect ~finally:(fun () -> Probe.rm_rf dir) @@ fun () ->
  Probe.say "%s: 4 sites, coordinator %d, %d mux clients, %.0f%% writes, %s, %s, seed %d"
    shape.name coordinator clients (100.0 *. write_ratio) shape.keys
    (if shape.config.Node.durable then "durable" else "buffered") seed;
  let h = history shape ~seed dir in
  let history_bytes = Probe.du dir in
  (* Set-up: the median of several cold restarts over the same history,
     each at the reference speed; the last one stays up for the
     window. *)
  let rec restart k acc =
    let cluster, s, ok = cold_restart shape dir in
    let s = Arith.at_reference s (Probe.calibrate ()) in
    if k = 1 || not ok then (cluster, s :: acc, ok)
    else begin
      Cluster.shutdown cluster;
      restart (k - 1) (s :: acc)
    end
  in
  let cluster, setups, restart_ok = restart restarts [] in
  let setup_s = Arith.median setups in
  Probe.say "setup_s %.4f s at reference speed: median of %d cold restarts [%s] over %d \
             history ops, %d bytes"
    setup_s (List.length setups)
    (String.concat "; " (List.rev_map (Printf.sprintf "%.4f") setups))
    h.issued history_bytes;
  let port = Cluster.port cluster in
  warm_up ~port shape ~streams:(streams ~seed ~phase:2);
  let w = window ~calibrate:true ~port shape ~streams:(streams ~seed ~phase:3) ~seconds () in
  (* The service's peak, read before the audit loads every log. *)
  let rss = Probe.peak_rss_mb () in
  let a = audit cluster in
  Cluster.shutdown cluster;
  report_window "window" w;
  Probe.say "  at reference speed: goodput %.1f ops/s, latency p50 %.3f ms; calibration kernel \
             median %.1f ms"
    (goodput_ref w)
    (match latency_ref w with Some v -> v *. 1e3 | None -> nan)
    (Arith.median (List.map (fun b -> b.kernel) w.bursts) *. 1e3);
  Probe.say "audit over history and window: %s" a.detail;
  let attempted = w.total.issued and failed = failed w.total in
  Probe.say "failed_share %.4f (%d of %d)" (Arith.failed_share ~attempted ~failed) failed
    attempted;
  let p50 = latency_ref w in
  let correct =
    a.safe && restart_ok && h.granted = h.issued && w.total.granted > 0 && p50 <> None
  in
  Probe.say "peak_rss_mb %.1f MB (before the audit)" rss;
  {
    Probe.correct;
    attempted;
    failed = (if correct then failed else max 1 failed);
    metrics =
      [
        Arith.metric "goodput_per_s" "1/s" (goodput_ref w);
        Arith.metric "latency_ms" "ms"
          (match p50 with Some v -> v *. 1e3 | None -> nan);
        Arith.metric "setup_s" "s" setup_s;
        Arith.metric "peak_rss_mb" "MB" rss;
      ];
  }

(* --- the traced run ------------------------------------------------------ *)

(* The storage layer where it does its work: a fresh 4-site cluster of
   the durable engine, every site's storage through the timed seam, over
   a short window after a warm-up.  Its audit must be SAFE too. *)
let storage_seconds = 4.0

let storage_window ~seed dir =
  let ios = Array.init sites (fun _ -> io ()) in
  let cluster = boot ~vfs_of:(fun site -> timed_vfs ios.(site) Vfs.real) durable dir in
  let port = Cluster.port cluster in
  warm_up ~port durable ~streams:(streams ~seed ~phase:5);
  let io0 = sum_io ios in
  let t, wall =
    Probe.time (fun () ->
        drive ~port durable ~streams:(streams ~seed ~phase:6)
          (Until (Probe.now () +. storage_seconds)))
  in
  let wio = diff_io (sum_io ios) io0 in
  let a = audit cluster in
  Cluster.shutdown cluster;
  (t, wall, wio, a)

(* Per-layer figures from outside the program: the timed vfs seam per
   site, the hub's own counters and GC deltas around the window, a
   write-only probe for frames per write, a 1-site cluster of the same
   shape for the coordinator's cost without quorum rounds, and the
   durable engine's storage window. *)
let traced ~seed ~seconds =
  let shape = keyed in
  let dir = Probe.fresh_dir shape.name in
  Fun.protect ~finally:(fun () -> Probe.rm_rf dir) @@ fun () ->
  let h = history shape ~seed dir in
  (* Traced: every site's storage through the timed seam, restarting over
     exactly the history that setup_s restarts over. *)
  let ios = Array.init sites (fun _ -> io ()) in
  let vfs_of site = timed_vfs ios.(site) Vfs.real in
  let hub = Hub.create () in
  let cluster, restart_s, ok1 = cold_restart ~obs:hub ~vfs_of shape dir in
  let rec_io = sum_io ios in
  let port = Cluster.port cluster in
  warm_up ~port shape ~streams:(streams ~seed ~phase:2);
  let s0 = snap hub and io0 = sum_io ios in
  let w = window ~port shape ~streams:(streams ~seed ~phase:3) ~seconds () in
  let s1 = snap hub and wio = diff_io (sum_io ios) io0 in
  let f0 = counter hub "net.frames.sent" in
  let probe =
    drive ~port shape ~streams:(streams ~seed ~phase:4) ~write_ratio:1.0
      (Until (Probe.now () +. 2.0))
  in
  let probe_frames = counter hub "net.frames.sent" - f0 in
  Cluster.shutdown cluster;
  (* The same window untraced, for the overhead share. *)
  let cluster, _, ok0 = cold_restart shape dir in
  let port = Cluster.port cluster in
  warm_up ~port shape ~streams:(streams ~seed ~phase:2);
  let plain = window ~port shape ~streams:(streams ~seed ~phase:3) ~seconds () in
  let a = audit cluster in
  Cluster.shutdown cluster;
  report_window "untraced window" plain;
  report_window "traced window" w;
  Probe.say "audit over history and windows: %s" a.detail;
  (* 1-site baseline of the same shape. *)
  let single = Filename.concat dir "single" in
  Unix.mkdir single 0o755;
  let one = boot ~universe:(Site_set.of_list [ coordinator ]) shape single in
  let port1 = Cluster.port one in
  ignore
    (drive ~port:port1 shape ~streams:(streams ~seed ~phase:2) (Until (Probe.now () +. 0.5))
      : tally);
  let w1 = drive ~port:port1 shape ~streams:(streams ~seed ~phase:3) (Until (Probe.now () +. 3.0)) in
  Cluster.shutdown one;
  let single_p50 = Arith.percentile ~min_beyond:0 (latencies w1) 0.5 in
  let durable_dir = Filename.concat dir "durable" in
  Unix.mkdir durable_dir 0o755;
  let dt, dwall, dio, da = storage_window ~seed durable_dir in
  let ops = w.total.granted in
  let dc name = List.assoc name s1.c - List.assoc name s0.c in
  (* Window mean of a hub histogram; 0 when the window observed none. *)
  let dh name =
    let n1, sum1 = List.assoc name s1.h and n0, sum0 = List.assoc name s0.h in
    if n1 = n0 then 0.0 else (sum1 -. sum0) /. float_of_int (n1 - n0)
  in
  let fsyncs io = io.calls.(op_index "fsync") + io.calls.(op_index "fsync_dir") in
  let fsync_s = dio.secs.(op_index "fsync") +. dio.secs.(op_index "fsync_dir") in
  let busy = Array.fold_left ( +. ) 0.0 dio.secs in
  let per_op x = Arith.per_f x (float_of_int ops) in
  let per_durable_op x = Arith.per_f x (float_of_int dt.granted) in
  Probe.say "durable window: %d granted of %d issued over %.2f s, %.2f fsyncs and %.2f KB \
             written per op; audit %s"
    dt.granted dt.issued dwall (per_durable_op (float_of_int (fsyncs dio)))
    (per_durable_op (float_of_int dio.written /. 1024.0)) da.detail;
  Probe.say "keyed window (bypass): %.3f fsyncs and %.2f KB written per op"
    (per_op (float_of_int (fsyncs wio))) (per_op (float_of_int wio.written /. 1024.0));
  let node_op_ms = 1e3 *. dh "live.node.op.seconds" in
  let client_mean_ms =
    1e3 *. Arith.per_f (Array.fold_left ( +. ) 0.0 (Array.sub w.total.lat 0 w.total.n))
             (float_of_int w.total.n)
  in
  let gathers = dc "live.gather.rounds" and reused = dc "live.gather.reused" in
  let read_s = rec_io.secs.(op_index "read") in
  let lat = latencies w.total in
  let p99 = Arith.percentile lat 0.99 in
  let correct =
    a.safe && ok0 && ok1 && ops > 0 && single_p50 <> None && probe.granted > 0 && da.safe
    && dt.granted > 0 && failed dt = 0
  in
  let m = Arith.metric in
  {
    Probe.correct;
    attempted = w.total.issued;
    failed = (if correct then failed w.total else max 1 (failed w.total));
    metrics =
      [
        m "storage.fsync_per_op" "count" (per_durable_op (float_of_int (fsyncs dio)));
        m "storage.fsync_ms_per_op" "ms" (per_durable_op (1e3 *. fsync_s));
        m "storage.write_kb_per_op" "KB" (per_durable_op (float_of_int dio.written /. 1024.0));
        m "storage.busy_share" "ratio" (Arith.per_f busy (float_of_int sites *. dwall));
        m "recovery.history_ops" "count" (float_of_int h.issued);
        m "recovery.read_mb" "MB" (float_of_int rec_io.read /. 1048576.0);
        m "recovery.read_s" "s" read_s;
        m "recovery.decode_s" "s" (restart_s -. read_s);
        m "live.lock_rounds_per_op" "count" (per_op (float_of_int (dc "live.lock.rounds")));
        m "live.anchor_reuse_share" "ratio" (Arith.per reused (gathers + reused));
        m "live.commit_waves_per_op" "count" (per_op (float_of_int (dc "live.commit.waves")));
        m "live.commit_batch_mean" "count" (dh "live.commit.batch");
        m "live.inflight_mean" "count" (dh "live.rounds.inflight");
        m "live.node_op_ms" "ms" node_op_ms;
        m "live.single_site_p50_ms" "ms"
          (match single_p50 with Some v -> v *. 1e3 | None -> nan);
        m "live.latency_p99_ms" "ms" (match p99 with Some v -> v *. 1e3 | None -> nan);
        m "wire.frames_per_op" "count" (per_op (float_of_int (dc "net.frames.sent")));
        m "wire.frames_per_write" "count" (Arith.per probe_frames probe.granted_writes);
        m "wire.wakeups_per_op" "count" (per_op (float_of_int (dc "net.loop.wakeups")));
        m "wire.client_gap_ms" "ms" (client_mean_ms -. node_op_ms);
        m "shard.materialized_per_op" "count"
          (per_op (float_of_int (dc "live.shard.materialized")));
        m "shard.evicted_per_op" "count" (per_op (float_of_int (dc "live.shard.evicted")));
        m "shard.group_batch_mean" "count" (dh "live.shard.group.batch");
        m "gc.minor_words_per_op" "words" (per_op (s1.gc.Gc.minor_words -. s0.gc.Gc.minor_words));
        m "gc.major_per_kop" "count"
          (per_op (1e3 *. float_of_int (s1.gc.Gc.major_collections - s0.gc.Gc.major_collections)));
        m "trace.overhead_share" "ratio"
          (Arith.per_f (goodput plain -. goodput w) (goodput plain));
      ];
  }
