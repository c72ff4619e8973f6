(* Helpers shared by the workloads: the clock, process memory, the
   scratch directory every run works in, and the human report lines. *)

let now = Dynvote_obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* VmHWM: the peak resident set of this process, which ran one workload
   and nothing else. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0
        (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* Runs read and write only inside the checkout they are started from:
   cluster state lives under .bench_work/, removed when the run ends. *)
let work_root = ".bench_work"

let fresh_dir name =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* What timing one call costs by itself (two clock reads and the
   bookkeeping), subtracted from per-call layer timings. *)
let timer_overhead () =
  let n = 200_000 and total = ref 0.0 in
  let timed x =
    let t0 = now () in
    let v = Sys.opaque_identity (x + 1) in
    total := !total +. (now () -. t0);
    v
  in
  let (), wall = time (fun () -> for i = 1 to n do ignore (timed i : int) done) in
  wall /. float_of_int n

let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Host speed.  Other tenants slow this box by up to 1.5x, on both vCPUs
   at once, in spells that outlast a run (see README.md), so a raw time
   says as much about the neighbours as about the code.  The calibration
   kernel is fixed work that runs none of the program's code (an integer
   map, a string-keyed hash table and the allocator behind them), timed
   right after each piece of timed work, and [Arith.at_reference] scales
   the work's time to the speed at which the kernel takes
   [Arith.reference_s]. *)
module Int_map = Map.Make (Int)

let kernel () =
  let x = ref 12345 and m = ref Int_map.empty in
  let h = Hashtbl.create 1024 in
  for i = 1 to 150_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let k = !x land 0xffff in
    m := Int_map.add k i !m;
    Hashtbl.replace h (string_of_int k) i;
    if i land 1023 = 0 then m := Int_map.empty
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h) : int)

let calibrate () = snd (time kernel)

(* What a run reports: whether every output check passed, how many
   operations it attempted and how many failed, and its metrics.  A wrong
   answer counts as at least one failed operation. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Arith.metric list;
}

(* Two measurements made in one run, reported as one. *)
let both a b =
  {
    correct = a.correct && b.correct;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    metrics = a.metrics @ b.metrics;
  }
