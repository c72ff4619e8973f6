(* A fixed-size domain pool.  The pool owns [jobs - 1] worker domains
   parked on a condition variable; a fan-out call publishes one batch
   body, every worker (plus the caller) runs it, and the call returns
   when all have drained.  The body itself pulls item indices from a
   shared atomic cursor, so load balancing is dynamic while results are
   joined strictly by item index — completion order never leaks into the
   output.

   The memory-model handshake: workers write result slots, then take the
   pool mutex to decrement [active]; the caller observes [active = 0]
   under the same mutex before reading the slots, so every write
   happens-before every read (no data race, per the OCaml 5 memory
   model). *)

let max_jobs = 64

let clamp jobs = if jobs < 1 then 1 else if jobs > max_jobs then max_jobs else jobs

let recommended () = clamp (Domain.recommended_domain_count ())

let default_jobs () =
  match Sys.getenv_opt "DYNVOTE_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> clamp n
      | _ -> recommended ())
  | None -> recommended ()

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable batch : (unit -> unit) option; (* never raises; see [map_array] *)
  mutable epoch : int;
  mutable active : int; (* workers still to finish the current batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.jobs

let worker_loop t =
  Domain.DLS.set in_worker_key true;
  let seen_epoch = ref 0 in
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else
      match t.batch with
      | Some body when t.epoch <> !seen_epoch ->
          seen_epoch := t.epoch;
          Mutex.unlock t.mutex;
          body ();
          Mutex.lock t.mutex;
          t.active <- t.active - 1;
          if t.active = 0 then Condition.broadcast t.work_done;
          loop ()
      | _ ->
          Condition.wait t.work_ready t.mutex;
          loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = clamp (match jobs with Some j -> j | None -> default_jobs ()) in
  (* No nested pools: a pool built inside a worker is sequential. *)
  let jobs = if in_worker () then 1 else jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      epoch = 0;
      active = 0;
      stop = false;
      workers = [||];
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let was_stopped = t.stop in
  t.stop <- true;
  if not was_stopped then Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?jobs f =
  let t = create ?jobs () in
  match f t with
  | v ->
      shutdown t;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown t;
      Printexc.raise_with_backtrace e bt

(* Publish one batch, participate, wait for every worker to drain it. *)
let run_batch t body =
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: pool is shut down"
  end;
  t.batch <- Some body;
  t.epoch <- t.epoch + 1;
  t.active <- Array.length t.workers;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Domain.DLS.set in_worker_key true;
  body ();
  Domain.DLS.set in_worker_key false;
  Mutex.lock t.mutex;
  while t.active > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.batch <- None;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* The work-stealing scheduler.

   [map_array] fans out a {e fixed} item array; [run_stealing] schedules
   a {e growing} frontier: executing one task may push new tasks, and
   idle workers steal them.  Each worker owns a Chase–Lev deque — the
   owner pushes and pops at the bottom (LIFO), thieves take from the top
   (FIFO, so they steal the oldest, shallowest, largest tasks).  Victims
   are chosen by a per-worker xorshift generator seeded from [seed] and
   the worker index.

   The protocol is work-first (Cilk-5: Frigo, Leiserson & Randall, PLDI
   1998).  A running task pushes a {e continuation} — the work it has
   not started yet — and goes on with the rest inline; once done it
   calls [reclaim], a LIFO pop of its own deque.  [Some c] is its own
   newest push, still untouched: it runs [c] inline too.  [None] means
   a thief took it, and since thieves take from the top, every older
   continuation on that deque was taken as well — the task has nothing
   left to return to.  Parallelism thus costs a deque push and pop per
   continuation; only a steal pays for moving work between workers.

   Termination is a work-count quiescence barrier: one atomic counter of
   outstanding tasks, incremented by [push] {e before} the task becomes
   stealable and decremented when a reclaim takes it back or after a
   dispatched task's [run] returns (a reclaimed task runs inside a task
   still counted, so the counter cannot reach zero early).  A worker
   whose own deque is empty observes [outstanding = 0] exactly when no
   task exists anywhere and none can appear — every worker then exits;
   while the counter is positive it keeps stealing.

   An exception from [run] aborts the whole schedule: every worker stops
   at its next dispatch, and the first failing worker's exception (by
   worker index) is re-raised in the caller after the barrier. *)

type steal_stats = {
  tasks_executed : int;
  steals : int;
  failed_steals : int;
  max_deque_depth : int;
}

let zero_steal_stats =
  { tasks_executed = 0; steals = 0; failed_steals = 0; max_deque_depth = 0 }

let add_steal_stats a b =
  {
    tasks_executed = a.tasks_executed + b.tasks_executed;
    steals = a.steals + b.steals;
    failed_steals = a.failed_steals + b.failed_steals;
    max_deque_depth = max a.max_deque_depth b.max_deque_depth;
  }

let run_stealing (type task state) t ?(seed = 0) ~(roots : task array)
    ~(init : int -> state)
    ~(run : state -> push:(task -> unit) -> reclaim:(unit -> task option) -> task -> unit)
    () : steal_stats array =
  if t.stop then invalid_arg "Pool: pool is shut down";
  let jobs = if in_worker () then 1 else t.jobs in
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
  Array.iteri (fun i task -> Deque.push deques.(i mod jobs) task) roots;
  let outstanding = Atomic.make (Array.length roots) in
  let abort = Atomic.make false in
  let stats = Array.make jobs zero_steal_stats in
  let errors = Array.make jobs None in
  let slot = Atomic.make 0 in
  let body () =
    let w = Atomic.fetch_and_add slot 1 in
    let my = deques.(w) in
    let tasks_executed = ref 0 in
    let steals = ref 0 in
    let failed_steals = ref 0 in
    let max_depth = ref 0 in
    (* xorshift64, seeded per worker; only victim selection consumes it. *)
    let rng = ref (((seed + 1) * 0x2545F4914F6CDD1D) + ((w + 1) * 0x9E3779B9)) in
    let next_random () =
      let x = !rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      rng := x;
      x land max_int
    in
    let push task =
      Atomic.incr outstanding;
      Deque.push my task;
      let d = Deque.size my in
      if d > !max_depth then max_depth := d
    in
    let reclaim () =
      match Deque.pop my with
      | Some _ as task ->
          incr tasks_executed;
          Atomic.decr outstanding;
          task
      | None -> None
    in
    let state = init w in
    let execute task =
      run state ~push ~reclaim task;
      incr tasks_executed;
      Atomic.decr outstanding
    in
    let rec loop () =
      if not (Atomic.get abort) then
        match Deque.pop my with
        | Some task ->
            execute task;
            loop ()
        | None ->
            if Atomic.get outstanding > 0 then begin
              (if jobs > 1 then begin
                 let r = next_random () mod (jobs - 1) in
                 let victim = if r >= w then r + 1 else r in
                 match Deque.steal deques.(victim) with
                 | Deque.Stolen task ->
                     incr steals;
                     execute task
                 | Deque.Empty | Deque.Retry ->
                     incr failed_steals;
                     Domain.cpu_relax ()
               end);
              loop ()
            end
    in
    (try loop ()
     with e ->
       errors.(w) <- Some (e, Printexc.get_raw_backtrace ());
       Atomic.set abort true);
    stats.(w) <-
      {
        tasks_executed = !tasks_executed;
        steals = !steals;
        failed_steals = !failed_steals;
        max_deque_depth = !max_depth;
      }
  in
  if jobs = 1 then begin
    let was_worker = in_worker () in
    Domain.DLS.set in_worker_key true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key was_worker) body
  end
  else run_batch t body;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  stats

let map_array t f xs =
  let n = Array.length xs in
  if t.stop then invalid_arg "Pool: pool is shut down";
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 || in_worker () then Array.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let cursor = Atomic.make 0 in
    let body () =
      let rec pull () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (try results.(i) <- Some (f xs.(i))
           with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          pull ()
        end
      in
      pull ()
    in
    run_batch t body;
    (* Deterministic error propagation: the lowest failing index wins. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))
