(* Seeded, composable fault plans over the message transport.

   A plan is consulted once per send; this module builds one from a
   declarative configuration and a splitmix64 stream, so the same seed
   always injects the same faults at the same messages.  Faults compose
   in a fixed order: scheduled link flaps first (an outage window beats
   everything), then Bernoulli loss, then duplication, then bounded
   random delay.

   The [atomic_commits] switch exempts COMMIT messages from every fault.
   The paper's protocols assume update operations are atomic: a COMMIT
   that reaches only part of its recipient set (loss, flap, or a delay
   that outlives the operation) leaves two groups believing different
   pasts, and a later quorum drawn entirely from the group that missed
   the commit re-issues the same generation number with different
   contents — the exact hole the atomic-action assumption closes.  With
   [atomic_commits = true] (the default) the harness honours that model
   and the safe flavors must show zero violations; switching it off
   reproduces the hole on demand, and the oracle duly reports it. *)

module Transport = Dynvote_msgsim.Transport
module Message = Dynvote_msgsim.Message
module Splitmix64 = Dynvote_prng.Splitmix64

type flap = {
  site_a : Site_set.site;
  site_b : Site_set.site;
  from_t : float;
  till : float;
}

type config = {
  loss : float;            (* per-message Bernoulli loss probability *)
  duplicate : float;       (* probability of injecting an extra copy *)
  delay : float;           (* probability of extra latency *)
  delay_bound : float;     (* extra latency is uniform in [0, bound) *)
  flaps : flap list;       (* scheduled link outage windows *)
  atomic_commits : bool;   (* exempt COMMITs (the paper's atomic updates) *)
}

let silent =
  {
    loss = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    delay_bound = 0.0;
    flaps = [];
    atomic_commits = true;
  }

let validate config =
  let prob name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Fault_plan: %s must be a probability" name)
  in
  prob "loss" config.loss;
  prob "duplicate" config.duplicate;
  prob "delay" config.delay;
  if config.delay_bound < 0.0 then invalid_arg "Fault_plan: negative delay bound";
  List.iter
    (fun { from_t; till; _ } ->
      if till < from_t then invalid_arg "Fault_plan: flap window ends before it starts")
    config.flaps

let rec flapped flaps ~now a b =
  match flaps with
  | [] -> false
  | flap :: rest ->
      (((flap.site_a = a && flap.site_b = b) || (flap.site_a = b && flap.site_b = a))
      && now >= flap.from_t && now < flap.till)
      || flapped rest ~now a b

(* One copy's extra latency: a draw decides whether it is delayed, a
   second how long. *)
let extra_delay config rng =
  if config.delay > 0.0 && Splitmix64.next_float rng < config.delay then
    Splitmix64.next_float rng *. config.delay_bound
  else 0.0

let make ~rng ?(reliable = fun _ _ -> false) config =
  validate config;
  fun ~now message ->
    (* [reliable] links (same-LAN pairs under the topological flavors)
       never lose or flap: the segment model reads same-segment silence
       as death, so a lossy intra-segment link would break its premise.
       Duplication and bounded delay keep applying — they are harmless
       to that reading. *)
    let src = message.Message.src and dst = message.Message.dst in
    match message.Message.payload with
    | Message.Commit _ when config.atomic_commits -> Transport.Pass
    | _ ->
        let lossy = not (reliable src dst) in
        if lossy && flapped config.flaps ~now src dst then Transport.Drop_it Transport.Flap
        else if lossy && config.loss > 0.0 && Splitmix64.next_float rng < config.loss
        then Transport.Drop_it Transport.Loss
        else begin
          (* The draws are made in the same order whatever they decide:
             duplication, then each copy's delay.  A lone undelayed copy
             is a plain [Pass], built without a list. *)
          let duplicated =
            config.duplicate > 0.0 && Splitmix64.next_float rng < config.duplicate
          in
          let first = extra_delay config rng in
          if duplicated then Transport.Deliver_copies [ first; extra_delay config rng ]
          else if first = 0.0 then Transport.Pass
          else Transport.Deliver_copies [ first ]
        end

let pp_config ppf config =
  Fmt.pf ppf "loss=%.3f dup=%.3f delay=%.3f/%.3fs flaps=%d commits=%s"
    config.loss config.duplicate config.delay config.delay_bound
    (List.length config.flaps)
    (if config.atomic_commits then "atomic" else "faulty")

(* --- storage fault vocabulary --------------------------------------- *)

(* The disk-side counterpart of the message plan above: one shared
   vocabulary naming what can go wrong beneath the persistence layer, so
   the fault-injecting filesystem (lib/faultfs), the crash-point matrix,
   and the CLI flags all speak the same language.  A trigger is
   deterministic, not probabilistic: "the [nth] operation of this class
   on this file fails this way" — which is what makes every matrix cell
   reproducible. *)

module Storage = struct
  type fault =
    | Eio            (* write fails outright *)
    | Enospc         (* write fails: device full *)
    | Short_write    (* write lands partially, then the device dies *)
    | Fsync_fail     (* fsync raises; nothing promised durable *)
    | Fsync_lie      (* fsync "succeeds" but flushes nothing *)
    | Rename_loss    (* the directory fsync is dropped: the rename is
                        not durable and a crash undoes it *)
    | Read_eio       (* read fails (surfaces as [Sys_error]) *)
    | Crash          (* the process dies at this exact operation *)

  type file_class = Oplog | Shard | Rids | Any_file

  type op = Create | Write | Fsync | Rename | Fsync_dir | Read

  type trigger = { fault : fault; file : file_class; op : op; nth : int }

  let all_faults =
    [ Eio; Enospc; Short_write; Fsync_fail; Fsync_lie; Rename_loss; Read_eio; Crash ]

  let fault_name = function
    | Eio -> "eio"
    | Enospc -> "enospc"
    | Short_write -> "short-write"
    | Fsync_fail -> "fsync-fail"
    | Fsync_lie -> "fsync-lie"
    | Rename_loss -> "rename-loss"
    | Read_eio -> "read-eio"
    | Crash -> "crash"

  let fault_of_name name =
    List.find_opt (fun f -> fault_name f = name) all_faults

  (* The operation class each fault naturally strikes; [Crash] defaults
     to the write but the matrix places it at every operation
     explicitly. *)
  let default_op = function
    | Eio | Enospc | Short_write | Crash -> Write
    | Fsync_fail | Fsync_lie -> Fsync
    | Rename_loss -> Fsync_dir
    | Read_eio -> Read

  let file_name = function
    | Oplog -> "oplog"
    | Shard -> "shard"
    | Rids -> "rids"
    | Any_file -> "any"

  let file_of_name = function
    | "oplog" -> Some Oplog
    | "shard" -> Some Shard
    | "rids" -> Some Rids
    | "any" -> Some Any_file
    | _ -> None

  let op_name = function
    | Create -> "create"
    | Write -> "write"
    | Fsync -> "fsync"
    | Rename -> "rename"
    | Fsync_dir -> "fsync-dir"
    | Read -> "read"

  let trigger ?(file = Any_file) ?(nth = 1) fault =
    { fault; file; op = default_op fault; nth }

  (* "<fault>[@nth][:file]", e.g. "fsync-fail@2:shard".  The operation is
     the fault's default; programmatic triggers can place any fault at
     any operation. *)
  let trigger_of_string text =
    let fault_part, file =
      match String.index_opt text ':' with
      | None -> (text, Ok Any_file)
      | Some i ->
          let name = String.sub text (i + 1) (String.length text - i - 1) in
          ( String.sub text 0 i,
            match file_of_name name with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "unknown file class %S" name) )
    in
    let name_part, nth =
      match String.index_opt fault_part '@' with
      | None -> (fault_part, Ok 1)
      | Some i -> (
          let digits =
            String.sub fault_part (i + 1) (String.length fault_part - i - 1)
          in
          ( String.sub fault_part 0 i,
            match int_of_string_opt digits with
            | Some n when n >= 1 -> Ok n
            | Some _ | None ->
                Error (Printf.sprintf "bad occurrence count %S" digits) ))
    in
    match (fault_of_name name_part, nth, file) with
    | _, Error reason, _ | _, _, Error reason -> Error reason
    | None, _, _ ->
        Error
          (Printf.sprintf "unknown fault %S (one of %s)" name_part
             (String.concat ", " (List.map fault_name all_faults)))
    | Some fault, Ok nth, Ok file -> Ok { fault; file; op = default_op fault; nth }

  let pp_trigger ppf { fault; file; op; nth } =
    Fmt.pf ppf "%s@@%d:%s/%s" (fault_name fault) nth (file_name file) (op_name op)
end
