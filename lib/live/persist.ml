(* Per-site operation log: append-only, every record framed and
   checksummed so a torn tail is detected and dropped rather than
   trusted.  Every byte flows through a {!Vfs}, so the fault-injection
   layer can strike any single storage operation.  The objects
   themselves live in the shard logs ({!Dynvote_shard.Shard_store}). *)

let site_dir ~dir site = Filename.concat dir (Printf.sprintf "site-%d" site)

let ensure_site_dir ~dir site =
  let path = site_dir ~dir site in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  path

let oplog_path ~dir site = Filename.concat (site_dir ~dir site) "oplog.dvl"

(* --- operation log -------------------------------------------------- *)

let magic = "DVO1"

type record =
  | Log_kcommit of {
      seq : int;
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      rid : int;
    }
  | Log_kintent of { seq : int; key : string; content : string }
  | Log_koutcome of {
      seq : int;
      key : string;
      kind : [ `Read | `Write | `Recover ];
      granted : bool;
      content : string option;
      rid : int;
    }

let seq_of = function
  | Log_kcommit { seq; _ }
  | Log_kintent { seq; _ }
  | Log_koutcome { seq; _ } ->
      seq

(* Record layout: tag | seq | key | fields.  The one object of
   [--shards 0] (the empty key) drops the key and takes tags 0-2, every
   other key tags 3-5 — so a single-object history keeps the exact
   record bytes it always had. *)
let add_head b ~tag ~seq key =
  Codec.add_u8 b (if key = "" then tag else tag + 3);
  Codec.add_u64 b seq;
  if key <> "" then Codec.add_key b key

let encode_record record =
  Codec.frame ~magic (fun b ->
      match record with
      | Log_kcommit { seq; key; op_no; version; partition; rid } ->
          add_head b ~tag:0 ~seq key;
          Codec.add_u64 b op_no;
          Codec.add_u64 b version;
          Codec.add_site_set b partition;
          Codec.add_u64 b rid
      | Log_kintent { seq; key; content } ->
          add_head b ~tag:1 ~seq key;
          Codec.add_value b content
      | Log_koutcome { seq; key; kind; granted; content; rid } ->
          add_head b ~tag:2 ~seq key;
          Codec.add_u8 b (match kind with `Read -> 0 | `Write -> 1 | `Recover -> 2);
          Codec.add_bool b granted;
          Codec.add_value_opt b content;
          Codec.add_u64 b rid)

(* An open append channel over the vfs: each record is written through
   in full, so a process kill leaves at worst one partial frame at the
   tail.  Appends are not fsynced — a power cut may truncate the
   unsynced suffix, which replay tolerates as a torn tail. *)
type log = { file : Vfs.file; path : string }

let open_log ?(vfs = Vfs.real) ~path () = { file = vfs.Vfs.append path; path }
let append log record = Codec.write_through log.file (encode_record record)
let log_path log = log.path
let close_log log = log.file.Vfs.close ()

let decode_record c =
  let tag = Codec.u8 c in
  if tag > 5 then raise (Codec.Corrupt "unknown record tag");
  let seq = Codec.u64 c in
  let key = if tag >= 3 then Codec.key c else "" in
  match tag mod 3 with
  | 0 ->
      let op_no = Codec.u64 c in
      let version = Codec.u64 c in
      let partition = Codec.site_set c in
      Log_kcommit { seq; key; op_no; version; partition; rid = Codec.u64 c }
  | 1 -> Log_kintent { seq; key; content = Codec.value c }
  | _ ->
      let kind =
        match Codec.u8 c with
        | 0 -> `Read
        | 1 -> `Write
        | 2 -> `Recover
        | _ -> raise (Codec.Corrupt "bad kind")
      in
      let granted = Codec.bool c in
      let content = Codec.value_opt c in
      Log_koutcome { seq; key; kind; granted; content; rid = Codec.u64 c }

(* The highest stamp and request id a scan has met. *)
type floors = { mutable max_seq : int; mutable max_rid : int }

(* Raise [floors] to a record's stamp and request id, read without
   building it: every field check of [decode_record], with the key and
   the contents stepped over instead of copied, and the frame closed
   here, so a record with trailing garbage moves neither mark.  An
   intent has no request id (0). *)
let decode_floors floors c =
  let tag = Codec.u8 c in
  if tag > 5 then raise (Codec.Corrupt "unknown record tag");
  let seq = Codec.u64 c in
  if tag >= 3 then Codec.skip c (Codec.u16 c);
  let rid =
    match tag mod 3 with
    | 0 ->
        ignore (Codec.u64 c : int);
        ignore (Codec.u64 c : int);
        ignore (Codec.site_set c : Site_set.t);
        Codec.u64 c
    | 1 ->
        Codec.skip c (Codec.u32 c);
        0
    | _ ->
        if Codec.u8 c > 2 then raise (Codec.Corrupt "bad kind");
        ignore (Codec.bool c : bool);
        (match Codec.u8 c with
        | 0 -> ()
        | 1 -> Codec.skip c (Codec.u32 c)
        | _ -> raise (Codec.Corrupt "bad value flag"));
        Codec.u64 c
  in
  Codec.close_frame c;
  if seq > floors.max_seq then floors.max_seq <- seq;
  if rid > floors.max_rid then floors.max_rid <- rid

(* A missing or unreadable oplog is an empty one: the objects' own state
   lives in the shard logs, whose loss is amnesia. *)
let scan ?vfs ?cut_torn_tail ~path ~decode f init =
  match Codec.scan_log ?vfs ?cut_torn_tail ~path ~magic ~decode f init with
  | Ok scan -> scan
  | Error _ -> { Codec.folded = init; torn = false; corrupt = 0; valid_prefix = 0 }

let scan_log ?vfs ?cut_torn_tail ~path f init =
  scan ?vfs ?cut_torn_tail ~path ~decode:decode_record f init

let scan_floors ?vfs ?cut_torn_tail ~path () =
  let floors = { max_seq = 0; max_rid = 0 } in
  let scan =
    scan ?vfs ?cut_torn_tail ~path ~decode:(decode_floors floors) (fun () () -> ()) ()
  in
  { scan with Codec.folded = (floors.max_seq, floors.max_rid) }
