(* Append-only shard logs + an in-memory spine of packed latest
   records.  Frames and the log scan are the oplog's ({!Codec.frame},
   {!Codec.scan_log}), so the torn-tail / mid-log-corruption rule is the
   same: bad frames at the end of a shard are honest crash damage and
   are cut off before reopening for append; a bad record with an intact
   one after it is bit rot, left in place and surfaced in
   [scan_info.corrupt] for the node to fence on.

   Record types inside the frame:

     0  keyed state: key | op_no | version | partition | data_version |
        value(unchanged / set) | rid
     1  rid summary: the per-client applied-request table a compaction
        snapshots at the head of the rewritten log, so dropping
        superseded records never drops exactly-once memory. *)

let magic = "DVS1"

type state = {
  op_no : int;
  version : int;
  partition : Site_set.t;
  data_version : int;
  value : string option;
}

type scan_info = {
  keys : int;
  torn_shards : int;
  corrupt : int;
  unreadable : int;
  rids : (int * int) list;
}

(* --- stable key -> shard hash (FNV-1a, independent of Hashtbl.hash) --- *)

let shard_of_key ~shards key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  (Int64.to_int !h land max_int) mod shards

(* --- spine packing ---------------------------------------------------

   One packed string per key: four u64 fields then a value tag (1 =
   absent, 2 = present, value bytes to the end).  Undecoded residency is
   the point — a million keys are a million small strings, and decoding
   (allocation of the state record and Site_set) happens only for the
   LRU-resident working set in {!Shard_map}. *)

let pack st =
  let vlen = match st.value with None -> 0 | Some v -> String.length v in
  let b = Bytes.create (33 + vlen) in
  Bytes.set_int64_le b 0 (Int64.of_int st.op_no);
  Bytes.set_int64_le b 8 (Int64.of_int st.version);
  Bytes.set_int64_le b 16 (Int64.of_int (Site_set.to_int st.partition));
  Bytes.set_int64_le b 24 (Int64.of_int st.data_version);
  (match st.value with
  | None -> Bytes.set b 32 '\001'
  | Some v ->
      Bytes.set b 32 '\002';
      Bytes.blit_string v 0 b 33 vlen);
  Bytes.unsafe_to_string b

let unpack packed =
  let b = Bytes.unsafe_of_string packed in
  {
    op_no = Int64.to_int (Bytes.get_int64_le b 0);
    version = Int64.to_int (Bytes.get_int64_le b 8);
    partition = Site_set.of_int_unsafe (Int64.to_int (Bytes.get_int64_le b 16));
    data_version = Int64.to_int (Bytes.get_int64_le b 24);
    value =
      (match Bytes.get b 32 with
      | '\001' -> None
      | _ -> Some (String.sub packed 33 (String.length packed - 33)));
  }

(* --- records ------------------------------------------------------------ *)

type value_enc = Unchanged | Set of string option

let encode_state_record ~key ~rid ~value_enc st =
  Codec.frame ~magic (fun b ->
      Codec.add_u8 b 0;
      Codec.add_key b key;
      Codec.add_u64 b st.op_no;
      Codec.add_u64 b st.version;
      Codec.add_site_set b st.partition;
      Codec.add_u64 b st.data_version;
      (match value_enc with
      | Unchanged -> Codec.add_u8 b 0
      | Set None -> Codec.add_u8 b 1
      | Set (Some v) ->
          Codec.add_u8 b 2;
          Codec.add_value b v);
      Codec.add_u64 b rid)

let encode_rid_record pairs =
  Codec.frame ~magic (fun b ->
      Codec.add_u8 b 1;
      Codec.add_pairs b pairs)

(* The sidecar is one rid summary without the record tag, and without a
   length word: the file's size delimits it. *)
let encode_rids_file pairs =
  Codec.frame ~length_prefix:false ~magic (fun b -> Codec.add_pairs b pairs)

let decode_rids_file data =
  match
    let c =
      Codec.open_frame ~magic (Bytes.unsafe_of_string data) ~off:0
        ~len:(String.length data)
    in
    let pairs = Codec.pairs c in
    Codec.close_frame c;
    pairs
  with
  | pairs -> Some pairs
  | exception Codec.Corrupt _ -> None

type record =
  | R_state of { key : string; rid : int; value_enc : value_enc; st : state }
      (* [st.value] is a placeholder when [value_enc = Unchanged]; the
         scan resolves it against the previous spine entry *)
  | R_rids of (int * int) list

let decode_record c =
  match Codec.u8 c with
  | 0 ->
      let key = Codec.key c in
      let op_no = Codec.u64 c in
      let version = Codec.u64 c in
      let partition = Codec.site_set c in
      let data_version = Codec.u64 c in
      let value_enc =
        match Codec.u8 c with
        | 0 -> Unchanged
        | 1 -> Set None
        | 2 -> Set (Some (Codec.value c))
        | _ -> raise (Codec.Corrupt "bad value tag")
      in
      let rid = Codec.u64 c in
      let st = { op_no; version; partition; data_version; value = None } in
      R_state { key; rid; value_enc; st }
  | 1 -> R_rids (Codec.pairs c)
  | _ -> raise (Codec.Corrupt "unknown record type")

(* --- the store ------------------------------------------------------- *)

type shard = {
  path : string;
  mutable file : Vfs.file option;
  mutable records : int;  (* frames in the log *)
  mutable live : int;  (* distinct keys mapping here *)
  mutable dirty : bool;  (* appended to since the last fsync *)
}

type t = {
  vfs : Vfs.t;
  durable : bool;
  sdir : string;
  rids_path : string;
  shards : shard array;
  spine : (string, string) Hashtbl.t;  (* key -> packed latest state *)
  rids : (int, int) Hashtbl.t;  (* client -> max applied req *)
  mutable compactions : int;
}

let shards_dir ~dir ~site =
  Filename.concat
    (Filename.concat dir (Printf.sprintf "site-%d" site))
    "shards"

let shard_path sdir i = Filename.concat sdir (Printf.sprintf "shard-%d.dvl" i)

let note_rid rids rid =
  if rid <> 0 then begin
    let client = rid lsr 32 and req = rid land 0xFFFFFFFF in
    match Hashtbl.find_opt rids client with
    | Some seen when seen >= req -> ()
    | _ -> Hashtbl.replace rids client req
  end

let merge_rid_pairs rids pairs =
  List.iter
    (fun (client, req) ->
      match Hashtbl.find_opt rids client with
      | Some seen when seen >= req -> ()
      | _ -> Hashtbl.replace rids client req)
    pairs

(* Fold one intact shard-log record into the spine, resolving an
   "unchanged" value against the key's previous record; counts the state
   records for the compaction trigger. *)
let fold_record spine rids applied = function
  | R_state { key; rid; value_enc; st } ->
      note_rid rids rid;
      let value =
        match value_enc with
        | Set v -> v
        | Unchanged -> (
            match Hashtbl.find_opt spine key with
            | Some packed -> (unpack packed).value
            | None -> None)
      in
      Hashtbl.replace spine key (pack { st with value });
      applied + 1
  | R_rids pairs ->
      merge_rid_pairs rids pairs;
      applied

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Sys.mkdir path 0o755 with Sys_error _ -> ()
    end
  in
  go path

let rid_list t =
  List.sort compare (Hashtbl.fold (fun c r acc -> (c, r) :: acc) t.rids [])

let open_store ?(vfs = Vfs.real) ?(durable = true) ~dir ~site ~shards () =
  if shards < 1 then invalid_arg "Shard_store.open_store: need at least one shard";
  let sdir = shards_dir ~dir ~site in
  mkdir_p sdir;
  let spine = Hashtbl.create 1024 in
  let rids = Hashtbl.create 16 in
  let torn_shards = ref 0 in
  let corrupt = ref 0 in
  (* A file that exists but cannot be read is lost history, not an empty
     one — the caller must not present the keys it held as initial. *)
  let unreadable = ref 0 in
  let shard_arr =
    Array.init shards (fun i ->
        let path = shard_path sdir i in
        let records =
          match
            Codec.scan_log ~vfs ~cut_torn_tail:true ~path ~magic
              ~decode:decode_record (fold_record spine rids) 0
          with
          | Ok scan ->
              if scan.Codec.torn then incr torn_shards;
              corrupt := !corrupt + scan.Codec.corrupt;
              scan.Codec.folded
          | Error _ ->
              if Sys.file_exists path then incr unreadable;
              0
        in
        { path; file = None; records; live = 0; dirty = false })
  in
  (* Live counts per shard, for the compaction trigger. *)
  Hashtbl.iter
    (fun key _ ->
      let s = shard_arr.(shard_of_key ~shards key) in
      s.live <- s.live + 1)
    spine;
  (* The sidecar table (fetch-imported rids) merges over the log fold. *)
  let rids_path = Filename.concat sdir "rids.dvr" in
  (match vfs.Vfs.read rids_path with
  | exception Sys_error _ -> if Sys.file_exists rids_path then incr unreadable
  | data -> (
      match decode_rids_file data with
      | Some pairs -> merge_rid_pairs rids pairs
      | None -> ()));
  let t =
    {
      vfs;
      durable;
      sdir;
      rids_path;
      shards = shard_arr;
      spine;
      rids;
      compactions = 0;
    }
  in
  ( t,
    {
      keys = Hashtbl.length spine;
      torn_shards = !torn_shards;
      corrupt = !corrupt;
      unreadable = !unreadable;
      rids = rid_list t;
    } )

let shard_count t = Array.length t.shards
let key_count t = Hashtbl.length t.spine

let lookup t key =
  match Hashtbl.find_opt t.spine key with
  | None -> None
  | Some packed -> Some (unpack packed)

let file_of t shard =
  match shard.file with
  | Some f -> f
  | None ->
      let f = t.vfs.Vfs.append shard.path in
      shard.file <- Some f;
      f

let append_frame t shard frame =
  Codec.write_through (file_of t shard) frame;
  shard.records <- shard.records + 1;
  shard.dirty <- true

(* Rewrite one shard with just the latest record per key, headed by the
   applied-request table so exactly-once memory survives the dropped
   history.  Atomic replace: a crash leaves the old log or the new one,
   both valid.

   The rewrite always runs the full durability discipline (data fsync
   before the rename, directory fsync after), even for stores opened
   [durable:false]: the rename replaces the only copy of the key
   history, and a rename whose source was never fsynced can be promoted
   by ANY later fsync of the same directory — the rids sidecar's atomic
   replace is one — leaving the shard log durably empty after a power
   cut.  Unsynced appends losing their tail is the non-durable
   trade-off; compaction silently discarding fsynced history is not. *)
let compact t i =
  let shard = t.shards.(i) in
  (match shard.file with
  | Some f ->
      f.Vfs.close ();
      shard.file <- None
  | None -> ());
  let b = Buffer.create 4096 in
  Buffer.add_string b (encode_rid_record (rid_list t));
  let live = ref 0 in
  Hashtbl.iter
    (fun key packed ->
      if shard_of_key ~shards:(Array.length t.shards) key = i then begin
        incr live;
        let st = unpack packed in
        Buffer.add_string b
          (encode_state_record ~key ~rid:0 ~value_enc:(Set st.value) st)
      end)
    t.spine;
  Codec.write_file_atomic ~vfs:t.vfs ~fsync:true ~path:shard.path
    (Buffer.contents b);
  shard.records <- !live + 1;
  shard.live <- !live;
  shard.dirty <- false;
  t.compactions <- t.compactions + 1

let compaction_due shard =
  shard.records >= 1024 && shard.records > 4 * max 1 shard.live

let commit t ~key ~rid st =
  let i = shard_of_key ~shards:(Array.length t.shards) key in
  let shard = t.shards.(i) in
  let prior = Hashtbl.find_opt t.spine key in
  let value_enc =
    match prior with
    | Some packed when (unpack packed).value = st.value -> Unchanged
    | _ -> Set st.value
  in
  append_frame t shard (encode_state_record ~key ~rid ~value_enc st);
  note_rid t.rids rid;
  Hashtbl.replace t.spine key (pack st);
  if prior = None then shard.live <- shard.live + 1;
  if compaction_due shard then compact t i

let fsync t =
  Array.iter
    (fun shard ->
      if shard.dirty then begin
        (match shard.file with Some f -> f.Vfs.fsync () | None -> ());
        shard.dirty <- false
      end)
    t.shards

let save_rids ?fsync t pairs =
  merge_rid_pairs t.rids pairs;
  let fsync = Option.value fsync ~default:t.durable in
  Codec.write_file_atomic ~vfs:t.vfs ~fsync ~path:t.rids_path
    (encode_rids_file (rid_list t))

let iter t f = Hashtbl.iter (fun key packed -> f key (unpack packed)) t.spine

let compactions t = t.compactions
let log_records t = Array.fold_left (fun acc s -> acc + s.records) 0 t.shards

let close t =
  Array.iter
    (fun shard ->
      match shard.file with
      | Some f ->
          (try f.Vfs.close () with Sys_error _ | Vfs.Fault _ -> ());
          shard.file <- None
      | None -> ())
    t.shards

let read_states ~dir ~site =
  let sdir = shards_dir ~dir ~site in
  let spine = Hashtbl.create 256 in
  let rids = Hashtbl.create 16 in
  let corrupt = ref 0 in
  (match Sys.readdir sdir with
  | exception Sys_error _ -> ()
  | names ->
      names |> Array.to_list
      |> List.filter (fun n ->
             String.length n > 6
             && String.sub n 0 6 = "shard-"
             && Filename.check_suffix n ".dvl")
      |> List.sort compare
      |> List.iter (fun name ->
             match
               Codec.scan_log ~path:(Filename.concat sdir name) ~magic
                 ~decode:decode_record (fold_record spine rids) 0
             with
             | Ok scan -> corrupt := !corrupt + scan.Codec.corrupt
             | Error _ -> ()));
  (Hashtbl.fold (fun key packed acc -> (key, unpack packed) :: acc) spine [], !corrupt)
