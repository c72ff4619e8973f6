(* Append-only shard logs + an in-memory spine of packed latest
   records, one key table per shard.  Frames and the log scan are the
   oplog's ({!Codec.frame}, {!Codec.scan_log}), so the torn-tail /
   mid-log-corruption rule is the same: bad frames at the end of a shard
   are honest crash damage and are cut off before reopening for append;
   a bad record with an intact one after it is bit rot, left in place
   and surfaced in [scan_info.corrupt] for the node to fence on.

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
  for i = 0 to String.length key - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code key.[i]))) 0x100000001b3L
  done;
  (Int64.to_int !h land max_int) mod shards

(* --- spine entries ---------------------------------------------------

   One packed entry per key, in its shard's key table: four u64 fields
   then a value tag (1 = absent, 2 = present, value bytes to the end).
   Undecoded residency is the point — a million keys are a million small
   buffers, and decoding (allocation of the state record and Site_set)
   happens only for the LRU-resident working set in {!Shard_map}.

   The table owns its entries and nothing else holds one: [unpack]
   copies the value out.  So a record that leaves a key's value as it
   was, at boot or in [commit], overwrites the entry's four fields in
   place, and only a new value makes a new entry. *)

let set_fields entry ~op_no ~version ~partition ~data_version =
  Bytes.set_int64_le entry 0 (Int64.of_int op_no);
  Bytes.set_int64_le entry 8 (Int64.of_int version);
  Bytes.set_int64_le entry 16 (Int64.of_int (Site_set.to_int partition));
  Bytes.set_int64_le entry 24 (Int64.of_int data_version)

let set_state entry st =
  set_fields entry ~op_no:st.op_no ~version:st.version ~partition:st.partition
    ~data_version:st.data_version

let absent () =
  let entry = Bytes.create 33 in
  Bytes.set entry 32 '\001';
  entry

let pack st =
  let entry =
    match st.value with
    | None -> absent ()
    | Some v ->
        let entry = Bytes.create (33 + String.length v) in
        Bytes.set entry 32 '\002';
        Bytes.blit_string v 0 entry 33 (String.length v);
        entry
  in
  set_state entry st;
  entry

(* Whether the entry holds [value]: its tag and value bytes, compared in
   place. *)
let holds entry = function
  | None -> Bytes.get entry 32 = '\001'
  | Some v ->
      let n = String.length v in
      let rec from i =
        i = n || (Bytes.unsafe_get entry (33 + i) = String.unsafe_get v i && from (i + 1))
      in
      Bytes.length entry = 33 + n && Bytes.get entry 32 = '\002' && from 0

let unpack entry =
  {
    op_no = Int64.to_int (Bytes.get_int64_le entry 0);
    version = Int64.to_int (Bytes.get_int64_le entry 8);
    partition = Site_set.of_int_unsafe (Int64.to_int (Bytes.get_int64_le entry 16));
    data_version = Int64.to_int (Bytes.get_int64_le entry 24);
    value =
      (match Bytes.get entry 32 with
      | '\001' -> None
      | _ -> Some (Bytes.sub_string entry 33 (Bytes.length entry - 33)));
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

(* --- the store ------------------------------------------------------- *)

(* A shard's keys are exactly the ones its log holds, so the log's boot
   fold fills its table and a compaction reads only its own keys. *)
type shard = {
  path : string;
  keys : (string, Bytes.t) Hashtbl.t;  (* key -> packed latest state *)
  mutable file : Vfs.file option;
  mutable records : int;  (* frames in the log *)
  mutable dirty : bool;  (* appended to since the last fsync *)
}

type t = {
  vfs : Vfs.t;
  durable : bool;
  sdir : string;
  rids_path : string;
  shards : shard array;
  rids : (int, int) Hashtbl.t;  (* client -> max applied req *)
  mutable compactions : int;
}

let shards_dir ~dir ~site =
  Filename.concat
    (Filename.concat dir (Printf.sprintf "site-%d" site))
    "shards"

let shard_path sdir i = Filename.concat sdir (Printf.sprintf "shard-%d.dvl" i)

(* Raise [client]'s applied-request high-water mark to [req]. *)
let bump rids client req =
  match Hashtbl.find rids client with
  | seen when seen >= req -> ()
  | _ -> Hashtbl.replace rids client req
  | exception Not_found -> Hashtbl.replace rids client req

let note_rid rids rid = if rid <> 0 then bump rids (rid lsr 32) (rid land 0xFFFFFFFF)

let merge_rid_pairs rids pairs = List.iter (fun (client, req) -> bump rids client req) pairs

(* Fold one intact shard-log frame straight into the spine, building no
   record on the way.  Every field is read and the frame checked whole
   before anything is touched, so a frame that fails to decode leaves
   the spine as it was.  A set value is copied once, out of the frame
   into the key's new entry; an "unchanged" record overwrites the four
   fields of the key's entry in place (with no earlier record for the
   key, its value is absent).  Returns the state records folded, which
   the compaction trigger counts. *)
let fold_frame spine rids c =
  match Codec.u8 c with
  | 0 ->
      let key = Codec.key c in
      let op_no = Codec.u64 c in
      let version = Codec.u64 c in
      let partition = Codec.site_set c in
      let data_version = Codec.u64 c in
      let fresh =
        match Codec.u8 c with
        | 0 -> None
        | 1 -> Some (absent ())
        | 2 ->
            let entry = Codec.value_bytes c ~head:33 in
            Bytes.set entry 32 '\002';
            Some entry
        | _ -> raise (Codec.Corrupt "bad value tag")
      in
      let rid = Codec.u64 c in
      Codec.close_frame c;
      note_rid rids rid;
      let entry =
        match fresh with
        | Some entry ->
            Hashtbl.replace spine key entry;
            entry
        | None -> (
            match Hashtbl.find spine key with
            | entry -> entry
            | exception Not_found ->
                let entry = absent () in
                Hashtbl.replace spine key entry;
                entry)
      in
      set_fields entry ~op_no ~version ~partition ~data_version;
      1
  | 1 ->
      let pairs = Codec.pairs c in
      Codec.close_frame c;
      merge_rid_pairs rids pairs;
      0
  | _ -> raise (Codec.Corrupt "unknown record type")

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

let shard_count t = Array.length t.shards
let shard_of t key = t.shards.(shard_of_key ~shards:(shard_count t) key)

let key_count t =
  Array.fold_left (fun acc shard -> acc + Hashtbl.length shard.keys) 0 t.shards

let open_store ?(vfs = Vfs.real) ?(durable = true) ~dir ~site ~shards () =
  if shards < 1 then invalid_arg "Shard_store.open_store: need at least one shard";
  let sdir = shards_dir ~dir ~site in
  mkdir_p sdir;
  let rids = Hashtbl.create 16 in
  let torn_shards = ref 0 in
  let corrupt = ref 0 in
  (* A file that exists but cannot be read is lost history, not an empty
     one — the caller must not present the keys it held as initial. *)
  let unreadable = ref 0 in
  let shard_arr =
    Array.init shards (fun i ->
        let path = shard_path sdir i in
        let keys, records =
          match Codec.read_file_result ~vfs ~path () with
          | Ok data ->
              (* A bucket per record (about 80 bytes each): the fold
                 never grows the table. *)
              let keys = Hashtbl.create (max 64 (String.length data / 80)) in
              let scan =
                Codec.scan_data ~vfs ~cut_torn_tail:true ~path ~magic
                  ~decode:(fold_frame keys rids) ( + ) 0 data
              in
              if scan.Codec.torn then incr torn_shards;
              corrupt := !corrupt + scan.Codec.corrupt;
              (keys, scan.Codec.folded)
          | Error _ ->
              if Sys.file_exists path then incr unreadable;
              (Hashtbl.create 64, 0)
        in
        { path; keys; file = None; records; dirty = false })
  in
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
      rids;
      compactions = 0;
    }
  in
  ( t,
    {
      keys = key_count t;
      torn_shards = !torn_shards;
      corrupt = !corrupt;
      unreadable = !unreadable;
      rids = rid_list t;
    } )

let lookup t key =
  match Hashtbl.find_opt (shard_of t key).keys key with
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

(* Rewrite one shard with just the latest record of each of its keys
   (read from its own table, no other shard's), headed by the
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
let compact t shard =
  (match shard.file with
  | Some f ->
      f.Vfs.close ();
      shard.file <- None
  | None -> ());
  let b = Buffer.create 4096 in
  Buffer.add_string b (encode_rid_record (rid_list t));
  Hashtbl.iter
    (fun key packed ->
      let st = unpack packed in
      Buffer.add_string b
        (encode_state_record ~key ~rid:0 ~value_enc:(Set st.value) st))
    shard.keys;
  Codec.write_file_atomic ~vfs:t.vfs ~fsync:true ~path:shard.path
    (Buffer.contents b);
  shard.records <- Hashtbl.length shard.keys + 1;
  shard.dirty <- false;
  t.compactions <- t.compactions + 1

let compaction_due shard =
  shard.records >= 1024 && shard.records > 4 * max 1 (Hashtbl.length shard.keys)

(* The record goes to the log before the spine changes, so a failed
   append leaves the entry as it was.  A key whose entry already holds
   the value logs it "unchanged" and takes the new fields in place. *)
let commit t ~key ~rid st =
  let shard = shard_of t key in
  let same =
    match Hashtbl.find shard.keys key with
    | entry when holds entry st.value -> Some entry
    | _ -> None
    | exception Not_found -> None
  in
  let value_enc = match same with Some _ -> Unchanged | None -> Set st.value in
  append_frame t shard (encode_state_record ~key ~rid ~value_enc st);
  note_rid t.rids rid;
  (match same with
  | Some entry -> set_state entry st
  | None -> Hashtbl.replace shard.keys key (pack st));
  if compaction_due shard then compact t shard

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

let iter t f =
  Array.iter
    (fun shard -> Hashtbl.iter (fun key packed -> f key (unpack packed)) shard.keys)
    t.shards

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
                 ~decode:(fold_frame spine rids) ( + ) 0
             with
             | Ok scan -> corrupt := !corrupt + scan.Codec.corrupt
             | Error _ -> ()));
  (Hashtbl.fold (fun key entry acc -> (key, unpack entry) :: acc) spine [], !corrupt)
