(* Append-only shard logs + an in-memory spine of packed latest
   records.  The framing mirrors the oplog ("len | magic | crc | body"),
   so the torn-tail / mid-log-corruption forensics carry over: a partial
   frame at the end of a shard is honest crash damage and is cut off
   before reopening for append; a bad record with intact ones after it
   is bit rot and is surfaced in [scan_info.corrupt] for the node to
   fence on.

   Record types inside the frame:

     0  keyed state: key | op_no | version | partition | data_version |
        value(unchanged / set) | rid
     1  rid summary: the per-client applied-request table a compaction
        snapshots at the head of the rewritten log, so dropping
        superseded records never drops exactly-once memory. *)

let magic = "DVS1"
let max_record = 16 * 1024 * 1024

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

(* --- record framing -------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let add_u16 b v = Buffer.add_uint16_le b v
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

type value_enc = Unchanged | Set of string option

let frame_of body_fill =
  let b = Buffer.create 96 in
  Buffer.add_string b magic;
  add_u32 b 0 (* checksum slot *);
  body_fill b;
  let body = Buffer.to_bytes b in
  Bytes.set_int32_le body 4 (Codec.checksum body ~off:8 ~len:(Bytes.length body - 8));
  let frame = Bytes.create (4 + Bytes.length body) in
  Bytes.set_int32_le frame 0 (Int32.of_int (Bytes.length body));
  Bytes.blit body 0 frame 4 (Bytes.length body);
  Bytes.to_string frame

let encode_state_record ~key ~rid ~value_enc st =
  frame_of (fun b ->
      add_u8 b 0;
      if String.length key > 0xffff then
        invalid_arg "Shard_store: key longer than 65535 bytes";
      add_u16 b (String.length key);
      Buffer.add_string b key;
      add_u64 b st.op_no;
      add_u64 b st.version;
      add_u64 b (Site_set.to_int st.partition);
      add_u64 b st.data_version;
      (match value_enc with
      | Unchanged -> add_u8 b 0
      | Set None -> add_u8 b 1
      | Set (Some v) ->
          add_u8 b 2;
          add_u32 b (String.length v);
          Buffer.add_string b v);
      add_u64 b rid)

let encode_rid_record pairs =
  frame_of (fun b ->
      add_u8 b 1;
      add_u32 b (List.length pairs);
      List.iter
        (fun (client, req) ->
          add_u32 b client;
          add_u64 b req)
        pairs)

exception Bad of string

type cursor = { data : Bytes.t; mutable pos : int }

let need c n = if c.pos + n > Bytes.length c.data then raise (Bad "record truncated")

let u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.data c.pos in
  c.pos <- c.pos + 2;
  v

let u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.data c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let u64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Bad "field out of range");
  Int64.to_int v

let str c len =
  need c len;
  let s = Bytes.sub_string c.data c.pos len in
  c.pos <- c.pos + len;
  s

type record =
  | R_state of { key : string; rid : int; value_enc : value_enc; st : state }
      (* [st.value] is a placeholder when [value_enc = Unchanged]; the
         scan resolves it against the previous spine entry *)
  | R_rids of (int * int) list

let decode_record body =
  let c = { data = body; pos = 0 } in
  if str c 4 <> magic then raise (Bad "bad magic");
  let stored = Bytes.get_int32_le body 4 in
  c.pos <- 8;
  let computed = Codec.checksum body ~off:8 ~len:(Bytes.length body - 8) in
  if not (Int32.equal stored computed) then raise (Bad "checksum mismatch");
  let record =
    match u8 c with
    | 0 ->
        let key = str c (u16 c) in
        let op_no = u64 c in
        let version = u64 c in
        let partition = Site_set.of_int_unsafe (u64 c) in
        let data_version = u64 c in
        let value_enc =
          match u8 c with
          | 0 -> Unchanged
          | 1 -> Set None
          | 2 -> Set (Some (str c (u32 c)))
          | _ -> raise (Bad "bad value tag")
        in
        let rid = u64 c in
        R_state
          {
            key;
            rid;
            value_enc;
            st = { op_no; version; partition; data_version; value = None };
          }
    | 1 ->
        let n = u32 c in
        if n > max_record then raise (Bad "rid count out of range");
        R_rids (List.init n (fun _ -> let client = u32 c in (client, u64 c)))
    | _ -> raise (Bad "unknown record type")
  in
  if c.pos <> Bytes.length body then raise (Bad "trailing garbage");
  record

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

(* Fold one shard log into the spine, resolving "unchanged" values
   against the previous record for the key.  Same resync discipline as
   the oplog scan: intact length prefixes let us skip a damaged frame,
   an implausible length ends the scan (torn tail). *)
let scan_shard_file ~read spine rids path =
  match read path with
  | exception Sys_error _ -> None
  | data ->
      let raw = Bytes.of_string data in
      let total = Bytes.length raw in
      let pos = ref 0 in
      let torn = ref false in
      let bad = ref 0 in
      let applied = ref 0 in
      let damaged_at = ref [] in
      (try
         while !pos < total do
           if !pos + 4 > total then raise Exit;
           let len = Int32.to_int (Bytes.get_int32_le raw !pos) land 0xFFFFFFFF in
           if len <= 0 || len > max_record || !pos + 4 + len > total then
             raise Exit;
           (match decode_record (Bytes.sub raw (!pos + 4) len) with
           | R_state { key; rid; value_enc; st } ->
               incr applied;
               note_rid rids rid;
               let value =
                 match value_enc with
                 | Set v -> v
                 | Unchanged -> (
                     match Hashtbl.find_opt spine key with
                     | Some packed -> (unpack packed).value
                     | None -> None)
               in
               Hashtbl.replace spine key (pack { st with value })
           | R_rids pairs -> merge_rid_pairs rids pairs
           | exception Bad _ -> damaged_at := !pos :: !damaged_at);
           pos := !pos + 4 + len
         done
       with Exit -> torn := true);
      (* Damage followed only by more damage (or nothing) is the torn
         tail; damage with an intact record after it is mid-log. *)
      (match !damaged_at with
      | [] -> ()
      | last_bad :: earlier ->
          torn := true;
          bad := List.length earlier;
          ignore (last_bad : int));
      Some (!torn, !bad, !applied)

(* The scan above treats every damaged frame except the last as mid-log
   corruption.  That over-counts one case — several trailing partial
   frames — which a single append cannot produce anyway; honest crashes
   tear at most one frame. *)

let decode_rids_file data =
  try
    let b = Bytes.of_string data in
    if Bytes.length b < 12 then raise (Bad "rid file too short");
    if Bytes.sub_string b 0 4 <> magic then raise (Bad "bad magic");
    let stored = Bytes.get_int32_le b 4 in
    let computed = Codec.checksum b ~off:8 ~len:(Bytes.length b - 8) in
    if not (Int32.equal stored computed) then raise (Bad "checksum mismatch");
    let c = { data = b; pos = 8 } in
    let n = u32 c in
    if n > max_record then raise (Bad "rid count out of range");
    let pairs = List.init n (fun _ -> let client = u32 c in (client, u64 c)) in
    if c.pos <> Bytes.length b then raise (Bad "trailing garbage");
    Some pairs
  with Bad _ -> None

let encode_rids_file pairs =
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  add_u32 b 0;
  add_u32 b (List.length pairs);
  List.iter
    (fun (client, req) ->
      add_u32 b client;
      add_u64 b req)
    pairs;
  let body = Buffer.to_bytes b in
  Bytes.set_int32_le body 4 (Codec.checksum body ~off:8 ~len:(Bytes.length body - 8));
  Bytes.to_string body

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
        let torn, bad, applied =
          match scan_shard_file ~read:vfs.Vfs.read spine rids path with
          | Some scan -> scan
          | None ->
              if Sys.file_exists path then incr unreadable;
              (false, 0, 0)
        in
        if torn then begin
          incr torn_shards;
          (* Cut the partial frame off before appending over it — a new
             record after a torn one would read as mid-log corruption on
             the next scan.  Only when nothing mid-log is damaged: a
             corrupt log is evidence and is left untouched. *)
          if bad = 0 then begin
            (* Re-derive the valid prefix length: sum of intact frames. *)
            match vfs.Vfs.read path with
            | exception Sys_error _ -> ()
            | data ->
                let raw = Bytes.of_string data in
                let total = Bytes.length raw in
                let pos = ref 0 in
                (try
                   while !pos < total do
                     if !pos + 4 > total then raise Exit;
                     let len =
                       Int32.to_int (Bytes.get_int32_le raw !pos) land 0xFFFFFFFF
                     in
                     if len <= 0 || len > max_record || !pos + 4 + len > total
                     then raise Exit;
                     (match decode_record (Bytes.sub raw (!pos + 4) len) with
                     | (_ : record) -> ()
                     | exception Bad _ -> raise Exit);
                     pos := !pos + 4 + len
                   done
                 with Exit -> ());
                vfs.Vfs.truncate path !pos
          end
        end;
        corrupt := !corrupt + bad;
        { path; file = None; records = applied; live = 0; dirty = false })
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
  let file = file_of t shard in
  let bytes = Bytes.unsafe_of_string frame in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + file.Vfs.write bytes !written (len - !written)
  done;
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
  (match Sys.readdir sdir with
  | exception Sys_error _ -> ()
  | names ->
      let shard_files =
        names |> Array.to_list
        |> List.filter (fun n ->
               String.length n > 6
               && String.sub n 0 6 = "shard-"
               && Filename.check_suffix n ".dvl")
        |> List.sort compare
      in
      List.iter
        (fun name ->
          ignore
            (scan_shard_file ~read:Vfs.real.Vfs.read spine rids
               (Filename.concat sdir name)
              : (bool * int * int) option))
        shard_files);
  Hashtbl.fold (fun key packed acc -> (key, unpack packed) :: acc) spine []
