(* Wire protocol of the live replication service.

   Frames are self-delimiting and self-checking {!Codec.frame}s:

       len:u32 | magic "DVW1" | adler32:u32 | src:u16 | dst:u16 | tag:u8 | fields

   This module owns only the field layouts.  The consistency ensembles
   inside KState_reply reuse the Codec stable-storage encoding byte for
   byte.  Tags 3-5 and 7-10 are unassigned: every frame keeps the tag,
   and the bytes, it has always had. *)

let magic = "DVW1"
let broker_id = 0xFFFF
let first_client_id = 64
let is_site id = id >= 0 && id < Site_set.max_sites

type status = Granted | Denied | Aborted | Degraded

type payload =
  | Hello_site of { site : Site_set.site }
  | Hello_client
  | Welcome of { id : int }
  | Lock_reply of { op : int; granted : bool }
  | Client_put of { req : int; key : string; value : string }
  | Client_get of { req : int; key : string }
  | Client_recover of { req : int }
  | Client_reply of { req : int; status : status; value : string option; info : string }
  | Abstain of { round : int }
      (* a fenced or amnesiac site answering a state or lock gather:
         alive but taking no part, so the coordinator can stop waiting
         without counting it as a vote (for locks, [round] is the op) *)
  (* The peer protocol.  One group-quorum round names every object it
     covers, so a single wire exchange locks, gathers and commits an
     entire scheduler burst of per-object operations. *)
  | KLock_request of { op : int; keys : string list }
  | KUnlock of { op : int; keys : string list }
  | KState_request of { round : int; keys : string list }
  | KState_reply of {
      round : int;
      fresh : bool;
      states : (string * Replica.t) list;
    }
  | KCommit of {
      key : string;
      op_no : int;
      version : int;
      partition : Site_set.t;
      value : string option;  (* [None]: consistency-only (read or RECOVER) commit *)
      rid : int;
    }
  | KData_request of { round : int; key : string }
  | KData_reply of {
      round : int;
      key : string;
      version : int;
      value : string option;
      rids : (int * int) list;
    }

type envelope = { src : int; dst : int; payload : payload }

let kind_name = function
  | Hello_site _ -> "hello-site"
  | Hello_client -> "hello-client"
  | Welcome _ -> "welcome"
  | Lock_reply _ -> "lock-reply"
  | Client_put _ -> "client-put"
  | Client_get _ -> "client-get"
  | Client_recover _ -> "client-recover"
  | Client_reply _ -> "client-reply"
  | Abstain _ -> "abstain"
  | KLock_request _ -> "klock-request"
  | KUnlock _ -> "kunlock"
  | KState_request _ -> "kstate-request"
  | KState_reply _ -> "kstate-reply"
  | KCommit _ -> "kcommit"
  | KData_request _ -> "kdata-request"
  | KData_reply _ -> "kdata-reply"

let pp ppf e = Fmt.pf ppf "%d->%d %s" e.src e.dst (kind_name e.payload)

(* --- encoding ----------------------------------------------------- *)

let tag_of = function
  | Hello_site _ -> 0
  | Hello_client -> 1
  | Welcome _ -> 2
  | Lock_reply _ -> 6
  | Client_put _ -> 11
  | Client_get _ -> 12
  | Client_recover _ -> 13
  | Client_reply _ -> 14
  | Abstain _ -> 15
  | KLock_request _ -> 16
  | KUnlock _ -> 17
  | KState_request _ -> 18
  | KState_reply _ -> 19
  | KCommit _ -> 20
  | KData_request _ -> 21
  | KData_reply _ -> 22

let add_status b status =
  Codec.add_u8 b
    (match status with Granted -> 0 | Denied -> 1 | Aborted -> 2 | Degraded -> 3)

let add_keys b keys =
  Codec.add_u16 b (List.length keys);
  List.iter (Codec.add_key b) keys

let encode_payload b = function
  | Hello_site { site } -> Codec.add_u16 b site
  | Hello_client -> ()
  | Welcome { id } -> Codec.add_u16 b id
  | Lock_reply { op; granted } ->
      Codec.add_u32 b op;
      Codec.add_bool b granted
  | Client_put { req; key; value } ->
      Codec.add_u32 b req;
      Codec.add_key b key;
      Codec.add_value b value
  | Client_get { req; key } ->
      Codec.add_u32 b req;
      Codec.add_key b key
  | Client_recover { req } -> Codec.add_u32 b req
  | Client_reply { req; status; value; info } ->
      Codec.add_u32 b req;
      add_status b status;
      Codec.add_value_opt b value;
      Codec.add_key b info
  | Abstain { round } -> Codec.add_u32 b round
  | KLock_request { op; keys } | KUnlock { op; keys } ->
      Codec.add_u32 b op;
      add_keys b keys
  | KState_request { round; keys } ->
      Codec.add_u32 b round;
      add_keys b keys
  | KState_reply { round; fresh; states } ->
      Codec.add_u32 b round;
      Codec.add_bool b fresh;
      Codec.add_u16 b (List.length states);
      List.iter
        (fun (k, replica) ->
          Codec.add_key b k;
          Buffer.add_string b (Codec.encode_replica replica))
        states
  | KCommit { key; op_no; version; partition; value; rid } ->
      Codec.add_key b key;
      Codec.add_u64 b op_no;
      Codec.add_u64 b version;
      Codec.add_site_set b partition;
      Codec.add_value_opt b value;
      Codec.add_u64 b rid
  | KData_request { round; key } ->
      Codec.add_u32 b round;
      Codec.add_key b key
  | KData_reply { round; key; version; value; rids } ->
      Codec.add_u32 b round;
      Codec.add_key b key;
      Codec.add_u64 b version;
      Codec.add_value_opt b value;
      Codec.add_pairs b rids

let encode e =
  Codec.frame ~magic (fun b ->
      Codec.add_u16 b e.src;
      Codec.add_u16 b e.dst;
      Codec.add_u8 b (tag_of e.payload);
      encode_payload b e.payload)

(* --- decoding ----------------------------------------------------- *)

let keys_field c =
  let n = Codec.u16 c in
  List.init n (fun _ -> Codec.key c)

let status_field c =
  match Codec.u8 c with
  | 0 -> Granted
  | 1 -> Denied
  | 2 -> Aborted
  | 3 -> Degraded
  | _ -> raise (Codec.Corrupt "bad status")

let replica_field c =
  match Codec.decode_result (Codec.str c Codec.encoded_size) with
  | Ok replica -> replica
  | Error reason -> raise (Codec.Corrupt ("bad replica: " ^ reason))

let decode_payload c tag =
  match tag with
  | 0 -> Hello_site { site = Codec.u16 c }
  | 1 -> Hello_client
  | 2 -> Welcome { id = Codec.u16 c }
  | 6 ->
      let op = Codec.u32 c in
      Lock_reply { op; granted = Codec.bool c }
  | 11 ->
      let req = Codec.u32 c in
      let key = Codec.key c in
      Client_put { req; key; value = Codec.value c }
  | 12 ->
      let req = Codec.u32 c in
      Client_get { req; key = Codec.key c }
  | 13 -> Client_recover { req = Codec.u32 c }
  | 14 ->
      let req = Codec.u32 c in
      let status = status_field c in
      let value = Codec.value_opt c in
      Client_reply { req; status; value; info = Codec.key c }
  | 15 -> Abstain { round = Codec.u32 c }
  | 16 ->
      let op = Codec.u32 c in
      KLock_request { op; keys = keys_field c }
  | 17 ->
      let op = Codec.u32 c in
      KUnlock { op; keys = keys_field c }
  | 18 ->
      let round = Codec.u32 c in
      KState_request { round; keys = keys_field c }
  | 19 ->
      let round = Codec.u32 c in
      let fresh = Codec.bool c in
      let n = Codec.u16 c in
      let states =
        List.init n (fun _ ->
            let k = Codec.key c in
            (k, replica_field c))
      in
      KState_reply { round; fresh; states }
  | 20 ->
      let key = Codec.key c in
      let op_no = Codec.u64 c in
      let version = Codec.u64 c in
      let partition = Codec.site_set c in
      let value = Codec.value_opt c in
      KCommit { key; op_no; version; partition; value; rid = Codec.u64 c }
  | 21 ->
      let round = Codec.u32 c in
      KData_request { round; key = Codec.key c }
  | 22 ->
      let round = Codec.u32 c in
      let key = Codec.key c in
      let version = Codec.u64 c in
      let value = Codec.value_opt c in
      KData_reply { round; key; version; value; rids = Codec.pairs c }
  | _ -> raise (Codec.Corrupt "unknown tag")

(* The frame whose magic starts at [off]; its length word is already
   consumed. *)
let decode_frame data ~off ~len =
  match
    let c = Codec.open_frame ~magic data ~off ~len in
    let src = Codec.u16 c in
    let dst = Codec.u16 c in
    let tag = Codec.u8 c in
    let payload = decode_payload c tag in
    Codec.close_frame c;
    { src; dst; payload }
  with
  | e -> Ok e
  | exception Codec.Corrupt reason -> Error reason

let decode frame =
  if String.length frame < 4 then Error "missing length prefix"
  else
    let len = Int32.to_int (String.get_int32_le frame 0) land 0xFFFFFFFF in
    if len > Codec.max_frame then Error "frame length out of range"
    else if String.length frame - 4 <> len then Error "length prefix mismatch"
    else decode_frame (Bytes.unsafe_of_string frame) ~off:4 ~len

(* --- incremental decoder ------------------------------------------ *)

(* Frame reassembly with no socket attached: bytes go in at whatever
   boundaries the transport produced them, complete frames come out.
   Buffered bytes are [buf.[pos, len)]: [next] only advances [pos], and
   [feed] compacts once, so a feed of k frames costs O(bytes), not
   O(k * bytes). *)
module Decoder = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }
  let buffered d = d.len - d.pos

  let feed d bytes off n =
    let kept = d.len - d.pos in
    if kept + n > Bytes.length d.buf then begin
      let grown = Bytes.create (max (2 * Bytes.length d.buf) (kept + n)) in
      Bytes.blit d.buf d.pos grown 0 kept;
      d.buf <- grown
    end
    else if d.pos > 0 then Bytes.blit d.buf d.pos d.buf 0 kept;
    d.pos <- 0;
    Bytes.blit bytes off d.buf kept n;
    d.len <- kept + n

  let feed_string d s = feed d (Bytes.unsafe_of_string s) 0 (String.length s)

  let next d =
    if d.len - d.pos < 4 then None
    else
      let body_len = Int32.to_int (Bytes.get_int32_le d.buf d.pos) land 0xFFFFFFFF in
      if body_len > Codec.max_frame then Some (Error "frame length out of range")
      else if d.len - d.pos < 4 + body_len then None
      else begin
        let frame = decode_frame d.buf ~off:(d.pos + 4) ~len:body_len in
        d.pos <- d.pos + 4 + body_len;
        Some frame
      end
end
