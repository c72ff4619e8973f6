(* Wire messages of the voting protocols.  START is a state request plus
   its reply; COMMIT installs a new consistency ensemble; recovery adds a
   data transfer.  Payload sizes are nominal byte counts used by the
   overhead accounting (consistency-control state is tiny; data transfers
   dominate, which is why the paper treats "message traffic" as message
   counts).

   State requests and replies carry a round identifier so that, under
   relaxed delivery (delay, duplication, retries), a coordinator can tell
   a reply to the current gather apart from a straggler of an earlier one.
   Commits need no round: they are applied monotonically by operation
   number.  Data transfers are monotone on the version number. *)

type payload =
  | State_request of { round : int }       (* START: who is there, send your ensemble *)
  | State_reply of { round : int; replica : Replica.t }  (* the (o, v, P) ensemble *)
  | Commit of {
      op_no : int;
      version : int;
      partition : Site_set.t;
      data : string option;
          (* relaxed-delivery writes piggyback the content so data and
             ensemble install atomically; None under the paper model *)
    }
  | Data_request of { round : int }        (* recovering site asks for the file *)
  | Data of { round : int; version : int; content : string }
  | Ack
  (* Operation serialization: the paper's algorithms assume one operation
     at a time; these messages provide it.  Locks are volatile (lost on a
     crash) and all-or-nothing (a coordinator that fails to lock every
     reachable site releases and aborts), so no deadlock can form. *)
  | Lock_request of { op : int }
  | Lock_reply of { op : int; granted : bool }
  | Unlock of { op : int }

type t = {
  src : Site_set.site;
  dst : Site_set.site;
  payload : payload;
}

(* Kinds are numbered in declaration order; the transport counts sends
   in an array indexed by this number. *)
let kind_index = function
  | State_request _ -> 0
  | State_reply _ -> 1
  | Commit _ -> 2
  | Data_request _ -> 3
  | Data _ -> 4
  | Ack -> 5
  | Lock_request _ -> 6
  | Lock_reply _ -> 7
  | Unlock _ -> 8

let kind_names =
  [|
    "state_request";
    "state_reply";
    "commit";
    "data_request";
    "data";
    "ack";
    "lock_request";
    "lock_reply";
    "unlock";
  |]

let kind_name payload = kind_names.(kind_index payload)

let nominal_size = function
  | State_request _ -> 16
  | State_reply _ -> 48
  | Commit { data = None; _ } -> 48
  | Commit { data = Some content; _ } -> 64 + String.length content
  | Data_request _ -> 16
  | Data { content; _ } -> 64 + String.length content
  | Ack -> 16
  | Lock_request _ | Lock_reply _ | Unlock _ -> 24

let pp ppf t =
  Fmt.pf ppf "%d -> %d: %s" t.src t.dst (kind_name t.payload)
