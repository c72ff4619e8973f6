(** Wire messages of the voting protocols.

    State requests and replies are tagged with the coordinator's gather
    round, so stale replies delivered late (delay, duplication, retry) can
    be discarded.  Commits and data transfers are applied monotonically
    and need no round. *)

type payload =
  | State_request of { round : int }
  | State_reply of { round : int; replica : Replica.t }
  | Commit of {
      op_no : int;
      version : int;
      partition : Site_set.t;
      data : string option;
          (** relaxed-delivery writes piggyback the content so data and
              ensemble install atomically; [None] under the paper model *)
    }
  | Data_request of { round : int }
  | Data of { round : int; version : int; content : string }
  | Ack
  | Lock_request of { op : int }
      (** serialize operations: volatile, all-or-nothing locks *)
  | Lock_reply of { op : int; granted : bool }
  | Unlock of { op : int }

type t = {
  src : Site_set.site;
  dst : Site_set.site;
  payload : payload;
}

val kind_name : payload -> string

val kind_index : payload -> int
(** The kind's position in {!kind_names}: [kind_name p] is
    [kind_names.(kind_index p)]. *)

val kind_names : string array
(** Every kind's name, in declaration order.  Do not mutate. *)

val nominal_size : payload -> int
(** Nominal bytes on the wire, for traffic accounting. *)

val pp : Format.formatter -> t -> unit
