(** JSON values and their one printer: the [BENCH_*.json] records and
    [dynvote stats --json] are all built as values of {!t} and printed
    by {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** printed as [%.9g]; a non-finite value as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** printed in list order *)

val to_string : t -> string
(** Compact (no whitespace).  Strings escape the double quote and the
    backslash with a backslash, newline as backslash-n and the other
    bytes below 0x20 as backslash-u00XX; every other byte passes
    through. *)
