type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_list b add open_ close items =
  Buffer.add_char b open_;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char b ',';
      add item)
    items;
  Buffer.add_char b close

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v when Float.is_finite v -> Buffer.add_string b (Printf.sprintf "%.9g" v)
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List items -> add_list b (add b) '[' ']' items
  | Obj fields ->
      add_list b
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          add b v)
        '{' '}' fields

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b
