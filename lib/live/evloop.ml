(* Readiness multiplexer over the C stubs in evloop_stubs.c.

   Both backends keep an interest table on the OCaml side: poll needs
   it to build its pollfd array every call, and epoll uses it to make
   [remove] and [modify] resilient to descriptors that crash injection
   closed behind our back. *)

external has_epoll : unit -> bool = "dynvote_has_epoll"
external epoll_create : unit -> int = "dynvote_epoll_create"

external epoll_ctl : int -> int -> int -> int -> unit = "dynvote_epoll_ctl"
(* op: 0 = add, 1 = mod, 2 = del; bits: 1 = read, 2 = write *)

external epoll_wait : int -> int -> int -> int array = "dynvote_epoll_wait"
(* returns [fd0; bits0; fd1; bits1; ...] *)

external raw_poll : int array -> int -> int array = "dynvote_poll"

external raise_fd_limit : int -> int = "dynvote_raise_fd_limit"
(* input [fd0; interest0; ...], output one revents-bits cell per fd *)

external fd_of_int : int -> Unix.file_descr = "%identity"
external int_of_fd : Unix.file_descr -> int = "%identity"

type backend = [ `Epoll | `Poll ]

type t = {
  kind : [ `Epoll of int | `Poll ];
  interest : (int, int) Hashtbl.t;
  mutable is_closed : bool;
}

type event = {
  fd : Unix.file_descr;
  readable : bool;
  writable : bool;
  error : bool;
}

let bits ~read ~write = (if read then 1 else 0) lor (if write then 2 else 0)

let event_of ~fd ~revents =
  {
    fd = fd_of_int fd;
    readable = revents land 1 <> 0;
    writable = revents land 2 <> 0;
    error = revents land 4 <> 0;
  }

let create ?backend () =
  let kind =
    match backend with
    | Some `Poll -> `Poll
    | Some `Epoll -> `Epoll (epoll_create ())
    | None -> if has_epoll () then `Epoll (epoll_create ()) else `Poll
  in
  { kind; interest = Hashtbl.create 64; is_closed = false }

let backend_name t = match t.kind with `Epoll _ -> "epoll" | `Poll -> "poll"

let add t fd ~read ~write =
  let fd = int_of_fd fd in
  let b = bits ~read ~write in
  Hashtbl.replace t.interest fd b;
  match t.kind with `Epoll ep -> epoll_ctl ep 0 fd b | `Poll -> ()

let modify t fd ~read ~write =
  let fd = int_of_fd fd in
  let b = bits ~read ~write in
  Hashtbl.replace t.interest fd b;
  match t.kind with `Epoll ep -> epoll_ctl ep 1 fd b | `Poll -> ()

let remove t fd =
  let fd = int_of_fd fd in
  Hashtbl.remove t.interest fd;
  match t.kind with
  | `Epoll ep -> ( try epoll_ctl ep 2 fd 0 with Unix.Unix_error _ -> ())
  | `Poll -> ()

let ms_of_timeout timeout =
  if timeout < 0. then -1 else int_of_float (ceil (timeout *. 1000.))

(* EINTR is retried with the time that remains, measured on the
   monotonic clock, so a signal storm cannot stretch a deadline. *)
let rec with_eintr_retry ~timeout f =
  let start = Dynvote_obs.Clock.now () in
  match f (ms_of_timeout timeout) with
  | result -> result
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      let timeout =
        if timeout < 0. then timeout
        else Float.max 0. (timeout -. (Dynvote_obs.Clock.now () -. start))
      in
      with_eintr_retry ~timeout f

let wait t ~timeout =
  if t.is_closed then []
  else
    match t.kind with
    | `Epoll ep ->
        let n = Hashtbl.length t.interest in
        let raw = with_eintr_retry ~timeout (epoll_wait ep (max n 1)) in
        let events = ref [] in
        for i = (Array.length raw / 2) - 1 downto 0 do
          events :=
            event_of ~fd:raw.(2 * i) ~revents:raw.((2 * i) + 1) :: !events
        done;
        !events
    | `Poll ->
        let n = Hashtbl.length t.interest in
        let pairs = Array.make (2 * n) 0 in
        let fds = Array.make (max n 1) 0 in
        let i = ref 0 in
        Hashtbl.iter
          (fun fd b ->
            fds.(!i) <- fd;
            pairs.(2 * !i) <- fd;
            pairs.((2 * !i) + 1) <- b;
            incr i)
          t.interest;
        let revents = with_eintr_retry ~timeout (raw_poll pairs) in
        let events = ref [] in
        for j = Array.length revents - 1 downto 0 do
          if revents.(j) <> 0 then
            events := event_of ~fd:fds.(j) ~revents:revents.(j) :: !events
        done;
        !events

let close t =
  if not t.is_closed then begin
    t.is_closed <- true;
    Hashtbl.reset t.interest;
    match t.kind with
    | `Epoll ep -> (
        try Unix.close (fd_of_int ep) with Unix.Unix_error _ -> ())
    | `Poll -> ()
  end

let wait_fd fd ~read ~write ~timeout =
  let fd = int_of_fd fd in
  let pairs = [| fd; bits ~read ~write |] in
  let revents = with_eintr_retry ~timeout (raw_poll pairs) in
  if Array.length revents = 0 || revents.(0) = 0 then None
  else Some (event_of ~fd ~revents:revents.(0))
