(* Priority queue of timestamped events, implemented as a growable binary
   min-heap.  Ties in time are broken by insertion sequence number, making
   the simulation fully deterministic: two events scheduled for the same
   instant fire in the order they were scheduled.

   The heap is a structure of arrays rather than an array of
   [{time; seq; payload}] records: the times live in a flat [float array]
   (unboxed in OCaml), so the hot comparison path of every sift touches
   contiguous raw floats instead of chasing a pointer per element, and
   inserting allocates nothing beyond the occasional capacity doubling.
   Moving an element means three stores instead of one pointer store, so
   the sifts shift entries into a hole and write the carried element
   exactly once at its final position, rather than swapping at every
   level.  Neither sift takes a float argument (one would be boxed on
   every call): each reads the carried element from its slot, and [add]
   is inlined at its call sites, so a time computed there is stored
   into [times] unboxed. *)

type 'a t = {
  mutable times : float array; (* unboxed float array; slots >= size unused *)
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* [filler] initialises the unused payload slots. *)
let grow t filler =
  let capacity = Array.length t.times in
  let new_capacity = if capacity = 0 then 16 else capacity * 2 in
  let times = Array.make new_capacity 0.0 in
  Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  let seqs = Array.make new_capacity 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let payloads = Array.make new_capacity filler in
  Array.blit t.payloads 0 payloads 0 t.size;
  t.payloads <- payloads

(* Shift ancestors down into the hole at [i] until the element stored
   at [i] fits, then store it there. *)
let sift_up t i =
  let time = t.times.(i) and seq = t.seqs.(i) and payload = t.payloads.(i) in
  let hole = ref i in
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if time < t.times.(parent) || (time = t.times.(parent) && seq < t.seqs.(parent))
    then begin
      t.times.(!hole) <- t.times.(parent);
      t.seqs.(!hole) <- t.seqs.(parent);
      t.payloads.(!hole) <- t.payloads.(parent);
      hole := parent
    end
    else continue := false
  done;
  t.times.(!hole) <- time;
  t.seqs.(!hole) <- seq;
  t.payloads.(!hole) <- payload

(* Shift the smaller child up into the hole at [i] until the element
   at [last] fits, then store it there. *)
let sift_down t i last =
  let time = t.times.(last) and seq = t.seqs.(last) and payload = t.payloads.(last) in
  let hole = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !hole) + 1 in
    if left >= t.size then continue := false
    else begin
      let right = left + 1 in
      let smallest =
        if
          right < t.size
          && (t.times.(right) < t.times.(left)
             || (t.times.(right) = t.times.(left) && t.seqs.(right) < t.seqs.(left)))
        then right
        else left
      in
      if
        t.times.(smallest) < time
        || (t.times.(smallest) = time && t.seqs.(smallest) < seq)
      then begin
        t.times.(!hole) <- t.times.(smallest);
        t.seqs.(!hole) <- t.seqs.(smallest);
        t.payloads.(!hole) <- t.payloads.(smallest);
        hole := smallest
      end
      else continue := false
    end
  done;
  t.times.(!hole) <- time;
  t.seqs.(!hole) <- seq;
  t.payloads.(!hole) <- payload

(* The float-taking front: stores the event in the first free slot and
   leaves the float-free sift to place it. *)
let[@inline] add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: time is NaN";
  if t.size = Array.length t.times then grow t payload;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let peek t = if t.size = 0 then None else Some (t.times.(0), t.payloads.(0))

(* [due], [top_time] and [take] are what a drain loop is built on: ask
   whether the earliest event is due, read its time, then remove it and
   return its payload.  [due] and [take] allocate nothing; [top_time]
   returns a float, which a caller in another module receives boxed, so
   a loop asks [due] first and reads the time only when it needs it. *)
let due t ~until = t.size > 0 && t.times.(0) <= until

let top_time t =
  if t.size = 0 then invalid_arg "Event_queue.top_time: empty queue";
  t.times.(0)

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let payload = t.payloads.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.size;
  payload

let pop_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue";
  let time = t.times.(0) in
  (time, take t)

let pop t = if t.size = 0 then None else Some (pop_exn t)

let clear t =
  t.size <- 0;
  t.times <- [||];
  t.seqs <- [||];
  t.payloads <- [||]

let to_sorted_list t =
  (* Non-destructive: copies the heap and drains the copy. *)
  if t.size = 0 then []
  else begin
    let copy =
      {
        times = Array.copy t.times;
        seqs = Array.copy t.seqs;
        payloads = Array.copy t.payloads;
        size = t.size;
        next_seq = t.next_seq;
      }
    in
    let rec drain acc =
      match pop copy with
      | None -> List.rev acc
      | Some (time, payload) -> drain ((time, payload) :: acc)
    in
    drain []
  end
