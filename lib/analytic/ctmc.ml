(* Generic continuous-time Markov chains with on-the-fly state discovery.

   [explore] is the one walk: it asks each reachable state for its
   outgoing (rate, successor) pairs once and keeps the chain as arrays.
   Every analysis is a query on them.  [solve], the one Gauss–Seidel
   solver, gives the stationary distribution and the mean first-passage
   time (the stationary restart rate of the regenerative chain); [flow]
   sums the probability flow into a target set; [survival] is one
   uniformization pass for every horizon. *)

type 'state t = {
  states : 'state array;        (* index -> state, discovery order *)
  index : ('state, int) Hashtbl.t;
  exit : float array;           (* each state's total rate out *)
  out_start : int array;        (* i's edges: out_start.(i) to out_start.(i + 1) - 1, *)
  out_dst : int array;          (*   in the order the transition function lists them *)
  out_rate : float array;
  in_start : int array;         (* j's edges, by source index *)
  in_src : int array;
  in_rate : float array;
  stationary : float array Lazy.t;
}

(* Sets position [n] of a growable array, doubling it when full. *)
let append a n x =
  if n = Array.length !a then begin
    let b = Array.make (max 16 (2 * n)) x in
    Array.blit !a 0 b 0 n;
    a := b
  end;
  !a.(n) <- x

(* The [m] edges grouped by [key] (a stable counting sort): group k is
   positions start.(k) to start.(k + 1) - 1 of [other] and [rate]. *)
let group ~n ~m key other rate =
  let start = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    start.(key.(e) + 1) <- start.(key.(e) + 1) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let fill = Array.sub start 0 n in
  let other' = Array.make m 0 and rate' = Array.make m 0.0 in
  for e = 0 to m - 1 do
    let k = key.(e) in
    other'.(fill.(k)) <- other.(e);
    rate'.(fill.(k)) <- rate.(e);
    fill.(k) <- fill.(k) + 1
  done;
  (start, other', rate')

let n_states t = Array.length t.states

(* The states reachable from [seeds] along the edges grouped by [start]
   and leading to [ends], entering only states that [enter] accepts. *)
let search ~start ~ends ~enter seeds =
  let seen = Array.make (Array.length start - 1) false in
  let rec go i =
    for e = start.(i) to start.(i + 1) - 1 do
      let j = ends.(e) in
      if (not seen.(j)) && enter j then begin
        seen.(j) <- true;
        go j
      end
    done
  in
  List.iter (fun i -> seen.(i) <- true) seeds;
  List.iter go seeds;
  seen

(* The one solver, over the states [inside] marks (the initial state
   among them).  Every edge leaving them is redirected to the initial
   state, and the balance equations

       pi_j q_j = sum_i pi_i q_ij        (q_j: j's exit rate)

   are swept in index order with pi_0 pinned at 1, each sweep
   recomputing every other probability from its inflow.  Every term is
   positive, so each probability is accurate relative to itself however
   small it is.  Sweeps stop when none moves by more than 1e-13 of
   itself; the result is normalized, and zero outside [inside].  [None]
   when some state inside cannot get back to the initial state. *)
let solve t ~inside =
  let n = n_states t in
  (* A state gets back if it steps to the initial state, to a state
     outside [inside] or to one that gets back: a walk back along the
     in-edges. *)
  let seeds = List.filter (fun j -> j = 0 || not inside.(j)) (List.init n Fun.id) in
  let returns = search ~start:t.in_start ~ends:t.in_src ~enter:(fun i -> inside.(i)) seeds in
  if Array.exists2 (fun inside returns -> inside && not returns) inside returns then None
  else begin
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    let sweep () =
      let moved = ref false in
      for j = 1 to n - 1 do
        if inside.(j) then begin
          let inflow = ref 0.0 in
          for e = t.in_start.(j) to t.in_start.(j + 1) - 1 do
            inflow := !inflow +. (pi.(t.in_src.(e)) *. t.in_rate.(e))
          done;
          let p = !inflow /. t.exit.(j) in
          if Float.abs (p -. pi.(j)) > 1e-13 *. p then moved := true;
          pi.(j) <- p
        end
      done;
      !moved
    in
    while sweep () do
      ()
    done;
    let total = Array.fold_left ( +. ) 0.0 pi in
    Some (Array.map (fun p -> p /. total) pi)
  end

(* Breadth-first walk from [initial] (index 0).  Zero-rate edges and
   self-loops are dropped.  Memory grows with states plus edges, and a
   sweep or a jump costs one pass over the edges: the 200,000-state
   default bounds a runaway model, not a solve. *)
let explore ?(max_states = 200_000) ~initial ~transitions () =
  let index = Hashtbl.create 64 in
  let states = ref [] and n = ref 0 in
  let queue = Queue.create () in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
        let i = !n in
        if i >= max_states then failwith "Ctmc.explore: state space too large";
        Hashtbl.add index s i;
        states := s :: !states;
        incr n;
        Queue.push (s, i) queue;
        i
  in
  ignore (intern initial);
  let src = ref [||] and dst = ref [||] and rates = ref [||] and m = ref 0 in
  while not (Queue.is_empty queue) do
    let s, i = Queue.pop queue in
    List.iter
      (fun (rate, successor) ->
        if not (rate >= 0.0 && rate < Float.infinity) then
          invalid_arg "Ctmc.explore: rates must be finite and non-negative";
        if rate > 0.0 then begin
          let j = intern successor in
          if j <> i then begin
            append src !m i;
            append dst !m j;
            append rates !m rate;
            incr m
          end
        end)
      (transitions s)
  done;
  let n = !n and m = !m in
  let out_start, out_dst, out_rate = group ~n ~m !src !dst !rates in
  let in_start, in_src, in_rate = group ~n ~m !dst !src !rates in
  let exit = Array.make n 0.0 in
  for e = 0 to m - 1 do
    exit.(!src.(e)) <- exit.(!src.(e)) +. !rates.(e)
  done;
  let states = Array.of_list (List.rev !states) in
  let rec t =
    { states; index; exit; out_start; out_dst; out_rate; in_start; in_src; in_rate;
      stationary =
        lazy
          (match solve t ~inside:(Array.make n true) with
          | Some pi -> pi
          | None -> failwith "Ctmc: reducible chain") }
  in
  t

let stationary t = Lazy.force t.stationary

let probability t state =
  let pi = stationary t in
  match Hashtbl.find_opt t.index state with Some i -> pi.(i) | None -> 0.0

(* Stationary probability of the states satisfying a predicate. *)
let mass t predicate =
  let pi = stationary t in
  let acc = ref 0.0 in
  Array.iteri (fun i s -> if predicate s then acc := !acc +. pi.(i)) t.states;
  !acc

(* Probability flow under [pi] along the edges into the target states
   from the others. *)
let flow t pi is_target =
  let total = ref 0.0 in
  Array.iteri
    (fun i p ->
      if not is_target.(i) then
        for e = t.out_start.(i) to t.out_start.(i + 1) - 1 do
          if is_target.(t.out_dst.(e)) then total := !total +. (p *. t.out_rate.(e))
        done)
    pi;
  !total

let flux t ~target = flow t (stationary t) (Array.map target t.states)

(* The states reachable from the initial one without entering the
   target. *)
let transient t is_target =
  search ~start:t.out_start ~ends:t.out_dst ~enter:(fun j -> not is_target.(j)) [ 0 ]

(* Mean first-passage time by renewal: in the regenerative chain that
   [solve] sees over the transient states, every entry into the target
   restarts at the initial state, one restart per passage, so the
   restarts' stationary rate is 1 / (mean passage time).  Infinite when
   some transient state never reaches the target. *)
let expected_hitting_time t ~target =
  let is_target = Array.map target t.states in
  if is_target.(0) then 0.0
  else
    match solve t ~inside:(transient t is_target) with
    | None -> infinity
    | Some pi -> 1.0 /. flow t pi is_target

(* Survival by uniformization.  With the target states absorbing and
   lambda at least every transient state's exit rate, the chain jumps at
   Poisson rate lambda, each jump following P = I + Q / lambda, so

       R(t) = sum_k  Poisson(lambda t, k) * s_k

   where s_k is the mass still transient after k jumps.  s_k does not
   depend on t: one pass of jumps, run as far as the longest horizon
   needs, serves every horizon.  Each horizon's Poisson weights are
   computed outward from the mode, relative to the mode's, and
   normalized by their sum, so none underflows however long the horizon;
   the jump counts whose weight falls below 1e-15 of the mode's carry
   far less than 1e-12 of the mass and are left out. *)
let survival t ~target ~times =
  let is_target = Array.map target t.states in
  let n = n_states t in
  let inside = transient t is_target in
  let lambda =
    Array.fold_left Float.max 1e-9 (Array.mapi (fun i q -> if inside.(i) then q else 0.0) t.exit)
  in
  (* The pass: [v] holds the transient mass after [!jumps] jumps and
     [next] is the vector the next jump fills; [s.(k)] is the total after
     k jumps. *)
  let v = ref (Array.make n 0.0) and next = ref (Array.make n 0.0) in
  !v.(0) <- 1.0;
  let s = ref [| 1.0 |] and jumps = ref 0 in
  let mass_after k =
    while !jumps < k do
      let src = !v and dst = !next in
      Array.fill dst 0 n 0.0;
      for i = 0 to n - 1 do
        if src.(i) > 0.0 then begin
          (* Each edge is taken with probability rate / lambda, and the
             mass taking none stays put. *)
          let p = src.(i) /. lambda in
          dst.(i) <- dst.(i) +. (src.(i) -. (p *. t.exit.(i)));
          (* Mass flowing into the target set leaves the vector. *)
          for e = t.out_start.(i) to t.out_start.(i + 1) - 1 do
            let j = t.out_dst.(e) in
            if inside.(j) then dst.(j) <- dst.(j) +. (p *. t.out_rate.(e))
          done
        end
      done;
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. dst.(i)
      done;
      v := dst;
      next := src;
      incr jumps;
      append s !jumps !total
    done;
    !s.(k)
  in
  let cutoff = 1e-15 in
  List.map
    (fun time ->
      if not (time >= 0.0 && time < Float.infinity) then
        invalid_arg "Ctmc.survival: times must be finite and non-negative";
      if is_target.(0) then 0.0
      else begin
        let a = lambda *. time in
        let mode = int_of_float a in
        let weights = ref 1.0 and sum = ref (mass_after mode) in
        let add k weight =
          weights := !weights +. weight;
          sum := !sum +. (weight *. mass_after k)
        in
        let weight = ref 1.0 and k = ref mode in
        while !k > 0 && !weight > cutoff do
          weight := !weight *. float_of_int !k /. a;
          decr k;
          add !k !weight
        done;
        weight := 1.0;
        k := mode;
        while !weight > cutoff do
          incr k;
          weight := !weight *. a /. float_of_int !k;
          add !k !weight
        done;
        Float.min 1.0 (Float.max 0.0 (!sum /. !weights))
      end)
    times
