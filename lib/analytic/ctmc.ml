(* Generic continuous-time Markov chains with on-the-fly state discovery.

   The caller supplies an initial state and a transition function giving
   the outgoing (rate, successor) pairs of any state.  One breadth-first
   exploration enumerates the reachable state space for all three
   analyses, and one Gauss–Seidel solver over its edges serves two of
   them: the stationary distribution, and the mean first-passage time as
   the stationary restart rate of the regenerative chain.  The survival
   function is uniformization over the same edges. *)

(* The walk and the solver keep the states, their index and the edge
   lists: memory grows with states plus edges, and a sweep costs one pass
   over the edges.  200,000 states bounds a runaway model, not a solve. *)
let max_states_default = 200_000

(* Destination index of an edge into the target set: target states are
   neither interned nor expanded. *)
let target_set = -1

type 'state space = {
  states : 'state array;               (* index -> state, discovery order *)
  index : ('state, int) Hashtbl.t;
  edges : (int * int * float) list;    (* i -> j at rate, i <> j, newest first *)
}

(* Breadth-first exploration from [initial] (index 0), which must not be
   a target.  Zero-rate edges and self-loops are dropped.  [who] names the
   entry point in the error messages. *)
let explore ~who ~max_states ~target ~initial ~transitions =
  let index = Hashtbl.create 64 in
  let states = ref [] in
  let n = ref 0 in
  let queue = Queue.create () in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None when target s -> target_set
    | None ->
        let i = !n in
        if i >= max_states then failwith (who ^ ": state space too large");
        Hashtbl.add index s i;
        states := s :: !states;
        incr n;
        Queue.push (s, i) queue;
        i
  in
  ignore (intern initial);
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let s, i = Queue.pop queue in
    List.iter
      (fun (rate, successor) ->
        if rate < 0.0 then invalid_arg (who ^ ": negative rate");
        if rate > 0.0 then begin
          let j = intern successor in
          if j <> i then edges := (i, j, rate) :: !edges
        end)
      (transitions s)
  done;
  { states = Array.of_list (List.rev !states); index; edges = !edges }

(* The one solver.  Every edge into the target set is redirected to the
   initial state, and the balance equations

       pi_j q_j = sum_i pi_i q_ij        (q_j: j's exit rate)

   are swept in discovery order with pi_0 pinned at 1, each sweep
   recomputing every other probability from its inflow.  Every term is
   positive, so each probability is accurate relative to itself however
   small it is.  Sweeps stop when none moves by more than 1e-13 of
   itself; the result is normalized.  [None] when some state cannot get
   back to the initial state: the chain is reducible. *)
let stationary space =
  let n = Array.length space.states in
  let exit = Array.make n 0.0 and into = Array.make n [] in
  List.iter
    (fun (i, j, rate) ->
      let j = if j = target_set then 0 else j in
      if i <> j then begin
        exit.(i) <- exit.(i) +. rate;
        into.(j) <- (i, rate) :: into.(j)
      end)
    space.edges;
  (* Which states get back to the initial one: a walk back along the
     in-edges. *)
  let returns = Array.make n false in
  let rec back = function
    | [] -> ()
    | j :: pending ->
        back
          (List.fold_left
             (fun pending (i, _) ->
               if returns.(i) then pending
               else begin
                 returns.(i) <- true;
                 i :: pending
               end)
             pending into.(j))
  in
  returns.(0) <- true;
  back [ 0 ];
  if not (Array.for_all Fun.id returns) then None
  else begin
    let pi = Array.make n 0.0 in
    pi.(0) <- 1.0;
    let sweep () =
      let moved = ref false in
      for j = 1 to n - 1 do
        let inflow = ref 0.0 in
        List.iter (fun (i, rate) -> inflow := !inflow +. (pi.(i) *. rate)) into.(j);
        let p = !inflow /. exit.(j) in
        if Float.abs (p -. pi.(j)) > 1e-13 *. p then moved := true;
        pi.(j) <- p
      done;
      !moved
    in
    while sweep () do
      ()
    done;
    let total = Array.fold_left ( +. ) 0.0 pi in
    Some (Array.map (fun p -> p /. total) pi)
  end

type 'state t = {
  states : 'state array;          (* index -> state *)
  index : ('state, int) Hashtbl.t;
  stationary : float array;
}

let build ?(max_states = max_states_default) ~initial ~transitions () =
  let space =
    explore ~who:"Ctmc.build" ~max_states ~target:(fun _ -> false) ~initial ~transitions
  in
  match stationary space with
  | Some stationary -> { states = space.states; index = space.index; stationary }
  | None -> failwith "Ctmc.build: reducible chain"

let n_states t = Array.length t.states

let probability t state =
  match Hashtbl.find_opt t.index state with
  | Some i -> t.stationary.(i)
  | None -> 0.0

(* Stationary probability of the states satisfying a predicate. *)
let mass t predicate =
  let acc = ref 0.0 in
  Array.iteri (fun i s -> if predicate s then acc := !acc +. t.stationary.(i)) t.states;
  !acc

let iter t f = Array.iteri (fun i s -> f s t.stationary.(i)) t.states

(* Survival function by uniformization: the probability that the chain,
   started at [initial], has not yet entered the target set at time [t].
   Target states are made absorbing; with uniformization constant L >= max
   exit rate, the survival probability is

       sum_k  Poisson(L t, k) * (mass still transient after k jumps)

   truncated when the Poisson tail falls below 1e-12. *)
let survival ?(max_states = max_states_default) ~initial ~transitions ~target ~t () =
  let tolerance = 1e-12 in
  if t < 0.0 then invalid_arg "Ctmc.survival: negative time";
  if target initial then 0.0
  else if t = 0.0 then 1.0
  else begin
    let space = explore ~who:"Ctmc.survival" ~max_states ~target ~initial ~transitions in
    let size = Array.length space.states in
    (* Exit rate of each transient state, summed in discovery order. *)
    let exit_rate = Array.make size 0.0 in
    List.iter
      (fun (i, _, rate) -> exit_rate.(i) <- exit_rate.(i) +. rate)
      (List.rev space.edges);
    let lambda = Array.fold_left Float.max 1e-9 exit_rate in
    (* One uniformized jump: v' = v P restricted to transient states. *)
    let step v =
      let v' = Array.make size 0.0 in
      (* Stay put with probability 1 - total_rate/lambda. *)
      Array.iteri
        (fun i p ->
          if p > 0.0 then v'.(i) <- v'.(i) +. (p *. (1.0 -. (exit_rate.(i) /. lambda))))
        v;
      (* Mass flowing into the target set simply disappears from v'. *)
      List.iter
        (fun (i, j, rate) ->
          if v.(i) > 0.0 && j <> target_set then v'.(j) <- v'.(j) +. (v.(i) *. rate /. lambda))
        space.edges;
      v'
    in
    let v = ref (Array.make size 0.0) in
    !v.(0) <- 1.0;
    (* Propagate the transient sub-distribution over a time span using the
       Poisson-weighted jump expansion.  Spans are chunked so that
       lambda * span stays moderate and exp(-lambda * span) never
       underflows. *)
    let propagate v span =
      let lt = lambda *. span in
      let out = Array.make size 0.0 in
      let current = ref (Array.copy v) in
      let weight = ref (exp (-.lt)) in
      let cumulative = ref 0.0 in
      let k = ref 0 in
      let continue = ref true in
      while !continue do
        Array.iteri (fun i p -> out.(i) <- out.(i) +. (!weight *. p)) !current;
        cumulative := !cumulative +. !weight;
        if 1.0 -. !cumulative <= tolerance then continue := false
        else begin
          current := step !current;
          incr k;
          weight := !weight *. lt /. float_of_int !k;
          if !k > 10_000_000 then continue := false
        end
      done;
      out
    in
    let chunks = max 1 (int_of_float (ceil (lambda *. t /. 30.0))) in
    let span = t /. float_of_int chunks in
    for _ = 1 to chunks do
      if Array.fold_left ( +. ) 0.0 !v > tolerance then v := propagate !v span
    done;
    let survival_mass = Array.fold_left ( +. ) 0.0 !v in
    Float.min 1.0 (Float.max 0.0 survival_mass)
  end

(* Mean first-passage time by renewal: in the regenerative chain that
   [stationary] solves, every entry into the target set restarts at the
   initial state, one restart per passage, so the restarts' stationary
   rate is 1 / (mean passage time).  Infinite when some reachable state
   never reaches the target. *)
let expected_hitting_time ?(max_states = max_states_default) ~initial ~transitions ~target
    () =
  if target initial then 0.0
  else begin
    let space =
      explore ~who:"Ctmc.expected_hitting_time" ~max_states ~target ~initial ~transitions
    in
    match stationary space with
    | None -> infinity
    | Some pi ->
        1.0
        /. List.fold_left
             (fun flow (i, j, rate) -> if j = target_set then flow +. (pi.(i) *. rate) else flow)
             0.0 space.edges
  end
