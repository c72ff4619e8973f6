(* Generic continuous-time Markov chains with on-the-fly state discovery.

   The caller supplies an initial state and a transition function giving
   the outgoing (rate, successor) pairs of any state.  One breadth-first
   exploration enumerates the reachable state space for all three
   analyses: the stationary distribution (one balance equation replaced
   by the normalization constraint), the survival function
   (uniformization) and the mean first-passage time. *)

(* The solvers are dense: a chain of n states costs an n x n float
   matrix (8 n^2 bytes) and O(n^3) elimination.  4096 states is a
   128 MB matrix, about as large as a solve can allocate and finish. *)
let max_states_default = 4096

type 'state space = {
  states : 'state array;               (* index -> state, discovery order *)
  index : ('state, int) Hashtbl.t;
  edges : (int * int * float) list;    (* i -> j at rate, i <> j, newest first *)
}

(* Breadth-first exploration from [initial].  States satisfying [stop]
   are interned but never expanded (absorbing targets); zero-rate edges
   and self-loops are dropped.  [who] names the entry point in the
   error messages. *)
let explore ~who ~max_states ~stop ~initial ~transitions =
  let index = Hashtbl.create 64 in
  let states = ref [] in
  let n = ref 0 in
  let queue = Queue.create () in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
        let i = !n in
        if i >= max_states then failwith (who ^ ": state space too large");
        Hashtbl.add index s i;
        states := s :: !states;
        incr n;
        if not (stop s) then Queue.push (s, i) queue;
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

type 'state t = {
  states : 'state array;          (* index -> state *)
  index : ('state, int) Hashtbl.t;
  stationary : float array;
}

let build ?(max_states = max_states_default) ~initial ~transitions () =
  let space =
    explore ~who:"Ctmc.build" ~max_states ~stop:(fun _ -> false) ~initial ~transitions
  in
  let size = Array.length space.states in
  (* Stationary distribution: pi Q = 0 with sum(pi) = 1.  Assemble Q^T and
     overwrite the last row with ones. *)
  let a = Matrix.create ~rows:size ~cols:size in
  List.iter
    (fun (i, j, rate) ->
      Matrix.add_to a j i rate;
      Matrix.add_to a i i (-.rate))
    space.edges;
  for j = 0 to size - 1 do
    Matrix.set a (size - 1) j 1.0
  done;
  let b = Array.make size 0.0 in
  b.(size - 1) <- 1.0;
  let stationary = Matrix.solve a b in
  (* Numerical noise can leave tiny negatives; clamp and renormalize. *)
  let total = ref 0.0 in
  Array.iteri
    (fun i p ->
      let p = if p < 0.0 then 0.0 else p in
      stationary.(i) <- p;
      total := !total +. p)
    stationary;
  Array.iteri (fun i p -> stationary.(i) <- p /. !total) stationary;
  { states = space.states; index = space.index; stationary }

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

   truncated when the Poisson tail is negligible.  Numerically robust and
   exact up to the stated tolerance. *)
let survival ?(max_states = max_states_default) ?(tolerance = 1e-12) ~initial ~transitions
    ~target ~t () =
  if t < 0.0 then invalid_arg "Ctmc.survival: negative time";
  if target initial then 0.0
  else if t = 0.0 then 1.0
  else begin
    let space =
      explore ~who:"Ctmc.survival" ~max_states ~stop:target ~initial ~transitions
    in
    let size = Array.length space.states in
    let transient = Array.map (fun s -> not (target s)) space.states in
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
          if v.(i) > 0.0 && transient.(j) then v'.(j) <- v'.(j) +. (v.(i) *. rate /. lambda))
        space.edges;
      v'
    in
    let v = ref (Array.make size 0.0) in
    !v.(Hashtbl.find space.index initial) <- 1.0;
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

(* Expected time to first reach the target set: the generator restricted
   to non-target states, solved for Q h = -1 (h = 0 on targets) — the
   standard first-passage-time system. *)
let expected_hitting_time ?(max_states = max_states_default) ~initial ~transitions ~target
    () =
  if target initial then 0.0
  else begin
    let space =
      explore ~who:"Ctmc.expected_hitting_time" ~max_states ~stop:target ~initial
        ~transitions
    in
    (* Unknowns: h(s) for non-target s.  Equation per non-target s:
       sum_j q_sj (h(j) - h(s)) = -1, with h(target) = 0. *)
    let unknown = Array.make (Array.length space.states) (-1) in
    let n_unknowns = ref 0 in
    Array.iteri
      (fun i s ->
        if not (target s) then begin
          unknown.(i) <- !n_unknowns;
          incr n_unknowns
        end)
      space.states;
    let m = Matrix.create ~rows:!n_unknowns ~cols:!n_unknowns in
    let b = Array.make !n_unknowns (-1.0) in
    (* Targets are never expanded, so every edge leaves an unknown. *)
    List.iter
      (fun (i, j, rate) ->
        let row = unknown.(i) in
        Matrix.add_to m row row (-.rate);
        if unknown.(j) >= 0 then Matrix.add_to m row unknown.(j) rate)
      space.edges;
    (* States with no outgoing edges would make the system singular — they
       can never reach the target, so the hitting time is infinite. *)
    let h = Matrix.solve m b in
    h.(unknown.(Hashtbl.find space.index initial))
  end
