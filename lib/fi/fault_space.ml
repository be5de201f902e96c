module Netlist = Pruning_netlist.Netlist

type t = {
  netlist : Netlist.t;
  flops : Netlist.flop array;
  cycles : int;
  index : int array;
  model : Fault_model.t;
  mutable set_table : int array array;
  cone_lock : Mutex.t;
}

let check_cycles cycles = if cycles <= 0 then invalid_arg "Fault_space: cycles must be positive"

(* Dense flop_id -> space-index table, so lookups are O(1) instead of a
   linear scan per fault (campaign skip predicates call this per sample). *)
let make_index (netlist : Netlist.t) flops =
  let max_id =
    Array.fold_left (fun acc (f : Netlist.flop) -> max acc f.Netlist.flop_id) (-1) netlist.Netlist.flops
  in
  let table = Array.make (max_id + 1) (-1) in
  Array.iteri (fun i (f : Netlist.flop) -> table.(f.Netlist.flop_id) <- i) flops;
  table

let check_model model flops =
  Fault_model.validate model;
  match model with
  | Fault_model.Mbu k when k > Array.length flops ->
    invalid_arg
      (Printf.sprintf "Fault_space: MBU cluster size %d exceeds the %d flops in the space" k
         (Array.length flops))
  | _ -> ()

let make ~model netlist flops ~cycles =
  check_cycles cycles;
  check_model model flops;
  {
    netlist;
    flops;
    cycles;
    index = make_index netlist flops;
    model;
    set_table = [||];
    cone_lock = Mutex.create ();
  }

let full ?(model = Fault_model.Seu) netlist ~cycles =
  make ~model netlist (Array.copy netlist.Netlist.flops) ~cycles

let without_prefix ?(model = Fault_model.Seu) netlist ~prefix ~cycles =
  make ~model netlist (Array.of_list (Netlist.flops_excluding netlist ~prefix)) ~cycles

let of_flops netlist flops ~cycles = make ~model:Fault_model.Seu netlist (Array.copy flops) ~cycles

(* How many distinct keys the model enumerates: what the sampler draws
   its first coordinate from. *)
let n_keys t =
  match t.model with
  | Fault_model.Seu | Fault_model.Intermittent _ -> Array.length t.flops
  | Fault_model.Set -> Array.length t.netlist.Netlist.gates
  | Fault_model.Mbu k -> Array.length t.flops - k + 1

let size t = n_keys t * t.cycles

let flop_index t flop_id =
  if flop_id < 0 || flop_id >= Array.length t.index then None
  else
    match t.index.(flop_id) with
    | -1 -> None
    | i -> Some i

(* The i-th key, for [i] uniform in [0, n_keys): for the flop-keyed
   models the key is the netlist flop_id (so SEU sampling is
   bit-identical to the historical draw); for SET it is the gate index
   and for MBU the cluster's start position in the space flop order. *)
let draw_key t i =
  match t.model with
  | Fault_model.Seu | Fault_model.Intermittent _ -> t.flops.(i).Netlist.flop_id
  | Fault_model.Set | Fault_model.Mbu _ -> i

(* Merge two ascending, duplicate-free arrays into one. A union as long
   as one side is that side, and is shared. *)
let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na then begin
      Array.blit b j out k (nb - j);
      k + nb - j
    end
    else if j = nb then begin
      Array.blit a i out k (na - i);
      k + na - i
    end
    else begin
      let x = a.(i) and y = b.(j) in
      out.(k) <- min x y;
      go (if x <= y then i + 1 else i) (if y <= x then j + 1 else j) (k + 1)
    end
  in
  let k = go 0 0 0 in
  if k = na then a else if k = nb then b else if k = na + nb then out else Array.sub out 0 k

(* SET expansion: the flop ids whose D pin lies in the gate output's
   fault cone — the multi-flop SEU set that would latch the corrupted
   value, per the RTL representation of gate-level SETs. One reverse
   topological pass builds every gate's set: the flops reading its
   output wire, merged with the sets of the gates reading it (which the
   pass has already built). A gate whose set equals one reader's shares
   that reader's array. Built once per space on first use, under
   [cone_lock]: one fault space may be consulted from several domains
   or threads. *)
let set_members t gate_idx =
  Mutex.lock t.cone_lock;
  if Array.length t.set_table = 0 then begin
    let nl = t.netlist in
    let table = Array.make (Array.length nl.Netlist.gates) [||] in
    for k = Array.length nl.Netlist.topo - 1 downto 0 do
      let g = nl.Netlist.topo.(k) in
      let out = nl.Netlist.gates.(g).Netlist.output in
      let own = Array.copy nl.Netlist.flop_readers.(out) in
      Array.sort compare own;
      table.(g) <- Array.fold_left (fun acc r -> union acc table.(r)) own nl.Netlist.readers.(out)
    done;
    t.set_table <- table
  end;
  let members = t.set_table.(gate_idx) in
  Mutex.unlock t.cone_lock;
  members

let check_key t key =
  if key < 0 || key >= n_keys t then
    invalid_arg (Printf.sprintf "Fault_space: key %d outside [0, %d)" key (n_keys t))

(* The physical corruption a key denotes: the netlist flop ids flipped
   at the injection cycle. An empty SET expansion (cone with no flop
   sink) is a pulse nothing latches — trivially benign under the
   multi-SEU representation; engines short-circuit it. *)
let expand t key =
  match t.model with
  | Fault_model.Seu | Fault_model.Intermittent _ -> [| key |]
  | Fault_model.Set ->
    check_key t key;
    set_members t key
  | Fault_model.Mbu k ->
    check_key t key;
    Array.init k (fun j -> t.flops.(key + j).Netlist.flop_id)

(* Cycles the fault is re-armed for: 1 for the single-cycle models, N
   for intermittent stuck-at-N. *)
let hold t =
  match t.model with
  | Fault_model.Intermittent n -> n
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* MATE-soundness lifting. A MATE masking term proves exactly one
   thing: a single-flop flip at one cycle, everything else golden, dies
   within that cycle. Lifting a per-(flop, cycle) predicate to a model
   key must therefore prune only fault instances that are provably
   equivalent to covered SEUs:

   - seu: the instance IS the SEU — pass through.
   - intermittent:N: sound iff the flip is masked at {e every} cycle of
     the hold window (clipped to the horizon). Induction: masking at
     cycle c with rest-of-state golden leaves the next state fully
     golden; re-arming restores "golden except the held flop", which is
     the hypothesis for cycle c+1. After the window nothing is forced,
     so the state is golden and the fault is benign.
   - set: sound only when the expansion is a singleton {f} — then the
     instance is exactly the SEU on f. Multi-flop expansions are never
     pruned: one-cycle masking terms do not compose across simultaneous
     flips (each term assumes the {e rest} of the state is golden).
   - mbu:1 is an SEU; mbu:K>=2 is never pruned, same argument as set.

   An empty SET expansion is trivially benign but is still injected
   (cheaply — engines short-circuit): no MATE claims it, so pruning it
   would invent a claim the audit could never check. *)

let lift_pruned t ~pruned =
  match t.model with
  | Fault_model.Seu -> fun ~flop_id ~cycle -> pruned ~flop_id ~cycle
  | Fault_model.Intermittent n ->
    fun ~flop_id ~cycle ->
      let window_end = min t.cycles (cycle + n) in
      let rec all c = c >= window_end || (pruned ~flop_id ~cycle:c && all (c + 1)) in
      all cycle
  | Fault_model.Set -> (
    fun ~flop_id ~cycle ->
      match expand t flop_id with
      | [| f |] -> pruned ~flop_id:f ~cycle
      | _ -> false)
  | Fault_model.Mbu 1 -> fun ~flop_id ~cycle -> pruned ~flop_id:t.flops.(flop_id).Netlist.flop_id ~cycle
  | Fault_model.Mbu _ -> fun ~flop_id:_ ~cycle:_ -> false

(* The matching violation-attribution lift: the MATEs whose claims the
   lifted prune rested on, i.e. the union of the per-member,
   per-forced-cycle masking sets. Only meaningful where {!lift_pruned}
   can return true. *)
let lift_masking t ~masking =
  match t.model with
  | Fault_model.Seu -> fun ~flop_id ~cycle -> masking ~flop_id ~cycle
  | Fault_model.Intermittent n ->
    fun ~flop_id ~cycle ->
      let window_end = min t.cycles (cycle + n) in
      let acc = ref [] in
      for c = cycle to window_end - 1 do
        acc := List.rev_append (masking ~flop_id ~cycle:c) !acc
      done;
      List.sort_uniq compare !acc
  | Fault_model.Set -> (
    fun ~flop_id ~cycle ->
      match expand t flop_id with
      | [| f |] -> masking ~flop_id:f ~cycle
      | _ -> [])
  | Fault_model.Mbu 1 ->
    fun ~flop_id ~cycle -> masking ~flop_id:t.flops.(flop_id).Netlist.flop_id ~cycle
  | Fault_model.Mbu _ -> fun ~flop_id:_ ~cycle:_ -> []
