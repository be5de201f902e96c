module Trace = Pruning_sim.Trace
module Fault_space = Pruning_fi.Fault_space
module Netlist = Pruning_netlist.Netlist

type triggers = {
  t_cycles : int;
  words : int array array;
      (** per mate, column-packed bitset over cycles: bit [c mod word_size]
          of word [c / word_size] *)
}

(* Evaluating a term over the whole trace is a handful of word-wide
   AND/ANDN operations on column-packed wire histories: one word op
   covers [Trace.bits_per_word] cycles, and columns are shared between
   mates that mention the same wire. *)
let triggers (set : Mateset.t) trace =
  let cycles = Trace.n_cycles trace in
  let n_words = Trace.n_words trace in
  let columns = Hashtbl.create 64 in
  let column wire =
    match Hashtbl.find_opt columns wire with
    | Some c -> c
    | None ->
      let c = Trace.column trace ~wire in
      Hashtbl.add columns wire c;
      c
  in
  (* All-ones out to [cycles], zero beyond: conjunction identity that
     also masks the undefined tail bits of the last word. *)
  let tail = cycles - (n_words - 1) * Trace.bits_per_word in
  let full_word w = if w = n_words - 1 && tail < Trace.bits_per_word then (1 lsl tail) - 1 else -1 in
  let words =
    Array.map
      (fun (m : Mateset.mate) ->
        let acc = Array.init n_words full_word in
        List.iter
          (fun (l : Term.literal) ->
            let col = column l.Term.wire in
            if l.Term.value then
              for w = 0 to n_words - 1 do
                acc.(w) <- acc.(w) land col.(w)
              done
            else
              for w = 0 to n_words - 1 do
                acc.(w) <- acc.(w) land lnot col.(w)
              done)
          (Term.literals m.Mateset.term);
        acc)
      set.Mateset.mates
  in
  { t_cycles = cycles; words }

let n_cycles t = t.t_cycles
let n_words t = (t.t_cycles + Trace.bits_per_word - 1) / Trace.bits_per_word

(* Bit [cycle] of a packed bitset (callers keep [cycle] in range). *)
let bit words cycle =
  (words.(cycle / Trace.bits_per_word) lsr (cycle mod Trace.bits_per_word)) land 1 <> 0

let triggered t ~mate ~cycle = bit t.words.(mate) cycle

let popcount n =
  let c = ref 0 in
  let n = ref n in
  while !n <> 0 do
    n := !n land (!n - 1);
    incr c
  done;
  !c

let trigger_count t i = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words.(i)

let effective_indices t =
  let out = ref [] in
  for i = Array.length t.words - 1 downto 0 do
    if trigger_count t i > 0 then out := i :: !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* The pruner: the one representation a MATE set replays into. Each
   fault-space flop carries a packed cycle bitset, laid out like the
   trigger words: the OR of the trigger words of every enabled mate that
   masks the flop. A lookup is an index plus a bit test, a masked-fault
   count is a popcount, and quarantining a mate rebuilds only its own
   flops' bitsets. A lookup for a flop outside the fault space is an
   explicit, counted error path instead of a silent "not pruned". *)

type pruner = {
  p_set : Mateset.t;
  p_trig : triggers;
  p_space : Fault_space.t;
  p_covered : int;  (* cycles a count covers: min space.cycles trace cycles *)
  p_by_flop : int array array;  (* space flop index -> mates masking it, ascending *)
  p_enabled : bool array;
  p_bits : int array array;  (* space flop index -> its pruned cycles *)
  p_quarantined : int list ref;  (* newest first *)
  p_unknown : int ref;
  p_warned : bool ref;
  p_lock : Mutex.t;
}

(* The space flop index of a netlist flop id, [-1] outside the space. *)
let space_index (space : Fault_space.t) flop_id =
  if flop_id < 0 || flop_id >= Array.length space.Fault_space.index then -1
  else space.Fault_space.index.(flop_id)

(* [f] on the space flop index of every flop mate [m] masks in the space. *)
let iter_space_flops (set : Mateset.t) space m f =
  List.iter
    (fun fid ->
      let fi = space_index space fid in
      if fi >= 0 then f fi)
    set.Mateset.mates.(m).Mateset.flop_ids

(* The bits of word [w] below cycle [n]. *)
let below n w =
  let lo = w * Trace.bits_per_word in
  if n >= lo + Trace.bits_per_word then -1 else if n <= lo then 0 else (1 lsl (n - lo)) - 1

(* The OR of the enabled masking mates' trigger words. *)
let flop_bits t ~enabled mates =
  let bits = Array.make (n_words t) 0 in
  Array.iter
    (fun m ->
      if enabled.(m) then begin
        let trig = t.words.(m) in
        for w = 0 to Array.length bits - 1 do
          bits.(w) <- bits.(w) lor trig.(w)
        done
      end)
    mates;
  bits

let pruner (set : Mateset.t) t ~space ?subset () =
  let n_mates = Array.length set.Mateset.mates in
  let enabled = Array.make n_mates (subset = None) in
  Option.iter (List.iter (fun i -> enabled.(i) <- true)) subset;
  let by_flop = Array.make (Array.length space.Fault_space.flops) [] in
  for m = n_mates - 1 downto 0 do
    iter_space_flops set space m (fun fi -> by_flop.(fi) <- m :: by_flop.(fi))
  done;
  let by_flop = Array.map Array.of_list by_flop in
  {
    p_set = set;
    p_trig = t;
    p_space = space;
    p_covered = min space.Fault_space.cycles t.t_cycles;
    p_by_flop = by_flop;
    p_enabled = enabled;
    p_bits = Array.map (flop_bits t ~enabled) by_flop;
    p_quarantined = ref [];
    p_unknown = ref 0;
    p_warned = ref false;
    p_lock = Mutex.create ();
  }

let unknown_flop p flop_id =
  Mutex.lock p.p_lock;
  incr p.p_unknown;
  let first = not !(p.p_warned) in
  p.p_warned := true;
  Mutex.unlock p.p_lock;
  if first then
    Printf.eprintf
      "[mate] warning: prune lookup for flop %d, which is outside the fault space — the fault \
       will be injected, not silently treated as pruned (further occurrences are counted, not \
       logged)\n\
       %!"
      flop_id

(* The space index of a looked-up flop, or [-1] (counted) outside it. *)
let lookup p flop_id =
  let fi = space_index p.p_space flop_id in
  if fi < 0 then unknown_flop p flop_id;
  fi

let pruned_at p fi cycle = cycle >= 0 && cycle < p.p_trig.t_cycles && bit p.p_bits.(fi) cycle

let pruned p ~flop_id ~cycle =
  let fi = lookup p flop_id in
  fi >= 0 && pruned_at p fi cycle

let masking p ~flop_id ~cycle =
  let fi = lookup p flop_id in
  if fi < 0 || not (pruned_at p fi cycle) then []
  else
    Array.fold_right
      (fun m acc -> if p.p_enabled.(m) && triggered p.p_trig ~mate:m ~cycle then m :: acc else acc)
      p.p_by_flop.(fi) []

let quarantine p m =
  if m < 0 || m >= Array.length p.p_enabled then invalid_arg "Replay.quarantine: no such mate";
  Mutex.lock p.p_lock;
  if p.p_enabled.(m) then begin
    p.p_enabled.(m) <- false;
    p.p_quarantined := m :: !(p.p_quarantined);
    (* Swap in fresh bitsets: a concurrent lookup sees the old or the
       new one, never a half-built one. *)
    iter_space_flops p.p_set p.p_space m (fun fi ->
        p.p_bits.(fi) <- flop_bits p.p_trig ~enabled:p.p_enabled p.p_by_flop.(fi))
  end;
  Mutex.unlock p.p_lock

let quarantined p = List.rev !(p.p_quarantined)
let unknown_count p = !(p.p_unknown)

(* Set bits of [words] below the covered cycle count. *)
let covered_count p words =
  let c = ref 0 in
  Array.iteri (fun w x -> c := !c + popcount (x land below p.p_covered w)) words;
  !c

let pruner_masked_count p = Array.fold_left (fun acc bits -> acc + covered_count p bits) 0 p.p_bits

let reduction_percent set t ~space ?subset () =
  Pruning_util.Stats.percentage
    (pruner_masked_count (pruner set t ~space ?subset ()))
    (Fault_space.size space)

let describe_mate p m =
  Mateset.describe p.p_space.Fault_space.netlist p.p_set m

let masked_alone p m =
  let flops = ref 0 in
  iter_space_flops p.p_set p.p_space m (fun _ -> incr flops);
  covered_count p p.p_trig.words.(m) * !flops

let credits p order =
  let covered = Array.map (fun bits -> Array.make (Array.length bits) 0) p.p_bits in
  List.map
    (fun m ->
      let credit = ref 0 in
      iter_space_flops p.p_set p.p_space m (fun fi ->
          let cov = covered.(fi) in
          Array.iteri
            (fun w x ->
              credit := !credit + popcount (x land lnot cov.(w) land below p.p_covered w);
              cov.(w) <- cov.(w) lor x)
            p.p_trig.words.(m));
      !credit)
    order
