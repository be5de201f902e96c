(* The pruner's per-flop cycle bitsets against brute force: every
   (flop, cycle) lookup must equal the OR of [Replay.triggered] over the
   enabled mates that mask the flop, before and after a quarantine, and
   the greedy selection credits must equal the per-cycle walk of the
   paper's procedure. *)

open Helpers
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Select = Pruning_mate.Select
module Fault_space = Pruning_fi.Fault_space

(* The enabled mates that mask [flop_id] in [cycle], ascending. *)
let brute_masking (set : Mateset.t) trig ~enabled ~flop_id ~cycle =
  if cycle < 0 || cycle >= Replay.n_cycles trig then []
  else
    List.filter
      (fun i ->
        enabled i
        && List.mem flop_id set.Mateset.mates.(i).Mateset.flop_ids
        && Replay.triggered trig ~mate:i ~cycle)
      (List.init (Mateset.size set) Fun.id)

(* Every lookup of the space's flops, over the space, the trace and two
   cycles past both, plus the masked-fault count. *)
let check_against_brute label (set : Mateset.t) trig (space : Fault_space.t) p ~enabled =
  let horizon = max space.Fault_space.cycles (Replay.n_cycles trig) + 2 in
  let covered = min space.Fault_space.cycles (Replay.n_cycles trig) in
  let count = ref 0 in
  let ok = ref true in
  Array.iter
    (fun (flop : Netlist.flop) ->
      let flop_id = flop.Netlist.flop_id in
      for cycle = -1 to horizon do
        let expected = brute_masking set trig ~enabled ~flop_id ~cycle in
        if Replay.masking p ~flop_id ~cycle <> expected then ok := false;
        if Replay.pruned p ~flop_id ~cycle <> (expected <> []) then ok := false;
        if expected <> [] && cycle < covered then incr count
      done)
    space.Fault_space.flops;
  check_bool (label ^ ": every lookup equals brute force") true !ok;
  check_int (label ^ ": masked count") !count (Replay.pruner_masked_count p)

(* The per-cycle greedy credit, as selection computed it before the
   bitsets: walk the trace, and in every cycle credit each triggered
   mate, in rank order, with the flops no earlier mate masked then. *)
let reference_rank (set : Mateset.t) trig ~(space : Fault_space.t) =
  let n_mates = Mateset.size set in
  let cycles = min space.Fault_space.cycles (Replay.n_cycles trig) in
  let mate_flops =
    Array.map
      (fun (m : Mateset.mate) ->
        List.filter_map (Fault_space.flop_index space) m.Mateset.flop_ids)
      set.Mateset.mates
  in
  let raw =
    Array.init n_mates (fun i ->
        let hits = ref 0 in
        for cycle = 0 to cycles - 1 do
          if Replay.triggered trig ~mate:i ~cycle then incr hits
        done;
        !hits * List.length mate_flops.(i))
  in
  let cost i = Term.n_inputs set.Mateset.mates.(i).Mateset.term in
  let order = Array.init n_mates Fun.id in
  Array.sort
    (fun a b ->
      match compare raw.(b) raw.(a) with
      | 0 -> compare (cost a) (cost b)
      | c -> c)
    order;
  let credited = Array.make n_mates 0 in
  let cycle_mask = Array.make (Array.length space.Fault_space.flops) (-1) in
  for cycle = 0 to cycles - 1 do
    Array.iter
      (fun i ->
        if Replay.triggered trig ~mate:i ~cycle then
          List.iter
            (fun f ->
              if cycle_mask.(f) <> cycle then begin
                cycle_mask.(f) <- cycle;
                credited.(i) <- credited.(i) + 1
              end)
            mate_flops.(i))
      order
  done;
  Array.to_list order
  |> List.map (fun i -> (i, credited.(i)))
  |> List.sort (fun (a, ca) (b, cb) ->
         match compare cb ca with
         | 0 -> compare (cost a) (cost b)
         | c -> c)

(* Brute force before and after quarantining [victim] (if any), and the
   ranking against its reference. *)
let check_pruner label set trace space ~victim =
  let trig = Replay.triggers set trace in
  let p = Replay.pruner set trig ~space () in
  check_against_brute label set trig space p ~enabled:(fun _ -> true);
  check_bool (label ^ ": rank = per-cycle greedy") true
    (Select.rank set trig ~space = reference_rank set trig ~space);
  Option.iter
    (fun m ->
      Replay.quarantine p m;
      check_against_brute (label ^ " after quarantine") set trig space p ~enabled:(( <> ) m))
    victim

let figure1_set =
  lazy
    (let nl = figure1_seq_netlist () in
     (nl, Mateset.of_report (Search.search_flops nl (Array.to_list nl.Netlist.flops))))

let prop_figure1_random =
  QCheck2.Test.make ~name:"replay: pruner = brute force on fig1-seq, random stimuli" ~count:60
    QCheck2.Gen.(quad int (int_range 1 140) (int_range 1 150) nat)
    (fun (seed, length, space_cycles, pick) ->
      let nl, set = Lazy.force figure1_set in
      let sim = Sim.create nl in
      let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
      let rng = Prng.create seed in
      for _ = 1 to length do
        List.iter
          (fun name -> Sim.set_port sim (name ^ "_in") (Prng.int rng 2))
          [ "a"; "b"; "c"; "d"; "e" ];
        Sim.step sim ~trace ()
      done;
      let space = Fault_space.full nl ~cycles:space_cycles in
      check_pruner "fig1-seq" set trace space ~victim:(Some (pick mod Mateset.size set));
      true)

(* AVR fib over FF w/o RF, the search-par suite's seeded search at a
   two-word horizon: quarantine the mate masking the most faults. *)
let test_avr_fib () =
  let _, trace = Lazy.force Test_search_parallel.avr_setup in
  let set = Mateset.of_report (Lazy.force Test_search_parallel.avr_report) in
  let space = Test_search_parallel.avr_space () in
  let p = Replay.pruner set (Replay.triggers set trace) ~space () in
  let best = ref 0 in
  for i = 1 to Mateset.size set - 1 do
    if Replay.masked_alone p i > Replay.masked_alone p !best then best := i
  done;
  check_bool "the quarantined mate masks something" true (Replay.masked_alone p !best > 0);
  check_pruner "avr fib" set trace space ~victim:(Some !best)

let test_unknown_flop_counted () =
  let nl, set = Lazy.force figure1_set in
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  for _ = 1 to 4 do
    Sim.step sim ~trace ()
  done;
  let space = Fault_space.without_prefix nl ~prefix:"a" ~cycles:4 in
  let p = Replay.pruner set (Replay.triggers set trace) ~space () in
  let a = (Netlist.find_flop nl "a").Netlist.flop_id in
  check_bool "outside the space: not pruned" false (Replay.pruned p ~flop_id:a ~cycle:0);
  check_bool "outside the space: no masking mates" true (Replay.masking p ~flop_id:a ~cycle:1 = []);
  check_bool "negative id: not pruned" false (Replay.pruned p ~flop_id:(-1) ~cycle:0);
  check_int "every unknown lookup counted" 3 (Replay.unknown_count p)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_figure1_random;
    Alcotest.test_case "pruner = brute force on AVR fib" `Quick test_avr_fib;
    Alcotest.test_case "unknown flops counted" `Quick test_unknown_flop_counted;
  ]
