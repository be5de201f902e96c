(* End-to-end MATE flow on the AVR core running the Fibonacci program:

   1. assemble fib and simulate it on the gate-level core (recording the
      wire-level trace the paper obtains from netlist simulation);
   2. run the heuristic MATE search over all flip-flops;
   3. replay the trace, select the top-50 MATEs and report the fault-space
      reduction for both fault sets ("FF" and "FF w/o RF");
   4. validate a sample of pruned faults against the one-cycle masking
      oracle (every pruned fault must be provably benign).

   Run with: dune exec examples/avr_fib.exe  (add --quick for a short run) *)

module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Oracle = Pruning_fi.Oracle
module Fault_space = Pruning_fi.Fault_space
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Select = Pruning_mate.Select
module Prng = Pruning_util.Prng
open Pruning_cpu

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let cycles = if quick then 1500 else 8500 in
  let params =
    if quick then { Search.default_params with Search.max_candidates = 500; max_situations = 6 }
    else Search.default_params
  in
  let nl = System.avr_netlist () in
  Printf.printf "AVR core: %d gates, %d flip-flops\n%!" (Netlist.n_gates nl) (Netlist.n_flops nl);

  (* 1. trace *)
  let program = Avr_asm.assemble Programs.avr_fib in
  let sys = System.create_avr ~netlist:nl ~program "avr/fib" in
  let trace = System.record sys ~cycles in
  Printf.printf "recorded %d cycles of fib()\n%!" cycles;

  (* 2. search *)
  let report = Search.search_flops ~params ~traces:[ trace ] nl (Array.to_list nl.Netlist.flops) in
  Printf.printf "MATE search: %.1fs, %d unmaskable wires, %d MATEs found\n%!"
    report.Search.runtime_s (Search.n_unmaskable report) (Search.total_mates report);
  let set = Mateset.of_report report in

  (* 3. replay, select, report *)
  let triggers = Replay.triggers set trace in
  let space_ff = Fault_space.full nl ~cycles in
  let space_norf = Fault_space.without_prefix nl ~prefix:"rf_" ~cycles in
  let show label space =
    let full = Replay.reduction_percent set triggers ~space () in
    let ranking = Select.rank set triggers ~space in
    let top50 = Select.top ranking ~n:50 in
    let top = Replay.reduction_percent set triggers ~space ~subset:top50 () in
    Printf.printf "%-12s complete set prunes %5.2f%%, top-50 MATEs prune %5.2f%%\n" label full top
  in
  show "FF:" space_ff;
  show "FF w/o RF:" space_norf;
  (let ranking = Select.rank set triggers ~space:space_ff in
   match Select.top ranking ~n:3 with
   | [] -> ()
   | best ->
     print_endline "highest-impact MATEs:";
     List.iter
       (fun i ->
         let m = set.Mateset.mates.(i) in
         Printf.printf "  %s  (masks %d flops)\n"
           (Term.to_string nl m.Mateset.term)
           (List.length m.Mateset.flop_ids))
       best);

  (* 4. oracle validation on a sample *)
  let pruner = Replay.pruner set triggers ~space:space_ff () in
  let pruned = ref [] in
  for cycle = 0 to cycles - 1 do
    Array.iteri
      (fun fi (flop : Netlist.flop) ->
        if Replay.pruned pruner ~flop_id:flop.Netlist.flop_id ~cycle then
          pruned := (cycle, fi) :: !pruned)
      space_ff.Fault_space.flops
  done;
  let rng = Prng.create 1 in
  let sample =
    Prng.shuffle rng !pruned
    |> List.filteri (fun i _ -> i < 50)
    |> List.sort compare (* ascending cycles: one progressive simulation *)
  in
  let sys2 = System.create_avr ~netlist:nl ~program "avr/fib-oracle" in
  let at_cycle = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun (cycle, fi) ->
      System.run sys2 ~cycles:(cycle - !at_cycle);
      at_cycle := cycle;
      Sim.eval sys2.System.sim;
      incr checked;
      let flop = space_ff.Fault_space.flops.(fi) in
      if not (Oracle.one_cycle_benign sys2.System.sim ~flop_id:flop.Netlist.flop_id) then begin
        Printf.printf "SOUNDNESS VIOLATION at (%s, %d)!\n" flop.Netlist.flop_name cycle;
        exit 1
      end)
    sample;
  Printf.printf "oracle cross-check: %d sampled pruned faults, all provably benign\n" !checked
