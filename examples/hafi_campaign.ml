(* HAFI campaign with online fault-space pruning (Section 1.1/6.1 of the
   paper): run a sampled end-to-end fault-injection campaign on the AVR
   core twice — once plain, once with MATE pruning deciding per cycle
   which faults need no experiment — and compare experiment counts and
   verdicts.

   Every fault a MATE prunes is counted benign without running; the
   verdict distribution of the pruned campaign must therefore match the
   plain campaign (pruning is sound), with fewer injections executed.

   Run with: dune exec examples/hafi_campaign.exe *)

module Netlist = Pruning_netlist.Netlist
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Prng = Pruning_util.Prng
open Pruning_cpu

let () =
  let cycles = 400 in
  let samples = 400 in
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib in
  let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
  let space = Fault_space.full nl ~cycles in
  Printf.printf "fault space: %d flops x %d cycles = %d faults; sampling %d\n%!"
    (Array.length space.Fault_space.flops) cycles (Fault_space.size space) samples;

  let campaign = Campaign.create ~make ~total_cycles:cycles () in

  (* Plain campaign. *)
  let t0 = Unix.gettimeofday () in
  let plain = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples () in
  let plain_time = Unix.gettimeofday () -. t0 in
  Printf.printf "plain:  %d injections in %5.1fs -> %d benign, %d latent, %d SDC\n%!"
    plain.Campaign.injections plain_time plain.Campaign.benign plain.Campaign.latent
    plain.Campaign.sdc;

  (* MATE-pruned campaign: search, replay the campaign's golden trace,
     skip pruned. *)
  let params = { Search.default_params with Search.max_candidates = 1000; max_situations = 8 } in
  let trace = Campaign.golden_trace campaign in
  let report = Search.search_flops ~params ~traces:[ trace ] nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let pruner = Replay.pruner set (Replay.triggers set trace) ~space () in
  let masked = Replay.pruner_masked_count pruner in
  Printf.printf "MATEs prune %d of %d faults up front (%.1f%%)\n%!" masked (Fault_space.size space)
    (Pruning_util.Stats.percentage masked (Fault_space.size space));
  let t1 = Unix.gettimeofday () in
  let pruned =
    Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples
      ~skip:(Replay.pruned pruner) ()
  in
  (* A flop outside the fault space cannot be pruned — but it is a
     stale-fault-list symptom worth surfacing, not a silent "inject". *)
  if Replay.unknown_count pruner > 0 then
    Printf.printf
      "warning: %d prune lookups named flops outside the fault space (injected, not pruned)\n%!"
      (Replay.unknown_count pruner);
  let pruned_time = Unix.gettimeofday () -. t1 in
  Printf.printf "pruned: %d injections (%d skipped) in %5.1fs -> %d benign, %d latent, %d SDC\n"
    pruned.Campaign.injections pruned.Campaign.skipped pruned_time pruned.Campaign.benign
    pruned.Campaign.latent pruned.Campaign.sdc;

  (* Soundness check: identical sampling seed, so the verdict split must
     be identical — pruning may only convert executed-benign faults into
     skipped ones. *)
  assert (pruned.Campaign.latent = plain.Campaign.latent);
  assert (pruned.Campaign.sdc = plain.Campaign.sdc);
  assert (pruned.Campaign.benign + pruned.Campaign.skipped = plain.Campaign.benign);
  Printf.printf
    "verdicts identical; %d experiments avoided (%.1f%% of the campaign), %.1fx speedup\n"
    pruned.Campaign.skipped
    (100.
    *. float_of_int pruned.Campaign.skipped
    /. float_of_int (max 1 plain.Campaign.injections))
    (plain_time /. pruned_time)
