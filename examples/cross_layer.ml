(* Cross-layer fault injection (Section 6.3 of the paper).

   MATEs prune faults that die within one clock cycle — highly effective
   for microarchitectural state (instruction register, status flags, stage
   buffers) but nearly powerless for the general-purpose register file,
   where a fault typically lives until the register is overwritten. The
   paper therefore envisions combining HAFI at flip-flop level (with MATE
   pruning) for the microarchitecture with software-based fault injection
   at ISA level for the registers.

   This example quantifies both layers on the AVR running fib:
     1. flip-flop level: MATE coverage split by register-file vs. other
        flip-flops (reproducing the paper's observation);
     2. ISA level: a register-file campaign on the architectural reference
        model, where every register bit at every instruction boundary is
        reachable.

   Run with: dune exec examples/cross_layer.exe *)

module Netlist = Pruning_netlist.Netlist
module Fault_space = Pruning_fi.Fault_space
module Isa_fi = Pruning_fi.Isa_fi
module Intercycle = Pruning_fi.Intercycle
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Prng = Pruning_util.Prng
open Pruning_cpu

let () =
  let cycles = 2500 in
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib in

  print_endline "=== layer 1: flip-flop level (HAFI + MATEs) ===";
  let trace = System.record (System.create_avr ~netlist:nl ~program "fib") ~cycles in
  let params = { Search.default_params with Search.max_candidates = 1000; max_situations = 10 } in
  let report = Search.search_flops ~params ~traces:[ trace ] nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let triggers = Replay.triggers set trace in
  let show label space =
    Printf.printf "  %-28s %6d faults, MATEs prune %5.2f%%\n" label (Fault_space.size space)
      (Replay.reduction_percent set triggers ~space ())
  in
  show "all flip-flops:" (Fault_space.full nl ~cycles);
  show "register file only:"
    (Fault_space.of_flops nl (Array.of_list (Netlist.flops_matching nl ~prefix:"rf_")) ~cycles);
  show "microarchitecture (w/o RF):" (Fault_space.without_prefix nl ~prefix:"rf_" ~cycles);
  print_endline
    "  -> intra-cycle masking concentrates outside the register file,\n\
    \     exactly the paper's Section 6.3 observation.";

  print_endline "\n=== layer 1b: inter-cycle equivalence (register file) ===";
  (* Register-file faults live long: consecutive cycles with no read and
     no write collapse into one equivalence class. *)
  let rf_sample = Array.of_list (Netlist.flops_matching nl ~prefix:"rf_1") in
  let horizon = 500 in
  let sys = System.create_avr ~netlist:nl ~program "fib-ic" in
  let classes = Intercycle.compute sys.System.sim ~flops:rf_sample ~cycles:horizon in
  Printf.printf
    "  %d register-file flops x %d cycles = %d faults collapse into %d classes (%.1fx)\n"
    (Array.length rf_sample) horizon (Intercycle.n_faults classes)
    classes.Intercycle.n_classes (Intercycle.reduction_factor classes);
  print_endline
    "  -> the long-lived register faults MATEs cannot touch are exactly\n\
    \     the ones inter-cycle equivalence collapses (paper, Section 7).";

  print_endline "\n=== layer 2: ISA level (software FI on the reference model) ===";
  let halting = Avr_asm.assemble Programs.avr_fib_halting in
  let max_steps = 400 in
  let rng = Prng.create 99 in
  let stats = Isa_fi.avr_campaign ~program:halting ~max_steps ~rng ~n:500 () in
  Printf.printf
    "  %d sampled register-bit flips at instruction boundaries:\n\
    \  %d benign (%.1f%%), %d latent, %d SDC\n"
    stats.Isa_fi.injections stats.Isa_fi.benign
    (100. *. float_of_int stats.Isa_fi.benign /. float_of_int stats.Isa_fi.injections)
    stats.Isa_fi.latent stats.Isa_fi.sdc;
  print_endline
    "  -> register faults are architecturally visible state: the ISA layer\n\
    \     classifies them with full controllability, completing the\n\
    \     cross-layer campaign the paper proposes."
