(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section.

   Usage: dune exec bench/main.exe -- [all|table1|table2|table3|figures|
                                       cost|ablation|campaign]
                                      [--quick]

   Engine throughput and the timing of individual layers are measured by
   the named-workload benchmark in benchsuite/, not here.

   Experiment index (see DESIGN.md):
     T1  table1    MATE-search statistics per core and fault set
     T2  table2    AVR MATE performance (complete set + top-N + transfer)
     T3  table3    MSP430 MATE performance
     F1a/F1b       the example circuit's cone/MATEs and pruning matrix
     D1  cost      FPGA LUT cost of MATE sets (Section 6.1)
     A1  ablation  heuristic-parameter sweep (depth / terms / seeding)
     C1  campaign  sampled HAFI campaign with and without pruning *)

module Netlist = Pruning_netlist.Netlist
module System = Pruning_cpu.System
module Fault_space = Pruning_fi.Fault_space
module Campaign = Pruning_fi.Campaign
module Intercycle = Pruning_fi.Intercycle
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Experiments = Pruning_report.Experiments
module Figure1 = Pruning_report.Figure1
module Table = Pruning_util.Table
module Prng = Pruning_util.Prng
module Mono = Pruning_util.Mono

let quick = Array.exists (( = ) "--quick") Sys.argv

let mode =
  let named =
    Array.to_list Sys.argv |> List.tl |> List.filter (( <> ) "--quick")
  in
  match named with
  | [] -> "all"
  | m :: _ -> m

let cycles = if quick then 1500 else 8500
let params =
  if quick then
    { Search.default_params with Search.max_candidates = 400; max_situations = 6 }
  else Search.default_params

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* prepare is expensive; memoize per core. *)
let prepared_avr = ref None
let prepared_msp = ref None

let get_prepared which =
  let cache, setup_fn, label =
    match which with
    | `Avr -> (prepared_avr, Experiments.avr_setup, "AVR")
    | `Msp -> (prepared_msp, Experiments.msp_setup, "MSP430")
  in
  match !cache with
  | Some p -> p
  | None ->
    Printf.printf "[preparing %s: synthesis, %d-cycle traces, MATE search...]\n%!" label cycles;
    let t0 = Mono.now () in
    let p = Experiments.prepare ~params ~cycles (setup_fn ()) in
    Printf.printf "[%s prepared in %.1fs]\n%!" label (Mono.now () -. t0);
    cache := Some p;
    p

let run_table1 () =
  section "Table 1: Statistic for the heuristic MATE search";
  let avr = get_prepared `Avr and msp = get_prepared `Msp in
  Table.print (Experiments.table1 [ avr; msp ])

let run_table2 () =
  section "Table 2: AVR MATE performance";
  Table.print (Experiments.table23 (get_prepared `Avr))

let run_table3 () =
  section "Table 3: MSP430 MATE performance";
  Table.print (Experiments.table23 (get_prepared `Msp))

let run_figures () =
  section "Figure 1a: fault cone and MATEs of the example circuit";
  print_string (Figure1.render_figure1a ());
  section "Figure 1b: fault-space pruning over 8 cycles";
  print_string (Figure1.render_figure1b ())

let run_cost () =
  section "Section 6.1: MATE hardware cost (FPGA LUTs)";
  let avr = get_prepared `Avr in
  Table.print ~title:"AVR MATE sets" (Experiments.mate_cost_table avr);
  let msp = get_prepared `Msp in
  Table.print ~title:"MSP430 MATE sets" (Experiments.mate_cost_table msp)

(* The AVR core netlist and a maker of fresh AVR/fib systems over it. *)
let avr_fib () =
  let core, program = Option.get (System.find ~core:"avr" ~program:"fib") in
  let nl = core.System.build () in
  (nl, fun () -> program.System.make nl)

(* Ablation: how the heuristic knobs trade fault-space reduction against
   search effort, on the AVR non-RF fault set. *)
let run_ablation () =
  section "Ablation: heuristic parameters (AVR, FF w/o RF, fib trace)";
  let nl, make = avr_fib () in
  let sys = make () in
  let trace = System.record sys ~cycles in
  let flops = Netlist.flops_excluding nl ~prefix:"rf_" in
  let space = Fault_space.without_prefix nl ~prefix:"rf_" ~cycles in
  let t = Table.create [ "depth"; "max terms"; "seeded"; "MATEs"; "masked"; "time [s]" ] in
  let variants =
    [
      (2, 4, false); (2, 4, true); (8, 4, true); (8, 8, false); (8, 8, true);
    ]
  in
  List.iter
    (fun (depth, max_terms, seeded) ->
      let p = { params with Search.depth; max_terms } in
      let traces = if seeded then Some [ trace ] else None in
      let report = Search.search_flops ~params:p ?traces nl flops in
      let set = Mateset.of_report report in
      let triggers = Replay.triggers set trace in
      Table.add_row t
        [
          string_of_int depth;
          string_of_int max_terms;
          (if seeded then "yes" else "no");
          string_of_int (Mateset.size set);
          Printf.sprintf "%.2f%%" (Replay.reduction_percent set triggers ~space ());
          Printf.sprintf "%.1f" (Search.wire_time_s report);
        ])
    variants;
  Table.print t

let run_campaign () =
  section "HAFI campaign: experiments avoided by online pruning (AVR/fib)";
  let horizon = if quick then 200 else 400 in
  let samples = if quick then 120 else 300 in
  let nl, make = avr_fib () in
  let space = Fault_space.full nl ~cycles:horizon in
  let campaign = Campaign.create ~make ~total_cycles:horizon () in
  let plain = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples () in
  let trace = Campaign.golden_trace campaign in
  let report = Search.search_flops ~params ~traces:[ trace ] nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let pruner = Replay.pruner set (Replay.triggers set trace) ~space () in
  let pruned =
    Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples
      ~skip:(Replay.pruned pruner) ()
  in
  (* A flop outside the fault space cannot be pruned — but it is a
     stale-fault-list symptom worth surfacing, not a silent "inject". *)
  if Replay.unknown_count pruner > 0 then
    Printf.printf
      "warning: %d prune lookups named flops outside the fault space (injected, not pruned)\n"
      (Replay.unknown_count pruner);
  let t = Table.create [ "campaign"; "injections"; "skipped"; "benign"; "latent"; "SDC" ] in
  let row label (s : Campaign.stats) =
    Table.add_row t
      [
        label; string_of_int s.Campaign.injections; string_of_int s.Campaign.skipped;
        string_of_int s.Campaign.benign; string_of_int s.Campaign.latent;
        string_of_int s.Campaign.sdc;
      ]
  in
  row "plain" plain;
  row "MATE-pruned" pruned;
  Table.print t;
  Printf.printf "experiments avoided: %d of %d (executed verdicts stay sound)\n"
    pruned.Campaign.skipped plain.Campaign.injections;
  (* Complementary inter-cycle equivalence on a register-file slice. *)
  let rf_slice = Array.of_list (Netlist.flops_matching nl ~prefix:"rf_1") in
  let sys = make () in
  let classes = Intercycle.compute sys.System.sim ~flops:rf_slice ~cycles:horizon in
  Printf.printf
    "inter-cycle equivalence (rf_1x slice): %d faults -> %d classes (%.1fx fewer experiments)\n"
    (Intercycle.n_faults classes) classes.Intercycle.n_classes
    (Intercycle.reduction_factor classes)

let () =
  Printf.printf "pruning benchmark harness (mode: %s%s)\n" mode (if quick then ", quick" else "");
  (match mode with
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "table3" -> run_table3 ()
  | "figures" | "figure1a" | "figure1b" -> run_figures ()
  | "cost" -> run_cost ()
  | "ablation" -> run_ablation ()
  | "campaign" -> run_campaign ()
  | "all" ->
    run_figures ();
    run_table1 ();
    run_table2 ();
    run_table3 ();
    run_cost ();
    run_ablation ();
    run_campaign ()
  | other ->
    Printf.eprintf "unknown mode %s\n" other;
    exit 1);
  print_newline ()
