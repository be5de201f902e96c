(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the core
   primitives.

   Usage: dune exec bench/main.exe -- [all|table1|table2|table3|figures|
                                       cost|ablation|campaign|perf|micro]
                                      [--quick] [--smoke]

   Experiment index (see DESIGN.md):
     T1  table1    MATE-search statistics per core and fault set
     T2  table2    AVR MATE performance (complete set + top-N + transfer)
     T3  table3    MSP430 MATE performance
     F1a/F1b       the example circuit's cone/MATEs and pruning matrix
     D1  cost      FPGA LUT cost of MATE sets (Section 6.1)
     A1  ablation  heuristic-parameter sweep (depth / terms / seeding)
     C1  campaign  sampled HAFI campaign with and without pruning *)

module Netlist = Pruning_netlist.Netlist
module Cone = Pruning_netlist.Cone
module Cell = Pruning_cell.Cell
module Gm = Pruning_cell.Gm
module Sim = Pruning_sim.Sim
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs
module Fault_space = Pruning_fi.Fault_space
module Fault_model = Pruning_fi.Fault_model
module Campaign = Pruning_fi.Campaign
module Intercycle = Pruning_fi.Intercycle
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module Fi_journal = Pruning_fi.Journal
module Chaos = Pruning_fi.Chaos
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Experiments = Pruning_report.Experiments
module Figure1 = Pruning_report.Figure1
module Table = Pruning_util.Table
module Prng = Pruning_util.Prng
module Mono = Pruning_util.Mono

let quick = Array.exists (( = ) "--quick") Sys.argv
let smoke = Array.exists (( = ) "--smoke") Sys.argv

let mode =
  let named =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--quick" && a <> "--smoke")
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

(* Ablation: how the heuristic knobs trade fault-space reduction against
   search effort, on the AVR non-RF fault set. *)
let run_ablation () =
  section "Ablation: heuristic parameters (AVR, FF w/o RF, fib trace)";
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib in
  let sys = System.create_avr ~netlist:nl ~program "avr/fib" in
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
          Printf.sprintf "%.1f" report.Search.runtime_s;
        ])
    variants;
  Table.print t

let run_campaign () =
  section "HAFI campaign: experiments avoided by online pruning (AVR/fib)";
  let horizon = if quick then 200 else 400 in
  let samples = if quick then 120 else 300 in
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib in
  let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
  let space = Fault_space.full nl ~cycles:horizon in
  let campaign = Campaign.create ~make ~total_cycles:horizon () in
  let plain = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples () in
  let trace = System.record (make ()) ~cycles:horizon in
  let report = Search.search_flops ~params ~traces:[ trace ] nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let triggers = Replay.triggers set trace in
  let matrix = Replay.masked set triggers ~space () in
  (* A flop outside the fault space cannot be pruned — but it is a
     stale-fault-list symptom worth surfacing, not a silent "inject". *)
  let unknown_flops = ref 0 in
  let skip ~flop_id ~cycle =
    match Fault_space.flop_index space flop_id with
    | Some fi -> matrix.(cycle).(fi)
    | None ->
      incr unknown_flops;
      false
  in
  let pruned = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:samples ~skip () in
  if !unknown_flops > 0 then
    Printf.printf
      "warning: %d prune lookups named flops outside the fault space (injected, not pruned)\n"
      !unknown_flops;
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

(* Campaign-engine throughput: from-scratch re-simulation (checkpointing
   effectively disabled with an interval beyond the horizon) vs the
   checkpointed engine, single-domain and multi-domain, vs the two
   delta engines. The headline number: injections/second.

   Every engine's run is split into a setup phase (campaign creation —
   the golden run with its checkpoints — plus, where it can be forced
   up front, golden-trace recording and worker construction) and the
   injection phase proper; both halves land in BENCH_campaign.json,
   together with per-engine GC allocation (minor/major words) measured
   around the injection phase. *)
let run_perf () =
  section "Campaign engine performance (AVR/fib, full fault space)";
  let horizon = if smoke then 300 else if quick then 800 else 2000 in
  let samples = if smoke then 40 else if quick then 200 else 2000 in
  let base_samples = max 10 (samples / 20) in
  let jobs = 4 in
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib in
  let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
  let make_delta ~trace = System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib" in
  let make_delta_batch ~trace =
    System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib"
  in
  let space = Fault_space.full nl ~cycles:horizon in
  Printf.printf "fault space: %d flops x %d cycles; %d samples (baseline %d)\n%!"
    (Array.length space.Fault_space.flops) horizon samples base_samples;
  let time f =
    let t0 = Mono.now () in
    let r = f () in
    (r, Mono.now () -. t0)
  in
  (* One engine measurement: [setup] builds the campaign (and forces
     whatever golden recording / worker construction the engine allows
     up front), [inject] classifies the sample; GC allocation deltas are
     read around the injection phase only. *)
  let measure ~setup ~inject =
    let campaign, setup_t = time setup in
    let g0 = Gc.quick_stat () in
    let stats, inject_t = time (fun () -> inject campaign) in
    let g1 = Gc.quick_stat () in
    ( stats,
      setup_t,
      inject_t,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_words -. g0.Gc.major_words )
  in
  let rng () = Prng.create 11 in
  let bstats, bsu, bt, bmin, bmaj =
    measure
      ~setup:(fun () ->
        Campaign.create ~checkpoint_interval:(horizon + 1) ~make ~total_cycles:horizon ())
      ~inject:(fun c -> Campaign.run_sample c ~space ~rng:(rng ()) ~n:base_samples ())
  in
  let interval = ref 0 in
  let cstats, csu, ct, cmin, cmaj =
    measure
      ~setup:(fun () ->
        let c = Campaign.create ~make ~total_cycles:horizon () in
        interval := Campaign.checkpoint_interval c;
        c)
      ~inject:(fun c -> Campaign.run_sample c ~space ~rng:(rng ()) ~n:samples ())
  in
  (* A cold campaign per engine so no verdict memo is pre-warmed by an
     earlier row. *)
  let pstats, psu, pt, pmin, pmaj =
    measure
      ~setup:(fun () -> Campaign.create ~make ~total_cycles:horizon ())
      ~inject:(fun c -> Campaign.run_sample c ~space ~rng:(rng ()) ~n:samples ~jobs ())
  in
  (* Activity-gated delta engine: the golden-trace recording is forced
     into the setup phase; the (cheap) delta worker build remains in the
     first injection. *)
  let dstats, dsu, dt, dmin, dmaj =
    measure
      ~setup:(fun () ->
        let c = Campaign.create ~make ~make_delta ~total_cycles:horizon () in
        ignore (Campaign.golden_trace c);
        c)
      ~inject:(fun c -> Campaign.run_sample_delta c ~space ~rng:(rng ()) ~n:samples ())
  in
  (* Batched delta engine: golden recording and worker construction both
     forced into the setup phase (an empty pack builds the worker). *)
  let dbstats, dbsu, dbt, dbmin, dbmaj =
    measure
      ~setup:(fun () ->
        let c = Campaign.create ~make ~make_delta_batch ~total_cycles:horizon () in
        ignore (Campaign.golden_trace c);
        ignore (Campaign.inject_delta_batch c ~faults:[||] ());
        c)
      ~inject:(fun c -> Campaign.run_sample_delta_batched c ~space ~rng:(rng ()) ~n:samples ())
  in
  let rate (s : Campaign.stats) elapsed = float_of_int s.Campaign.injections /. max 1e-9 elapsed in
  let t =
    Table.create
      [ "engine"; "injections"; "setup [s]"; "inject [s]"; "inj/s"; "speedup"; "minor Mw"; "major Mw" ]
  in
  let base_rate = rate bstats bt in
  let json_rows = ref [] in
  let row ?(key = "") label stats setup_t inject_t minor major =
    if key <> "" then json_rows := (key, stats, setup_t, inject_t, minor, major) :: !json_rows;
    Table.add_row t
      [
        label;
        string_of_int stats.Campaign.injections;
        Printf.sprintf "%.2f" setup_t;
        Printf.sprintf "%.2f" inject_t;
        Printf.sprintf "%.1f" (rate stats inject_t);
        Printf.sprintf "%.1fx" (rate stats inject_t /. base_rate);
        Printf.sprintf "%.1f" (minor /. 1e6);
        Printf.sprintf "%.1f" (major /. 1e6);
      ]
  in
  row ~key:"from-scratch" "from-scratch (seed engine)" bstats bsu bt bmin bmaj;
  row ~key:"scalar" (Printf.sprintf "checkpointed (K=%d, 1 domain)" !interval) cstats csu ct cmin
    cmaj;
  row (Printf.sprintf "checkpointed (K=%d, %d domains)" !interval jobs) pstats psu pt pmin pmaj;
  row ~key:"delta" "delta (activity-gated, 1 domain)" dstats dsu dt dmin dmaj;
  row ~key:"delta-batched"
    (Printf.sprintf "batched delta (%d lanes, 1 domain)" Campaign.max_delta_lanes)
    dbstats dbsu dbt dbmin dbmaj;
  Table.print t;
  (* All engines share the seed: identical sample list, so identical
     stats regardless of domain count or kernel. *)
  assert (cstats = pstats);
  assert (cstats = dstats);
  assert (cstats = dbstats);
  Printf.printf "single-domain speedup over from-scratch: %.1fx\n" (rate cstats ct /. base_rate);
  Printf.printf "batched delta over delta: %.2fx (%.1f vs %.1f inj/s)\n"
    (rate dbstats dbt /. rate dstats dt)
    (rate dbstats dbt) (rate dstats dt);
  Printf.printf "(multi-domain wall clock scales with physical cores; this host has %d)\n"
    (Domain.recommended_domain_count ());
  (* Fault-model dimension: scalar vs delta rates per model at a reduced
     sample count (multi-flop / multi-cycle faults cost more per sample,
     and the wide engine falls back to delta anyway). *)
  let model_samples = max 10 (samples / 10) in
  let models = [ Fault_model.Seu; Fault_model.Set; Fault_model.Mbu 2; Fault_model.Intermittent 3 ] in
  let model_rows =
    List.map
      (fun model ->
        let mspace = Fault_space.full ~model nl ~cycles:horizon in
        let sstats, _, st, _, _ =
          measure
            ~setup:(fun () -> Campaign.create ~make ~total_cycles:horizon ())
            ~inject:(fun c ->
              Campaign.run_sample c ~space:mspace ~rng:(rng ()) ~n:model_samples ())
        in
        let mstats, _, mt, _, _ =
          measure
            ~setup:(fun () ->
              let c = Campaign.create ~make ~make_delta ~total_cycles:horizon () in
              ignore (Campaign.golden_trace c);
              c)
            ~inject:(fun c ->
              Campaign.run_sample_delta c ~space:mspace ~rng:(rng ()) ~n:model_samples ())
        in
        (Fault_model.name model, sstats, st, mstats, mt))
      models
  in
  let mt_table = Table.create [ "model"; "injections"; "scalar inj/s"; "delta inj/s" ] in
  List.iter
    (fun (name, (sstats : Campaign.stats), st, mstats, mt) ->
      Table.add_row mt_table
        [
          name;
          string_of_int sstats.Campaign.injections;
          Printf.sprintf "%.1f" (rate sstats st);
          Printf.sprintf "%.1f" (rate mstats mt);
        ])
    model_rows;
  Printf.printf "\nfault-model dimension (%d samples each):\n" model_samples;
  Table.print mt_table;
  (* Byzantine dimension: what quorum arbitration costs end to end. The
     same three-worker fleet (scalar engines, one deterministic liar)
     runs the campaign twice over loopback: once with verification off,
     once with a 5% cross-validation draw and quorum-3 arbitration
     catching the liar. Engines are built before the clock starts, so
     the rates compare distribution + arbitration, not golden runs. *)
  let byz_workers = 3 in
  let byz_header =
    {
      Fi_journal.core = "avr";
      program = "fib";
      cycles = horizon;
      seed = 11;
      samples;
      prune = false;
      audit = 0.;
      shards = 0;
      batched = false;
      epoch = 0;
      fault_model = Fault_model.Seu;
      prng = Prng.save (Prng.create 11);
      shard_prng = [||];
    }
  in
  let run_dist ~verify_frac ~liar =
    let engines =
      Array.init byz_workers (fun _ ->
          {
            Worker.campaign = Campaign.create ~make ~total_cycles:horizon ();
            space;
            skip = None;
            kernel = Campaign.Scalar;
          })
    in
    let config =
      {
        Coordinator.default_config with
        Coordinator.chunk_size = max 4 (samples / 64);
        tick = 0.002;
        verify_frac;
        quorum = 3;
      }
    in
    let coord = Coordinator.create ~config () in
    let port = Coordinator.port coord in
    let result = ref None in
    let t0 = Mono.now () in
    let ct =
      Thread.create (fun () -> result := Some (Coordinator.serve coord ~header:byz_header ())) ()
    in
    let ws =
      List.init byz_workers (fun i ->
          let chaos =
            if liar && i = byz_workers - 1 then
              Some (Chaos.create ~profile:Chaos.liar_profile ~seed:7 ())
            else None
          in
          let name = if chaos = None then Printf.sprintf "honest-%d" i else "liar" in
          Thread.create
            (fun () ->
              try
                ignore
                  (Worker.run ~host:"127.0.0.1" ~port
                     ~resolve:(fun _ -> engines.(i))
                     ~name ?chaos ())
              with _ -> ())
            ())
    in
    Thread.join ct;
    let elapsed = Mono.now () -. t0 in
    List.iter Thread.join ws;
    (Option.get !result, elapsed)
  in
  let byz_base, byz_base_t = run_dist ~verify_frac:0. ~liar:true in
  let byz_arb, byz_arb_t = run_dist ~verify_frac:0.05 ~liar:true in
  let byz_base_rate = rate byz_base.Coordinator.stats byz_base_t in
  let byz_arb_rate = rate byz_arb.Coordinator.stats byz_arb_t in
  let byz_overhead = 100. *. (1. -. (byz_arb_rate /. max 1e-9 byz_base_rate)) in
  Printf.printf
    "\nbyzantine dimension (%d workers incl. one liar, %d samples over loopback):\n" byz_workers
    samples;
  Printf.printf "  no verification:              %.1f inj/s\n" byz_base_rate;
  Printf.printf
    "  --verify-frac 0.05 --quorum 3: %.1f inj/s (%.1f%% overhead; %d disputes, %d resolved, %d \
     overturned)\n"
    byz_arb_rate byz_overhead byz_arb.Coordinator.mismatches byz_arb.Coordinator.arb_resolved
    byz_arb.Coordinator.arb_overturned;
  (* Machine-readable record for CI trend tracking; hand-rolled JSON so
     the harness needs no extra dependency. *)
  let json_path = "BENCH_campaign.json" in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"benchmark\": \"campaign-engines\",\n  \"core\": \"avr\",\n  \"program\": \"fib\",\n\
    \  \"horizon_cycles\": %d,\n  \"samples\": %d,\n  \"engines\": [\n"
    horizon samples;
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (key, (s : Campaign.stats), setup_t, inject_t, minor, major) ->
      Printf.fprintf oc
        "    { \"engine\": %S, \"injections\": %d, \"setup_seconds\": %.3f, \"seconds\": %.3f, \
         \"inj_per_s\": %.1f, \"gc_minor_words\": %.0f, \"gc_major_words\": %.0f }%s\n"
        key s.Campaign.injections setup_t inject_t (rate s inject_t) minor major
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"fault_models\": [\n";
  List.iteri
    (fun i (name, (sstats : Campaign.stats), st, (mstats : Campaign.stats), mt) ->
      Printf.fprintf oc
        "    { \"model\": %S, \"samples\": %d, \"scalar_injections\": %d, \
         \"scalar_inj_per_s\": %.1f, \"delta_injections\": %d, \"delta_inj_per_s\": %.1f }%s\n"
        name model_samples sstats.Campaign.injections (rate sstats st) mstats.Campaign.injections
        (rate mstats mt)
        (if i = List.length model_rows - 1 then "" else ","))
    model_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"byzantine\": { \"workers\": %d, \"liars\": 1, \"samples\": %d, \"verify_frac\": 0.05, \
     \"quorum\": 3,\n\
    \    \"baseline_inj_per_s\": %.1f, \"arbitrated_inj_per_s\": %.1f, \"overhead_pct\": %.1f,\n\
    \    \"disputes\": %d, \"resolved\": %d, \"overturned\": %d, \"unresolved\": %d }\n"
    byz_workers samples byz_base_rate byz_arb_rate byz_overhead byz_arb.Coordinator.mismatches
    byz_arb.Coordinator.arb_resolved byz_arb.Coordinator.arb_overturned
    byz_arb.Coordinator.arb_unresolved;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" json_path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks, including one Test per paper table at a
   strongly reduced scale (the full-scale tables are printed above; these
   measure the cost of regenerating them). *)

let micro_tests () =
  let open Bechamel in
  let nl = System.avr_netlist () in
  let some_flop = (Netlist.find_flop nl "sreg[1]").Netlist.flop_id in
  let q_wire = nl.Netlist.flops.(some_flop).Netlist.q in
  let mux2 = Cell.of_kind Cell.MUX2 in
  let sys = System.create_avr ~netlist:nl ~program:(Avr_asm.assemble Programs.avr_fib) "avr/fib" in
  let tiny = { Search.default_params with Search.max_candidates = 50; max_situations = 2 } in
  let tiny_cycles = 120 in
  let tiny_trace = System.record (System.create_avr ~netlist:nl ~program:(Avr_asm.assemble Programs.avr_fib) "t") ~cycles:tiny_cycles in
  let tiny_set =
    Mateset.of_report
      (Search.search_flops ~params:tiny ~traces:[ tiny_trace ] nl
         (Netlist.flops_excluding nl ~prefix:"rf_"))
  in
  [
    Test.make ~name:"cone/avr-flop" (Staged.stage (fun () -> Cone.compute nl q_wire));
    Test.make ~name:"gm/mux2-select"
      (Staged.stage (fun () -> Gm.masking_terms mux2 ~faulty:[ 2 ]));
    Test.make ~name:"sim/avr-cycle" (Staged.stage (fun () -> Sim.step sys.System.sim ()));
    Test.make ~name:"search/one-wire"
      (Staged.stage (fun () -> Search.search_wire nl tiny q_wire));
    Test.make ~name:"table1/tiny"
      (Staged.stage (fun () ->
           Search.search_flops ~params:tiny nl
             (Netlist.flops_excluding nl ~prefix:"rf_")));
    Test.make ~name:"table23/tiny-replay"
      (Staged.stage (fun () -> Replay.triggers tiny_set tiny_trace));
    Test.make ~name:"figure1b/full" (Staged.stage (fun () -> Figure1.render_figure1b ()));
  ]

let run_micro () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let tests = Test.make_grouped ~name:"pruning" (micro_tests ()) in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t = Table.create [ "benchmark"; "time/run" ] in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let human =
        if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      Table.add_row t [ name; human ])
    (List.sort compare rows);
  Table.print t

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
  | "perf" -> run_perf ()
  | "micro" -> run_micro ()
  | "all" ->
    run_figures ();
    run_table1 ();
    run_table2 ();
    run_table3 ();
    run_cost ();
    run_ablation ();
    run_campaign ();
    run_perf ();
    run_micro ()
  | other ->
    Printf.eprintf "unknown mode %s\n" other;
    exit 1);
  print_newline ()
