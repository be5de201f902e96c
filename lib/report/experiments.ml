module Netlist = Pruning_netlist.Netlist
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Select = Pruning_mate.Select
module Cost = Pruning_mate.Cost
module Fault_space = Pruning_fi.Fault_space
module Table = Pruning_util.Table
module Stats = Pruning_util.Stats

type setup = {
  core_name : string;
  netlist : Netlist.t;
  rf_prefix : string;
  programs : (string * (Netlist.t -> System.t)) list;
}

(* The paper's two programs, picked out of the catalogue by name: a
   core's further programs (AVR sort) get no table row. *)
let setup_of core core_name =
  let c = Option.get (System.find_core core) in
  {
    core_name;
    netlist = c.System.build ();
    rf_prefix = c.System.core_rf_prefix;
    programs =
      List.map (fun p -> (p, (List.assoc p c.System.programs).System.make)) [ "fib"; "conv" ];
  }

let avr_setup () = setup_of "avr" "AVR"
let msp_setup () = setup_of "msp430" "MSP430"

type prepared = {
  setup : setup;
  params : Search.params;
  cycles : int;
  traces : (string * Trace.t) list;
  report_ff : Search.report;
  report_norf : Search.report;
  set_ff : Mateset.t;
  set_norf : Mateset.t;
  triggers_ff : (string * Replay.triggers) list;
  triggers_norf : (string * Replay.triggers) list;
  space_ff : Fault_space.t;
  space_norf : Fault_space.t;
}

let prepare ?(params = Search.default_params) ?(cycles = 8500) setup =
  let nl = setup.netlist in
  let traces =
    List.map
      (fun (name, make) ->
        let sys = make nl in
        (name, System.record sys ~cycles))
      setup.programs
  in
  let all_flops = Array.to_list nl.Netlist.flops in
  let report_ff = Search.search_flops ~params ~traces:(List.map snd traces) nl all_flops in
  (* Per-wire results are independent, so the "FF w/o RF" report is the
     full report down-selected (with honest per-wire runtimes). *)
  let norf_flops = Netlist.flops_excluding nl ~prefix:setup.rf_prefix in
  let norf_ids = List.map (fun (f : Netlist.flop) -> f.Netlist.flop_id) norf_flops in
  let report_norf =
    Search.restrict report_ff (fun f -> List.mem f.Netlist.flop_id norf_ids)
  in
  let set_ff = Mateset.of_report report_ff in
  let set_norf = Mateset.of_report report_norf in
  {
    setup;
    params;
    cycles;
    traces;
    report_ff;
    report_norf;
    set_ff;
    set_norf;
    triggers_ff = List.map (fun (name, trace) -> (name, Replay.triggers set_ff trace)) traces;
    triggers_norf = List.map (fun (name, trace) -> (name, Replay.triggers set_norf trace)) traces;
    space_ff = Fault_space.full nl ~cycles;
    space_norf = Fault_space.without_prefix nl ~prefix:setup.rf_prefix ~cycles;
  }

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

let pow_string v =
  (* Compact 3.1e7-style rendering for large candidate counts, matching
     the paper's notation. *)
  if v < 1_000_000 then string_of_int v
  else Printf.sprintf "%.0fe6" (float_of_int v /. 1e6)

let table1 prepared_list =
  let headers =
    "metric"
    :: List.concat_map
         (fun p -> [ p.setup.core_name ^ " FF"; p.setup.core_name ^ " FF w/o RF" ])
         prepared_list
  in
  let t = Table.create headers in
  let row label f =
    Table.add_row t (label :: List.concat_map (fun p -> [ f p p.report_ff; f p p.report_norf ]) prepared_list)
  in
  row "Faulty wires" (fun _ r -> string_of_int (Search.n_faulty_wires r));
  row "Avg. cone [#gates]" (fun _ r -> Printf.sprintf "%.0f" (Search.avg_cone r));
  row "Med. cone [#gates]" (fun _ r -> Printf.sprintf "%.0f" (Search.median_cone r));
  row "Run time [s]" (fun _ r -> Printf.sprintf "%.1f" (Search.wire_time_s r));
  row "#Unmaskable" (fun _ r -> string_of_int (Search.n_unmaskable r));
  row "#MATE candidates" (fun _ r -> pow_string (Search.total_candidates r));
  row "#MATE" (fun _ r -> string_of_int (Search.total_mates r));
  t

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3                                                       *)

let triggers_for p ~rf program =
  List.assoc program (if rf then p.triggers_ff else p.triggers_norf)

let set_for p ~rf = if rf then p.set_ff else p.set_norf
let space_for p ~rf = if rf then p.space_ff else p.space_norf

let effective_input_stats p ~rf program =
  let set = set_for p ~rf in
  let triggers = triggers_for p ~rf program in
  let effective = Replay.effective_indices triggers in
  let inputs =
    List.map
      (fun i -> float_of_int (Pruning_mate.Term.n_inputs set.Mateset.mates.(i).Mateset.term))
      effective
  in
  (List.length effective, Stats.mean inputs, Stats.stddev inputs)

let full_reduction p ~rf program =
  let set = set_for p ~rf in
  let triggers = triggers_for p ~rf program in
  Replay.reduction_percent set triggers ~space:(space_for p ~rf) ()

let ranking p ~rf ~select_on =
  Select.rank (set_for p ~rf) (triggers_for p ~rf select_on) ~space:(space_for p ~rf)

let top_n_reduction p ~select_on ~evaluate_on ~rf ~n =
  let subset = Select.top (ranking p ~rf ~select_on) ~n in
  Replay.reduction_percent (set_for p ~rf)
    (triggers_for p ~rf evaluate_on)
    ~space:(space_for p ~rf) ~subset ()

let program_names p = List.map fst p.setup.programs

let table23 p =
  let programs = program_names p in
  let headers =
    "metric"
    :: List.concat_map (fun prog -> [ prog ^ " FF"; prog ^ " FF w/o RF" ]) programs
  in
  let t = Table.create headers in
  let per_column f =
    List.concat_map (fun prog -> [ f ~rf:true prog; f ~rf:false prog ]) programs
  in
  Table.add_row t
    ("#Effective MATEs"
    :: per_column (fun ~rf prog ->
           let n, _, _ = effective_input_stats p ~rf prog in
           string_of_int n));
  Table.add_row t
    ("Avg. #inputs"
    :: per_column (fun ~rf prog ->
           let _, avg, std = effective_input_stats p ~rf prog in
           Printf.sprintf "%.1f±%.1f" avg std));
  Table.add_row t
    ("Masked faults"
    :: per_column (fun ~rf prog -> Printf.sprintf "%.2f%%" (full_reduction p ~rf prog)));
  List.iter
    (fun select_on ->
      Table.add_separator t;
      List.iter
        (fun n ->
          Table.add_row t
            (Printf.sprintf "Top %d (sel. %s)" n select_on
            :: per_column (fun ~rf prog ->
                   Printf.sprintf "%.2f%%" (top_n_reduction p ~select_on ~evaluate_on:prog ~rf ~n))))
        [ 10; 50; 100; 200 ])
    programs;
  t

(* ------------------------------------------------------------------ *)

let mate_cost_table p =
  let t = Table.create [ "MATE set"; "#MATEs"; "avg inputs"; "max inputs"; "LUTs" ] in
  let add label set subset =
    let summary = Cost.summarize set ?subset () in
    Table.add_row t
      [
        label;
        string_of_int summary.Cost.n_mates;
        Printf.sprintf "%.1f±%.1f" summary.Cost.avg_inputs summary.Cost.stddev_inputs;
        string_of_int summary.Cost.max_inputs;
        string_of_int summary.Cost.total_luts;
      ]
  in
  add "complete (FF)" p.set_ff None;
  add "complete (FF w/o RF)" p.set_norf None;
  List.iter
    (fun (select_on, _) ->
      List.iter
        (fun n ->
          let subset = Select.top (ranking p ~rf:true ~select_on) ~n in
          add (Printf.sprintf "top %d (FF, sel. %s)" n select_on) p.set_ff (Some subset))
        [ 50; 100 ])
    p.setup.programs;
  t

type reduction_summary = {
  program : string;
  ff_percent : float;
  norf_percent : float;
}

let reductions p =
  List.map
    (fun prog ->
      {
        program = prog;
        ff_percent = full_reduction p ~rf:true prog;
        norf_percent = full_reduction p ~rf:false prog;
      })
    (program_names p)
