open Helpers
module Term = Pruning_mate.Term
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Select = Pruning_mate.Select
module Cost = Pruning_mate.Cost
module Fault_space = Pruning_fi.Fault_space
module Oracle = Pruning_fi.Oracle

let term_pairs t = List.map (fun (l : Term.literal) -> (l.Term.wire, l.Term.value)) (Term.literals t)

(* ------------------------------------------------------------------ *)
(* Term algebra                                                         *)

let test_term_normalization () =
  match Term.of_literals [ (3, true); (1, false); (3, true) ] with
  | None -> Alcotest.fail "consistent literals rejected"
  | Some t ->
    Alcotest.(check (list (pair int bool))) "sorted, deduped" [ (1, false); (3, true) ]
      (term_pairs t)

let test_term_contradiction () =
  check_bool "contradiction" true (Term.of_literals [ (2, true); (2, false) ] = None)

let test_term_conjoin () =
  let t1 = Option.get (Term.of_literals [ (1, true) ]) in
  let t2 = Option.get (Term.of_literals [ (2, false) ]) in
  let t3 = Option.get (Term.of_literals [ (1, false) ]) in
  (match Term.conjoin t1 t2 with
  | Some t -> Alcotest.(check (list (pair int bool))) "merge" [ (1, true); (2, false) ] (term_pairs t)
  | None -> Alcotest.fail "conjoin failed");
  check_bool "conflict" true (Term.conjoin t1 t3 = None)

let test_term_holds () =
  let t = Option.get (Term.of_literals [ (0, true); (2, false) ]) in
  check_bool "holds" true (Term.holds t (fun w -> w = 0));
  check_bool "fails" false (Term.holds t (fun _ -> true));
  check_bool "always true" true (Term.holds Term.always_true (fun _ -> false))

(* ------------------------------------------------------------------ *)
(* Figure 1 of the paper                                                *)

let test_search_paper_wire_d () =
  let nl = figure1_netlist () in
  let result = Search.search_wire nl Search.default_params (Netlist.find_wire nl "d") in
  check_int "cone size" 3 result.Search.cone_size;
  match result.Search.outcome with
  | Search.Unmaskable -> Alcotest.fail "d is maskable"
  | Search.Mates mates ->
    let f = Netlist.find_wire nl "f" and h = Netlist.find_wire nl "h" in
    Alcotest.(check (list (list (pair int bool))))
      "exactly the paper's border MATE (!f & h)"
      [ [ (f, false); (h, true) ] ]
      (List.map term_pairs mates)

let test_search_paper_wire_e () =
  let nl = figure1_netlist () in
  let result = Search.search_wire nl Search.default_params (Netlist.find_wire nl "e") in
  check_bool "e unmaskable (paper)" true (result.Search.outcome = Search.Unmaskable)

let test_search_paper_wire_a () =
  let nl = figure1_netlist () in
  let result = Search.search_wire nl Search.default_params (Netlist.find_wire nl "a") in
  match result.Search.outcome with
  | Search.Unmaskable -> Alcotest.fail "a is maskable"
  | Search.Mates mates ->
    let b = Netlist.find_wire nl "b" and g = Netlist.find_wire nl "g" in
    Alcotest.(check (list (list (pair int bool))))
      "a masked by !b (at the NAND) or !g (at the AND)"
      [ [ (b, false) ]; [ (g, false) ] ]
      (List.map term_pairs mates)

let test_search_direct_output_unmaskable () =
  let nl = figure1_netlist () in
  (* h drives a primary output: a fault on h itself cannot be masked. *)
  let result = Search.search_wire nl Search.default_params (Netlist.find_wire nl "h") in
  check_bool "h unmaskable" true (result.Search.outcome = Search.Unmaskable)

let test_search_depth_limit () =
  (* With depth 0 no gate-masking terms are collected: the wire is not
     structurally unmaskable, but no MATE can be built. *)
  let nl = figure1_netlist () in
  let params = { Search.default_params with Search.depth = 0 } in
  let result = Search.search_wire nl params (Netlist.find_wire nl "d") in
  check_int "no options at depth 0" 0 result.Search.n_options;
  check_bool "depth 0 -> unmaskable (early abort)" true (result.Search.outcome = Search.Unmaskable)

let test_search_max_terms_limit () =
  (* The (!f & h) MATE for d needs two gate-masking terms. *)
  let nl = figure1_netlist () in
  let params = { Search.default_params with Search.max_terms = 1 } in
  let result = Search.search_wire nl params (Netlist.find_wire nl "d") in
  check_bool "max_terms 1 -> nothing for d" true (result.Search.outcome = Search.Mates [])

(* ------------------------------------------------------------------ *)
(* Sequential figure-1 variant: search flops, check soundness with the
   oracle under exhaustive stimulus.                                     *)

let test_search_flops_figure1_seq () =
  let nl = figure1_seq_netlist () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  check_int "five faulty wires" 5 (Search.n_faulty_wires report);
  check_int "one unmaskable (e)" 1 (Search.n_unmaskable report);
  let by_name name =
    let f = Netlist.find_flop nl name in
    let fr =
      List.find (fun (r : Search.flop_result) -> r.Search.flop.Netlist.flop_id = f.Netlist.flop_id)
        report.Search.flop_results
    in
    fr.Search.result.Search.outcome
  in
  check_bool "e unmaskable" true (by_name "e" = Search.Unmaskable);
  (match by_name "d" with
  | Search.Mates [ t ] -> check_int "d mate inputs" 2 (Term.n_inputs t)
  | _ -> Alcotest.fail "expected exactly one MATE for d");
  match by_name "a" with
  | Search.Mates mates -> check_int "two mates for a" 2 (List.length mates)
  | Search.Unmaskable -> Alcotest.fail "a maskable"

let exhaustive_soundness nl =
  (* For every flop state (set via inputs then latched), every MATE that
     holds must agree with the one-cycle oracle. *)
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let sim = Sim.create nl in
  let n = Netlist.n_flops nl in
  let input_wires =
    List.concat_map (fun (p : Netlist.port) -> Array.to_list p.Netlist.port_wires) nl.Netlist.inputs
  in
  for pattern = 0 to (1 lsl n) - 1 do
    (* Drive the state directly. *)
    Array.iteri (fun i (f : Netlist.flop) -> Sim.set_flop sim f.Netlist.flop_id (pattern land (1 lsl i) <> 0))
      nl.Netlist.flops;
    (* Inputs low; they only matter for next-state of these flops. *)
    List.iter (fun w -> Sim.set_input sim w false) input_wires;
    Sim.eval sim;
    List.iter
      (fun (fr : Search.flop_result) ->
        match fr.Search.result.Search.outcome with
        | Search.Unmaskable -> ()
        | Search.Mates mates ->
          List.iter
            (fun term ->
              if Term.holds term (fun w -> Sim.peek sim w) then begin
                let benign =
                  Oracle.one_cycle_benign sim ~flop_id:fr.Search.flop.Netlist.flop_id
                in
                if not benign then
                  Alcotest.failf "unsound MATE %s for %s under state %d"
                    (Term.to_string nl term) fr.Search.flop.Netlist.flop_name pattern
              end)
            mates)
      report.Search.flop_results
  done

let test_soundness_figure1_seq () = exhaustive_soundness (figure1_seq_netlist ())

(* Random netlist generator for property-based soundness testing. *)
let random_netlist rng index =
  let b = Netlist.Builder.create (Printf.sprintf "random%d" index) in
  let n_inputs = 2 + Prng.int rng 3 in
  let n_flops = 2 + Prng.int rng 4 in
  let n_gates = 5 + Prng.int rng 25 in
  let inputs = List.init n_inputs (fun i -> Netlist.Builder.add_wire b (Printf.sprintf "in%d" i)) in
  let q_wires = List.init n_flops (fun i -> Netlist.Builder.add_wire b (Printf.sprintf "ff%d" i)) in
  let pool = ref (inputs @ q_wires) in
  let combinational_cells =
    List.filter
      (fun (c : Cell.t) -> c.Cell.arity > 0)
      Cell.all
  in
  let gate_outputs = ref [] in
  for g = 0 to n_gates - 1 do
    let cell = Prng.pick rng combinational_cells in
    let ins = Array.init cell.Cell.arity (fun _ -> Prng.pick rng !pool) in
    let out = Netlist.Builder.add_wire b (Printf.sprintf "g%d" g) in
    Netlist.Builder.add_gate b cell ins out;
    pool := out :: !pool;
    gate_outputs := out :: !gate_outputs
  done;
  (* Flop D pins and a couple of primary outputs from the pool. *)
  List.iteri
    (fun i q -> Netlist.Builder.add_flop b (Printf.sprintf "ff%d" i) ~d:(Prng.pick rng !pool) ~q)
    q_wires;
  List.iteri (fun i w -> Netlist.Builder.add_input_port b (Printf.sprintf "in%d" i) [| w |]) inputs;
  let n_outputs = 1 + Prng.int rng 2 in
  for i = 0 to n_outputs - 1 do
    Netlist.Builder.add_output_port b (Printf.sprintf "out%d" i) [| Prng.pick rng !pool |]
  done;
  Netlist.Builder.finalize b

let test_soundness_random_netlists () =
  let rng = Prng.create 4242 in
  for index = 1 to 60 do
    let nl = random_netlist rng index in
    let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
    let sim = Sim.create nl in
    let input_wires =
      List.concat_map (fun (p : Netlist.port) -> Array.to_list p.Netlist.port_wires)
        nl.Netlist.inputs
    in
    (* Random walks instead of exhaustive state: set inputs randomly and
       step, checking triggered MATEs against the oracle. *)
    for _cycle = 1 to 40 do
      List.iter (fun w -> Sim.set_input sim w (Prng.bool rng)) input_wires;
      Sim.eval sim;
      List.iter
        (fun (fr : Search.flop_result) ->
          match fr.Search.result.Search.outcome with
          | Search.Unmaskable -> ()
          | Search.Mates mates ->
            List.iter
              (fun term ->
                if Term.holds term (fun w -> Sim.peek sim w) then
                  if not (Oracle.one_cycle_benign sim ~flop_id:fr.Search.flop.Netlist.flop_id)
                  then
                    Alcotest.failf "netlist %d: unsound MATE %s for %s" index
                      (Term.to_string nl term) fr.Search.flop.Netlist.flop_name)
              mates)
        report.Search.flop_results;
      Sim.latch sim
    done
  done

(* ------------------------------------------------------------------ *)
(* Mateset, replay, selection, cost                                     *)

let seq_setup ~cycles ~stimulus =
  let nl = figure1_seq_netlist () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  List.iteri
    (fun cycle values ->
      ignore cycle;
      List.iter2 (fun name v -> Sim.set_port sim (name ^ "_in") v) [ "a"; "b"; "c"; "d"; "e" ] values;
      Sim.step sim ~trace ())
    stimulus;
  ignore cycles;
  (nl, report, set, trace)

let test_mateset_merging () =
  let nl = figure1_seq_netlist () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  (* a has mates {!b, !g}, b has {!a, !g}: !g is shared by a and b (and
     also masks c and d at the AND/OR pair? !g masks only via gate D for
     a/b; for c/d the XOR kills masking at B but D/E can still cut). *)
  check_bool "set nonempty" true (Mateset.size set > 0);
  let g = Netlist.find_wire nl "g" in
  let not_g = Option.get (Term.of_literals [ (g, false) ]) in
  let shared =
    Array.to_list set.Mateset.mates
    |> List.find_opt (fun (m : Mateset.mate) -> Term.equal m.Mateset.term not_g)
  in
  match shared with
  | None -> Alcotest.fail "expected a shared !g mate"
  | Some m -> check_bool "masks more than one flop" true (List.length m.Mateset.flop_ids >= 2)

let test_replay_and_coverage () =
  (* Stimulus: first two cycles make !b then !a hold (paper's Figure 1b
     narration: "in the first two cycles, the MATEs !b and !a trigger"). *)
  let stimulus =
    [
      (* a b c d e -- values are LOADED into flops for the NEXT cycle;
         cycle 0 state is all zeros. *)
      [ 1; 0; 1; 1; 0 ];
      [ 0; 1; 1; 0; 0 ];
      [ 1; 1; 0; 1; 1 ];
      [ 1; 1; 1; 1; 1 ];
      [ 0; 0; 0; 0; 0 ];
      [ 1; 0; 1; 0; 1 ];
      [ 0; 1; 0; 1; 0 ];
      [ 1; 1; 1; 0; 0 ];
    ]
  in
  let nl, _report, set, trace = seq_setup ~cycles:8 ~stimulus in
  let triggers = Replay.triggers set trace in
  check_int "trace cycles" 8 (Replay.n_cycles triggers);
  let space = Fault_space.full nl ~cycles:8 in
  let p = Replay.pruner set triggers ~space () in
  (* Cycle 0: all flops are 0: a=0,b=0 -> !b and !a hold; e=0 -> h=1...
     d's mate needs f=0&h=1: f=NAND(0,0)=1: not masked. *)
  let pruned name cycle = Replay.pruned p ~flop_id:(Netlist.find_flop nl name).Netlist.flop_id ~cycle in
  check_bool "cycle0 a masked" true (pruned "a" 0);
  check_bool "cycle0 b masked" true (pruned "b" 0);
  check_bool "cycle0 d not masked" false (pruned "d" 0);
  check_bool "e never masked" true (List.for_all (fun cycle -> not (pruned "e" cycle)) (List.init 8 Fun.id));
  (* Cycle 3 state: a=1,b=1 (loaded at end of cycle 2), e=1: f=0, h=0:
     d's mate (!f & h) fails (h=0)... cycle with a=1,b=1,e=0 is cycle 4?
     stimulus row 3 loads a=1,b=1,e=1 for cycle 4. Check via explicit
     evaluation instead of hand-tracking: masked iff the oracle agrees. *)
  let reduction = Replay.reduction_percent set triggers ~space () in
  check_bool "some reduction" true (reduction > 0.);
  check_bool "not everything masked" true (reduction < 100.);
  (* Every masked (flop, cycle) is truly benign: replay soundness against
     a fresh simulation of the same stimulus. *)
  let sim = Sim.create nl in
  List.iteri
    (fun cycle values ->
      List.iter2 (fun name v -> Sim.set_port sim (name ^ "_in") v) [ "a"; "b"; "c"; "d"; "e" ] values;
      Sim.eval sim;
      Array.iter
        (fun (flop : Netlist.flop) ->
          if Replay.pruned p ~flop_id:flop.Netlist.flop_id ~cycle then
            check_bool
              (Printf.sprintf "cycle %d %s benign" cycle flop.Netlist.flop_name)
              true
              (Oracle.one_cycle_benign sim ~flop_id:flop.Netlist.flop_id))
        space.Fault_space.flops;
      Sim.latch sim)
    [
      [ 1; 0; 1; 1; 0 ]; [ 0; 1; 1; 0; 0 ]; [ 1; 1; 0; 1; 1 ]; [ 1; 1; 1; 1; 1 ];
      [ 0; 0; 0; 0; 0 ]; [ 1; 0; 1; 0; 1 ]; [ 0; 1; 0; 1; 0 ]; [ 1; 1; 1; 0; 0 ];
    ]

let test_selection_greedy () =
  let stimulus = List.init 16 (fun i -> [ i land 1; (i lsr 1) land 1; (i lsr 2) land 1; (i lsr 3) land 1; 0 ]) in
  let nl, _report, set, trace = seq_setup ~cycles:16 ~stimulus in
  let triggers = Replay.triggers set trace in
  let space = Fault_space.full nl ~cycles:16 in
  let ranking = Select.rank set triggers ~space in
  check_int "ranking covers all mates" (Mateset.size set) (List.length ranking);
  (* Credited hits are antitone along the ranking. *)
  let rec antitone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      check_bool "sorted desc" true (a >= b);
      antitone rest
    | [ _ ] | [] -> ()
  in
  antitone ranking;
  (* Sum of credited hits equals the union coverage of the full set. *)
  let total_credit = List.fold_left (fun acc (_, c) -> acc + c) 0 ranking in
  check_int "credits = union coverage"
    (Replay.pruner_masked_count (Replay.pruner set triggers ~space ()))
    total_credit;
  (* Top-n subsets grow monotonically in coverage. *)
  let coverage n =
    let subset = Select.top ranking ~n in
    Replay.reduction_percent set triggers ~space ~subset ()
  in
  let c1 = coverage 1 and c2 = coverage 2 and call = coverage (Mateset.size set) in
  check_bool "monotone 1<=2" true (c1 <= c2 +. 1e-9);
  check_bool "monotone 2<=all" true (c2 <= call +. 1e-9);
  check_bool "top-all = full" true (abs_float (call -. Replay.reduction_percent set triggers ~space ()) < 1e-9)

let test_effective_indices () =
  (* With an all-zero stimulus only some mates can ever trigger. *)
  let stimulus = List.init 4 (fun _ -> [ 0; 0; 0; 0; 0 ]) in
  let _nl, _report, set, trace = seq_setup ~cycles:4 ~stimulus in
  let triggers = Replay.triggers set trace in
  let effective = Replay.effective_indices triggers in
  check_bool "some effective" true (effective <> []);
  check_bool "not all effective" true (List.length effective < Mateset.size set);
  List.iter (fun i -> check_bool "has triggers" true (Replay.trigger_count triggers i > 0)) effective

let test_cost_model () =
  check_int "0 inputs" 0 (Cost.luts_for_inputs 0);
  check_int "1 input" 1 (Cost.luts_for_inputs 1);
  check_int "6 inputs" 1 (Cost.luts_for_inputs 6);
  check_int "7 inputs" 2 (Cost.luts_for_inputs 7);
  check_int "11 inputs" 2 (Cost.luts_for_inputs 11);
  check_int "12 inputs" 3 (Cost.luts_for_inputs 12);
  let nl = figure1_seq_netlist () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let summary = Cost.summarize set () in
  check_int "n_mates" (Mateset.size set) summary.Cost.n_mates;
  check_bool "avg sane" true (summary.Cost.avg_inputs >= 1. && summary.Cost.avg_inputs <= 4.);
  check_bool "luts at least mates" true (summary.Cost.total_luts >= Mateset.size set)

let suite =
  [
    Alcotest.test_case "term normalization" `Quick test_term_normalization;
    Alcotest.test_case "term contradiction" `Quick test_term_contradiction;
    Alcotest.test_case "term conjoin" `Quick test_term_conjoin;
    Alcotest.test_case "term holds" `Quick test_term_holds;
    Alcotest.test_case "paper fig1: MATE of d" `Quick test_search_paper_wire_d;
    Alcotest.test_case "paper fig1: e unmaskable" `Quick test_search_paper_wire_e;
    Alcotest.test_case "paper fig1: MATEs of a" `Quick test_search_paper_wire_a;
    Alcotest.test_case "output wire unmaskable" `Quick test_search_direct_output_unmaskable;
    Alcotest.test_case "depth limit" `Quick test_search_depth_limit;
    Alcotest.test_case "max terms limit" `Quick test_search_max_terms_limit;
    Alcotest.test_case "search flops on fig1-seq" `Quick test_search_flops_figure1_seq;
    Alcotest.test_case "soundness: fig1-seq exhaustive" `Quick test_soundness_figure1_seq;
    Alcotest.test_case "soundness: random netlists" `Slow test_soundness_random_netlists;
    Alcotest.test_case "mateset merging" `Quick test_mateset_merging;
    Alcotest.test_case "replay and coverage" `Quick test_replay_and_coverage;
    Alcotest.test_case "greedy selection" `Quick test_selection_greedy;
    Alcotest.test_case "effective indices" `Quick test_effective_indices;
    Alcotest.test_case "cost model" `Quick test_cost_model;
  ]
