module Netlist = Pruning_netlist.Netlist
module Cone = Pruning_netlist.Cone
module Cell = Pruning_cell.Cell
module Sim = Pruning_sim.Sim
module Trace = Pruning_sim.Trace
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Fault_space = Pruning_fi.Fault_space

let state_names = [ "a"; "b"; "c"; "d"; "e" ]

let build ~sequential =
  let b = Netlist.Builder.create (if sequential then "figure1seq" else "figure1") in
  let wire = Netlist.Builder.add_wire b in
  let state name =
    if sequential then begin
      let d_in = wire (name ^ "_in") in
      let q = wire name in
      Netlist.Builder.add_flop b name ~d:d_in ~q;
      Netlist.Builder.add_input_port b (name ^ "_in") [| d_in |];
      q
    end
    else begin
      let w = wire name in
      Netlist.Builder.add_input_port b name [| w |];
      w
    end
  in
  let a = state "a" in
  let wb = state "b" in
  let c = state "c" in
  let d = state "d" in
  let e = state "e" in
  let f = wire "f" and g = wire "g" and h = wire "h" in
  let k = wire "k" and l = wire "l" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.NAND2) [| a; wb |] f;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.XOR2) [| c; d |] g;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.INV) [| e |] h;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.AND2) [| g; f |] k;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.OR2) [| g; h |] l;
  Netlist.Builder.add_output_port b "k" [| k |];
  Netlist.Builder.add_output_port b "l" [| l |];
  Netlist.Builder.add_output_port b "h" [| h |];
  Netlist.Builder.finalize b

let combinational () = build ~sequential:false
let sequential () = build ~sequential:true

let default_stimulus =
  [
    [ 1; 0; 1; 1; 0 ];
    [ 0; 1; 1; 0; 0 ];
    [ 1; 1; 0; 1; 0 ];
    [ 1; 1; 1; 1; 1 ];
    [ 0; 0; 0; 0; 0 ];
    [ 1; 0; 1; 0; 1 ];
    [ 1; 1; 1; 0; 0 ];
    [ 0; 1; 0; 1; 0 ];
  ]

let render_figure1a () =
  let nl = combinational () in
  let buffer = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  out "Figure 1a: fault cone and MATEs of the example circuit\n";
  out "  A = NAND(a,b)->f  B = XOR(c,d)->g  C = INV(e)->h\n";
  out "  D = AND(g,f)->k   E = OR(g,h)->l   outputs: k, l, h\n\n";
  let d = Netlist.find_wire nl "d" in
  let cone = Cone.compute nl d in
  let wires =
    List.init (Netlist.n_wires nl) Fun.id
    |> List.filter (Cone.member cone)
    |> List.map (Netlist.wire_name nl)
  in
  out "  fault cone of d: {%s} (%d gates)\n" (String.concat ", " wires) (Cone.size cone);
  out "  border wires: {%s}\n"
    (String.concat ", " (List.map (Netlist.wire_name nl) cone.Cone.border));
  List.iter
    (fun name ->
      let result = Search.search_wire nl Search.default_params (Netlist.find_wire nl name) in
      match result.Search.outcome with
      | Search.Unmaskable -> out "  %s: unmaskable (a path has no masking-capable gate)\n" name
      | Search.Mates mates ->
        out "  MATE(%s) = %s\n" name
          (String.concat " or " (List.map (Term.to_string nl) mates)))
    state_names;
  Buffer.contents buffer

let render_figure1b () =
  let nl = sequential () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  List.iter
    (fun values ->
      List.iter2 (fun name v -> Sim.set_port sim (name ^ "_in") v) state_names values;
      Sim.step sim ~trace ())
    default_stimulus;
  let cycles = List.length default_stimulus in
  let space = Fault_space.full nl ~cycles in
  let pruner = Replay.pruner set (Replay.triggers set trace) ~space () in
  let buffer = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  out "Figure 1b: fault-space pruning (%d flops x %d cycles)\n" (Netlist.n_flops nl) cycles;
  out "  '#' possibly effective, '.' pruned by a triggered MATE\n\n";
  out "       cycle 12345678\n";
  Array.iter
    (fun (flop : Netlist.flop) ->
      out "  %-10s " flop.Netlist.flop_name;
      for cycle = 0 to cycles - 1 do
        out "%c" (if Replay.pruned pruner ~flop_id:flop.Netlist.flop_id ~cycle then '.' else '#')
      done;
      out "\n")
    space.Fault_space.flops;
  let pruned = Replay.pruner_masked_count pruner in
  out "\n  pruned %d of %d faults (%.1f%%)\n" pruned (Fault_space.size space)
    (Pruning_util.Stats.percentage pruned (Fault_space.size space));
  Buffer.contents buffer
