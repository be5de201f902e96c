(* Shared helpers for the test suites. *)

module Cell = Pruning_cell.Cell
module Gm = Pruning_cell.Gm
module Netlist = Pruning_netlist.Netlist
module Cone = Pruning_netlist.Cone
module Signal = Pruning_rtl.Signal
module Synth = Pruning_rtl.Synth
module Sim = Pruning_sim.Sim
module Trace = Pruning_sim.Trace
module Prng = Pruning_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Poll [pred] until it holds; fail the test after [timeout] seconds. *)
let wait_for ?(timeout = 20.) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.01
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ what)

(* The paper's Figure 1a circuit: gates A..E over wires a..l.
     A = NAND2(a, b) -> f      B = XOR2(c, d) -> g     C = INV(e) -> h
     D = AND2(g, f)  -> k      E = OR2(g, h)  -> l
   Outputs: k, l and h (h must be externally observable for the paper's
   "no MATE for e" claim: the path e -> C ends at an output with no
   masking-capable gate on it).
   The MATE facts from the paper hold on this circuit:
     - cone(d) = {d, g, k, l} with gates {B, D, E}, border {c, f, h};
     - M_d = (!f & h), equivalently (a & b & !e) on the far side of A/C;
     - e has no MATE. *)
let figure1_netlist () =
  let b = Netlist.Builder.create "figure1" in
  let wire = Netlist.Builder.add_wire b in
  let a = wire "a"
  and wb = wire "b"
  and c = wire "c"
  and d = wire "d"
  and e = wire "e" in
  let f = wire "f" and g = wire "g" and h = wire "h" in
  let k = wire "k" and l = wire "l" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.NAND2) [| a; wb |] f;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.XOR2) [| c; d |] g;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.INV) [| e |] h;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.AND2) [| g; f |] k;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.OR2) [| g; h |] l;
  Netlist.Builder.add_input_port b "a" [| a |];
  Netlist.Builder.add_input_port b "b" [| wb |];
  Netlist.Builder.add_input_port b "c" [| c |];
  Netlist.Builder.add_input_port b "d" [| d |];
  Netlist.Builder.add_input_port b "e" [| e |];
  Netlist.Builder.add_output_port b "k" [| k |];
  Netlist.Builder.add_output_port b "l" [| l |];
  Netlist.Builder.add_output_port b "h" [| h |];
  Netlist.Builder.finalize b

(* The same circuit with the five free wires a..e as flip-flops fed by
   primary inputs: the sequential version behind the paper's Figure 1b
   fault-space picture (5 flops x 8 cycles). *)
let figure1_seq_netlist () =
  let b = Netlist.Builder.create "figure1seq" in
  let wire = Netlist.Builder.add_wire b in
  let mk_state name =
    let d_in = wire (name ^ "_in") in
    let q = wire name in
    Netlist.Builder.add_flop b name ~d:d_in ~q;
    Netlist.Builder.add_input_port b (name ^ "_in") [| d_in |];
    q
  in
  let a = mk_state "a" in
  let wb = mk_state "b" in
  let c = mk_state "c" in
  let d = mk_state "d" in
  let e = mk_state "e" in
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

(* A small synchronous example: 4-bit counter with enable and wrap output. *)
let counter_netlist () =
  let open Signal in
  let c = create_circuit "counter4" in
  let enable = input c "enable" 1 in
  let r = reg c "count" 4 in
  let next = q r +: const c ~width:4 1 in
  connect r (mux2 enable next (q r));
  output c "count_o" (q r);
  output c "wrap" (eq_const (q r) 15 &: enable);
  Synth.to_netlist c
