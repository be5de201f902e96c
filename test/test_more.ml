(* Additional unit coverage across modules: memory devices, system
   harness, reference-model corners, RTL introspection, replay/select
   details, disassembly. *)

open Helpers
module Memory = Pruning_cpu.Memory
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Avr_isa = Pruning_cpu.Avr_isa
module Msp_asm = Pruning_cpu.Msp_asm
module Msp_isa = Pruning_cpu.Msp_isa
module Msp_ref = Pruning_cpu.Msp_ref
module Programs = Pruning_cpu.Programs
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Select = Pruning_mate.Select
module Fault_space = Pruning_fi.Fault_space

(* ---- memory devices ------------------------------------------------ *)

let test_avr_rom_beyond_end () =
  (* Fetching past the program end executes as NOP and the core just runs
     through empty memory. *)
  let program = Avr_asm.assemble [ Avr_asm.I (Avr_isa.Ldi (16, 42)) ] in
  let sys = System.create_avr ~program "tiny" in
  System.run sys ~cycles:50;
  Sim.eval sys.System.sim;
  let v = ref 0 in
  for i = 0 to 7 do
    let w = Netlist.find_wire sys.System.netlist (Printf.sprintf "rf_16[%d]" i) in
    if Sim.peek sys.System.sim w then v := !v lor (1 lsl i)
  done;
  check_int "ldi executed" 42 !v;
  check_int "pc ran on" 50 (Sim.get_port sys.System.sim "pmem_addr")

let test_msp_memory_word_semantics () =
  let program = Msp_asm.assemble [ Msp_asm.I (Msp_isa.Jmp (Msp_isa.Rel (-1))) ] in
  let sys = System.create_msp ~words:64 ~program "tiny" in
  (* Byte address bit 0 is ignored; addresses wrap modulo the size. *)
  check_int "program word 0" program.(0) sys.System.ram.(0);
  System.run sys ~cycles:20;
  check_int "still there" program.(0) sys.System.ram.(0)

let test_msp_memory_program_too_large () =
  Alcotest.check_raises "too large" (Invalid_argument "Memory.msp_memory: program too large")
    (fun () ->
      ignore (System.create_msp ~words:2 ~program:(Array.make 3 0) "boom"))

(* ---- reference models ----------------------------------------------- *)

let test_msp_ref_special_registers () =
  let t = Msp_ref.create ~words:64 ~program:[| 0x4303 (* MOV #0,R3 encoded as reg mov *) |] in
  check_int "r3 reads 0" 0 (Msp_ref.read_reg t 3);
  check_int "r0 is pc" 0 (Msp_ref.read_reg t 0);
  t.Msp_ref.flag_c <- true;
  t.Msp_ref.flag_v <- true;
  check_int "sr packs flags" 0b1001 (Msp_ref.read_reg t 2)

let test_avr_ref_halt_is_sticky () =
  let program = Avr_asm.assemble [ Avr_asm.L "h"; Avr_asm.I (Avr_isa.Rjmp (Avr_isa.Label "h")) ] in
  let t = Pruning_cpu.Avr_ref.create ~program () in
  Pruning_cpu.Avr_ref.run t ~max_steps:10;
  check_bool "halted" true t.Pruning_cpu.Avr_ref.halted;
  let steps = t.Pruning_cpu.Avr_ref.steps in
  Pruning_cpu.Avr_ref.step t;
  check_int "no further steps" steps t.Pruning_cpu.Avr_ref.steps

(* ---- disassembly ----------------------------------------------------- *)

let test_avr_disassemble () =
  let words = Avr_asm.assemble [ Avr_asm.I (Avr_isa.Add (1, 2)); Avr_asm.I Avr_isa.Nop ] in
  Alcotest.(check (list string)) "listing" [ "ADD r1, r2"; "NOP" ] (Avr_asm.disassemble words);
  Alcotest.(check (list string)) "unknown word" [ ".word 0xFFFF" ]
    (Avr_asm.disassemble [| 0xFFFF |])

let test_msp_disassemble () =
  let words =
    Msp_asm.assemble
      [ Msp_asm.I (Msp_isa.Mov (Msp_isa.Imm 7, Msp_isa.Dreg 4)); Msp_asm.I (Msp_isa.Rra 5) ]
  in
  Alcotest.(check (list string)) "listing" [ "MOV #7, R4"; "RRA R5" ] (Msp_asm.disassemble words)

(* ---- RTL introspection ----------------------------------------------- *)

let test_circuit_introspection () =
  let open Signal in
  let c = create_circuit "intro" in
  let x = input c "x" 4 in
  let r = reg c ~init:3 "r" 4 in
  connect r (q r +: x);
  output c "o" (q r);
  Alcotest.(check (list (pair string int))) "inputs" [ ("x", 4) ] (circuit_inputs c);
  check_int "one reg" 1 (List.length (circuit_regs c));
  check_int "one output" 1 (List.length (circuit_outputs c));
  check_string "name" "intro" (circuit_name c);
  check_bool "nodes allocated" true (node_count c > 0)

let test_signal_errors () =
  let open Signal in
  let c = create_circuit "err" in
  Alcotest.check_raises "bad width" (Invalid_argument "Signal: bad width 0") (fun () ->
      ignore (input c "w0" 0));
  Alcotest.check_raises "const overflow"
    (Invalid_argument "Signal.const: 9 does not fit in 3 bits") (fun () ->
      ignore (const c ~width:3 9));
  let x = input c "x" 2 in
  Alcotest.check_raises "bit range" (Invalid_argument "Signal.bit 5 of width 2") (fun () ->
      ignore (bit x 5));
  Alcotest.check_raises "select range" (Invalid_argument "Signal.select [3:1] of width 2")
    (fun () -> ignore (select x ~hi:3 ~lo:1));
  Alcotest.check_raises "mux too many"
    (Invalid_argument "Signal.mux: more cases than selector values") (fun () ->
      ignore (mux (bit x 0) [ x; x; x ]));
  Alcotest.check_raises "dup port" (Invalid_argument "Signal.input: duplicate port x") (fun () ->
      ignore (input c "x" 2))

(* ---- replay/select corners -------------------------------------------- *)

let tiny_setup () =
  let nl = figure1_seq_netlist () in
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  let set = Mateset.of_report report in
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  (* 12 cycles to cross the one-byte bitset boundary in triggers. *)
  for i = 0 to 11 do
    List.iter
      (fun name -> Sim.set_port sim (name ^ "_in") (if (i + Char.code name.[0]) mod 3 = 0 then 1 else 0))
      [ "a"; "b"; "c"; "d"; "e" ];
    Sim.step sim ~trace ()
  done;
  (nl, set, trace)

let test_triggers_multibyte () =
  let nl, set, trace = tiny_setup () in
  let triggers = Replay.triggers set trace in
  check_int "12 cycles" 12 (Replay.n_cycles triggers);
  (* trigger_count sums over all cycles including cycle >= 8 *)
  let total =
    List.init (Mateset.size set) (fun i -> Replay.trigger_count triggers i)
    |> List.fold_left ( + ) 0
  in
  let by_cycles =
    List.init (Mateset.size set) (fun i ->
        List.length
          (List.filter (fun cycle -> Replay.triggered triggers ~mate:i ~cycle) (List.init 12 Fun.id)))
    |> List.fold_left ( + ) 0
  in
  check_int "count = cycles marked" by_cycles total;
  ignore nl

let test_masked_subset_smaller () =
  let nl, set, trace = tiny_setup () in
  let triggers = Replay.triggers set trace in
  let space = Fault_space.full nl ~cycles:12 in
  let masked ?subset () = Replay.pruner_masked_count (Replay.pruner set triggers ~space ?subset ()) in
  let all = masked () in
  let none = masked ~subset:[] () in
  check_int "empty subset masks nothing" 0 none;
  check_bool "full set masks something" true (all > 0);
  (* any singleton subset is at most the total *)
  for i = 0 to Mateset.size set - 1 do
    let single = masked ~subset:[ i ] () in
    check_bool "singleton <= all" true (single <= all)
  done

let test_select_top_overshoot () =
  let nl, set, trace = tiny_setup () in
  let triggers = Replay.triggers set trace in
  let space = Fault_space.full nl ~cycles:12 in
  let ranking = Select.rank set triggers ~space in
  let top_huge = Select.top ranking ~n:100000 in
  (* top drops zero-credit mates *)
  List.iter
    (fun i -> check_bool "has credit" true (List.assoc i ranking > 0))
    top_huge;
  check_bool "bounded by set size" true (List.length top_huge <= Mateset.size set);
  ignore nl

let test_space_cycles_exceed_trace () =
  (* A space longer than the trace is clamped: the replayable prefix masks
     exactly what a trace-length space masks, and the cycles beyond the
     trace are never pruned (nothing provable without trace data). *)
  let nl, set, trace = tiny_setup () in
  let triggers = Replay.triggers set trace in
  let space = Fault_space.full nl ~cycles:50 in
  let p = Replay.pruner set triggers ~space () in
  let clamped = Fault_space.full nl ~cycles:(Replay.n_cycles triggers) in
  check_int "same masking as trace-length space"
    (Replay.pruner_masked_count (Replay.pruner set triggers ~space:clamped ()))
    (Replay.pruner_masked_count p);
  for cycle = Replay.n_cycles triggers to 49 do
    Array.iter
      (fun (f : Netlist.flop) ->
        check_bool "beyond trace never pruned" false (Replay.pruned p ~flop_id:f.Netlist.flop_id ~cycle))
      space.Fault_space.flops
  done

(* ---- search statistics ------------------------------------------------ *)

let test_unreachable_flop_always_true () =
  (* A flop whose Q drives nothing is trivially always-benign. *)
  let b = Netlist.Builder.create "island" in
  let q = Netlist.Builder.add_wire b "q" in
  let d = Netlist.Builder.add_wire b "d" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.INV) [| q |] d;
  Netlist.Builder.add_flop b "f" ~d ~q;
  (* d is consumed by the flop, q only by the INV; the INV output feeds
     the flop D, so the fault does reach a sink. Add a true island: *)
  let q2 = Netlist.Builder.add_wire b "q2" in
  let d2 = Netlist.Builder.add_wire b "d2" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.BUF) [| q |] d2;
  Netlist.Builder.add_flop b "g" ~d:d2 ~q:q2;
  let nl = Netlist.Builder.finalize b in
  (* q2 has no readers at all: a fault in flop g goes nowhere. *)
  let g = Netlist.find_flop nl "g" in
  let result = Search.search_wire nl Search.default_params g.Netlist.q in
  (match result.Search.outcome with
  | Search.Mates [ t ] -> check_bool "always true" true (Term.equal t Term.always_true)
  | _ -> Alcotest.fail "expected the always-true MATE");
  (* while flop f's fault reaches both flop Ds: check it is handled too *)
  let f = Netlist.find_flop nl "f" in
  let rf = Search.search_wire nl Search.default_params f.Netlist.q in
  check_bool "f not always-true" true (rf.Search.outcome <> Search.Mates [ Term.always_true ])

let test_search_pair_degenerate () =
  (* A "pair" of the same wire is just the single-wire problem. *)
  let nl = figure1_netlist () in
  let d = Netlist.find_wire nl "d" in
  let single = Search.search_wire nl Search.default_params d in
  let pair = Search.search_pair nl Search.default_params d d in
  check_int "same cone" single.Search.cone_size pair.Search.cone_size;
  match (single.Search.outcome, pair.Search.outcome) with
  | Search.Mates a, Search.Mates b ->
    Alcotest.(check int) "same mates" (List.length a) (List.length b)
  | _ -> Alcotest.fail "expected mates on both"

let suite =
  [
    Alcotest.test_case "avr rom beyond end" `Quick test_avr_rom_beyond_end;
    Alcotest.test_case "msp memory word semantics" `Quick test_msp_memory_word_semantics;
    Alcotest.test_case "msp program too large" `Quick test_msp_memory_program_too_large;
    Alcotest.test_case "msp ref special registers" `Quick test_msp_ref_special_registers;
    Alcotest.test_case "avr ref halt sticky" `Quick test_avr_ref_halt_is_sticky;
    Alcotest.test_case "avr disassemble" `Quick test_avr_disassemble;
    Alcotest.test_case "msp disassemble" `Quick test_msp_disassemble;
    Alcotest.test_case "circuit introspection" `Quick test_circuit_introspection;
    Alcotest.test_case "signal errors" `Quick test_signal_errors;
    Alcotest.test_case "triggers multibyte" `Quick test_triggers_multibyte;
    Alcotest.test_case "masked subsets" `Quick test_masked_subset_smaller;
    Alcotest.test_case "select top overshoot" `Quick test_select_top_overshoot;
    Alcotest.test_case "space longer than trace" `Quick test_space_cycles_exceed_trace;
    Alcotest.test_case "unreachable flop" `Quick test_unreachable_flop_always_true;
    Alcotest.test_case "degenerate pair" `Quick test_search_pair_degenerate;
  ]
