open Helpers
module Fault_space = Pruning_fi.Fault_space
module Oracle = Pruning_fi.Oracle
module Campaign = Pruning_fi.Campaign
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs

let test_fault_space_sizes () =
  let nl = counter_netlist () in
  let space = Fault_space.full nl ~cycles:100 in
  check_int "full size" 400 (Fault_space.size space);
  let b = Netlist.Builder.create "mixed" in
  let mk name =
    let q = Netlist.Builder.add_wire b (name ^ "_q") in
    Netlist.Builder.add_flop b name ~d:q ~q
  in
  mk "rf_1[0]";
  mk "rf_1[1]";
  mk "pc[0]";
  let nl2 = Netlist.Builder.finalize b in
  let space2 = Fault_space.without_prefix nl2 ~prefix:"rf_" ~cycles:10 in
  check_int "without rf" 10 (Fault_space.size space2);
  check_bool "flop_index present" true (Fault_space.flop_index space2 2 = Some 0);
  check_bool "flop_index excluded" true (Fault_space.flop_index space2 0 = None);
  (* Every constructor, under every model [full] accepts, indexes each
     netlist flop at its position in [flops] (None when excluded). *)
  let consistent label (space : Fault_space.t) =
    Array.iter
      (fun (f : Netlist.flop) ->
        let rec position i =
          if i = Array.length space.Fault_space.flops then None
          else if space.Fault_space.flops.(i).Netlist.flop_id = f.Netlist.flop_id then Some i
          else position (i + 1)
        in
        check_bool
          (Printf.sprintf "%s: flop_index of %s" label f.Netlist.flop_name)
          true
          (Fault_space.flop_index space f.Netlist.flop_id = position 0))
      space.Fault_space.netlist.Netlist.flops
  in
  List.iter
    (fun model ->
      let name = Pruning_fi.Fault_model.name model in
      consistent ("full " ^ name) (Fault_space.full ~model nl2 ~cycles:10);
      consistent ("without_prefix " ^ name)
        (Fault_space.without_prefix ~model nl2 ~prefix:"pc" ~cycles:10))
    Pruning_fi.Fault_model.[ Seu; Set; Mbu 2; Intermittent 3 ];
  let flop name = Netlist.find_flop nl2 name in
  consistent "of_flops" (Fault_space.of_flops nl2 [| flop "pc[0]"; flop "rf_1[0]" |] ~cycles:10);
  Alcotest.check_raises "bad cycles" (Invalid_argument "Fault_space: cycles must be positive")
    (fun () -> ignore (Fault_space.full nl ~cycles:0))

(* A circuit where masking is fully understood: out = sel ? b : a, all of
   a, b, sel registered. A fault in register a is one-cycle benign iff
   sel = 1 (out unchanged AND a's next value overwrites the flip, which it
   does because a_reg reloads from the input every cycle). *)
let mux_netlist () =
  let open Signal in
  let c = create_circuit "muxreg" in
  let a_in = input c "a_in" 1 in
  let b_in = input c "b_in" 1 in
  let s_in = input c "s_in" 1 in
  let a = reg c "a" 1 in
  let b = reg c "b" 1 in
  let s = reg c "s" 1 in
  connect a a_in;
  connect b b_in;
  connect s s_in;
  output c "out" (mux2 (q s) (q b) (q a));
  Synth.to_netlist c

let test_oracle_mux () =
  let nl = mux_netlist () in
  let sim = Sim.create nl in
  let flop name = (Netlist.find_flop nl name).Netlist.flop_id in
  (* Load a=1, b=0, s=1. *)
  Sim.set_port sim "a_in" 1;
  Sim.set_port sim "b_in" 0;
  Sim.set_port sim "s_in" 1;
  Sim.step sim ();
  Sim.eval sim;
  (* sel=1: out = b; fault in a is invisible and overwritten -> benign. *)
  check_bool "a benign when deselected" true (Oracle.one_cycle_benign sim ~flop_id:(flop "a[0]"));
  check_bool "b effective when selected" false (Oracle.one_cycle_benign sim ~flop_id:(flop "b[0]"));
  (* sel fault: flips out from b=0 to a=1 -> effective. *)
  check_bool "s effective (a<>b)" false (Oracle.one_cycle_benign sim ~flop_id:(flop "s[0]"));
  (* Make a = b: now the select fault is masked. *)
  Sim.set_port sim "b_in" 1;
  Sim.step sim ();
  Sim.eval sim;
  check_bool "s benign (a=b)" true (Oracle.one_cycle_benign sim ~flop_id:(flop "s[0]"))

let test_oracle_restores_state () =
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  Sim.set_port sim "enable" 1;
  Sim.run sim ~cycles:5 ();
  Sim.eval sim;
  let before = Array.init (Netlist.n_wires nl) (fun w -> Sim.peek sim w) in
  ignore (Oracle.one_cycle_benign sim ~flop_id:0);
  let after = Array.init (Netlist.n_wires nl) (fun w -> Sim.peek sim w) in
  check_bool "state restored" true (before = after)

let test_oracle_sweep_counter () =
  (* In an always-enabled counter every flop feeds the adder and the
     output port, so every fault is effective in its first cycle. *)
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  Sim.set_port sim "enable" 1;
  let verdicts = Oracle.sweep sim ~flops:nl.Netlist.flops ~cycles:8 in
  Array.iteri
    (fun cycle row ->
      Array.iteri
        (fun i benign ->
          check_bool (Printf.sprintf "cycle %d flop %d" cycle i) false benign)
        row)
    verdicts;
  check_int "sim advanced" 8 (Sim.cycle sim)

let test_campaign_verdicts () =
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let make () = System.create_avr ~program "fib" in
  let campaign = Campaign.create ~make ~total_cycles:300 () in
  let nl = (make ()).System.netlist in
  (* A fault in the high PC bit early on derails the program: SDC. *)
  let pc11 = (Netlist.find_flop nl "pc[11]").Netlist.flop_id in
  (match Campaign.inject campaign ~flop_id:pc11 ~cycle:5 with
  | Campaign.Sdc _ -> ()
  | v -> Alcotest.failf "expected SDC, got %s" (Format.asprintf "%a" Campaign.pp_verdict v));
  (* A fault in a never-used register r2 after its last architectural use:
     r2 is not read by fib, but it is still netlist state: Latent. *)
  let r2 = (Netlist.find_flop nl "rf_2[0]").Netlist.flop_id in
  (match Campaign.inject campaign ~flop_id:r2 ~cycle:50 with
  | Campaign.Latent -> ()
  | v ->
    Alcotest.failf "expected latent, got %s" (Format.asprintf "%a" Campaign.pp_verdict v));
  (* A fault in the instruction register's valid bit during the halt loop
     at worst re-executes the jump: check it classifies deterministically
     and injection is reproducible. *)
  let v1 = Campaign.inject campaign ~flop_id:pc11 ~cycle:5 in
  let v2 = Campaign.inject campaign ~flop_id:pc11 ~cycle:5 in
  check_bool "deterministic" true (v1 = v2)

let test_campaign_benign_via_oracle_agreement () =
  (* Any fault the one-cycle oracle calls benign must be benign in the
     full campaign as well (sufficiency of intra-cycle masking). *)
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let make () = System.create_avr ~program "fib" in
  let campaign = Campaign.create ~make ~total_cycles:260 () in
  let sys = make () in
  let nl = sys.System.netlist in
  let rng = Prng.create 2024 in
  let flops = nl.Netlist.flops in
  let checked = ref 0 in
  let cycle = ref 0 in
  while !checked < 25 && !cycle < 250 do
    Sim.eval sys.System.sim;
    for _ = 1 to 3 do
      let f = flops.(Prng.int rng (Array.length flops)) in
      if !checked < 25 && Oracle.one_cycle_benign sys.System.sim ~flop_id:f.Netlist.flop_id
      then begin
        incr checked;
        match Campaign.inject campaign ~flop_id:f.Netlist.flop_id ~cycle:!cycle with
        | Campaign.Benign -> ()
        | v ->
          Alcotest.failf "oracle-benign fault (%s, %d) became %s" f.Netlist.flop_name !cycle
            (Format.asprintf "%a" Campaign.pp_verdict v)
      end
    done;
    Sim.latch sys.System.sim;
    incr cycle
  done;
  check_bool "found benign samples" true (!checked > 0)

let test_campaign_sampling () =
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let make () = System.create_avr ~program "fib" in
  let campaign = Campaign.create ~make ~total_cycles:150 () in
  let nl = (make ()).System.netlist in
  let space = Fault_space.full nl ~cycles:150 in
  let rng = Prng.create 7 in
  let stats = Campaign.run_sample campaign ~space ~rng ~n:30 () in
  check_int "all accounted" 30 (stats.Campaign.benign + stats.Campaign.latent + stats.Campaign.sdc);
  check_int "all injected" 30 stats.Campaign.injections;
  check_int "none skipped" 0 stats.Campaign.skipped;
  (* With a skip-everything filter no experiments run: skips are counted
     in their own field, keeping injections = benign + latent + sdc. *)
  let stats2 =
    Campaign.run_sample campaign ~space ~rng ~n:10 ~skip:(fun ~flop_id:_ ~cycle:_ -> true) ()
  in
  check_int "all skipped" 0 stats2.Campaign.injections;
  check_int "skipped counted apart" 10 stats2.Campaign.skipped;
  check_int "no verdicts for skips" 0
    (stats2.Campaign.benign + stats2.Campaign.latent + stats2.Campaign.sdc)

let suite =
  [
    Alcotest.test_case "fault space sizes" `Quick test_fault_space_sizes;
    Alcotest.test_case "oracle on mux circuit" `Quick test_oracle_mux;
    Alcotest.test_case "oracle restores state" `Quick test_oracle_restores_state;
    Alcotest.test_case "oracle sweep counter" `Quick test_oracle_sweep_counter;
    Alcotest.test_case "campaign verdicts" `Quick test_campaign_verdicts;
    Alcotest.test_case "campaign agrees with oracle" `Quick test_campaign_benign_via_oracle_agreement;
    Alcotest.test_case "campaign sampling" `Quick test_campaign_sampling;
  ]
