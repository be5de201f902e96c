(* The activity-gated delta kernel.

   Evidence layers:
   - delta campaign verdicts — SDC cycles included — are bit-identical
     to the scalar checkpointed engine over hundreds of random faults on
     both cores, across checkpoint intervals (which the delta kernel
     ignores: its verdicts may not depend on them) and sample configs;
   - delta, scalar and batched-delta run_sample stats coincide for
     equal seeds, with and without a skip predicate;
   - the retirement property: whenever the kernel's dirty set empties
     before the horizon, scalar replay of the same fault is Benign —
     empty-dirty-set retirement never misclassifies. *)

open Helpers
module Deltasim = Pruning_sim.Deltasim
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs

let total_cycles = 120
let n_pairs = 400

(* Makers: scalar + delta + batched delta over one shared synthesized
   core. *)
let avr_makers () =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  ( nl,
    (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
    (fun ~trace -> System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib"),
    fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" )

let msp_makers () =
  let nl = System.msp_netlist () in
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  ( nl,
    (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
    (fun ~trace -> System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib"),
    fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" )

let verdict_to_string v = Format.asprintf "%a" Campaign.pp_verdict v

let check_delta_matches_scalar name (nl, make, make_delta, _make_delta_batch) =
  let n_flops = Array.length nl.Netlist.flops in
  let rng = Prng.create 0xDECAF in
  let faults =
    Array.init n_pairs (fun _ ->
        (nl.Netlist.flops.(Prng.int rng n_flops).Netlist.flop_id, Prng.int rng total_cycles))
  in
  (* Scalar reference verdicts (checkpointed engine, validated against
     from-scratch re-simulation by the checkpoint suite). *)
  let scalar = Campaign.create ~make ~total_cycles () in
  let expected =
    Array.map (fun (flop_id, cycle) -> Campaign.inject scalar ~flop_id ~cycle) faults
  in
  (* The delta kernel never looks at checkpoints; running it inside
     campaigns with different intervals asserts exactly that. *)
  List.iter
    (fun interval ->
      let campaign =
        Campaign.create ~checkpoint_interval:interval ~make ~make_delta ~total_cycles ()
      in
      Array.iteri
        (fun i (flop_id, cycle) ->
          let v = Campaign.inject_delta campaign ~flop_id ~cycle in
          if v <> expected.(i) then
            Alcotest.failf "%s K=%d (flop %d, cycle %d): delta=%s, scalar=%s" name interval
              flop_id cycle (verdict_to_string v)
              (verdict_to_string expected.(i)))
        faults)
    [ 1; 13; total_cycles + 5 ]

let test_delta_avr () = check_delta_matches_scalar "avr" (avr_makers ())
let test_delta_msp () = check_delta_matches_scalar "msp430" (msp_makers ())

let test_run_sample_delta_stats () =
  (* Identical seed => identical fault list => identical stats across all
     three engines, with and without a skip predicate. *)
  let nl, make, make_delta, make_delta_batch = avr_makers () in
  let space = Fault_space.full nl ~cycles:total_cycles in
  let campaign = Campaign.create ~make ~make_delta ~make_delta_batch ~total_cycles () in
  let scalar = Campaign.run_sample campaign ~space ~rng:(Prng.create 4242) ~n:150 () in
  let batched =
    Campaign.run_sample_delta_batched campaign ~space ~rng:(Prng.create 4242) ~n:150 ()
  in
  let delta = Campaign.run_sample_delta campaign ~space ~rng:(Prng.create 4242) ~n:150 () in
  check_bool "delta = scalar stats" true (delta = scalar);
  check_bool "delta = batched stats" true (delta = batched);
  let skip ~flop_id ~cycle = (flop_id + cycle) mod 3 = 0 in
  let scalar_s = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:150 ~skip () in
  let delta_s = Campaign.run_sample_delta campaign ~space ~rng:(Prng.create 7) ~n:150 ~skip () in
  check_bool "stats equal (skip)" true (scalar_s = delta_s);
  check_bool "some skipped" true (delta_s.Campaign.skipped > 0);
  check_int "invariant" delta_s.Campaign.injections
    (delta_s.Campaign.benign + delta_s.Campaign.latent + delta_s.Campaign.sdc)

(* ------------------------------------------------------------------ *)
(* Retirement soundness, tested on the raw kernel: drive Deltasim by
   hand, and whenever the dirty set empties strictly before the horizon,
   the scalar engine must classify the same fault Benign. *)

let test_empty_dirty_set_is_benign () =
  let nl, make, make_delta, _ = avr_makers () in
  let scalar = Campaign.create ~make ~total_cycles () in
  let sys = make () in
  let trace = System.record sys ~cycles:total_cycles in
  let d = make_delta ~trace in
  let ds = d.System.d_dsim in
  let n_flops = Array.length nl.Netlist.flops in
  let rng = Prng.create 0xF00D in
  let retired = ref 0 in
  for _ = 1 to 300 do
    let flop_id = nl.Netlist.flops.(Prng.int rng n_flops).Netlist.flop_id in
    let cycle = Prng.int rng total_cycles in
    Deltasim.attach ds ~cycle;
    Deltasim.flip_flop ds flop_id;
    (* Mirror the engine's observation order: a fault that corrupts an
       output is SDC and never retires, even if it re-converges later. *)
    let converged_at = ref None in
    let stop = ref false in
    let c = ref cycle in
    while (not !stop) && !converged_at = None && !c < total_cycles do
      Deltasim.propagate ds;
      if Deltasim.output_diverged ds then stop := true
      else if Deltasim.converged ds then converged_at := Some !c
      else begin
        Deltasim.latch ds;
        incr c
      end
    done;
    match !converged_at with
    | None -> ()
    | Some rc ->
      incr retired;
      check_bool "converged kernel has empty dirty set" true (Deltasim.n_dirty ds = 0);
      check_bool "converged kernel has clean devices" true (Deltasim.devices_clean ds);
      let v = Campaign.inject scalar ~flop_id ~cycle in
      if v <> Campaign.Benign then
        Alcotest.failf
          "empty dirty set at cycle %d (flop %d, injected %d) but scalar says %s" rc flop_id
          cycle (verdict_to_string v)
  done;
  (* The property must actually have been exercised. *)
  check_bool "some lanes retired early" true (!retired > 0)

let suite =
  [
    Alcotest.test_case "delta = scalar verdicts (AVR, 400 faults)" `Quick test_delta_avr;
    Alcotest.test_case "delta = scalar verdicts (MSP430, 400 faults)" `Quick test_delta_msp;
    Alcotest.test_case "run_sample_delta = scalar = batched stats" `Quick
      test_run_sample_delta_stats;
    Alcotest.test_case "empty dirty set => Benign under scalar replay" `Quick
      test_empty_dirty_set_is_benign;
  ]
