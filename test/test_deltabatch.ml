(* The batched activity-gated delta kernel.

   Evidence layers:
   - batched-delta campaign verdicts — SDC cycles included — are
     bit-identical to the scalar checkpointed engine and the
     single-fault delta engine over hundreds of random faults on both
     cores, across checkpoint intervals and lane widths;
   - a qcheck property re-asserts the same triple identity for random
     fault packs, lane counts and checkpoint intervals;
   - every run_sample engine produces identical stats for equal seeds,
     with and without a skip predicate;
   - the retirement property: every mid-pass Benign retirement the
     batched engine performs (lane dirty set emptied before the
     horizon) is confirmed Benign by scalar replay of that fault. *)

open Helpers
module Deltabatch = Pruning_sim.Deltabatch
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs

let total_cycles = 120
let n_pairs = 400

(* Makers over one shared synthesized core per ISA (synthesis is the
   expensive part; every campaign below reuses the netlist). *)
let avr_makers =
  lazy
    (let nl = System.avr_netlist () in
     let program = Avr_asm.assemble Programs.avr_fib_halting in
     ( nl,
       (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
       (fun ~trace -> System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib"),
       fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" ))

let msp_makers =
  lazy
    (let nl = System.msp_netlist () in
     let program = Msp_asm.assemble Programs.msp_fib_halting in
     ( nl,
       (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
       (fun ~trace -> System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib"),
       fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" ))

let verdict_to_string v = Format.asprintf "%a" Campaign.pp_verdict v

let random_faults nl rng n =
  let n_flops = Array.length nl.Netlist.flops in
  Array.init n (fun _ ->
      (nl.Netlist.flops.(Prng.int rng n_flops).Netlist.flop_id, Prng.int rng total_cycles))

let check_batch_matches_scalar name (nl, make, _make_delta, make_delta_batch) =
  let faults = random_faults nl (Prng.create 0xDECAF) n_pairs in
  (* Scalar reference verdicts (checkpointed engine, validated against
     from-scratch re-simulation by the checkpoint suite). *)
  let scalar = Campaign.create ~make ~total_cycles () in
  let expected =
    Array.map (fun (flop_id, cycle) -> Campaign.inject scalar ~flop_id ~cycle) faults
  in
  (* Sweep checkpoint intervals (which change the memo protocol) and
     lane widths (which change the refill schedule); neither may change
     a verdict. *)
  List.iter
    (fun (interval, lanes) ->
      let campaign =
        Campaign.create ~checkpoint_interval:interval ~make ~make_delta_batch ~total_cycles ()
      in
      let verdicts = Campaign.inject_delta_batch campaign ?lanes ~faults () in
      Array.iteri
        (fun i v ->
          if v <> expected.(i) then
            Alcotest.failf "%s K=%d lanes=%s (flop %d, cycle %d): batched-delta=%s, scalar=%s"
              name interval
              (match lanes with
              | None -> "max"
              | Some l -> string_of_int l)
              (fst faults.(i)) (snd faults.(i)) (verdict_to_string v)
              (verdict_to_string expected.(i)))
        verdicts)
    [ (1, None); (13, None); (total_cycles + 5, None); (13, Some 1); (13, Some 7) ]

let test_batch_avr () = check_batch_matches_scalar "avr" (Lazy.force avr_makers)
let test_batch_msp () = check_batch_matches_scalar "msp430" (Lazy.force msp_makers)

(* ------------------------------------------------------------------ *)
(* qcheck: for random fault packs, lane counts and checkpoint
   intervals, on either core, the batched-delta verdicts equal both the
   single-fault delta verdicts and the scalar verdicts — and every
   mid-pass Benign retirement is confirmed Benign by scalar replay. *)

let prop_pack_identity =
  let gen =
    QCheck2.Gen.(
      quad bool (int_range 1 (total_cycles + 5)) (int_range 1 Campaign.max_delta_lanes)
        (pair (int_range 1 60) int))
  in
  QCheck2.Test.make ~name:"deltabatch: random packs match delta and scalar" ~count:10 gen
    (fun (use_msp, interval, lanes, (n, seed)) ->
      let nl, make, make_delta, make_delta_batch =
        Lazy.force (if use_msp then msp_makers else avr_makers)
      in
      let faults = random_faults nl (Prng.create (seed land max_int)) n in
      let campaign =
        Campaign.create ~checkpoint_interval:interval ~make ~make_delta ~make_delta_batch
          ~total_cycles ()
      in
      let retired = ref [] in
      let batched =
        Campaign.inject_delta_batch campaign ~lanes
          ~on_benign_retire:(fun ~index ~cycle -> retired := (index, cycle) :: !retired)
          ~faults ()
      in
      Array.iteri
        (fun i (flop_id, cycle) ->
          let d = Campaign.inject_delta campaign ~flop_id ~cycle in
          if batched.(i) <> d then
            QCheck2.Test.fail_reportf "flop %d cycle %d: batched=%s delta=%s" flop_id cycle
              (verdict_to_string batched.(i))
              (verdict_to_string d);
          let s = Campaign.inject campaign ~flop_id ~cycle in
          if batched.(i) <> s then
            QCheck2.Test.fail_reportf "flop %d cycle %d: batched=%s scalar=%s" flop_id cycle
              (verdict_to_string batched.(i))
              (verdict_to_string s))
        faults;
      List.iter
        (fun (index, rc) ->
          let flop_id, cycle = faults.(index) in
          if batched.(index) <> Campaign.Benign then
            QCheck2.Test.fail_reportf "early retirement at cycle %d but verdict %s" rc
              (verdict_to_string batched.(index));
          let s = Campaign.inject campaign ~flop_id ~cycle in
          if s <> Campaign.Benign then
            QCheck2.Test.fail_reportf
              "lane retired at cycle %d (flop %d, injected %d) but scalar says %s" rc flop_id
              cycle (verdict_to_string s))
        !retired;
      true)

(* ------------------------------------------------------------------ *)

let test_run_sample_stats () =
  (* Identical seed => identical fault list => identical stats across
     all three engines, with and without a skip predicate. *)
  let nl, make, make_delta, make_delta_batch = Lazy.force avr_makers in
  let space = Fault_space.full nl ~cycles:total_cycles in
  let campaign = Campaign.create ~make ~make_delta ~make_delta_batch ~total_cycles () in
  let scalar = Campaign.run_sample campaign ~space ~rng:(Prng.create 4242) ~n:150 () in
  let delta = Campaign.run_sample_delta campaign ~space ~rng:(Prng.create 4242) ~n:150 () in
  let batched =
    Campaign.run_sample_delta_batched campaign ~space ~rng:(Prng.create 4242) ~n:150 ()
  in
  check_bool "delta-batched = scalar stats" true (batched = scalar);
  check_bool "delta-batched = delta stats" true (batched = delta);
  let skip ~flop_id ~cycle = (flop_id + cycle) mod 3 = 0 in
  let scalar_s = Campaign.run_sample campaign ~space ~rng:(Prng.create 7) ~n:150 ~skip () in
  let batched_s =
    Campaign.run_sample_delta_batched campaign ~space ~rng:(Prng.create 7) ~n:150 ~skip ~lanes:9 ()
  in
  check_bool "stats equal (skip, lanes=9)" true (scalar_s = batched_s);
  check_bool "some skipped" true (batched_s.Campaign.skipped > 0);
  check_int "invariant" batched_s.Campaign.injections
    (batched_s.Campaign.benign + batched_s.Campaign.latent + batched_s.Campaign.sdc)

let test_early_retirement_exercised () =
  (* The mid-pass Benign retirement path must actually fire on a real
     workload, and each retirement must be scalar-Benign. *)
  let nl, make, _, make_delta_batch = Lazy.force avr_makers in
  let faults = random_faults nl (Prng.create 0xF00D) 300 in
  let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles () in
  let retired = ref 0 in
  let verdicts =
    Campaign.inject_delta_batch campaign
      ~on_benign_retire:(fun ~index ~cycle ->
        incr retired;
        check_bool "retirement strictly before horizon" true (cycle < total_cycles);
        let flop_id, fc = faults.(index) in
        let s = Campaign.inject campaign ~flop_id ~cycle:fc in
        if s <> Campaign.Benign then
          Alcotest.failf "lane retired at cycle %d (flop %d, injected %d) but scalar says %s"
            cycle flop_id fc (verdict_to_string s))
      ~faults ()
  in
  check_bool "some lanes retired early" true (!retired > 0);
  Array.iter
    (fun (flop_id, cycle) -> ignore (flop_id, cycle))
    faults;
  (* Every early retirement also landed as a Benign verdict. *)
  check_bool "retired <= benign verdicts" true
    (!retired <= Array.fold_left (fun a v -> if v = Campaign.Benign then a + 1 else a) 0 verdicts)

(* Split calls: Benign retirements are delivered on the calling domain
   once the helpers are joined — so the callback may drive the
   campaign's scalar worker — and they are the same multiset whatever
   the domain count. The checkpoint interval lies past the horizon, so
   the only memo boundary is cycle 0, where distinct faults have
   distinct keys: no memo hit can pre-empt a retirement. *)
let test_split_retirements () =
  let nl, make, _, make_delta_batch = Lazy.force avr_makers in
  let faults =
    random_faults nl (Prng.create 0xBEE) 400
    |> Array.to_list |> List.sort_uniq compare |> Array.of_list
  in
  let caller = Domain.self () in
  let run jobs =
    let campaign =
      Campaign.create ~checkpoint_interval:(total_cycles + 5) ~make ~make_delta_batch
        ~total_cycles ()
    in
    let retired = ref [] in
    let verdicts =
      Campaign.inject_delta_batch campaign ~jobs
        ~on_benign_retire:(fun ~index ~cycle ->
          check_bool "delivered on the calling domain" true (Domain.self () = caller);
          let flop_id, fc = faults.(index) in
          let s = Campaign.inject campaign ~flop_id ~cycle:fc in
          if s <> Campaign.Benign then
            Alcotest.failf "jobs %d: lane retired at cycle %d (flop %d) but scalar says %s" jobs
              cycle flop_id (verdict_to_string s);
          retired := (index, cycle) :: !retired)
        ~faults ()
    in
    (verdicts, List.sort compare !retired)
  in
  let v1, r1 = run 1 in
  check_bool "some lanes retired early" true (r1 <> []);
  List.iter
    (fun jobs ->
      let v, r = run jobs in
      check_bool (Printf.sprintf "jobs %d: verdicts = jobs 1" jobs) true (v = v1);
      check_bool (Printf.sprintf "jobs %d: retirements = jobs 1" jobs) true (r = r1))
    [ 2; 4 ]

(* A pass raising on a helper domain: the call re-raises it after the
   join and drops every domain's worker, so the next call rebuilds both
   and classifies exactly as before. Builds after the first carry a
   device that raises on the clock edge while [armed]. *)
let test_helper_failure_discards () =
  let nl, make, _, make_delta_batch = Lazy.force avr_makers in
  let builds = Atomic.make 0 and armed = Atomic.make false in
  let poison =
    {
      Deltabatch.db_name = "poison";
      db_comb = ignore;
      db_clock = (fun () -> if Atomic.get armed then failwith "poisoned clock");
      db_seek = ignore;
      db_dirty = (fun () -> 0);
      db_diffs = (fun ~lane:_ -> []);
      db_reset = (fun ~lane:_ -> ());
      db_watch = [||];
    }
  in
  let make_delta_batch ~trace =
    let db = make_delta_batch ~trace in
    if Atomic.fetch_and_add builds 1 > 0 then Deltabatch.add_device db.System.db_dbsim poison;
    db
  in
  let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles () in
  let faults = random_faults nl (Prng.create 0xD00D) 300 in
  let before = Campaign.inject_delta_batch campaign ~jobs:2 ~faults () in
  check_int "one worker per domain" 2 (Atomic.get builds);
  Atomic.set armed true;
  Alcotest.check_raises "the helper's exception is re-raised" (Failure "poisoned clock") (fun () ->
      ignore (Campaign.inject_delta_batch campaign ~jobs:2 ~faults ()));
  Atomic.set armed false;
  let after = Campaign.inject_delta_batch campaign ~jobs:2 ~faults () in
  check_int "both workers rebuilt" 4 (Atomic.get builds);
  check_bool "verdicts unchanged after the rebuild" true (after = before)

(* Batch workers built over one trace share its golden RAM tables. A
   trace that grows between two builds must not hand the second worker
   the first one's shorter tables. *)
let test_grown_trace_tables () =
  let nl, make, _, make_delta_batch = Lazy.force avr_makers in
  let reference = Campaign.create ~make ~make_delta_batch ~total_cycles () in
  let golden = Campaign.golden_trace reference in
  let grown = Trace.create ~n_wires:(Trace.n_wires golden) in
  let append_rows lo hi =
    for cycle = lo to hi - 1 do
      Trace.append grown (Trace.row golden ~cycle)
    done
  in
  append_rows 0 (total_cycles / 2);
  ignore (make_delta_batch ~trace:grown);
  append_rows (total_cycles / 2) total_cycles;
  let campaign =
    Campaign.create ~make ~make_delta_batch:(fun ~trace:_ -> make_delta_batch ~trace:grown)
      ~total_cycles ()
  in
  let faults = random_faults nl (Prng.create 0x6A0) n_pairs in
  let got = Campaign.inject_delta_batch campaign ~jobs:1 ~faults () in
  let expected = Campaign.inject_delta_batch reference ~jobs:1 ~faults () in
  check_bool "verdicts over the grown trace = over the golden trace" true (got = expected)

let test_lanes_validation () =
  let _, make, _, make_delta_batch = Lazy.force avr_makers in
  let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles () in
  let faults = [| (0, 0) |] in
  Alcotest.check_raises "lanes = 0 rejected"
    (Invalid_argument
       (Printf.sprintf "Campaign.inject_delta_batch: lanes must be in [1, %d]"
          Campaign.max_delta_lanes)) (fun () ->
      ignore (Campaign.inject_delta_batch campaign ~lanes:0 ~faults ()));
  Alcotest.check_raises "lanes > max rejected"
    (Invalid_argument
       (Printf.sprintf "Campaign.inject_delta_batch: lanes must be in [1, %d]"
          Campaign.max_delta_lanes)) (fun () ->
      ignore (Campaign.inject_delta_batch campaign ~lanes:(Campaign.max_delta_lanes + 1) ~faults ()))

let suite =
  [
    Alcotest.test_case "batched-delta = scalar verdicts (AVR, 400 faults)" `Quick test_batch_avr;
    Alcotest.test_case "batched-delta = scalar verdicts (MSP430, 400 faults)" `Quick
      test_batch_msp;
    QCheck_alcotest.to_alcotest prop_pack_identity;
    Alcotest.test_case "run_sample_delta_batched = scalar = delta stats" `Quick
      test_run_sample_stats;
    Alcotest.test_case "mid-pass retirements => Benign under scalar replay" `Quick
      test_early_retirement_exercised;
    Alcotest.test_case "split calls: retirements on the caller, same multiset" `Quick
      test_split_retirements;
    Alcotest.test_case "helper failure discards every worker" `Quick
      test_helper_failure_discards;
    Alcotest.test_case "worker over a grown trace gets fresh RAM tables" `Quick
      test_grown_trace_tables;
    Alcotest.test_case "lane width validation" `Quick test_lanes_validation;
  ]
