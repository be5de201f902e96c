(* Engine equivalence over the whole fault space, and the two contracts
   the shared sample driver owns.

   - Exhaustive: every (key x cycle) of the fault space, for seu,
     mbu:2, intermittent:3 and set on both cores, is classified by the
     scalar oracle, by the single-fault delta engine and by the batched
     delta engine (at the full lane width, and at 5 lanes, which forces
     refills and overtaken faults while lanes are still holding; each
     on 1, 2 and 4 domains) and compared fault by fault. Each engine
     gets a campaign of its own, so no engine's verdict memo can answer
     for another's.
   - One batched call mixing empty and non-empty SET expansions returns
     its verdicts in input order.
   - A campaign simulates its golden run once, however many workers
     it builds, and that run's trace equals a fresh [System.record].
   - [?lanes] is checked for every fault model.
   - Every pair of {!System.catalogue}: a sampled SEU campaign gives
     the same verdicts on the scalar and the delta-batched engine. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Durable = Pruning_fi.Durable
module Fault_model = Pruning_fi.Fault_model
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Trace = Pruning_sim.Trace
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs

(* (netlist, make, make_delta, make_delta_batch) per core; synthesis is
   the expensive part, so each core is built once. *)
let avr =
  lazy
    (let nl = System.avr_netlist () in
     let program = Avr_asm.assemble Programs.avr_fib_halting in
     ( nl,
       (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
       (fun ~trace -> System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib"),
       fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" ))

let msp =
  lazy
    (let nl = System.msp_netlist () in
     let program = Msp_asm.assemble Programs.msp_fib_halting in
     ( nl,
       (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
       (fun ~trace -> System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib"),
       fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" ))

let campaign core ~cycles =
  let _, make, make_delta, make_delta_batch = Lazy.force core in
  Campaign.create ~make ~make_delta ~make_delta_batch ~total_cycles:cycles ()

(* Every fault instance of [space], key-major. *)
let all_faults space =
  let cycles = space.Fault_space.cycles in
  Array.init
    (Fault_space.n_keys space * cycles)
    (fun i -> (Fault_space.draw_key space (i / cycles), i mod cycles))

let same_verdicts label faults reference got =
  Array.iteri
    (fun i (key, cycle) ->
      if got.(i) <> reference.(i) then
        Alcotest.failf "%s: key %d cycle %d: %s vs scalar %s" label key cycle
          (Format.asprintf "%a" Campaign.pp_verdict got.(i))
          (Format.asprintf "%a" Campaign.pp_verdict reference.(i)))
    faults

(* Horizons keep each case to a few seconds: the set key space is the
   gate count, so it gets far fewer cycles than the flop-keyed models. *)
let check_exhaustive (name, core) model ~cycles () =
  let nl, _, _, _ = Lazy.force core in
  let space = Fault_space.full ~model nl ~cycles in
  let faults = all_faults space in
  let label = name ^ "/" ^ Fault_model.name model in
  let scalar =
    let c = campaign core ~cycles in
    let w = Campaign.primary_worker c in
    Array.map (fun (key, cycle) -> Campaign.inject_fault c w ~space ~key ~cycle) faults
  in
  check_bool (label ^ ": not all benign") true (Array.exists (( <> ) Campaign.Benign) scalar);
  let delta =
    let c = campaign core ~cycles in
    Array.map (fun (key, cycle) -> Campaign.inject_fault_delta c ~space ~key ~cycle) faults
  in
  same_verdicts (label ^ ": delta") faults scalar delta;
  List.iter
    (fun (lanes, jobs) ->
      same_verdicts
        (Printf.sprintf "%s: delta-batched x %d lanes on %d domains" label lanes jobs)
        faults scalar
        (Campaign.inject_delta_batch (campaign core ~cycles) ~space ~lanes ~jobs ~faults ()))
    (List.concat_map
       (fun lanes -> List.map (fun jobs -> (lanes, jobs)) [ 1; 2; 4 ])
       [ Campaign.max_delta_lanes; 5 ])

let exhaustive_cases =
  List.concat_map
    (fun core ->
      List.map
        (fun (model, cycles) ->
          Alcotest.test_case
            (Printf.sprintf "exhaustive %s %s x %d cycles" (fst core) (Fault_model.name model)
               cycles)
            `Slow
            (check_exhaustive core model ~cycles))
        [
          (Fault_model.Seu, 40);
          (Fault_model.Mbu 2, 40);
          (Fault_model.Intermittent 3, 40);
          (Fault_model.Set, 8);
        ])
    [ ("avr", avr); ("msp430", msp) ]

(* --- empty SET expansions in a batch -------------------------------- *)

(* Gates whose pulse nothing latches are Benign without a lane; the
   others share the lanes. Interleaved out of cycle order, the verdicts
   must still come back in input order, equal to the scalar oracle's. *)
let test_set_batch_mixed () =
  let cycles = 30 in
  let nl, _, _, _ = Lazy.force avr in
  let space = Fault_space.full ~model:Fault_model.Set nl ~cycles in
  let keys = List.init (Fault_space.n_keys space) (Fault_space.draw_key space) in
  let empty, latching = List.partition (fun k -> Fault_space.expand space k = [||]) keys in
  check_bool "some SET pulses latch nowhere" true (List.length empty >= 3);
  let take n l = List.filteri (fun i _ -> i < n) l in
  let faults =
    List.concat
      (List.mapi
         (fun i (e, l) -> [ (e, (7 * i) mod cycles); (l, cycles - 1 - (3 * i mod cycles)) ])
         (List.combine (take 3 empty) (take 3 latching)))
    @ List.mapi (fun i l -> (l, i mod cycles)) (take 40 (List.rev latching))
    |> Array.of_list
  in
  let c = campaign avr ~cycles in
  let w = Campaign.primary_worker c in
  let scalar = Array.map (fun (key, cycle) -> Campaign.inject_fault c w ~space ~key ~cycle) faults in
  check_bool "not all benign" true (Array.exists (( <> ) Campaign.Benign) scalar);
  let batched = Campaign.inject_delta_batch (campaign avr ~cycles) ~space ~lanes:4 ~faults () in
  same_verdicts "set batch" faults scalar batched;
  Array.iteri
    (fun i (key, _) ->
      if List.mem key empty then
        check_bool "empty expansion is benign" true (batched.(i) = Campaign.Benign))
    faults

(* --- the golden run is simulated once -------------------------------- *)

(* A maker that counts its calls: [create] makes the one golden system,
   which also records the golden trace, and each fresh worker one
   system. *)
let counting_campaign ~cycles =
  let _, make, _, _ = Lazy.force avr in
  let calls = Atomic.make 0 in
  let make () =
    Atomic.incr calls;
    make ()
  in
  (Campaign.create ~make ~total_cycles:cycles (), calls)

(* Held faults re-arm against the golden trace on the scalar engine too.
   However many workers a campaign builds — the supervisor rebuilds one
   after every failed attempt — the golden run is simulated once. *)
let test_trace_once () =
  let cycles = 60 in
  let nl, _, _, _ = Lazy.force avr in
  let space = Fault_space.full ~model:(Fault_model.Intermittent 3) nl ~cycles in
  let c, calls = counting_campaign ~cycles in
  let stats = Campaign.run_sample c ~space ~rng:(Prng.create 3) ~n:80 () in
  check_int "every fault injected" 80 stats.Campaign.injections;
  check_int "run_sample: make calls = golden" 1 (Atomic.get calls);
  let c, calls = counting_campaign ~cycles in
  let failed = [ 10; 20; 30 ] in
  let r =
    Durable.run c ~space ~seed:3 ~n:80
      ~retry_backoff:{ Pruning_util.Backoff.base = 0.001; cap = 0.001; factor = 1. }
      ~fault:(fun ~index ~attempt ->
        if attempt = 0 && List.mem index failed then failwith "injected failure")
      ()
  in
  check_int "durable: every fault injected" 80 r.Durable.stats.Campaign.injections;
  check_int "durable: one retry per failed attempt" (List.length failed) r.Durable.retried;
  check_int "durable: make calls = golden + one per worker (first + rebuilds)"
    (1 + 1 + List.length failed)
    (Atomic.get calls)

(* The checkpointing run's trace is the golden record every engine
   judges against: row for row it must be what a fresh system records
   over the same horizon, also when the horizon ends between
   checkpoints. *)
let test_trace_matches_record () =
  List.iter
    (fun (name, core, cycles, checkpoint_interval) ->
      let _, make, _, _ = Lazy.force core in
      let c = Campaign.create ?checkpoint_interval ~make ~total_cycles:cycles () in
      check_bool
        (Printf.sprintf "%s: horizon %d ends between checkpoints" name cycles)
        true
        (cycles mod Campaign.checkpoint_interval c <> 0);
      let got = Campaign.golden_trace c in
      let want = System.record (make ()) ~cycles in
      check_int (name ^ ": rows") (Trace.n_cycles want) (Trace.n_cycles got);
      check_int (name ^ ": wires") (Trace.n_wires want) (Trace.n_wires got);
      for cycle = 0 to cycles - 1 do
        if not (Bytes.equal (Trace.row_bytes want ~cycle) (Trace.row_bytes got ~cycle)) then
          Alcotest.failf "%s: golden trace row %d differs from System.record" name cycle
      done)
    [ ("avr", avr, 77, Some 10); ("msp430", msp, 77, Some 10); ("avr default", avr, 200, None) ]

(* --- lanes are checked for every model ------------------------------- *)

let test_lanes_every_model () =
  let cycles = 40 in
  let nl, _, _, _ = Lazy.force avr in
  List.iter
    (fun model ->
      let space = Fault_space.full ~model nl ~cycles in
      List.iter
        (fun lanes ->
          Alcotest.check_raises
            (Printf.sprintf "%s: lanes %d rejected" (Fault_model.name model) lanes)
            (Invalid_argument
               (Printf.sprintf "Campaign.run_sample_delta_batched: lanes must be in [1, %d]"
                  Campaign.max_delta_lanes))
            (fun () ->
              ignore
                (Campaign.run_sample_delta_batched (campaign avr ~cycles) ~space
                   ~rng:(Prng.create 1) ~n:10 ~lanes ())))
        [ 0; Campaign.max_delta_lanes + 1 ])
    Fault_model.[ Seu; Set; Mbu 2; Intermittent 3 ]

(* --- every catalogue pair ---------------------------------------------- *)

(* Each built-in system, looked up the way the CLI tools look it up,
   classifies a short SEU sample identically on the scalar engine and on
   the delta-batched engine at the full lane width and at 5 lanes. *)
let check_catalogue_pair label nl (program : System.program) =
  let cycles = 60 in
  let space = Fault_space.full nl ~cycles in
  let rng = Prng.create 0xCA7 in
  let faults =
    Array.init 120 (fun _ ->
        let key = Fault_space.draw_key space (Prng.int rng (Fault_space.n_keys space)) in
        (key, Prng.int rng cycles))
  in
  let campaign () =
    Campaign.create
      ~make:(fun () -> program.System.make nl)
      ~make_delta_batch:(program.System.make_delta_batch nl) ~total_cycles:cycles ()
  in
  let scalar =
    let c = campaign () in
    let w = Campaign.primary_worker c in
    Array.map (fun (key, cycle) -> Campaign.inject_fault c w ~space ~key ~cycle) faults
  in
  check_bool (label ^ ": not all benign") true (Array.exists (( <> ) Campaign.Benign) scalar);
  List.iter
    (fun lanes ->
      same_verdicts
        (Printf.sprintf "%s: delta-batched x %d lanes" label lanes)
        faults scalar
        (Campaign.inject_delta_batch (campaign ()) ~space ~lanes ~faults ()))
    [ Campaign.max_delta_lanes; 5 ]

let catalogue_cases =
  List.concat_map
    (fun (core : System.core) ->
      let nl = lazy (core.System.build ()) in
      List.map
        (fun (name, program) ->
          let label = core.System.core_name ^ "/" ^ name in
          Alcotest.test_case
            (Printf.sprintf "catalogue %s: scalar = delta-batched" label)
            `Quick
            (fun () -> check_catalogue_pair label (Lazy.force nl) program))
        core.System.programs)
    System.catalogue

let suite =
  exhaustive_cases
  @ [
      Alcotest.test_case "golden trace recorded once per campaign" `Quick test_trace_once;
      Alcotest.test_case "golden trace = System.record, both cores" `Quick
        test_trace_matches_record;
      Alcotest.test_case "lanes checked for every fault model" `Quick test_lanes_every_model;
      Alcotest.test_case "set batch: empty expansions, input order" `Quick test_set_batch_mixed;
    ]
  @ catalogue_cases
