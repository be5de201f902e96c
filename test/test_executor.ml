(* The supervised executor that both Durable runs and Worker chunks
   classify faults through: the plan/emit contract (one plan call per
   index in order, emissions in index order, Done never emitted),
   verdict identity on every kernel, retry and Crashed accounting per
   attempt unit (one fault, or one batched window), chaos crashes that
   never consume the retry budget, and cooperative stop between
   windows. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Executor = Pruning_fi.Executor
module Journal = Pruning_fi.Journal
module Chaos = Pruning_fi.Chaos
module Fault_space = Pruning_fi.Fault_space
module Backoff = Pruning_util.Backoff
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs

let cycles = 150
let n = 120
let kernels = Campaign.[ Scalar; Delta_batched ]

let makers =
  lazy
    (let nl = System.avr_netlist () in
     let program = Avr_asm.assemble Programs.avr_fib_halting in
     ( nl,
       (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
       fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" ))

(* A fresh campaign (no shared memo) and its canonical fault list. *)
let setup () =
  let nl, make, make_delta_batch = Lazy.force makers in
  let space = Fault_space.full nl ~cycles in
  let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles:cycles () in
  let samples = Campaign.draw_samples campaign ~space ~rng:(Prng.create 11) ~n in
  (space, campaign, samples)

let executor ?chaos ?should_stop ?(retries = 2) ?(window = 40) ~kernel (space, campaign, samples) =
  Executor.create campaign ~space ~samples ~kernel ~lanes:8 ~window ~retries
    ~backoff:(Backoff.create ~policy:Backoff.retry_policy (Prng.create 3))
    ?chaos ?should_stop ()

let outcome_of_verdict = function
  | Campaign.Benign -> Journal.Benign
  | Campaign.Latent -> Journal.Latent
  | Campaign.Sdc c -> Journal.Sdc c

(* Scalar from-scratch verdicts on a campaign of their own. *)
let reference () =
  let space, campaign, samples = setup () in
  let w = Campaign.fresh_worker campaign in
  Array.map
    (fun (key, cycle) -> outcome_of_verdict (Campaign.inject_fault campaign w ~space ~key ~cycle))
    samples

(* Run [lo..hi] and collect (plan calls, emissions, completed); the
   emitted windows go to [windows], oldest first. *)
let drive ?fault ?(lo = 0) ?(hi = n - 1) ?(windows = ref []) ~plan x =
  let planned = ref [] and emitted = ref [] in
  let completed =
    Executor.run x ~ranges:[ (lo, hi) ]
      ~plan:(fun i ~flop_id:_ ~cycle:_ ->
        planned := i :: !planned;
        plan i)
      ~emit:(fun window ->
        windows := !windows @ [ Array.to_list window ];
        emitted := List.rev_append (Array.to_list window) !emitted)
      ?fault ()
  in
  (List.rev !planned, List.rev !emitted, completed)

let mixed_plan i =
  if i mod 7 = 0 then Executor.Done else if i mod 5 = 0 then Executor.Skip else Executor.Inject

let test_contract () =
  let expected = reference () in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let x = executor ~window:16 ~kernel (setup ()) in
      let windows = ref [] in
      let planned, emitted, completed = drive ~lo:3 ~hi:(n - 1) ~windows ~plan:mixed_plan x in
      check_bool (label ^ ": completed") true completed;
      check_bool (label ^ ": one plan call per index, in order") true
        (planned = List.init (n - 3) (fun i -> i + 3));
      let want =
        List.filter_map
          (fun i ->
            match mixed_plan i with
            | Executor.Done -> None
            | Executor.Skip -> Some (i, Journal.Skipped)
            | Executor.Inject -> Some (i, expected.(i)))
          planned
      in
      check_bool (label ^ ": emissions = scalar verdicts, in index order") true (emitted = want);
      (* One emission per window holding a non-[Done] index: sixteen
         indices per batched window, one per scalar one. *)
      let width = if kernel = Campaign.Delta_batched then 16 else 1 in
      let by_window =
        List.filter_map
          (fun k ->
            match List.filter (fun (i, _) -> (i - 3) / width = k) want with
            | [] -> None
            | w -> Some w)
          (List.init (n - 3) Fun.id)
      in
      check_bool (label ^ ": one emission per window") true (!windows = by_window);
      check_int (label ^ ": no failures") 0 (Executor.failures x))
    kernels

(* A transient failure costs one retry and changes nothing; a persistent
   one crashes the attempt unit — one fault on the scalar kernel,
   the whole window on the batched one — after [retries] retries. The
   hook always names the first injected index of the attempted unit. *)
let test_retries () =
  let expected = reference () in
  let plan i = if i = 40 then Executor.Skip else Executor.Inject in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let hooked = ref [] in
      let x = executor ~window:20 ~kernel (setup ()) in
      let _, emitted, _ =
        drive x ~plan ~fault:(fun ~index ~attempt ->
            if attempt = 0 then hooked := index :: !hooked;
            if index = 41 && attempt = 0 then failwith "transient")
      in
      check_int (label ^ ": transient costs one failure") 1 (Executor.failures x);
      check_bool (label ^ ": transient changes nothing") true
        (List.for_all (fun (i, o) -> o = if i = 40 then Journal.Skipped else expected.(i)) emitted);
      let units =
        if kernel = Campaign.Delta_batched then [ 0; 20; 41; 60; 80; 100 ]
        else List.filter (fun i -> i <> 40) (List.init n Fun.id)
      in
      check_bool (label ^ ": hook sees each unit's first injected index") true
        (List.rev !hooked = units);
      let x = executor ~retries:1 ~window:20 ~kernel (setup ()) in
      let _, emitted, completed =
        drive x ~plan ~fault:(fun ~index ~attempt:_ -> if index = 60 then failwith "persistent")
      in
      check_bool (label ^ ": persistent completes") true completed;
      check_int (label ^ ": retries + 1 failures") 2 (Executor.failures x);
      let crashed =
        List.filter_map (fun (i, o) -> if o = Journal.Crashed then Some i else None) emitted
      in
      let unit = if kernel = Campaign.Delta_batched then List.init 20 (fun j -> 60 + j) else [ 60 ] in
      check_bool (label ^ ": crash unit") true (crashed = unit))
    kernels

(* An injected chaos crash is retried without consuming the budget: with
   zero retries and every attempt crashing until the plan's budget runs
   out, nothing is Crashed and nothing counts as a failure. *)
let test_chaos_neutral () =
  let expected = reference () in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let profile = { Chaos.quiet_profile with Chaos.exec_crash = 1.0; budget = 5 } in
      let chaos = Chaos.create ~profile ~seed:1 () in
      let x = executor ~chaos ~retries:0 ~window:32 ~kernel (setup ()) in
      let _, emitted, _ = drive x ~plan:(fun _ -> Executor.Inject) in
      check_int (label ^ ": chaos budget spent") 5 (Chaos.injected chaos);
      check_int (label ^ ": no failures") 0 (Executor.failures x);
      check_bool (label ^ ": verdicts intact") true
        (List.for_all (fun (i, o) -> o = expected.(i)) emitted))
    kernels

(* [should_stop] is polled before every unit: a stop finishes and emits
   the window in flight, then reports the range incomplete. *)
let test_stop_between_windows () =
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let polls = ref 0 in
      let should_stop () =
        incr polls;
        !polls > 2
      in
      let x = executor ~should_stop ~window:25 ~kernel (setup ()) in
      let planned, emitted, completed = drive x ~plan:(fun _ -> Executor.Inject) in
      let unit = if kernel = Campaign.Delta_batched then 25 else 1 in
      check_bool (label ^ ": incomplete") false completed;
      check_int (label ^ ": two units planned") (2 * unit) (List.length planned);
      check_int (label ^ ": two units emitted") (2 * unit) (List.length emitted))
    kernels

(* A window takes its indices from consecutive ranges: many small
   ranges cost one attempt per window, not one per range, and the
   emissions follow the ranges' order. *)
let test_ranges_share_windows () =
  let expected = reference () in
  let ranges = [ (50, 56); (3, 10); (20, 20); (30, 29); (60, 73) ] in
  let order = List.concat_map (fun (lo, hi) -> List.init (max 0 (hi - lo + 1)) (( + ) lo)) ranges in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let x = executor ~window:16 ~kernel (setup ()) in
      let attempts = ref [] and emitted = ref [] in
      let completed =
        Executor.run x ~ranges
          ~plan:(fun _ ~flop_id:_ ~cycle:_ -> Executor.Inject)
          ~emit:(fun window -> emitted := List.rev_append (Array.to_list window) !emitted)
          ~fault:(fun ~index ~attempt:_ -> attempts := index :: !attempts)
          ()
      in
      check_bool (label ^ ": completed") true completed;
      check_bool (label ^ ": emissions in range order") true
        (List.rev !emitted = List.map (fun i -> (i, expected.(i))) order);
      let firsts = if kernel = Campaign.Delta_batched then [ 50; 60 ] else order in
      check_bool (label ^ ": attempts span ranges") true (List.rev !attempts = firsts))
    kernels

let suite =
  [
    Alcotest.test_case "plan/emit contract on every kernel" `Quick test_contract;
    Alcotest.test_case "retry and crash accounting per unit" `Quick test_retries;
    Alcotest.test_case "chaos crashes never consume retries" `Quick test_chaos_neutral;
    Alcotest.test_case "stop between windows" `Quick test_stop_between_windows;
    Alcotest.test_case "windows span ranges" `Quick test_ranges_share_windows;
  ]
