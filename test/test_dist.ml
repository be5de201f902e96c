(* The distributed campaign layer: wire-protocol framing (round-trip,
   truncation, corruption, malformed messages), and coordinator/worker
   chaos paths — stats parity distributed-vs-local on both cores and
   both engines, straggler lease re-dispatch with duplicate dedup, a
   SIGKILLed worker mid-chunk, coordinator kill/resume from its journal,
   and protocol-violating clients that must never corrupt a campaign. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Durable = Pruning_fi.Durable
module Fault_space = Pruning_fi.Fault_space
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Term = Pruning_mate.Term

let check_stats label (a : Campaign.stats) (b : Campaign.stats) =
  check_int (label ^ ": injections") a.Campaign.injections b.Campaign.injections;
  check_int (label ^ ": benign") a.Campaign.benign b.Campaign.benign;
  check_int (label ^ ": latent") a.Campaign.latent b.Campaign.latent;
  check_int (label ^ ": sdc") a.Campaign.sdc b.Campaign.sdc;
  check_int (label ^ ": skipped") a.Campaign.skipped b.Campaign.skipped;
  check_int (label ^ ": crashed") a.Campaign.crashed b.Campaign.crashed

let scratch_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pruning-dist-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  d

(* --- wire protocol: frames and messages ------------------------------ *)

let sample_header =
  {
    Journal.core = "avr";
    program = "fib";
    cycles = 120;
    seed = 42;
    samples = 10;
    prune = true;
    audit = 0.;
    shards = 0;
    batched = false;
    epoch = 0;
    fault_model = Pruning_fi.Fault_model.Seu;
    prng = Prng.save (Prng.create 42);
    shard_prng = [||];
  }

let all_msgs =
  [
    Proto.Hello { version = Proto.version; name = "worker-1"; epoch = -1 };
    Proto.Welcome { header = sample_header; suspicion = 2 };
    Proto.Request;
    Proto.Assign
      { Proto.chunk_id = 3; lo = 12; hi = 15; model = 0; model_param = 0; purpose = Proto.Data };
    Proto.Wait;
    Proto.Results
      {
        chunk_id = 3;
        results =
          [|
            (12, Journal.Benign);
            (13, Journal.Latent);
            (14, Journal.Sdc 37);
            (15, Journal.Skipped);
            (16, Journal.Crashed);
          |];
      };
    Proto.Chunk_done { chunk_id = 3 };
    Proto.Heartbeat;
    Proto.Done;
  ]

let test_msg_round_trip () =
  List.iteri
    (fun i m ->
      check_bool (Printf.sprintf "msg %d round-trips" i) true (Proto.decode (Proto.encode m) = m))
    all_msgs

(* Feed [wire] to a streaming decoder in pieces of the given sizes
   (cycled), popping every frame as soon as it is complete. *)
let feed_in_pieces pieces wire =
  let pieces = Array.of_list pieces in
  let d = Proto.decoder () in
  let got = ref [] in
  let i = ref 0 and k = ref 0 in
  while !i < String.length wire do
    let n = min pieces.(!k mod Array.length pieces) (String.length wire - !i) in
    Proto.feed d (Bytes.of_string (String.sub wire !i n)) n;
    i := !i + n;
    incr k;
    let continue = ref true in
    while !continue do
      match Proto.next_frame d with
      | None -> continue := false
      | Some payload -> got := payload :: !got
    done
  done;
  List.rev !got

(* The streaming decoder must reassemble frames regardless of how the
   byte stream is sliced — including one byte at a time. *)
let test_decoder_streaming () =
  let wire = String.concat "" (List.map (fun m -> Proto.encode_frame (Proto.encode m)) all_msgs) in
  List.iter
    (fun step ->
      check_bool (Printf.sprintf "all frames at step %d" step) true
        (List.map Proto.decode (feed_in_pieces [ step ] wire) = all_msgs))
    [ 1; 3; 7; String.length wire ]

(* A thousand frames of random payloads, fed as one piece and then in
   random-sized pieces, decode to the same payloads; the decoder's
   allocation stays linear in the bytes fed (one copy per payload plus
   a constant per frame), where copying the pending buffer per popped
   frame would be quadratic in the bytes of one feed. *)
let test_decoder_linear () =
  let rng = Random.State.make [| 25 |] in
  let payloads =
    List.init 1000 (fun _ ->
        String.init (Random.State.int rng 300) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let wire = Bytes.of_string (String.concat "" (List.map Proto.encode_frame payloads)) in
  let total = Bytes.length wire in
  let scratch = Bytes.create total in
  let decode sizes =
    let d = Proto.decoder () in
    let got = ref [] in
    (* Words allocated by this domain: [Gc.minor_words] is exact, and
       [Gc.counters] adds the blocks allocated straight in the major
       heap ([Gc.quick_stat] lags until the next collection). *)
    let words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let w0 = words () in
    let off = ref 0 in
    List.iter
      (fun k ->
        Bytes.blit wire !off scratch 0 k;
        Proto.feed d scratch k;
        off := !off + k;
        let continue = ref true in
        while !continue do
          match Proto.next_frame d with
          | None -> continue := false
          | Some p -> got := p :: !got
        done)
      sizes;
    let allocated = words () -. w0 in
    (List.rev !got, allocated)
  in
  let rec pieces left =
    if left = 0 then []
    else
      let k = min left (1 + Random.State.int rng 5000) in
      k :: pieces (left - k)
  in
  List.iter
    (fun (label, sizes) ->
      let got, allocated = decode sizes in
      check_bool (label ^ ": payloads round-trip") true (got = payloads);
      check_bool
        (Printf.sprintf "%s: %.0f words allocated for %d bytes fed" label allocated total)
        true
        (allocated < float_of_int total))
    [ ("one piece", [ total ]); ("random pieces", pieces total) ]

let test_frame_corruption () =
  let frame = Proto.encode_frame (Proto.encode Proto.Request) in
  (* Flip one payload bit: the CRC must catch it. *)
  let corrupt = Bytes.of_string frame in
  Bytes.set corrupt 8 (Char.chr (Char.code (Bytes.get corrupt 8) lxor 0x40));
  let d = Proto.decoder () in
  Proto.feed d corrupt (Bytes.length corrupt);
  (match Proto.next_frame d with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "corrupt frame must raise");
  (* A length field beyond the cap is rejected before any allocation. *)
  let huge = Bytes.make 8 '\xff' in
  let d = Proto.decoder () in
  Proto.feed d huge 8;
  match Proto.next_frame d with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "oversized frame length must raise"

let test_frame_sockets () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter (fun m -> Proto.send a m) all_msgs;
  List.iteri
    (fun i m -> check_bool (Printf.sprintf "socket msg %d" i) true (Proto.recv b = m))
    all_msgs;
  (* Clean EOF at a frame boundary is Closed, not an error... *)
  Unix.close a;
  (match Proto.recv b with
  | exception Proto.Closed -> ()
  | _ -> Alcotest.fail "EOF at boundary must raise Closed");
  Unix.close b;
  (* ...but EOF mid-frame is a truncation error. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame =
    Proto.encode_frame
      (Proto.encode
         (Proto.Assign
            { chunk_id = 1; lo = 0; hi = 9; model = 0; model_param = 0; purpose = Proto.Data }))
  in
  let partial = String.sub frame 0 (String.length frame - 2) in
  ignore (Unix.write_substring a partial 0 (String.length partial));
  Unix.close a;
  (match Proto.recv b with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "EOF mid-frame must raise Error");
  Unix.close b

let test_malformed_messages () =
  let expect_error label s =
    match Proto.decode s with
    | exception Proto.Error _ -> ()
    | _ -> Alcotest.fail (label ^ " must raise")
  in
  expect_error "empty" "";
  expect_error "unknown tag" "Z";
  expect_error "trailing garbage" (Proto.encode Proto.Request ^ "x");
  expect_error "truncated Assign" "A\x01\x00\x00";
  (* A Results header claiming more entries than the payload could hold. *)
  expect_error "absurd results count" "r\x00\x00\x00\x00\xff\xff\xff\x00";
  expect_error "unknown outcome kind"
    "r\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00";
  expect_error "bad Welcome header" "W\x03\x00\x00\x00abc"

(* No input crashes the decoders: arbitrary bytes, and every message's
   payload or frame with flipped bytes, a truncation or an extension —
   also re-framed under a valid CRC, so the mutated payload gets past the
   frame check. Each input goes to [decode] and, in random-sized pieces,
   through the streaming decoder, whose every frame is decoded. Only
   [Proto.Error] may escape, and an intact frame fed in the same pieces
   still decodes to its message. *)
let prop_decoders_total =
  let open QCheck2.Gen in
  let mutation =
    oneof
      [
        map2 (fun i x -> `Flip (i, x)) nat (int_range 1 255);
        map (fun k -> `Truncate k) nat;
        map (fun e -> `Extend e) (string_size ~gen:char (int_range 1 12));
      ]
  in
  let mutate s = function
    | `Flip (i, x) when s <> "" ->
      let b = Bytes.of_string s in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.to_string b
    | `Flip _ -> s
    | `Truncate k -> String.sub s 0 (k mod (String.length s + 1))
    | `Extend e -> s ^ e
  in
  let mutated =
    let* m = oneofl all_msgs in
    let* muts = list_size (int_range 1 3) mutation in
    let payload = Proto.encode m in
    oneofl
      [
        List.fold_left mutate payload muts;
        Proto.encode_frame (List.fold_left mutate payload muts);
        List.fold_left mutate (Proto.encode_frame payload) muts;
      ]
  in
  let input = oneof [ string_size ~gen:char (int_range 0 64); mutated ] in
  let pieces = list_size (int_range 1 4) (int_range 1 16) in
  QCheck2.Test.make ~name:"proto: decoders raise only Proto.Error" ~count:2000
    ~print:QCheck2.Print.(triple string (list int) int)
    (triple input pieces (int_bound (List.length all_msgs - 1)))
    (fun (bytes, pieces, j) ->
      let only_error f =
        match f () with
        | _ | (exception Proto.Error _) -> ()
      in
      only_error (fun () -> Proto.decode bytes);
      only_error (fun () ->
          List.iter (fun p -> only_error (fun () -> Proto.decode p)) (feed_in_pieces pieces bytes));
      let m = List.nth all_msgs j in
      List.map Proto.decode (feed_in_pieces pieces (Proto.encode_frame (Proto.encode m))) = [ m ])

(* --- coordinator/worker integration ---------------------------------- *)

let toy_cycles = 8
let toy_n = 60
let toy_seed = 21

let toy_parts () =
  let nl = figure1_seq_netlist () in
  let make () =
    {
      System.kind = System.Avr;
      name = "toy";
      netlist = nl;
      sim = Sim.create nl;
      ram = [||];
      rf_prefix = "!none";
    }
  in
  let space = Fault_space.full nl ~cycles:toy_cycles in
  let campaign = Campaign.create ~make ~total_cycles:toy_cycles () in
  (nl, make, space, campaign)

let toy_engine ?skip () =
  let _, _, space, campaign = toy_parts () in
  { Worker.campaign; space; skip; kernel = Campaign.Scalar }

(* One MATE claiming flop [a] always benign — honestly prunable in this
   circuit, and rebuilt deterministically by every worker. *)
let toy_prune_skip () =
  let nl, make, space, _ = toy_parts () in
  let a = ref (-1) in
  Array.iter
    (fun (f : Netlist.flop) -> if f.Netlist.flop_name = "a" then a := f.Netlist.flop_id)
    nl.Netlist.flops;
  let set = Mateset.build [ (!a, [ Term.always_true ]) ] in
  let trace = System.record (make ()) ~cycles:toy_cycles in
  let triggers = Replay.triggers set trace in
  let p = Replay.pruner set triggers ~space () in
  fun ~flop_id ~cycle -> Replay.pruned p ~flop_id ~cycle

let make_header ?(core = "toy") ?(program = "toy") ?(cycles = toy_cycles) ?(samples = toy_n)
    ?(seed = toy_seed) ?(prune = false) ?(model = Pruning_fi.Fault_model.Seu) () =
  {
    Journal.core;
    program;
    cycles;
    seed;
    samples;
    prune;
    audit = 0.;
    shards = 0;
    batched = false;
    epoch = 0;
    fault_model = model;
    prng = Prng.save (Prng.create seed);
    shard_prng = [||];
  }

let test_config =
  {
    Coordinator.default_config with
    Coordinator.chunk_size = 4;
    lease = 5.;
    tick = 0.01;
    drain = 10.;
  }

(* Thread-collected events, and serve/work running off the main thread. *)
let event_log () =
  let lock = Mutex.create () in
  let events = ref [] in
  let push e =
    Mutex.lock lock;
    events := e :: !events;
    Mutex.unlock lock
  in
  let all () =
    Mutex.lock lock;
    let es = List.rev !events in
    Mutex.unlock lock;
    es
  in
  (push, all)

let serve_bg coord ~header ?journal ?resume ?should_stop ?on_event () =
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Some
            (match Coordinator.serve coord ~header ?journal ?resume ?should_stop ?on_event () with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  let join () =
    Thread.join thread;
    match !result with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false
  in
  join

let work_bg ~port ~name ~resolve ?retry_backoff ?reconnect_backoff ?max_reconnects
    ?results_per_frame ?heartbeat ?should_stop ?fault () =
  let report = ref None in
  let thread =
    Thread.create
      (fun () ->
        report :=
          Some
            (match
               Worker.run ~host:"127.0.0.1" ~port ~resolve ~name ?retry_backoff ?reconnect_backoff
                 ?max_reconnects ?results_per_frame ?heartbeat ?should_stop ?fault ()
             with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  let join () =
    Thread.join thread;
    match !report with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false
  in
  join

let toy_reference ?skip () =
  let _, _, space, campaign = toy_parts () in
  Campaign.run_sample campaign ~space ~rng:(Prng.create toy_seed) ~n:toy_n ?skip ()

(* Plain fleet, no chaos: three workers must reproduce the local stats
   bit-for-bit, with and without a deterministic pruner on every node. *)
let test_parity_toy () =
  List.iter
    (fun prune ->
      let reference =
        toy_reference ?skip:(if prune then Some (toy_prune_skip ()) else None) ()
      in
      let coord = Coordinator.create ~config:test_config () in
      let port = Coordinator.port coord in
      let join = serve_bg coord ~header:(make_header ~prune ()) () in
      let workers =
        List.init 3 (fun i ->
            work_bg ~port
              ~name:(Printf.sprintf "w%d" i)
              ~resolve:(fun _ ->
                toy_engine ?skip:(if prune then Some (toy_prune_skip ()) else None) ())
              ())
      in
      let reports = List.map (fun j -> j ()) workers in
      let r = join () in
      let label = if prune then "toy pruned" else "toy" in
      check_bool (label ^ ": completed") true r.Coordinator.completed;
      check_int (label ^ ": workers") 3 r.Coordinator.workers;
      check_int (label ^ ": mismatches") 0 r.Coordinator.mismatches;
      check_stats label reference r.Coordinator.stats;
      List.iter
        (fun rep -> check_bool (label ^ ": worker done") true (rep.Worker.ended = Worker.Campaign_done))
        reports;
      check_bool (label ^ ": all samples submitted once or more") true
        (List.fold_left (fun acc rep -> acc + rep.Worker.submitted) 0 reports >= toy_n);
      if prune then check_bool (label ^ ": something pruned") true (reference.Campaign.skipped > 0))
    [ false; true ]

(* Distributed-vs-local parity on the real cores, with a mixed fleet:
   one scalar and one delta-batched worker (their verdicts are
   bit-identical, so mixing kernels is legal). *)
let check_parity_core label makers =
  let build () =
    let nl, make, make_delta_batch = makers in
    let space = Fault_space.full nl ~cycles:120 in
    let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles:120 () in
    (space, campaign)
  in
  let n = 200 in
  let seed = 7 in
  let reference =
    let space, campaign = build () in
    Campaign.run_sample campaign ~space ~rng:(Prng.create seed) ~n ()
  in
  let config = { test_config with Coordinator.chunk_size = 16 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let header = make_header ~core:label ~program:"fib" ~cycles:120 ~samples:n ~seed () in
  let join = serve_bg coord ~header () in
  let engine kernel _ =
    let space, campaign = build () in
    { Worker.campaign; space; skip = None; kernel }
  in
  let w1 = work_bg ~port ~name:"scalar" ~resolve:(engine Campaign.Scalar) () in
  let w2 = work_bg ~port ~name:"batched" ~resolve:(engine Campaign.Delta_batched) () in
  let r1 = w1 () and r2 = w2 () in
  let r = join () in
  check_bool (label ^ ": completed") true r.Coordinator.completed;
  check_int (label ^ ": mismatches") 0 r.Coordinator.mismatches;
  check_stats (label ^ ": mixed fleet parity") reference r.Coordinator.stats;
  check_bool (label ^ ": all finished") true
    (r1.Worker.ended = Worker.Campaign_done && r2.Worker.ended = Worker.Campaign_done)

let avr_makers () =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  ( nl,
    (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
    fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" )

let msp_makers () =
  let nl = System.msp_netlist () in
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  ( nl,
    (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
    fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" )

let test_parity_avr () = check_parity_core "avr" (avr_makers ())
let test_parity_msp () = check_parity_core "msp430" (msp_makers ())

(* A delta-batched worker handed a non-SEU campaign runs it on the wide
   engine, exactly as the local runners do: SET gate keys and MBU
   clusters expand into multi-flop lanes, intermittent faults hold
   their lanes. Stats must equal the local scalar run. *)
let test_worker_non_seu_models () =
  let cycles = 120 and n = 120 and seed = 5 in
  let nl, make, make_delta_batch = avr_makers () in
  List.iter
    (fun model ->
      let label = Pruning_fi.Fault_model.name model in
      let space = Fault_space.full ~model nl ~cycles in
      let campaign () = Campaign.create ~make ~make_delta_batch ~total_cycles:cycles () in
      let reference = Campaign.run_sample (campaign ()) ~space ~rng:(Prng.create seed) ~n () in
      let config = { test_config with Coordinator.chunk_size = 32 } in
      let coord = Coordinator.create ~config () in
      let port = Coordinator.port coord in
      let header = make_header ~core:"avr" ~program:"fib" ~cycles ~samples:n ~seed ~model () in
      let join = serve_bg coord ~header () in
      let resolve _ =
        { Worker.campaign = campaign (); space; skip = None; kernel = Campaign.Delta_batched }
      in
      let rep = work_bg ~port ~name:"wide" ~resolve () () in
      let r = join () in
      check_bool (label ^ ": completed") true r.Coordinator.completed;
      check_int (label ^ ": no worker crashes") 0 rep.Worker.crashes;
      check_stats (label ^ ": delta-batched worker = scalar") reference r.Coordinator.stats)
    Pruning_fi.Fault_model.[ Set; Mbu 2; Intermittent 3 ]

(* A delta-batched worker classifies a chunk bigger than its window
   ({!Worker.window}: 64 full passes per domain) window by window,
   heartbeating and polling [should_stop] between them, instead of one
   opaque batch that can outlive its lease. Stopped after the first
   window, it has submitted exactly that window; the chunk's remainder
   is re-dispatched to a second worker with verdicts intact. *)
let test_worker_batched_windows () =
  let cycles = 120 and n = Worker.window + 92 and seed = 7 in
  let nl, make, make_delta_batch = avr_makers () in
  let space = Fault_space.full nl ~cycles in
  let campaign () = Campaign.create ~make ~make_delta_batch ~total_cycles:cycles () in
  let reference =
    Campaign.run_sample_delta_batched (campaign ()) ~space ~rng:(Prng.create seed) ~n ()
  in
  let config = { test_config with Coordinator.chunk_size = n } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let join =
    serve_bg coord ~header:(make_header ~core:"avr" ~program:"fib" ~cycles ~samples:n ~seed ()) ()
  in
  let resolve _ =
    { Worker.campaign = campaign (); space; skip = None; kernel = Campaign.Delta_batched }
  in
  (* Polls: before connecting, before the first Request, before each
     window — so the fourth poll is the one between windows 1 and 2. *)
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls > 3
  in
  let stopped = (work_bg ~port ~name:"stopped" ~resolve ~should_stop ()) () in
  check_bool "stopped mid-chunk" true (stopped.Worker.ended = Worker.Stopped);
  check_int "submitted exactly the first window" Worker.window stopped.Worker.submitted;
  let finisher = (work_bg ~port ~name:"finisher" ~resolve ()) () in
  let r = join () in
  check_bool "finisher done" true (finisher.Worker.ended = Worker.Campaign_done);
  check_bool "completed" true r.Coordinator.completed;
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_stats "windowed chunk = local" reference r.Coordinator.stats

(* Lease batching: a delta-batched worker keeps leasing small chunks
   until they fill its window, then classifies their union in one
   engine attempt, while a scalar worker in the same fleet keeps one
   lease per attempt. The scalar worker leases first and holds its
   chunk until the batched worker has made an attempt, so both take
   part. The served stats equal the local batched run. *)
let test_worker_lease_batching () =
  let cycles = 120 and n = 600 and seed = 9 in
  let chunk_size = test_config.Coordinator.chunk_size in
  let nl, make, make_delta_batch = avr_makers () in
  let space = Fault_space.full nl ~cycles in
  let campaign () = Campaign.create ~make ~make_delta_batch ~total_cycles:cycles () in
  let reference =
    Campaign.run_sample_delta_batched (campaign ()) ~space ~rng:(Prng.create seed) ~n ()
  in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let join =
    serve_bg coord ~header:(make_header ~core:"avr" ~program:"fib" ~cycles ~samples:n ~seed ()) ()
  in
  let engine kernel _ = { Worker.campaign = campaign (); space; skip = None; kernel } in
  (* (chunk, index) of every attempt, per worker; hooks run on the
     workers' threads. *)
  let lock = Mutex.create () in
  let log = ref [] in
  let hook who ~chunk_id ~index ~attempt:_ =
    Mutex.protect lock (fun () -> log := (who, chunk_id, index) :: !log)
  in
  let attempts who =
    Mutex.protect lock (fun () -> List.rev (List.filter (fun (w, _, _) -> w = who) !log))
  in
  let scalar =
    work_bg ~port ~name:"scalar" ~resolve:(engine Campaign.Scalar)
      ~fault:(fun ~chunk_id ~index ~attempt ->
        hook "scalar" ~chunk_id ~index ~attempt;
        let deadline = Unix.gettimeofday () +. 10. in
        while attempts "batched" = [] && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done)
      ()
  in
  wait_for (fun () -> attempts "scalar" <> []) "the scalar worker to hold a lease";
  let batched =
    work_bg ~port ~name:"batched" ~resolve:(engine Campaign.Delta_batched) ~fault:(hook "batched") ()
  in
  let rs = scalar () and rb = batched () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_stats "batched leases = local batched run" reference r.Coordinator.stats;
  check_bool "both finished" true
    (rs.Worker.ended = Worker.Campaign_done && rb.Worker.ended = Worker.Campaign_done);
  let on_own_chunk = List.for_all (fun (_, c, i) -> c = i / chunk_size) in
  let b = attempts "batched" and s = attempts "scalar" in
  check_bool "batched worker took chunks" true (rb.Worker.chunks > 1);
  check_bool "fewer batched attempts than chunks" true (List.length b < rb.Worker.chunks);
  check_bool "batched hook names the first index's chunk" true (on_own_chunk b);
  check_bool "scalar worker took a chunk" true (rs.Worker.chunks >= 1);
  check_int "scalar: one attempt per fault of its leases" (chunk_size * rs.Worker.chunks)
    (List.length s);
  check_bool "scalar hook names the attempted fault's chunk" true (on_own_chunk s);
  check_bool "scalar finishes each lease before the next" true
    (List.for_all Fun.id (List.mapi (fun k (_, _, i) -> i mod chunk_size = k mod chunk_size) s))

(* A lease is input from the network: one that contradicts the
   campaign's fault model, is empty or reaches past the fault list is
   refused like a corrupt frame (the session is dropped), never run. *)
let test_worker_refuses_bad_lease () =
  List.iter
    (fun (label, lo, hi, model) ->
      let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listen 1;
      let port =
        match Unix.getsockname listen with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let hung_up = ref false in
      let server =
        Thread.create
          (fun () ->
            let fd, _ = Unix.accept listen in
            (match Proto.recv fd with
            | Proto.Hello _ -> Proto.send fd (Proto.Welcome { header = make_header (); suspicion = 0 })
            | _ -> ());
            (match Proto.recv fd with
            | Proto.Request ->
              Proto.send fd
                (Proto.Assign
                   { Proto.chunk_id = 0; lo; hi; model; model_param = 0; purpose = Proto.Data })
            | _ -> ());
            (match Proto.recv fd with
            | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) -> hung_up := true
            | _ -> ());
            Unix.close fd;
            Unix.close listen)
          ()
      in
      let rep = (work_bg ~port ~name:"w" ~resolve:(fun _ -> toy_engine ()) ~max_reconnects:0 ()) () in
      Thread.join server;
      check_bool (label ^ ": session dropped") true !hung_up;
      check_bool (label ^ ": worker gave up") true
        (match rep.Worker.ended with Worker.Gave_up _ -> true | _ -> false);
      check_int (label ^ ": nothing submitted") 0 rep.Worker.submitted)
    [
      ("other fault model", 0, 3, 1);
      ("empty range", 4, 3, 0);
      ("past the fault list", toy_n - 2, toy_n, 0);
    ]

(* Durable runs and Worker chunks share one supervised executor, so the
   same failing experiments cost the same retries and crash the same
   faults on either side. *)
let test_worker_retry_accounting () =
  let failing ~index ~attempt =
    if (index = 3 && attempt = 0) || index = 5 then failwith "injected failure"
  in
  let _, _, space, campaign = toy_parts () in
  let local =
    Durable.run campaign ~space ~seed:toy_seed ~n:toy_n
      ~fault:(fun ~index ~attempt -> failing ~index ~attempt)
      ()
  in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let join = serve_bg coord ~header:(make_header ()) () in
  let rep =
    (work_bg ~port ~name:"w" ~resolve:(fun _ -> toy_engine ())
       ~fault:(fun ~chunk_id:_ ~index ~attempt -> failing ~index ~attempt)
       ())
      ()
  in
  let r = join () in
  check_int "durable: 1 transient + 3 persistent failures" 4 local.Durable.retried;
  check_int "worker retried = durable retried" local.Durable.retried rep.Worker.retried;
  check_int "worker crashes = durable crashed" local.Durable.stats.Campaign.crashed
    rep.Worker.crashes;
  check_stats "distributed = durable" local.Durable.stats r.Coordinator.stats

(* A straggler: stalls mid-chunk long past its lease, so the chunk is
   re-dispatched and recomputed by the healthy worker — then the
   straggler wakes up and delivers anyway. Its late verdicts must be
   deduplicated (asserted equal), never double-counted. *)
let test_straggler_dedup () =
  let reference = toy_reference () in
  let config = { test_config with Coordinator.lease = 0.3 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  let stalled = ref false in
  let straggler =
    work_bg ~port ~name:"straggler"
      ~resolve:(fun _ -> toy_engine ())
      ~heartbeat:30. ~results_per_frame:1
      ~fault:(fun ~chunk_id:_ ~index:_ ~attempt:_ ->
        if not !stalled then begin
          stalled := true;
          Unix.sleepf 1.2
        end)
      ()
  in
  (* Let the straggler grab (and stall on) a chunk before the healthy
     worker joins, so the re-dispatch is guaranteed to happen. *)
  wait_for (fun () -> !stalled) "straggler to stall";
  let healthy = work_bg ~port ~name:"healthy" ~resolve:(fun _ -> toy_engine ()) () in
  let r_straggler = straggler () in
  let r_healthy = healthy () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_stats "straggler parity" reference r.Coordinator.stats;
  check_bool "lease was re-dispatched" true (r.Coordinator.redispatched >= 1);
  check_bool "late duplicates deduplicated" true (r.Coordinator.duplicates >= 1);
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_bool "straggler still finished" true (r_straggler.Worker.ended = Worker.Campaign_done);
  check_bool "healthy finished" true (r_healthy.Worker.ended = Worker.Campaign_done);
  check_bool "expiry event emitted" true
    (List.exists
       (function
         | Coordinator.Redispatched { reason = "lease expired"; _ } -> true
         | _ -> false)
       (all ()))

(* The acceptance scenario: three workers, one SIGKILLed mid-chunk (a
   real OS process, killed for real), campaign completes with stats
   bit-identical to the single-process run. The victim is the
   dist_victim helper executable: it handshakes, takes a chunk lease,
   and stalls forever on its first experiment. (Unix.fork is off limits
   here — earlier suites spawn domains — so it is a spawned process.) *)
let test_sigkill_worker () =
  let reference = toy_reference () in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let victim_exe = Filename.concat (Filename.dirname Sys.executable_name) "dist_victim.exe" in
  let victim =
    Unix.create_process victim_exe
      [| victim_exe; string_of_int port |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  let victim_leased () =
    List.exists
      (function
        | Coordinator.Assigned { worker = "victim"; _ } -> true
        | _ -> false)
      (all ())
  in
  wait_for victim_leased "the victim to hold a chunk lease";
  Unix.kill victim Sys.sigkill;
  let _, status = Unix.waitpid [] victim in
  check_bool "victim really SIGKILLed" true (status = Unix.WSIGNALED Sys.sigkill);
  (* Either survivor alone could finish every chunk before the other
     handshakes. Each holds in [resolve], after its own join, until the
     other has joined too. *)
  let joined name () =
    List.exists
      (function
        | Coordinator.Joined { worker } -> worker = name
        | _ -> false)
      (all ())
  in
  let survivor name ~waits_for =
    work_bg ~port ~name
      ~resolve:(fun _ ->
        wait_for (joined waits_for) (waits_for ^ " to join");
        toy_engine ())
      ()
  in
  let w1 = survivor "w1" ~waits_for:"w2" in
  let w2 = survivor "w2" ~waits_for:"w1" in
  let r1 = w1 () and r2 = w2 () in
  let r = join () in
  check_bool "completed without the victim" true r.Coordinator.completed;
  check_stats "SIGKILL parity" reference r.Coordinator.stats;
  check_int "three workers joined" 3 r.Coordinator.workers;
  check_bool "victim's chunk re-dispatched" true (r.Coordinator.redispatched >= 1);
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_bool "survivors finished" true
    (r1.Worker.ended = Worker.Campaign_done && r2.Worker.ended = Worker.Campaign_done);
  check_bool "victim death observed" true
    (List.exists
       (function
         | Coordinator.Left { worker = "victim"; _ } -> true
         | _ -> false)
       (all ()))

(* Coordinator kill/resume: stop the coordinator partway (its worker is
   left to give up reconnecting), then resume from the journal with a
   fresh coordinator and worker — recovered verdicts are not recomputed
   and the final stats match the uninterrupted local run. The journal is
   marked distributed (shards = 0), so a local Durable resume on it must
   refuse. *)
let test_coordinator_resume () =
  let reference = toy_reference () in
  let dir = scratch_dir () in
  let header = make_header () in
  let seen = Atomic.make 0 in
  let coord1 = Coordinator.create ~config:test_config () in
  let port1 = Coordinator.port coord1 in
  let join1 =
    serve_bg coord1 ~header ~journal:dir
      ~should_stop:(fun () -> Atomic.get seen >= 20)
      ~on_event:(function
        | Coordinator.Progress { done_; _ } -> Atomic.set seen done_
        | _ -> ())
      ()
  in
  let fast_giveup = { Pruning_util.Backoff.base = 0.01; cap = 0.05; factor = 2. } in
  let w1 =
    work_bg ~port:port1 ~name:"phase1"
      ~resolve:(fun _ -> toy_engine ())
      ~results_per_frame:1 ~reconnect_backoff:fast_giveup ~max_reconnects:2 ()
  in
  let r1 = join1 () in
  check_bool "phase 1 interrupted" false r1.Coordinator.completed;
  (match (w1 ()).Worker.ended with
  | Worker.Gave_up _ -> ()
  | _ -> Alcotest.fail "orphaned worker must give up reconnecting");
  (* A distributed journal is not resumable by the local runner. *)
  (let _, _, space, campaign = toy_parts () in
   match
     Durable.run campaign ~space ~seed:toy_seed ~n:toy_n ~ident:("toy", "toy") ~journal:dir
       ~resume:true ()
   with
  | exception Journal.Error _ -> ()
  | _ -> Alcotest.fail "local resume of a distributed journal must refuse");
  let coord2 = Coordinator.create ~config:test_config () in
  let port2 = Coordinator.port coord2 in
  let join2 = serve_bg coord2 ~header ~journal:dir ~resume:true () in
  let w2 = work_bg ~port:port2 ~name:"phase2" ~resolve:(fun _ -> toy_engine ()) () in
  let rep2 = w2 () in
  let r2 = join2 () in
  check_bool "phase 2 completed" true r2.Coordinator.completed;
  check_bool "recovered some verdicts" true (r2.Coordinator.recovered >= 20);
  check_bool "recovered only part" true (r2.Coordinator.recovered < toy_n);
  check_stats "resume parity" reference r2.Coordinator.stats;
  check_bool "phase 2 worker done" true (rep2.Worker.ended = Worker.Campaign_done);
  check_bool "phase 2 did real work" true (rep2.Worker.submitted > 0);
  rm_rf dir

(* Group commit: the coordinator journals each [Results] frame's
   verdicts as one group, so a kill loses at most the frame it was
   committing. Cut the journal of a finished campaign back the way such
   a kill would leave it, with the last frame unflushed (0 torn bytes)
   or torn mid-record, and resume: the lost frame's chunk, and only it,
   is leased again, and the verdict table equals the uninterrupted
   run's, index by index. *)
let test_group_commit_resume () =
  let config = { test_config with Coordinator.chunk_size = 16 } in
  let header = make_header () in
  let table dir =
    let _, entries, _ = Journal.load ~dir in
    let outcomes = Array.make toy_n None in
    ignore (Journal.replay outcomes entries);
    (entries, outcomes)
  in
  List.iter
    (fun torn ->
      let label what = Printf.sprintf "%d torn bytes: %s" torn what in
      let dir = scratch_dir () in
      let coord = Coordinator.create ~config () in
      let join = serve_bg coord ~header ~journal:dir () in
      let w = work_bg ~port:(Coordinator.port coord) ~name:"first" ~resolve:(fun _ -> toy_engine ()) () in
      ignore (w ());
      check_bool (label "first run completed") true (join ()).Coordinator.completed;
      let entries, reference = table dir in
      (* One scalar worker, one frame per 16-sample chunk: the journal's
         trailing records of the last chunk are its last frame. *)
      let chunk = function
        | Journal.Outcome (i, _) -> i / config.Coordinator.chunk_size
        | _ -> -1
      in
      let n = Array.length entries in
      let last = chunk entries.(n - 1) in
      let rec frame_start j = if j > 0 && chunk entries.(j - 1) = last then frame_start (j - 1) else j in
      let kept = frame_start (n - 1) in
      let active = Filename.concat dir "active.bin" in
      let record_size = (Unix.stat active).Unix.st_size / n in
      Unix.truncate active ((kept * record_size) + torn);
      let push, all = event_log () in
      let coord2 = Coordinator.create ~config () in
      let join2 = serve_bg coord2 ~header ~journal:dir ~resume:true ~on_event:push () in
      let w2 =
        work_bg ~port:(Coordinator.port coord2) ~name:"second" ~resolve:(fun _ -> toy_engine ()) ()
      in
      ignore (w2 ());
      let r = join2 () in
      check_bool (label "resume completed") true r.Coordinator.completed;
      check_int (label "recovered the flushed frames") kept r.Coordinator.recovered;
      check_int (label "torn bytes dropped") torn r.Coordinator.dropped_bytes;
      let releases =
        List.filter_map
          (function
            | Coordinator.Assigned { chunk; _ } -> Some chunk.Proto.chunk_id
            | _ -> None)
          (all ())
      in
      check_bool (label "only the lost frame's chunk re-leased") true (releases = [ last ]);
      check_bool (label "verdicts bit-identical to the uninterrupted run") true
        (snd (table dir) = reference);
      rm_rf dir)
    [ 0; 5 ]

(* Misbehaving clients: a wrong protocol version, out-of-range sample
   indices, and a verdict that contradicts the recorded one. Each only
   costs the offender its connection; the campaign completes with clean
   statistics either way, and the disagreement is surfaced. *)
let test_rogue_clients () =
  let reference = toy_reference () in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let join = serve_bg coord ~header:(make_header ()) () in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  let expect_disconnect label fd =
    match Proto.recv fd with
    | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) -> Unix.close fd
    | _ -> Alcotest.fail (label ^ ": rogue client must be disconnected")
  in
  (* Wrong protocol version: refused before any campaign state. *)
  let bad_version = connect () in
  Proto.send bad_version (Proto.Hello { version = 99; name = "from-the-future"; epoch = -1 });
  expect_disconnect "bad version" bad_version;
  (* Speaking before Hello: refused. *)
  let no_hello = connect () in
  Proto.send no_hello Proto.Request;
  expect_disconnect "no hello" no_hello;
  (* A rogue that holds its connection open while an honest worker runs
     the campaign, then submits an out-of-range index... *)
  let rogue = connect () in
  Proto.send rogue (Proto.Hello { version = Proto.version; name = "rogue"; epoch = -1 });
  (match Proto.recv rogue with
  | Proto.Welcome { header = h; _ } -> check_bool "rogue got the real header" true (h = make_header ())
  | _ -> Alcotest.fail "expected Welcome");
  let rogue2 = connect () in
  Proto.send rogue2 (Proto.Hello { version = Proto.version; name = "rogue2"; epoch = -1 });
  (match Proto.recv rogue2 with
  | Proto.Welcome _ -> ()
  | _ -> Alcotest.fail "expected Welcome");
  let worker = work_bg ~port ~name:"honest" ~resolve:(fun _ -> toy_engine ()) () in
  let rep = worker () in
  check_bool "honest worker done" true (rep.Worker.ended = Worker.Campaign_done);
  (* ...the campaign is complete; now both rogues strike during the
     coordinator's drain window. Sdc toy_cycles+999 can never be a real
     verdict, so this is a guaranteed determinism mismatch. *)
  Proto.send rogue2 (Proto.Results { chunk_id = 0; results = [| (toy_n + 5, Journal.Benign) |] });
  expect_disconnect "out-of-range index" rogue2;
  Proto.send rogue (Proto.Results { chunk_id = 0; results = [| (0, Journal.Sdc 999) |] });
  expect_disconnect "mismatched verdict" rogue;
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "one mismatch surfaced" 1 r.Coordinator.mismatches;
  (* A drain-phase dissenter cannot recruit voters: the dispute counts as
     unresolved (exit 19 upstairs) and the recorded verdict stands. *)
  check_int "drain-time dispute unresolved" 1 r.Coordinator.arb_unresolved;
  check_stats "first verdict kept" reference r.Coordinator.stats

let suite =
  [
    Alcotest.test_case "messages round-trip" `Quick test_msg_round_trip;
    Alcotest.test_case "streaming decoder reassembly" `Quick test_decoder_streaming;
    Alcotest.test_case "streaming decoder allocates linearly" `Quick test_decoder_linear;
    Alcotest.test_case "frame corruption detected" `Quick test_frame_corruption;
    Alcotest.test_case "frames over sockets, EOF semantics" `Quick test_frame_sockets;
    Alcotest.test_case "malformed messages rejected" `Quick test_malformed_messages;
    QCheck_alcotest.to_alcotest prop_decoders_total;
    Alcotest.test_case "parity: toy fleet, plain and pruned" `Quick test_parity_toy;
    Alcotest.test_case "parity: avr mixed scalar+batched fleet" `Slow test_parity_avr;
    Alcotest.test_case "parity: msp430 mixed scalar+batched fleet" `Slow test_parity_msp;
    Alcotest.test_case "delta-batched worker runs non-SEU" `Slow
      test_worker_non_seu_models;
    Alcotest.test_case "delta-batched worker windows a big chunk" `Slow
      test_worker_batched_windows;
    Alcotest.test_case "delta-batched worker batches small leases" `Slow
      test_worker_lease_batching;
    Alcotest.test_case "worker refuses a bad lease" `Quick test_worker_refuses_bad_lease;
    Alcotest.test_case "worker retry accounting = durable" `Quick test_worker_retry_accounting;
    Alcotest.test_case "straggler lease re-dispatch + dedup" `Quick test_straggler_dedup;
    Alcotest.test_case "SIGKILLed worker mid-chunk" `Quick test_sigkill_worker;
    Alcotest.test_case "coordinator kill/resume from journal" `Quick test_coordinator_resume;
    Alcotest.test_case "group commit: a lost frame is re-leased" `Quick test_group_commit_resume;
    Alcotest.test_case "rogue clients cannot corrupt a campaign" `Quick test_rogue_clients;
  ]
