(* Self-chaos: the deterministic infrastructure fault plan and the
   hardening it forces. Plan byte-identity and budget properties
   (QCheck), poisoned-chunk quarantine with resume, misbehaving-client
   blacklisting, cross-validation (clean pass and mismatch detection),
   the worker's receive deadline, journal disk-failure surfacing, and
   the headline invariant: a campaign under a full chaos plan either
   completes with stats bit-identical to the chaos-free reference or
   fails resumably and reaches them via --resume. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Chaos = Pruning_fi.Chaos
module Coordinator = Pruning_fi.Coordinator
module Durable = Pruning_fi.Durable
module Fault_space = Pruning_fi.Fault_space
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Worker = Pruning_fi.Worker
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs
module Backoff = Pruning_util.Backoff

let all_sites =
  [
    Chaos.Send;
    Chaos.Recv;
    Chaos.Journal_write;
    Chaos.Journal_fsync;
    Chaos.Journal_rename;
    Chaos.Exec;
    Chaos.Dispatch;
    Chaos.Drain;
    Chaos.Seal;
    Chaos.Disk;
    Chaos.Verdict;
  ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- the plan itself -------------------------------------------------- *)

(* The headline determinism property: materializing the same seed twice
   yields byte-identical plans at every site. *)
let prop_plan_byte_identity =
  QCheck2.Test.make ~name:"chaos: same seed, byte-identical plan" ~count:200 QCheck2.Gen.int
    (fun seed ->
      List.for_all
        (fun site ->
          Chaos.plan_to_string (Chaos.plan ~seed site ~n:96)
          = Chaos.plan_to_string (Chaos.plan ~seed site ~n:96))
        all_sites)

(* Budget accounting: a plan never injects more than its budget, and the
   live counters agree with the materialized plan. *)
let prop_plan_budget =
  QCheck2.Test.make ~name:"chaos: budget bounds injections" ~count:200
    QCheck2.Gen.(pair int (int_range 0 16))
    (fun (seed, budget) ->
      let profile = { Chaos.default_profile with Chaos.budget } in
      let faults =
        Array.fold_left
          (fun acc a -> if a = Chaos.Pass then acc else acc + 1)
          0
          (Chaos.plan ~profile ~seed Chaos.Send ~n:512)
      in
      faults <= budget)

let test_plan_distinct_seeds () =
  (* Not a certainty for an arbitrary pair of seeds, but for this fixed
     pair (checked once, deterministic) the plans must differ. *)
  let fingerprint seed =
    String.concat "|"
      (List.map (fun s -> Chaos.plan_to_string (Chaos.plan ~seed s ~n:512)) all_sites)
  in
  check_bool "seeds 1 and 2 give different plans" false (fingerprint 1 = fingerprint 2)

(* Per-site streams are independent: the sequence one site observes does
   not depend on how many draws other sites made in between. *)
let test_site_stream_independence () =
  let profile = { Chaos.default_profile with Chaos.budget = max_int } in
  let seed = 7 in
  let reference = Chaos.plan ~profile ~seed Chaos.Send ~n:64 in
  let t = Chaos.create ~profile ~seed () in
  let interleaved =
    Array.init 64 (fun _ ->
        ignore (Chaos.draw t Chaos.Recv);
        ignore (Chaos.draw t Chaos.Exec);
        let a = Chaos.draw t Chaos.Send in
        ignore (Chaos.draw t Chaos.Journal_write);
        a)
  in
  check_string "send stream unaffected by other sites"
    (Chaos.plan_to_string reference)
    (Chaos.plan_to_string interleaved)

let test_exhaustion_and_quiet () =
  let profile = { Chaos.quiet_profile with Chaos.net_reset = 1.; budget = 5 } in
  let t = Chaos.create ~profile ~seed:3 () in
  for i = 1 to 5 do
    check_bool (Printf.sprintf "fault %d injected" i) true (Chaos.draw t Chaos.Send = Chaos.Reset)
  done;
  check_bool "budget spent" true (Chaos.exhausted t);
  check_int "injected counter" 5 (Chaos.injected t);
  for _ = 1 to 100 do
    check_bool "quiet after exhaustion" true (Chaos.draw t Chaos.Send = Chaos.Pass)
  done;
  (* The all-zero profile is a plan that never fires at all. *)
  Array.iter
    (fun a -> check_bool "quiet profile is a no-op" true (a = Chaos.Pass))
    (Chaos.plan ~profile:Chaos.quiet_profile ~seed:3 Chaos.Send ~n:64)

(* --- shared toy-campaign scaffolding (mirrors test_dist) -------------- *)

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
  (space, campaign)

let toy_engine ?skip () =
  let space, campaign = toy_parts () in
  { Worker.campaign; space; skip; kernel = Campaign.Scalar }

let toy_reference () =
  let space, campaign = toy_parts () in
  Campaign.run_sample campaign ~space ~rng:(Prng.create toy_seed) ~n:toy_n ()

let make_header () =
  {
    Journal.core = "toy";
    program = "toy";
    cycles = toy_cycles;
    seed = toy_seed;
    samples = toy_n;
    prune = false;
    audit = 0.;
    shards = 0;
    batched = false;
    epoch = 0;
    fault_model = Pruning_fi.Fault_model.Seu;
    prng = Prng.save (Prng.create toy_seed);
    shard_prng = [||];
  }

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
      (Printf.sprintf "pruning-chaos-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  d

let test_config =
  {
    Coordinator.default_config with
    Coordinator.chunk_size = 4;
    lease = 5.;
    tick = 0.01;
    drain = 10.;
  }

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

let wait_for ?(timeout = 20.) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.01
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ what)

let serve_bg coord ~header ?journal ?resume ?chaos ?on_event ?recount () =
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Some
            (match Coordinator.serve coord ~header ?journal ?resume ?chaos ?on_event ?recount () with
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

let work_bg ~port ~name ?(resolve = fun _ -> toy_engine ()) ?reconnect_backoff ?max_reconnects
    ?recv_timeout ?chaos () =
  let report = ref None in
  let thread =
    Thread.create
      (fun () ->
        report :=
          Some
            (match
               Worker.run ~host:"127.0.0.1" ~port ~resolve ~name ?reconnect_backoff ?max_reconnects
                 ?recv_timeout ?chaos ()
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

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* --- quarantine ------------------------------------------------------- *)

(* A poisoned chunk: enough distinct workers die holding a chunk's lease
   and the coordinator quarantines it — journaled, reported, excluded
   from the stats — instead of re-dispatching it to (and killing) every
   future worker. A later resume retries the chunk from scratch and
   reaches the chaos-free stats. *)
let test_poison_quarantine_and_resume () =
  let reference = toy_reference () in
  let dir = scratch_dir () in
  let header = make_header () in
  let config = { test_config with Coordinator.poison_threshold = 2 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header ~journal:dir ~on_event:push () in
  (* Two "workers" that lease all they can and die without a verdict,
     over and over. The first death holds every chunk, so it only makes
     them suspect; from then on each chunk is leased alone, and a death
     holding it alone counts. After the second distinct death per
     chunk, every chunk must be quarantined rather than requeued. *)
  let deaths = Hashtbl.create 2 in
  let die name =
    let fd = connect port in
    Proto.send fd (Proto.Hello { version = Proto.version; name; epoch = -1 });
    (match Proto.recv fd with
    | Proto.Welcome _ -> ()
    | _ -> Alcotest.fail "expected Welcome");
    let rec grab held =
      Proto.send fd Proto.Request;
      match Proto.recv fd with
      | Proto.Assign c -> grab (c.Proto.chunk_id :: held)
      | Proto.Wait | Proto.Done -> held
      | _ -> Alcotest.fail "unexpected reply to Request"
    in
    let held = grab [] in
    (* Die with every lease in hand. *)
    Unix.close fd;
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt deaths name) in
    Hashtbl.replace deaths name k;
    (* Let the coordinator notice the death before the next round, so
       the next lease sees the requeued chunks. *)
    wait_for
      (fun () ->
        List.length
          (List.filter
             (function
               | Coordinator.Left { worker; _ } -> worker = name
               | _ -> false)
             (all ()))
        >= k)
      (name ^ " to be seen dying");
    held
  in
  (* A victim dies until it holds a chunk it already died holding alone
     (or gets none: the service is over), within a bound on its rounds. *)
  let n_chunks = (toy_n + config.Coordinator.chunk_size - 1) / config.Coordinator.chunk_size in
  let victim name =
    let alone = Hashtbl.create 16 in
    let rec go round =
      if round <= 2 * n_chunks then
        match die name with
        | exception (Unix.Unix_error _ | Proto.Closed | Proto.Error _) -> ()
        | [] -> ()
        | [ c ] when Hashtbl.mem alone c -> ()
        | [ c ] ->
          Hashtbl.replace alone c ();
          go (round + 1)
        | _ -> go (round + 1)
    in
    go 0
  in
  List.iter victim [ "victim-a"; "victim-b" ];
  let r = join () in
  check_bool "not completed" false r.Coordinator.completed;
  check_int "every chunk quarantined" n_chunks (List.length r.Coordinator.poisoned);
  check_bool "quarantine events emitted" true
    (List.exists
       (function
         | Coordinator.Quarantined { deaths = 2; _ } -> true
         | _ -> false)
       (all ()));
  (* The journal recorded the quarantines... *)
  let _, entries, _, w = Journal.resume ~dir () in
  Journal.close w;
  check_bool "Poisoned entries journaled" true
    (Array.exists
       (function
         | Journal.Poisoned _ -> true
         | _ -> false)
       entries);
  (* ...and a resumed service retries the chunks fresh: with a healthy
     worker the campaign completes bit-identically. *)
  let coord2 = Coordinator.create ~config () in
  let port2 = Coordinator.port coord2 in
  let join2 = serve_bg coord2 ~header ~journal:dir ~resume:true () in
  let wjoin = work_bg ~port:port2 ~name:"healthy" () in
  let rep = wjoin () in
  let r2 = join2 () in
  check_bool "resume completed" true r2.Coordinator.completed;
  check_bool "nothing quarantined on resume" true (r2.Coordinator.poisoned = []);
  check_stats "quarantine resume parity" reference r2.Coordinator.stats;
  check_bool "healthy worker done" true (rep.Worker.ended = Worker.Campaign_done);
  rm_rf dir

(* A TCP relay in front of the coordinator that kills a session whose
   worker holds chunk [k] the moment the worker reports anything but a
   [Request]: the worker dies while classifying the batch that holds
   [k], before any of the batch's verdicts reach the coordinator.
   Returns the relay's port and its stop function. *)
let killing_relay ~upstream ~k =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 16;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let stop = ref false in
  let cut a b =
    List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) [ a; b ]
  in
  (* Relay [src] to [dst] frame by frame; [pass] sees each message and
     says whether to forward it or cut the session. *)
  let pump src dst ~pass =
    let dec = Proto.decoder () in
    let buf = Bytes.create 65536 in
    let rec go () =
      match Unix.read src buf 0 (Bytes.length buf) with
      | 0 | (exception Unix.Unix_error _) -> cut src dst
      | n ->
        Proto.feed dec buf n;
        let rec frames () =
          match Proto.next_frame dec with
          | None -> go ()
          | Some payload when pass (Proto.decode payload) -> (
            let frame = Proto.encode_frame payload in
            match Unix.write_substring dst frame 0 (String.length frame) with
            | _ -> frames ()
            | exception Unix.Unix_error _ -> cut src dst)
          | Some _ -> cut src dst
        in
        frames ()
    in
    go ()
  in
  let session worker =
    match connect upstream with
    | exception Unix.Unix_error _ -> Unix.close worker
    | coord ->
      let holds_k = Atomic.make false in
      let down =
        Thread.create
          (fun () ->
            pump coord worker ~pass:(function
              | Proto.Assign c when c.Proto.chunk_id = k ->
                Atomic.set holds_k true;
                true
              | _ -> true))
          ()
      in
      pump worker coord ~pass:(function
        | Proto.Request -> true
        | _ -> not (Atomic.get holds_k));
      Thread.join down;
      Unix.close worker;
      Unix.close coord
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.select [ listen ] [] [] 0.05 with
          | [ _ ], _, _ -> ignore (Thread.create session (fst (Unix.accept listen)))
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        done;
        Unix.close listen)
      ()
  in
  (port, fun () -> stop := true; Thread.join acceptor)

(* Batch-aware poison accounting. Two delta-batched workers, each behind
   a relay that kills its session whenever it classifies chunk [k]. The
   first death holds a whole batch, which makes the batch's chunks
   suspect without charging any of them; suspect chunks are then leased
   alone, so only [k] collects deaths. At threshold 2 exactly [k] is
   quarantined, and every other chunk, its former batch-mates included,
   finishes with the verdicts of an uninterrupted local run. *)
let test_poison_batched_alone () =
  let cycles = 120 and n = 240 and seed = 7 and k = 5 in
  let chunk_size = 16 in
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
  let make_delta_batch ~trace = System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" in
  let space = Fault_space.full nl ~cycles in
  let campaign () = Campaign.create ~make ~make_delta_batch ~total_cycles:cycles () in
  let table dir =
    let _, entries, _ = Journal.load ~dir in
    let outcomes = Array.make n None in
    ignore (Journal.replay outcomes entries);
    outcomes
  in
  let ref_dir = scratch_dir () in
  ignore
    (Durable.run (campaign ()) ~space ~seed ~n ~ident:("avr", "fib") ~kernel:Campaign.Delta_batched
       ~journal:ref_dir ());
  let reference = table ref_dir in
  let dir = scratch_dir () in
  let config = { test_config with Coordinator.chunk_size; poison_threshold = 2 } in
  let coord = Coordinator.create ~config () in
  let push, all = event_log () in
  let header =
    {
      (make_header ()) with
      Journal.core = "avr";
      program = "fib";
      cycles;
      samples = n;
      seed;
      prng = Prng.save (Prng.create seed);
    }
  in
  let join = serve_bg coord ~header ~journal:dir ~on_event:push ~recount:true () in
  let resolve _ =
    { Worker.campaign = campaign (); space; skip = None; kernel = Campaign.Delta_batched }
  in
  let fast = { Backoff.base = 0.01; cap = 0.05; factor = 2. } in
  let relays = List.init 2 (fun _ -> killing_relay ~upstream:(Coordinator.port coord) ~k) in
  let workers =
    List.mapi
      (fun i (port, _) ->
        work_bg ~port ~name:(Printf.sprintf "b%d" i) ~resolve ~reconnect_backoff:fast
          ~max_reconnects:10 ())
      relays
  in
  let reports = List.map (fun j -> j ()) workers in
  let r = join () in
  List.iter (fun (_, stop) -> stop ()) relays;
  let events = all () in
  check_bool "a death held a batch" true
    (List.exists
       (function
         | Coordinator.Redispatched { chunk_id; _ } -> chunk_id <> k
         | _ -> false)
       events);
  check_bool "only chunk k quarantined" true (r.Coordinator.poisoned = [ k ]);
  check_bool "quarantined after two deaths" true
    (List.exists
       (function
         | Coordinator.Quarantined { chunk_id; deaths = 2 } -> chunk_id = k
         | _ -> false)
       events);
  (* The worker whose death quarantined [k] may reconnect after the
     service has ended (its relay still accepts) and give up: only the
     verdicts are asserted, not how each worker ended. *)
  check_bool "the workers delivered every other chunk" true
    (List.fold_left (fun a rep -> a + rep.Worker.submitted) 0 reports >= n - chunk_size);
  let served = table dir in
  Array.iteri
    (fun i o ->
      if i / chunk_size = k then check_bool (Printf.sprintf "sample %d unclassified" i) true (o = None)
      else check_bool (Printf.sprintf "sample %d = reference" i) true (o = reference.(i)))
    served;
  rm_rf ref_dir;
  rm_rf dir

(* --- blacklisting ----------------------------------------------------- *)

(* A client that keeps sending corrupt frames accumulates strikes and is
   refused re-admission by name, while an honest worker finishes the
   campaign untouched. *)
let test_blacklist () =
  let reference = toy_reference () in
  let config = { test_config with Coordinator.blacklist_threshold = 2 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  let corrupt_frame () =
    let b = Bytes.of_string (Proto.encode_frame (Proto.encode Proto.Request)) in
    Bytes.set b 8 (Char.chr (Char.code (Bytes.get b 8) lxor 0x20));
    Bytes.to_string b
  in
  let expect_disconnect label fd =
    match Proto.recv fd with
    | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) -> Unix.close fd
    | _ -> Alcotest.fail (label ^ ": connection must be dropped")
  in
  (* Two strikes under the same name... *)
  for i = 1 to 2 do
    let fd = connect port in
    Proto.send fd (Proto.Hello { version = Proto.version; name = "evil"; epoch = -1 });
    (match Proto.recv fd with
    | Proto.Welcome _ -> ()
    | _ -> Alcotest.fail "expected Welcome");
    let garbage = corrupt_frame () in
    ignore (Unix.write_substring fd garbage 0 (String.length garbage));
    expect_disconnect (Printf.sprintf "strike %d" i) fd
  done;
  (* ...and the third Hello is refused outright. *)
  let fd = connect port in
  Proto.send fd (Proto.Hello { version = Proto.version; name = "evil"; epoch = -1 });
  expect_disconnect "blacklisted hello" fd;
  wait_for
    (fun () ->
      List.exists
        (function
          | Coordinator.Blacklisted { worker = "evil"; _ } -> true
          | _ -> false)
        (all ()))
    "the blacklist event";
  let wjoin = work_bg ~port ~name:"honest" () in
  let rep = wjoin () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "one name blacklisted" 1 r.Coordinator.blacklisted;
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_stats "blacklist parity" reference r.Coordinator.stats;
  check_bool "honest worker done" true (rep.Worker.ended = Worker.Campaign_done)

(* --- cross-validation ------------------------------------------------- *)

(* verify_frac = 1: every chunk is re-issued once, preferring a second
   worker; with honest workers the pass is silent (no duplicates, no
   mismatches) and the stats are untouched. *)
let test_verify_clean () =
  let reference = toy_reference () in
  let config = { test_config with Coordinator.verify_frac = 1. } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let join = serve_bg coord ~header:(make_header ()) () in
  let w1 = work_bg ~port ~name:"w1" () in
  let w2 = work_bg ~port ~name:"w2" () in
  let r1 = w1 () and r2 = w2 () in
  let r = join () in
  let n_chunks = (toy_n + config.Coordinator.chunk_size - 1) / config.Coordinator.chunk_size in
  check_bool "completed" true r.Coordinator.completed;
  check_int "every chunk verified" n_chunks r.Coordinator.verified;
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_int "verification not counted as duplicates" 0 r.Coordinator.duplicates;
  check_stats "verified parity" reference r.Coordinator.stats;
  check_bool "workers done" true
    (r1.Worker.ended = Worker.Campaign_done && r2.Worker.ended = Worker.Campaign_done)

(* A verifier that disagrees with the recorded verdicts opens a quorum
   arbitration. Here the fleet is just the origin and the challenger, so
   no eligible voter exists: the dispute times out under [arb_patience],
   counts as unresolved (exit 19 at the CLI), and the chunk's
   verification is settled rather than re-issued forever — the dissenter
   keeps its connection (it may be the honest one). *)
let test_verify_mismatch () =
  let config =
    {
      test_config with
      Coordinator.verify_frac = 1.;
      chunk_size = toy_n (* one chunk *);
      arb_patience = 0.2;
    }
  in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  (* The rogue verifier connects first but stays quiet, so the honest
     worker is never "alone" and the verification pass waits for the
     rogue instead of self-verifying. *)
  let rogue = connect port in
  Proto.send rogue (Proto.Hello { version = Proto.version; name = "rogue"; epoch = -1 });
  (match Proto.recv rogue with
  | Proto.Welcome _ -> ()
  | _ -> Alcotest.fail "expected Welcome");
  let wjoin = work_bg ~port ~name:"honest" () in
  wait_for
    (fun () ->
      List.exists
        (function
          | Coordinator.Progress { done_; _ } -> done_ = toy_n
          | _ -> false)
        (all ()))
    "the honest worker to finish the data pass";
  (* All data chunks are complete, so the rogue's Request yields the
     verification lease (origin differs); it answers with a verdict that
     can never be right. *)
  Proto.send rogue Proto.Request;
  (match Proto.recv rogue with
  | Proto.Assign { chunk_id; lo; _ } ->
    Proto.send rogue (Proto.Results { chunk_id; results = [| (lo, Journal.Sdc 999999) |] });
    Proto.send rogue (Proto.Chunk_done { chunk_id })
  | _ -> Alcotest.fail "expected the verification Assign");
  (* The dissenter is no longer summarily dropped — arbitration keeps it
     around as a potential honest party. It hangs up on its own. *)
  Unix.close rogue;
  let rep = wjoin () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "mismatch surfaced" 1 r.Coordinator.mismatches;
  check_int "no quorum reachable: dispute unresolved" 1 r.Coordinator.arb_unresolved;
  check_int "nothing resolved" 0 r.Coordinator.arb_resolved;
  check_int "failed verification is settled, not re-verified" 0 r.Coordinator.verified;
  check_bool "mismatch event names the rogue" true
    (List.exists
       (function
         | Coordinator.Mismatch { worker = "rogue"; _ } -> true
         | _ -> false)
       (all ()));
  (* Depending on scheduling the dispute either times out under
     [arb_patience] or surfaces during the drain phase ("mismatch after
     completion") — both are the no-voters-reachable failure. *)
  check_bool "arbitration failure surfaced" true
    (List.exists
       (function
         | Coordinator.Arbitration_failed { reason; _ } ->
           contains reason "patience" || contains reason "no voters"
         | _ -> false)
       (all ()));
  check_bool "honest worker done" true (rep.Worker.ended = Worker.Campaign_done)

(* --- worker receive deadline ------------------------------------------ *)

(* A coordinator that accepts and then never speaks must not hang the
   worker: the read deadline converts the silence into a lost session,
   and the worker gives up after its reconnect budget. *)
let test_worker_recv_deadline () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = ref false in
  let accepted = ref [] in
  let acceptor =
    Thread.create
      (fun () ->
        while not !stop do
          match Unix.select [ fd ] [] [] 0.05 with
          | [ _ ], _, _ -> accepted := fst (Unix.accept fd) :: !accepted
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let fast = { Backoff.base = 0.01; cap = 0.05; factor = 2. } in
  let report =
    Worker.run ~host:"127.0.0.1" ~port
      ~resolve:(fun _ -> toy_engine ())
      ~name:"deadline" ~recv_timeout:0.3 ~reconnect_backoff:fast ~max_reconnects:2 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  stop := true;
  Thread.join acceptor;
  List.iter (fun c -> try Unix.close c with Unix.Unix_error _ -> ()) !accepted;
  Unix.close fd;
  (match report.Worker.ended with
  | Worker.Gave_up _ -> ()
  | _ -> Alcotest.fail "silent coordinator must make the worker give up");
  check_bool "gave up promptly, did not hang" true (elapsed < 15.)

(* --- journal failure surfacing ---------------------------------------- *)

(* An injected ENOSPC on the very first append must surface as a clean
   [Journal.Error] (exit 17 at the CLI) — and a chaos-free resume of the
   same directory completes with the reference statistics. *)
let test_journal_enospc_resume () =
  let space, campaign = toy_parts () in
  let reference = Campaign.run_sample campaign ~space ~rng:(Prng.create toy_seed) ~n:toy_n () in
  let dir = scratch_dir () in
  let chaos =
    Chaos.create
      ~profile:{ Chaos.quiet_profile with Chaos.journal_enospc = 1.; budget = 1 }
      ~seed:11 ()
  in
  (match
     Durable.run campaign ~space ~seed:toy_seed ~n:toy_n ~ident:("toy", "toy") ~journal:dir
       ~chaos ()
   with
  | exception Journal.Error msg ->
    check_bool "names the injected errno" true
      (let lower = String.lowercase_ascii msg in
       let has needle =
         let nl = String.length needle and ll = String.length lower in
         let rec go i = i + nl <= ll && (String.sub lower i nl = needle || go (i + 1)) in
         go 0
       in
       has "space" || has "enospc")
  | _ -> Alcotest.fail "injected ENOSPC must raise Journal.Error");
  let resumed =
    Durable.run campaign ~space ~seed:toy_seed ~n:toy_n ~ident:("toy", "toy") ~journal:dir
      ~resume:true ()
  in
  check_bool "resume completed" true resumed.Durable.completed;
  check_stats "ENOSPC resume parity" reference resumed.Durable.stats;
  rm_rf dir

(* An injected fsync failure while sealing a segment: same contract —
   sticky [Journal.Error], resumable, nothing lost. *)
let test_journal_fsync_resume () =
  let dir = scratch_dir () in
  let header = make_header () in
  let chaos =
    Chaos.create
      ~profile:{ Chaos.quiet_profile with Chaos.journal_fsync = 1.; budget = 1 }
      ~seed:5 ()
  in
  let w = Journal.create ~records_per_segment:4 ~chaos ~dir header in
  (match
     for i = 0 to 5 do
       Journal.append w (Journal.Outcome (i, Journal.Benign))
     done
   with
  | exception Journal.Error _ -> ()
  | () -> Alcotest.fail "injected fsync failure must raise Journal.Error");
  Journal.close w;
  let _, entries, _, w2 = Journal.resume ~dir () in
  Journal.close w2;
  check_bool "records before the failure survive" true (Array.length entries >= 4);
  rm_rf dir

(* Group commit keeps the journal's chaos contract: appending records in
   groups draws every site once per record, in the same order, so under
   the same plan it fails at the same record with the same error and
   leaves byte-identical files (torn tail, sealed segments) to appending
   them one by one. *)
let test_append_batch_draws () =
  let profile =
    {
      Chaos.quiet_profile with
      Chaos.journal_short = 0.03;
      journal_eio = 0.02;
      journal_fsync = 0.05;
      journal_torn = 0.05;
      budget = 1;
    }
  in
  let entries = Array.init 60 (fun i -> Journal.Outcome (i, if i mod 3 = 0 then Journal.Latent else Journal.Benign)) in
  let write ~seed groups =
    let dir = scratch_dir () in
    let w = Journal.create ~records_per_segment:8 ~chaos:(Chaos.create ~profile ~seed ()) ~dir (make_header ()) in
    let error =
      match List.iter (Journal.append_batch w) groups with
      | () -> "none"
      | exception Journal.Error msg ->
        (* The message names the directory; compare the rest. *)
        String.sub msg (String.length dir) (String.length msg - String.length dir)
    in
    Journal.close w;
    let files = Array.to_list (Sys.readdir dir) |> List.sort compare in
    let contents =
      List.map
        (fun f ->
          let ic = open_in_bin (Filename.concat dir f) in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          (f, s))
        files
    in
    rm_rf dir;
    (error, contents)
  in
  for seed = 1 to 40 do
    let one_by_one = write ~seed (Array.to_list (Array.map (fun e -> [| e |]) entries)) in
    let grouped = write ~seed [ Array.sub entries 0 7; Array.sub entries 7 30; Array.sub entries 37 23 ] in
    check_string (Printf.sprintf "seed %d: same failure" seed) (fst one_by_one) (fst grouped);
    check_bool (Printf.sprintf "seed %d: same files" seed) true (snd one_by_one = snd grouped)
  done

(* --- the headline invariant ------------------------------------------- *)

(* Under a full chaos plan on both sides of the wire (and on the
   journal), a campaign either completes directly with stats
   bit-identical to the chaos-free reference, or fails resumably and
   reaches the identical stats after --resume. Every seed must land in
   one of those two outcomes — nothing else. *)
let test_soak_invariant () =
  let reference = toy_reference () in
  let header = make_header () in
  (* Crank the journal and network rates well above the defaults so a
     60-sample toy campaign actually meets some faults; keep stalls
     short so the suite stays quick. *)
  let soak_profile =
    {
      Chaos.default_profile with
      Chaos.net_delay = 0.05;
      net_corrupt = 0.03;
      net_truncate = 0.02;
      net_reset = 0.02;
      net_slow = 0.01;
      max_delay = 0.02;
      journal_short = 0.02;
      journal_enospc = 0.01;
      journal_eio = 0.01;
      stall = 0.05;
      budget = 48;
    }
  in
  (* Corrupt frames from a chaotic worker are indistinguishable from a
     hostile client; disable blacklisting so chaos cannot lock the
     worker out of its own campaign (the CLI soak keeps it on and
     tolerates the locked-out worker instead). *)
  let config = { test_config with Coordinator.blacklist_threshold = 0 } in
  let fast = { Backoff.base = 0.01; cap = 0.1; factor = 2. } in
  List.iter
    (fun seed ->
      let label what = Printf.sprintf "soak seed %d: %s" seed what in
      let dir = scratch_dir () in
      let run ~resume ~chaos_seed =
        let coord = Coordinator.create ~config () in
        let port = Coordinator.port coord in
        let chaos =
          Option.map
            (fun s -> Chaos.create ~profile:soak_profile ~seed:s ())
            chaos_seed
        in
        (* [recount]: after every frame, the coordinator's incremental
           chunk counters must equal a recount of its tables. *)
        let join = serve_bg coord ~header ~journal:dir ~resume ?chaos ~recount:true () in
        let workers =
          List.init 2 (fun i ->
              work_bg ~port
                ~name:(Printf.sprintf "w%d" i)
                ~reconnect_backoff:fast ~max_reconnects:30
                ?chaos:
                  (Option.map
                     (fun s -> Chaos.create ~profile:soak_profile ~seed:(s + 1000 + i) ())
                     chaos_seed)
                ())
        in
        (* A worker may legitimately give up if chaos killed the
           coordinator's journal; the resume round finishes the job. *)
        List.iter (fun j -> ignore (j ())) workers;
        match join () with
        | r -> Some r
        | exception Journal.Error _ -> None
      in
      let rec settle round ~resume ~chaos_seed =
        if round > 4 then Alcotest.fail (label "did not settle in 4 rounds")
        else
          match run ~resume ~chaos_seed with
          | Some r when r.Coordinator.completed && r.Coordinator.poisoned = [] -> r
          | _ ->
            (* Resumable failure (journal fault, quarantine, interrupted):
               finish chaos-free from the journal. *)
            settle (round + 1) ~resume:true ~chaos_seed:None
      in
      let r = settle 0 ~resume:false ~chaos_seed:(Some seed) in
      check_int (label "no mismatches") 0 r.Coordinator.mismatches;
      check_stats (label "bit-identical to the chaos-free reference") reference
        r.Coordinator.stats;
      rm_rf dir)
    [ 1; 2; 3 ]

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_plan_byte_identity; prop_plan_budget ]
  @ [
      Alcotest.test_case "plans differ across seeds" `Quick test_plan_distinct_seeds;
      Alcotest.test_case "site streams are independent" `Quick test_site_stream_independence;
      Alcotest.test_case "budget exhaustion and quiet profile" `Quick test_exhaustion_and_quiet;
      Alcotest.test_case "poisoned chunks quarantined, resume recovers" `Quick
        test_poison_quarantine_and_resume;
      Alcotest.test_case "batched death poisons only the chunk held alone" `Quick
        test_poison_batched_alone;
      Alcotest.test_case "corrupt-frame clients blacklisted" `Quick test_blacklist;
      Alcotest.test_case "cross-validation: clean pass" `Quick test_verify_clean;
      Alcotest.test_case "cross-validation: mismatch detected" `Quick test_verify_mismatch;
      Alcotest.test_case "worker receive deadline" `Quick test_worker_recv_deadline;
      Alcotest.test_case "journal ENOSPC surfaces and resumes" `Quick test_journal_enospc_resume;
      Alcotest.test_case "grouped appends draw and tear like single ones" `Quick
        test_append_batch_draws;
      Alcotest.test_case "journal fsync failure surfaces and resumes" `Quick
        test_journal_fsync_resume;
      Alcotest.test_case "soak: chaos-free parity or resumable" `Slow test_soak_invariant;
    ]
