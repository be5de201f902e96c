(* Byzantine-tolerant verdicts: quorum arbitration, worker reputation,
   and the liar-chaos soak. The headline invariant: with f < K/2 lying
   workers among a fleet of at least 3, a fully cross-validated campaign
   completes with statistics bit-identical to an honest single-process
   reference, every lie outvoted by quorum and journaled as an
   [Arbitrated] override, and the liar quarantined by reputation.
   Scripted Proto clients additionally pin the mechanics one message at
   a time: a 1v1 split resolved (and overturned) by one recruited
   ballot, the no-quorum path counting as unresolved (exit 19 at the
   CLI), reputation travelling back in [Welcome], and the journal
   record's saturation rules. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Chaos = Pruning_fi.Chaos
module Coordinator = Pruning_fi.Coordinator
module Fault_space = Pruning_fi.Fault_space
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Reputation = Pruning_fi.Reputation
module Worker = Pruning_fi.Worker
module System = Pruning_cpu.System

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- toy-campaign scaffolding (mirrors test_dist) --------------------- *)

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

let toy_engine () =
  let space, campaign = toy_parts () in
  { Worker.campaign; space; skip = None; kernel = Campaign.Scalar }

let toy_reference () =
  let space, campaign = toy_parts () in
  Campaign.run_sample campaign ~space ~rng:(Prng.create toy_seed) ~n:toy_n ()

let make_header ?(samples = toy_n) () =
  {
    Journal.core = "toy";
    program = "toy";
    cycles = toy_cycles;
    seed = toy_seed;
    samples;
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
      (Printf.sprintf "pruning-byz-%d-%d" (Unix.getpid ()) !scratch_counter)
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

let serve_bg coord ~header ?journal ?resume ?on_event () =
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Some
            (match Coordinator.serve coord ~header ?journal ?resume ?on_event () with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  fun () ->
    Thread.join thread;
    match !result with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false

let work_bg ~port ~name ?(resolve = fun _ -> toy_engine ()) ?chaos () =
  let report = ref None in
  let thread =
    Thread.create
      (fun () ->
        report :=
          Some
            (match Worker.run ~host:"127.0.0.1" ~port ~resolve ~name ?chaos () with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  fun () ->
    Thread.join thread;
    match !report with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false

(* --- scripted Proto clients ------------------------------------------- *)

let connect port = Proto.connect "127.0.0.1" port

(* Handshake and return the suspicion score the coordinator holds
   against this name. *)
let hello fd name =
  Proto.send fd (Proto.Hello { version = Proto.version; name; epoch = -1 });
  match Proto.recv fd with
  | Proto.Welcome { suspicion; _ } -> suspicion
  | _ -> Alcotest.fail "expected Welcome"

(* Request until assigned (Wait is legal while another client's frames
   are still in flight towards the coordinator). The scripted scenarios
   are sequenced so that at each request exactly one kind of work can
   ever be offered to this client — so the purpose check is a real
   assertion, not a filter. *)
let request_assign ?expect_purpose fd =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    Proto.send fd Proto.Request;
    match Proto.recv fd with
    | Proto.Assign c ->
      (match expect_purpose with
      | Some p when c.Proto.purpose <> p ->
        Alcotest.fail
          (Printf.sprintf "expected a %s assignment, got %s of chunk %d" (Proto.purpose_name p)
             (Proto.purpose_name c.Proto.purpose) c.Proto.chunk_id)
      | _ -> ());
      c
    | Proto.Wait when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | Proto.Wait -> Alcotest.fail "timed out waiting for an assignment"
    | _ -> Alcotest.fail "expected Assign"
  in
  go ()

(* Submit one whole chunk with [verdict_at] choosing each sample's
   claim, then declare it done. *)
let submit fd (c : Proto.chunk) verdict_at =
  let results =
    Array.init (c.Proto.hi - c.Proto.lo + 1) (fun k -> (c.Proto.lo + k, verdict_at (c.Proto.lo + k)))
  in
  Proto.send fd (Proto.Results { chunk_id = c.Proto.chunk_id; results });
  Proto.send fd (Proto.Chunk_done { chunk_id = c.Proto.chunk_id })

(* Poll Request until the coordinator says Done (Wait while an
   arbitration or verification is still settling). *)
let await_done fd =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    Proto.send fd Proto.Request;
    match Proto.recv fd with
    | Proto.Done -> ()
    | Proto.Wait when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | Proto.Wait -> Alcotest.fail "timed out polling for Done"
    | Proto.Assign c ->
      (* Late housekeeping work (a re-queued verification): answer it
         honestly and keep polling. *)
      submit fd c (fun _ -> Journal.Benign);
      go ()
    | _ -> Alcotest.fail "expected Done or Wait"
  in
  go ()

(* --- 1v1 split: one recruited ballot settles it ----------------------- *)

(* Alice records chunk 0 honestly; Bob's verification pass claims an
   impossible verdict on one sample. Carol, neither disputant, is
   recruited as the quorum ballot: the recorded verdict wins 2-1, the
   dispute resolves without overturning anything, and Bob's arbitration
   loss travels back as suspicion in his next Welcome. *)
let test_split_vote_resolved () =
  let n = 16 in
  let config =
    { test_config with Coordinator.chunk_size = 8; verify_frac = 1.; quorum = 3 }
  in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ~samples:n ()) ~on_event:push () in
  let alice = connect port and bob = connect port and carol = connect port in
  ignore (hello alice "alice");
  ignore (hello bob "bob");
  ignore (hello carol "carol");
  (* Alice takes chunk 0, Bob chunk 1 — both recorded all-Benign. *)
  let c0 = request_assign ~expect_purpose:Proto.Data alice in
  submit alice c0 (fun _ -> Journal.Benign);
  let c1 = request_assign ~expect_purpose:Proto.Data bob in
  submit bob c1 (fun _ -> Journal.Benign);
  (* Bob's next assignment is the cross-validation of Alice's chunk
     (never his own); he lies on its first sample. *)
  let v0 = request_assign ~expect_purpose:Proto.Verify bob in
  check_int "bob verifies alice's chunk" c0.Proto.chunk_id v0.Proto.chunk_id;
  Proto.send bob
    (Proto.Results { chunk_id = v0.Proto.chunk_id; results = [| (v0.Proto.lo, Journal.Sdc 999999) |] });
  Proto.send bob (Proto.Chunk_done { chunk_id = v0.Proto.chunk_id });
  (* Alice absorbs chunk 1's verification (she can never ballot her own
     chunk's dispute, so this is the only work she can be offered). *)
  let v1 = request_assign ~expect_purpose:Proto.Verify alice in
  check_int "alice verifies bob's chunk" c1.Proto.chunk_id v1.Proto.chunk_id;
  submit alice v1 (fun _ -> Journal.Benign);
  (* Carol is neither origin nor challenger: her Request is answered
     with the arbitration ballot for the disputed chunk. *)
  let a0 = request_assign ~expect_purpose:Proto.Arbitrate carol in
  check_int "ballot re-issues the disputed chunk" c0.Proto.chunk_id a0.Proto.chunk_id;
  submit carol a0 (fun _ -> Journal.Benign);
  await_done alice;
  await_done bob;
  await_done carol;
  (* Bob's arbitration loss is visible to a reconnecting "bob". *)
  let bob2 = connect port in
  check_int "suspicion travels in Welcome" (Reputation.weight Reputation.Arbitration_loss)
    (hello bob2 "bob");
  List.iter Unix.close [ alice; bob; carol; bob2 ];
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "one dispute" 1 r.Coordinator.mismatches;
  check_int "resolved by quorum" 1 r.Coordinator.arb_resolved;
  check_int "recorded verdict stood" 0 r.Coordinator.arb_overturned;
  check_int "nothing unresolved" 0 r.Coordinator.arb_unresolved;
  check_bool "no quarantine below threshold" true (r.Coordinator.suspects = []);
  check_bool "arbitration provenance names carol and bob" true
    (List.exists
       (function
         | Coordinator.Arbitrated { voters = [ "carol" ]; losers; overturned = false; _ } ->
           List.mem "bob" losers
         | _ -> false)
       (all ()))

(* --- overturn + journal override + resume ----------------------------- *)

(* This time the first-recorded verdict is the lie: Bob poisons one
   sample of his own data chunk, Alice's verification pass disputes it,
   and Carol's ballot overturns the recorded verdict. The journal then
   carries both the lying Outcome and the Arbitrated override — fsck
   decodes the arbitration, and a resume reconstructs the corrected
   statistics with no workers at all. *)
let test_overturn_journaled_and_resumed () =
  let n = 16 in
  let dir = scratch_dir () in
  let config =
    { test_config with Coordinator.chunk_size = 8; verify_frac = 1.; quorum = 3 }
  in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let join = serve_bg coord ~header:(make_header ~samples:n ()) ~journal:dir () in
  let alice = connect port and bob = connect port and carol = connect port in
  ignore (hello bob "bob");
  ignore (hello alice "alice");
  ignore (hello carol "carol");
  let c0 = request_assign ~expect_purpose:Proto.Data bob in
  submit bob c0 (fun i -> if i = c0.Proto.lo then Journal.Sdc 42 else Journal.Benign);
  let c1 = request_assign ~expect_purpose:Proto.Data alice in
  submit alice c1 (fun _ -> Journal.Benign);
  let v0 = request_assign ~expect_purpose:Proto.Verify alice in
  check_int "alice verifies bob's chunk" c0.Proto.chunk_id v0.Proto.chunk_id;
  submit alice v0 (fun _ -> Journal.Benign);
  (* Bob is the disputed verdict's origin, so the only work left for him
     is chunk 1's verification; Carol then gets the ballot. *)
  let v1 = request_assign ~expect_purpose:Proto.Verify bob in
  check_int "bob verifies alice's chunk" c1.Proto.chunk_id v1.Proto.chunk_id;
  submit bob v1 (fun _ -> Journal.Benign);
  let a0 = request_assign ~expect_purpose:Proto.Arbitrate carol in
  submit carol a0 (fun _ -> Journal.Benign);
  await_done bob;
  await_done alice;
  await_done carol;
  List.iter Unix.close [ alice; bob; carol ];
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "resolved" 1 r.Coordinator.arb_resolved;
  check_int "overturned" 1 r.Coordinator.arb_overturned;
  check_int "benign after override" n r.Coordinator.stats.Campaign.benign;
  check_int "no sdc survives the quorum" 0 r.Coordinator.stats.Campaign.sdc;
  (* fsck decodes the arbitration record instead of flagging it. *)
  let f = Journal.fsck ~dir in
  check_bool "journal clean" true (f.Journal.fsck_errors = []);
  check_int "one arbitrated record" 1 f.Journal.fsck_counts.(7);
  check_int "fsck sees the overturn" 1 f.Journal.fsck_overturned;
  check_int "fsck sums the ballots" 1 f.Journal.fsck_arb_ballots;
  (* A resume replays Outcome(lie) then Arbitrated(truth): the override
     wins and the campaign completes instantly, worker-free. *)
  let coord2 = Coordinator.create ~config () in
  let join2 = serve_bg coord2 ~header:(make_header ~samples:n ()) ~journal:dir ~resume:true () in
  let r2 = join2 () in
  check_bool "resume completed without workers" true r2.Coordinator.completed;
  check_int "all verdicts recovered" n r2.Coordinator.recovered;
  check_int "override survives resume" n r2.Coordinator.stats.Campaign.benign;
  check_int "no resurrected lie" 0 r2.Coordinator.stats.Campaign.sdc;
  rm_rf dir

(* --- no quorum reachable: unresolved, not deadlocked ------------------ *)

(* With only the two disputants connected no ballot can ever be cast:
   the arbitration must time out under [arb_patience] and count as
   unresolved — the documented exit-19 trigger — instead of stalling
   the campaign forever. *)
let test_no_quorum_unresolved () =
  let n = 16 in
  let config =
    {
      test_config with
      Coordinator.chunk_size = 8;
      verify_frac = 1.;
      quorum = 3;
      arb_patience = 0.3;
    }
  in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ~samples:n ()) ~on_event:push () in
  let alice = connect port and bob = connect port in
  ignore (hello alice "alice");
  ignore (hello bob "bob");
  let c0 = request_assign ~expect_purpose:Proto.Data alice in
  submit alice c0 (fun _ -> Journal.Benign);
  let c1 = request_assign ~expect_purpose:Proto.Data bob in
  submit bob c1 (fun _ -> Journal.Benign);
  let v0 = request_assign ~expect_purpose:Proto.Verify bob in
  Proto.send bob
    (Proto.Results { chunk_id = v0.Proto.chunk_id; results = [| (v0.Proto.lo, Journal.Sdc 999999) |] });
  Proto.send bob (Proto.Chunk_done { chunk_id = v0.Proto.chunk_id });
  (* Chunk 1's verification still completes honestly meanwhile. *)
  let v1 = request_assign ~expect_purpose:Proto.Verify alice in
  check_int "alice verifies bob's chunk" c1.Proto.chunk_id v1.Proto.chunk_id;
  submit alice v1 (fun _ -> Journal.Benign);
  await_done alice;
  await_done bob;
  List.iter Unix.close [ alice; bob ];
  let r = join () in
  check_bool "completed despite the dispute" true r.Coordinator.completed;
  check_int "dispute surfaced" 1 r.Coordinator.mismatches;
  check_int "nothing resolved" 0 r.Coordinator.arb_resolved;
  check_int "unresolved (exit 19 upstairs)" 1 r.Coordinator.arb_unresolved;
  check_bool "patience timeout surfaced" true
    (List.exists
       (function
         | Coordinator.Arbitration_failed { reason; _ } -> contains reason "patience"
         | _ -> false)
       (all ()))

(* --- the liar-chaos soak ---------------------------------------------- *)

(* Two honest workers and one armed with the liar chaos profile race
   through a fully cross-validated campaign. Every lie the liar frames
   (CRC-clean — the corruption happens before framing) surfaces as a
   verdict mismatch, is outvoted by an honest ballot, and feeds the
   liar's suspicion until reputation quarantines it. The final
   statistics are bit-identical to the honest single-process reference
   and the journal carries every arbitration. *)
let test_liar_soak () =
  let reference = toy_reference () in
  let dir = scratch_dir () in
  let config =
    { test_config with Coordinator.verify_frac = 1.; quorum = 3; suspect_threshold = 5 }
  in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~journal:dir ~on_event:push () in
  (* The honest pair alone could take every chunk before the liar
     handshakes, leaving nothing to lie about. Each worker holds in
     [resolve], after its own join, until all three have joined. The
     whole toy campaign can finish within one polling period, so the
     honest pair also waits for the liar's first assignment. *)
  let happened pred () = List.exists pred (all ()) in
  let joined name =
    happened (function
      | Coordinator.Joined { worker } -> worker = name
      | _ -> false)
  in
  let all_joined () =
    List.for_all (fun name -> joined name ()) [ "honest-1"; "honest-2"; "liar" ]
  in
  let liar_assigned =
    happened (function
      | Coordinator.Assigned { worker; _ } -> worker = "liar"
      | _ -> false)
  in
  let resolve ~honest _ =
    wait_for all_joined "all three workers to join";
    if honest then wait_for liar_assigned "the liar's first assignment";
    toy_engine ()
  in
  let w1 = work_bg ~port ~name:"honest-1" ~resolve:(resolve ~honest:true) () in
  let w2 = work_bg ~port ~name:"honest-2" ~resolve:(resolve ~honest:true) () in
  let liar =
    work_bg ~port ~name:"liar" ~resolve:(resolve ~honest:false)
      ~chaos:(Chaos.create ~profile:Chaos.liar_profile ~seed:7 ())
      ()
  in
  let r1 = w1 () and r2 = w2 () and rl = liar () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_bool "all workers done" true
    (r1.Worker.ended = Worker.Campaign_done
    && r2.Worker.ended = Worker.Campaign_done
    && rl.Worker.ended = Worker.Campaign_done);
  (* The headline: lies happened, every one was settled by quorum, and
     the stats are exactly the honest reference. *)
  check_bool "the liar actually lied" true (r.Coordinator.mismatches > 0);
  check_int "every dispute resolved" r.Coordinator.mismatches r.Coordinator.arb_resolved;
  check_int "no unresolved dispute" 0 r.Coordinator.arb_unresolved;
  check_stats "bit-identical to honest reference" reference r.Coordinator.stats;
  (* Reputation quarantined the liar — and only the liar. *)
  check_bool "liar quarantined" true (List.mem_assoc "liar" r.Coordinator.suspects);
  check_bool "honest workers unsuspected" true
    (List.for_all (fun (w, _) -> w = "liar") r.Coordinator.suspects);
  check_bool "quarantine event emitted" true
    (List.exists
       (function
         | Coordinator.Suspected { worker = "liar"; _ } -> true
         | _ -> false)
       (all ()));
  (* Every arbitration is journaled with provenance, and the journal
     stays resumable. *)
  let f = Journal.fsck ~dir in
  check_bool "journal clean" true (f.Journal.fsck_errors = []);
  check_int "arbitrations journaled" r.Coordinator.arb_resolved f.Journal.fsck_counts.(7);
  check_int "overturns journaled" r.Coordinator.arb_overturned f.Journal.fsck_overturned;
  rm_rf dir

(* --- Arbitrated record: packing limits -------------------------------- *)

(* The 13-byte record packs winner kind, loser kind, overturned flag,
   voter count (saturating at 15) and the winner's Sdc cycle (saturating
   at 2^21 - 1); a losing Sdc's cycle is dropped by design. *)
let test_arbitrated_record_packing () =
  let dir = scratch_dir () in
  let entries =
    [
      Journal.Outcome (0, Journal.Sdc 7);
      Journal.Arbitrated
        { index = 0; outcome = Journal.Benign; loser = Journal.Sdc 7; voters = 1; overturned = true };
      Journal.Arbitrated
        {
          index = 1;
          outcome = Journal.Sdc 123456;
          loser = Journal.Latent;
          voters = 3;
          overturned = false;
        };
      (* Saturation: 99 voters records as 15, a huge Sdc cycle clamps to
         the 21-bit maximum. *)
      Journal.Arbitrated
        {
          index = 2;
          outcome = Journal.Sdc 10_000_000;
          loser = Journal.Crashed;
          voters = 99;
          overturned = true;
        };
    ]
  in
  let w = Journal.create ~dir (make_header ()) in
  List.iter (Journal.append w) entries;
  Journal.close w;
  let _, got, dropped = Journal.load ~dir in
  check_int "no torn bytes" 0 dropped;
  check_int "all records back" (List.length entries) (Array.length got);
  check_bool "overturn round-trips, losing Sdc cycle dropped" true
    (got.(1)
    = Journal.Arbitrated
        { index = 0; outcome = Journal.Benign; loser = Journal.Sdc 0; voters = 1; overturned = true }
    );
  check_bool "winner Sdc cycle preserved" true
    (got.(2)
    = Journal.Arbitrated
        {
          index = 1;
          outcome = Journal.Sdc 123456;
          loser = Journal.Latent;
          voters = 3;
          overturned = false;
        });
  check_bool "voters and cycle saturate" true
    (got.(3)
    = Journal.Arbitrated
        {
          index = 2;
          outcome = Journal.Sdc 0x1FFFFF;
          loser = Journal.Crashed;
          voters = 15;
          overturned = true;
        });
  let f = Journal.fsck ~dir in
  check_int "fsck counts arbitrated" 3 f.Journal.fsck_counts.(7);
  check_int "fsck counts overturns" 2 f.Journal.fsck_overturned;
  check_int "fsck sums ballots (saturated)" (1 + 3 + 15) f.Journal.fsck_arb_ballots;
  rm_rf dir

(* --- reputation is a pure function of the event sequence -------------- *)

let prop_reputation_pure =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 64)
        (pair (int_range 0 3)
           (int_range 0 2 >|= function
            | 0 -> Reputation.Arbitration_loss
            | 1 -> Reputation.Corrupt_frame
            | _ -> Reputation.Lease_expiry)))
  in
  QCheck2.Test.make ~name:"reputation: score is a pure fold over the event sequence" ~count:200 gen
    (fun raw ->
      let events = List.map (fun (w, e) -> (Printf.sprintf "w%d" w, e)) raw in
      (* Batch reconstruction and incremental recording agree... *)
      let batch = Reputation.of_events events in
      let incr = Reputation.create () in
      List.iter
        (fun (name, e) ->
          let running = Reputation.record incr ~name e in
          (* ...and [record] returns the running score it just stored. *)
          if running <> Reputation.score incr name then QCheck2.Test.fail_report "running score drifted")
        events;
      Reputation.scores batch = Reputation.scores incr
      &&
      (* The audit identity: each name's score is the weighted event
         count, independent of interleaving with other names. *)
      List.for_all
        (fun (name, _) ->
          Reputation.score batch name
          = List.fold_left
              (fun acc (n, e) -> if n = name then acc + Reputation.weight e else acc)
              0 events)
        events)

let suite =
  [
    Alcotest.test_case "1v1 split resolved by one ballot" `Quick test_split_vote_resolved;
    Alcotest.test_case "overturn journaled, fsck'd and resumed" `Quick
      test_overturn_journaled_and_resumed;
    Alcotest.test_case "no quorum: unresolved, not deadlocked" `Quick test_no_quorum_unresolved;
    Alcotest.test_case "liar-chaos soak: bit-identical + quarantined" `Quick test_liar_soak;
    Alcotest.test_case "Arbitrated record packing limits" `Quick test_arbitrated_record_packing;
    QCheck_alcotest.to_alcotest prop_reputation_pure;
  ]
