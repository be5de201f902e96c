module Prng = Pruning_util.Prng
module Backoff = Pruning_util.Backoff

type audit_hooks = {
  masking : flop_id:int -> cycle:int -> int list;
  quarantine : int -> unit;
  describe : int -> string;
}

type violation = {
  v_index : int;
  v_flop_id : int;
  v_cycle : int;
  v_verdict : Campaign.verdict;
  v_mates : int list;
}

type audit_report = {
  audited : int;
  violations : violation list;
  quarantined : int list;
}

type result = {
  stats : Campaign.stats;
  audit : audit_report;
  completed : bool;
  recovered : int;
  dropped_bytes : int;
  retried : int;
}

let outcome_of_verdict : Campaign.verdict -> Journal.outcome = function
  | Campaign.Benign -> Journal.Benign
  | Campaign.Latent -> Journal.Latent
  | Campaign.Sdc c -> Journal.Sdc c

let run campaign ~space ~seed ~n ?(ident = ("unknown", "unknown")) ?skip ?audit ?(jobs = 1)
    ?(kernel = Campaign.Scalar) ?lanes ?budget ?(retries = 2)
    ?(retry_backoff = Backoff.retry_policy) ?journal ?(resume = false) ?records_per_segment
    ?(should_stop = fun () -> false) ?chaos ?fault () =
  if n < 0 then invalid_arg "Durable.run: n must be non-negative";
  if jobs < 1 then invalid_arg "Durable.run: jobs must be positive";
  if retries < 0 then invalid_arg "Durable.run: retries must be non-negative";
  (match lanes with
  | None -> ()
  | Some l ->
    if kernel <> Campaign.Delta_batched then
      invalid_arg "Durable.run: ~lanes requires the delta-batched kernel";
    if l < 1 || l > Campaign.max_delta_lanes then
      invalid_arg
        (Printf.sprintf "Durable.run: lanes must be in [1, %d]" Campaign.max_delta_lanes));
  let kernel = Campaign.effective_kernel space.Fault_space.model kernel in
  (match audit with
  | Some (p, _) when not (p >= 0. && p <= 1.) ->
    invalid_arg "Durable.run: audit fraction must be in [0, 1]"
  | _ -> ());
  (match budget with
  | Some b when b <= 0 -> invalid_arg "Durable.run: budget must be positive"
  | _ -> ());
  if resume && journal = None then invalid_arg "Durable.run: resume requires a journal";
  let core, program = ident in
  (* Identical draw order to [Campaign.run_sample]: the fault list is a
     function of the seed alone, so journal resume, jobs count and the
     kernel all see the same samples. *)
  let rng = Prng.create seed in
  let master_state = Prng.save rng in
  let samples = Campaign.draw_samples campaign ~space ~rng ~n in
  (* One shard for the delta-family engines (their workers are shared,
     not domain-safe); the scalar engine fans out over [jobs] domains. *)
  let shards =
    match kernel with
    | Campaign.Delta | Campaign.Delta_batched -> 1
    | Campaign.Scalar -> max 1 (min jobs (max 1 n))
  in
  (* Per-shard audit samplers, split off deterministically after the
     sample draw; their initial states are pinned in the journal header
     so a resumed run replays the identical audit decisions. *)
  let shard_states = Array.init shards (fun _ -> Prng.save (Prng.split rng)) in
  let audit_p, hooks =
    match audit with
    | Some (p, h) -> (p, Some h)
    | None -> (0., None)
  in
  let header : Journal.header =
    {
      Journal.core;
      program;
      cycles = Campaign.total_cycles campaign;
      seed;
      samples = n;
      prune = skip <> None;
      audit = audit_p;
      shards;
      batched = false;
      epoch = 0;
      fault_model = space.Fault_space.model;
      prng = master_state;
      shard_prng = shard_states;
    }
  in
  (* Shared supervisor state; [lock] guards everything but [outcomes],
     whose cells are each written by exactly one shard. *)
  let lock = Mutex.create () in
  let outcomes : Journal.outcome option array = Array.make n None in
  let violations = ref [] in
  let quarantined = ref [] in
  let audited = ref 0 in
  let retried = ref 0 in
  let pre_quarantine m =
    match hooks with
    | Some h ->
      h.quarantine m;
      quarantined := m :: !quarantined
    | None -> quarantined := m :: !quarantined
  in
  let writer, recovered, dropped_bytes =
    match journal with
    | None -> (None, 0, 0)
    | Some dir when resume ->
      let h, entries, dropped, w = Journal.resume ?records_per_segment ?chaos ~dir () in
      Journal.require_match ~what:dir h header;
      let recovered = ref 0 in
      Array.iter
        (function
          | Journal.Outcome (i, o) ->
            if i >= 0 && i < n && outcomes.(i) = None then begin
              outcomes.(i) <- Some o;
              incr recovered
            end
          | Journal.Quarantine m -> pre_quarantine m
          (* Distributed-only arbitration override: the quorum's verdict
             supersedes the disputed Outcome recorded before it. *)
          | Journal.Arbitrated { index = i; outcome = o; _ } ->
            if i >= 0 && i < n then begin
              if outcomes.(i) = None then incr recovered;
              outcomes.(i) <- Some o
            end
          (* Distributed-only marker; a local journal never writes one,
             but resuming must not choke on it either. *)
          | Journal.Poisoned _ -> ())
        entries;
      (Some w, !recovered, dropped)
    | Some dir -> (Some (Journal.create ?records_per_segment ?chaos ~dir header), 0, 0)
  in
  (* Retry pacing: capped exponential backoff whose jitter is drawn from
     a generator split off the shard's pinned PRNG state — a rerun that
     hits the same failures sleeps the same schedule. *)
  let shard_backoff s =
    Backoff.create ~policy:retry_backoff (Prng.split (Prng.restore shard_states.(s)))
  in
  let journal_entry e =
    match writer with
    | Some w -> Journal.append w e
    | None -> ()
  in
  let record i (o : Journal.outcome) =
    outcomes.(i) <- Some o;
    journal_entry (Journal.Outcome (i, o))
  in
  let is_pruned ~flop_id ~cycle =
    match skip with
    | Some f -> f ~flop_id ~cycle
    | None -> false
  in
  (* A pruned fault's non-benign verdict: quarantine what claimed it
     benign, journal the quarantines before the verdict (so a resume
     replays them in order), and count the fault by its real verdict. *)
  let handle_violation i ~flop_id ~cycle v =
    let mates =
      match hooks with
      | Some h -> h.masking ~flop_id ~cycle
      | None -> []
    in
    Mutex.lock lock;
    (match hooks with
    | Some h -> List.iter h.quarantine mates
    | None -> ());
    quarantined := List.rev_append mates !quarantined;
    violations :=
      { v_index = i; v_flop_id = flop_id; v_cycle = cycle; v_verdict = v; v_mates = mates }
      :: !violations;
    Mutex.unlock lock;
    List.iter (fun m -> journal_entry (Journal.Quarantine m)) mates
  in
  let bump r =
    Mutex.lock lock;
    incr r;
    Mutex.unlock lock
  in
  (* Infrastructure chaos around one experiment attempt. A [Crash]
     raises {!Chaos.Injected}, retried without consuming the retry
     budget: a finite chaos plan must never turn a healthy experiment
     into a [Crashed] verdict, or chaos runs would change the stats. *)
  let exec_chaos () =
    match Option.map (fun c -> Chaos.draw c Chaos.Exec) chaos with
    | Some Chaos.Crash -> raise (Chaos.Injected "experiment crashed")
    | Some (Chaos.Stall s) -> Unix.sleepf s
    | _ -> ()
  in
  (* ---------------------------------------------------------------- *)
  (* Sequential (one-fault-at-a-time) shards: the scalar and delta
     kernels share this loop, differing only in the injector and in how
     a crashed worker is recovered.                                    *)
  let run_seq_shard ~shard ~inject ~recover arng lo hi =
    let bo = shard_backoff shard in
    let i = ref lo in
    while !i <= hi && not (should_stop ()) do
      let idx = !i in
      let flop_id, cycle = samples.(idx) in
      (* One audit draw per index, consumed whether or not it is used:
         resumed runs and quarantine-perturbed runs stay stream-aligned. *)
      let draw = Prng.float arng in
      if outcomes.(idx) = None then begin
        let pruned = is_pruned ~flop_id ~cycle in
        let auditing = pruned && hooks <> None && draw < audit_p in
        if pruned && not auditing then record idx Journal.Skipped
        else begin
          Backoff.reset bo;
          let rec attempt k =
            match
              exec_chaos ();
              (match fault with
              | Some f -> f ~shard ~index:idx ~attempt:k
              | None -> ());
              inject ~flop_id ~cycle
            with
            | v -> Some v
            | exception Chaos.Injected _ -> attempt k
            | exception _ ->
              (* The worker may be mid-run; rebuild it before retrying,
                 and back off so a systemic failure (disk full,
                 OOM-adjacent) is not hammered at full speed. *)
              recover ();
              bump retried;
              if k < retries then begin
                Unix.sleepf (Backoff.next bo);
                attempt (k + 1)
              end
              else None
          in
          match attempt 0 with
          | None -> record idx Journal.Crashed
          | Some v ->
            if auditing then begin
              bump audited;
              if v = Campaign.Benign then
                (* The prune was sound: keep the unaudited accounting. *)
                record idx Journal.Skipped
              else begin
                handle_violation idx ~flop_id ~cycle v;
                record idx (outcome_of_verdict v)
              end
            end
            else record idx (outcome_of_verdict v)
        end
      end;
      incr i
    done
  in
  (* Scalar instantiation: a private worker rebuilt from a fresh system
     ([make ()]) on crash. *)
  let run_scalar_shard ~shard worker0 arng lo hi =
    let worker = ref worker0 in
    run_seq_shard ~shard
      ~inject:(fun ~flop_id ~cycle ->
        Campaign.inject_fault ?budget campaign !worker ~space ~key:flop_id ~cycle)
      ~recover:(fun () -> worker := Campaign.fresh_worker campaign)
      arng lo hi
  in
  (* ---------------------------------------------------------------- *)
  (* Windowed (many-faults-at-once) shard for the batched-delta kernel:
     one domain, journaled per window of four full passes.             *)
  let run_windowed arng =
    let window = 4 * Option.value lanes ~default:Campaign.max_delta_lanes in
    let bo = shard_backoff 0 in
    let lo = ref 0 in
    while !lo < n && not (should_stop ()) do
      let hi = min (n - 1) (!lo + window - 1) in
      (* Classify the window: what to record directly, what to inject.
         [fresh] excludes journal-recovered outcomes from re-journaling. *)
      let fresh = Array.init (hi - !lo + 1) (fun j -> outcomes.(!lo + j) = None) in
      let to_inject = ref [] in
      for idx = !lo to hi do
        let flop_id, cycle = samples.(idx) in
        let draw = Prng.float arng in
        if outcomes.(idx) = None then begin
          let pruned = is_pruned ~flop_id ~cycle in
          let auditing = pruned && hooks <> None && draw < audit_p in
          if pruned && not auditing then outcomes.(idx) <- Some Journal.Skipped
          else to_inject := (idx, auditing) :: !to_inject
        end
      done;
      let to_inject = List.rev !to_inject in
      (if to_inject <> [] then begin
         let faults = Array.of_list (List.map (fun (idx, _) -> samples.(idx)) to_inject) in
         Backoff.reset bo;
         let rec attempt k =
           match
             exec_chaos ();
             (match fault with
             | Some f -> f ~shard:0 ~index:!lo ~attempt:k
             | None -> ());
             Campaign.inject_delta_batch campaign ?lanes ~faults ()
           with
           | verdicts -> Some verdicts
           | exception Chaos.Injected _ -> attempt k
           | exception _ ->
             (* The worker's lane state is unknown; rebuild it. *)
             Campaign.reset_delta_batch_worker campaign;
             bump retried;
             if k < retries then begin
               Unix.sleepf (Backoff.next bo);
               attempt (k + 1)
             end
             else None
         in
         match attempt 0 with
         | None ->
           (* A persistently failing window is recorded at window
              granularity — the batch engine classifies it as a unit. *)
           List.iter (fun (idx, _) -> outcomes.(idx) <- Some Journal.Crashed) to_inject
         | Some verdicts ->
           List.iteri
             (fun j (idx, auditing) ->
               let v = verdicts.(j) in
               let flop_id, cycle = samples.(idx) in
               if auditing then begin
                 bump audited;
                 if v = Campaign.Benign then outcomes.(idx) <- Some Journal.Skipped
                 else begin
                   handle_violation idx ~flop_id ~cycle v;
                   outcomes.(idx) <- Some (outcome_of_verdict v)
                 end
               end
               else outcomes.(idx) <- Some (outcome_of_verdict v))
             to_inject
       end);
      (* Journal the window's new outcomes in index order once it is
         classified (a kill mid-window loses at most one window of
         work, which the resume simply re-runs). *)
      for idx = !lo to hi do
        if fresh.(idx - !lo) then
          match outcomes.(idx) with
          | Some o -> journal_entry (Journal.Outcome (idx, o))
          | None -> ()
      done;
      lo := hi + 1
    done
  in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close writer) @@ fun () ->
  (match kernel with
  | Campaign.Delta_batched -> run_windowed (Prng.restore shard_states.(0))
  | Campaign.Delta ->
    (* The delta worker (shared golden trace + devices) is not
       domain-safe, so the delta kernel always runs one shard. *)
    run_seq_shard ~shard:0
      ~inject:(fun ~flop_id ~cycle ->
        Campaign.inject_fault_delta ?budget campaign ~space ~key:flop_id ~cycle)
      ~recover:(fun () -> Campaign.reset_delta_worker campaign)
      (Prng.restore shard_states.(0))
      0 (n - 1)
  | Campaign.Scalar ->
    if shards = 1 then
      run_scalar_shard ~shard:0 (Campaign.primary_worker campaign)
        (Prng.restore shard_states.(0))
        0 (n - 1)
    else begin
      let chunk = (n + shards - 1) / shards in
      let domains =
        List.init shards (fun s ->
            let lo = s * chunk in
            let hi = min (n - 1) (((s + 1) * chunk) - 1) in
            Domain.spawn (fun () ->
                if lo <= hi then
                  run_scalar_shard ~shard:s
                    (Campaign.fresh_worker campaign)
                    (Prng.restore shard_states.(s))
                    lo hi))
      in
      List.iter Domain.join domains
    end);
  let b = ref 0 and l = ref 0 and s = ref 0 and sk = ref 0 and cr = ref 0 and done_ = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some o ->
        incr done_;
        (match o with
        | Journal.Benign -> incr b
        | Journal.Latent -> incr l
        | Journal.Sdc _ -> incr s
        | Journal.Skipped -> incr sk
        | Journal.Crashed -> incr cr))
    outcomes;
  {
    stats =
      {
        Campaign.injections = !b + !l + !s;
        benign = !b;
        latent = !l;
        sdc = !s;
        skipped = !sk;
        crashed = !cr;
      };
    audit =
      {
        audited = !audited;
        violations = List.rev !violations;
        quarantined = List.rev !quarantined;
      };
    completed = !done_ = n;
    recovered;
    dropped_bytes;
    retried = !retried;
  }
