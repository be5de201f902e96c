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

let run campaign ~space ~seed ~n ?(ident = ("unknown", "unknown")) ?skip ?audit
    ?(kernel = Campaign.Scalar) ?lanes ?(retries = 2)
    ?(retry_backoff = Backoff.retry_policy) ?journal ?(resume = false) ?records_per_segment
    ?(should_stop = fun () -> false) ?chaos ?fault () =
  if n < 0 then invalid_arg "Durable.run: n must be non-negative";
  if retries < 0 then invalid_arg "Durable.run: retries must be non-negative";
  (match lanes with
  | None -> ()
  | Some l ->
    if kernel <> Campaign.Delta_batched then
      invalid_arg "Durable.run: ~lanes requires the delta-batched kernel";
    if l < 1 || l > Campaign.max_delta_lanes then
      invalid_arg
        (Printf.sprintf "Durable.run: lanes must be in [1, %d]" Campaign.max_delta_lanes));
  (match audit with
  | Some (p, _) when not (p >= 0. && p <= 1.) ->
    invalid_arg "Durable.run: audit fraction must be in [0, 1]"
  | _ -> ());
  if resume && journal = None then invalid_arg "Durable.run: resume requires a journal";
  let core, program = ident in
  (* Identical draw order to [Campaign.run_sample]: the fault list is a
     function of the seed alone, so journal resume and the kernel all
     see the same samples. *)
  let rng = Prng.create seed in
  let master_state = Prng.save rng in
  let samples = Campaign.draw_samples campaign ~space ~rng ~n in
  (* The audit sampler, split off deterministically after the sample
     draw; its initial state is pinned in the journal header so a
     resumed run replays the identical audit decisions. *)
  let audit_state = Prng.save (Prng.split rng) in
  (* One supervised executor over the whole index range, on the calling
     domain. Retry pacing is capped exponential backoff whose jitter is
     drawn from a generator split off the pinned audit state — a rerun
     that hits the same failures sleeps the same schedule. The batched
     kernel is journaled per {!Executor.batch_window}: sixty-four full
     passes per domain. Built before the journal is opened, so an
     argument it refuses leaves no journal behind. *)
  let executor =
    Executor.create campaign ~space ~samples ~kernel ?lanes
      ~window:(Executor.batch_window ~lanes:(Option.value lanes ~default:Campaign.max_delta_lanes))
      ~retries
      ~backoff:(Backoff.create ~policy:retry_backoff (Prng.split (Prng.restore audit_state)))
      ?chaos ~should_stop ()
  in
  let audit_p, hooks =
    match audit with
    | Some (p, h) -> (p, Some h)
    | None -> (0., None)
  in
  (* [shards = 1] and its one [shard_prng] keep the header byte-identical
     to the single-shard journals of older builds, so those resume. *)
  let header : Journal.header =
    {
      Journal.core;
      program;
      cycles = Campaign.total_cycles campaign;
      seed;
      samples = n;
      prune = skip <> None;
      audit = audit_p;
      shards = 1;
      batched = false;
      epoch = 0;
      fault_model = space.Fault_space.model;
      prng = master_state;
      shard_prng = [| audit_state |];
    }
  in
  let outcomes : Journal.outcome option array = Array.make n None in
  let auditing = Array.make n false in
  let violations = ref [] in
  let quarantined = ref [] in
  let audited = ref 0 in
  let pre_quarantine m =
    Option.iter (fun h -> h.quarantine m) hooks;
    quarantined := m :: !quarantined
  in
  let writer, recovered, dropped_bytes =
    match journal with
    | None -> (None, 0, 0)
    | Some dir when resume ->
      let h, entries, dropped, w = Journal.resume ?records_per_segment ?chaos ~dir () in
      Journal.require_match ~what:dir h header;
      let recovered = Journal.replay ~quarantine:pre_quarantine outcomes entries in
      (Some w, recovered, dropped)
    | Some dir -> (Some (Journal.create ?records_per_segment ?chaos ~dir header), 0, 0)
  in
  let journal_entry e =
    match writer with
    | Some w -> Journal.append w e
    | None -> ()
  in
  let is_pruned ~flop_id ~cycle =
    match skip with
    | Some f -> f ~flop_id ~cycle
    | None -> false
  in
  (* One audit draw per index, consumed whether or not it is used:
     resumed runs and quarantine-perturbed runs stay stream-aligned. *)
  let arng = Prng.restore audit_state in
  let plan idx ~flop_id ~cycle =
    let draw = Prng.float arng in
    if outcomes.(idx) <> None then Executor.Done
    else if not (is_pruned ~flop_id ~cycle) then Executor.Inject
    else if hooks <> None && draw < audit_p then begin
      auditing.(idx) <- true;
      Executor.Inject
    end
    else Executor.Skip
  in
  (* A pruned fault's non-benign verdict: quarantine what claimed it
     benign, journal the quarantines before the verdict (so a resume
     replays them in order), and count the fault by its real verdict. *)
  let handle_violation i (o : Journal.outcome) =
    let flop_id, cycle = samples.(i) in
    let v =
      match o with
      | Journal.Sdc c -> Campaign.Sdc c
      | _ -> Campaign.Latent
    in
    let mates =
      match hooks with
      | Some h -> h.masking ~flop_id ~cycle
      | None -> []
    in
    (match hooks with
    | Some h -> List.iter h.quarantine mates
    | None -> ());
    quarantined := List.rev_append mates !quarantined;
    violations :=
      { v_index = i; v_flop_id = flop_id; v_cycle = cycle; v_verdict = v; v_mates = mates }
      :: !violations;
    List.iter (fun m -> journal_entry (Journal.Quarantine m)) mates
  in
  (* Every outcome is journaled the moment its window is classified (a
     kill loses at most the window in flight, which the resume re-runs).
     An audited fault's [Benign] verdict keeps the unaudited accounting:
     the prune was sound. *)
  let emit idx (o : Journal.outcome) =
    let o =
      match o with
      | (Journal.Benign | Journal.Latent | Journal.Sdc _) when auditing.(idx) ->
        incr audited;
        if o = Journal.Benign then Journal.Skipped
        else begin
          handle_violation idx o;
          o
        end
      | o -> o
    in
    outcomes.(idx) <- Some o;
    journal_entry (Journal.Outcome (idx, o))
  in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close writer) (fun () ->
      ignore (Executor.run executor ~ranges:[ (0, n - 1) ] ~plan ~emit ?fault ()));
  {
    stats = Journal.stats outcomes;
    audit =
      {
        audited = !audited;
        violations = List.rev !violations;
        quarantined = List.rev !quarantined;
      };
    completed = Array.for_all Option.is_some outcomes;
    recovered;
    dropped_bytes;
    retried = Executor.failures executor;
  }
