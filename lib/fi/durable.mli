(** Durable, supervised, self-auditing campaigns.

    {!Campaign} classifies faults fast; this layer makes a long campaign
    survive the real world on top of it:

    - {b Crash safety}: with [~journal], every verdict is streamed into
      an append-only, CRC-checksummed {!Journal} the moment it is
      produced. A campaign killed at any point — SIGKILL included — is
      resumed with [~resume:true]: the journal header pins the campaign
      identity (core, program, cycles, seed, sample count, prune/audit
      configuration and every serialized PRNG state), the
      fault list is re-derived from the restored sampler, recorded
      verdicts are replayed, and only the missing experiments run. The
      final statistics are bit-identical to an uninterrupted run.

    - {b Supervision}: the sample list is classified by one
      {!Executor} — the same supervised loop that runs {!Worker} chunks —
      on the calling domain. An experiment that raises — simulator bug,
      test-injected chaos — is retried up to [retries] times, each time
      on a freshly built system ({!Campaign.fresh_worker}), and a
      persistent failure is recorded as [Crashed] in the stats instead
      of aborting the campaign. Every experiment stops at the campaign
      horizon, so none needs a cycle budget.

    - {b MATE soundness sentinel}: with [~audit:(p, hooks)], a
      [p]-fraction of the faults the [skip] predicate claims pruned are
      injected anyway. A non-[Benign] verdict for a "pruned" fault is a
      soundness violation: the offending MATEs are quarantined through
      [hooks] (their flops stop being pruned for the rest of the run),
      the event is journaled, and the fault is counted by its real
      verdict — the campaign degrades from "prune" to "inject" rather
      than producing wrong statistics. Audited faults whose verdict is
      [Benign] stay counted as [skipped], so a campaign over sound MATEs
      reports statistics identical to an unaudited one. *)

type audit_hooks = {
  masking : flop_id:int -> cycle:int -> int list;
      (** the enabled MATEs that claimed this fault benign *)
  quarantine : int -> unit;  (** disable one MATE for the rest of the run *)
  describe : int -> string;  (** for the audit summary *)
}
(** The pruning side of the audit sentinel, kept abstract so this library
    does not depend on the MATE layer; [Pruning_mate.Replay.pruner]
    provides a direct implementation ([masking]/[quarantine]/
    [describe_mate]). *)

type violation = {
  v_index : int;  (** sample index *)
  v_flop_id : int;
  v_cycle : int;
  v_verdict : Campaign.verdict;  (** the real, non-benign verdict *)
  v_mates : int list;  (** MATEs quarantined for it *)
}

type audit_report = {
  audited : int;  (** pruned faults injected for auditing (this process) *)
  violations : violation list;  (** in detection order *)
  quarantined : int list;
      (** every quarantined MATE, journal-replayed ones included *)
}

type result = {
  stats : Campaign.stats;
  audit : audit_report;
  completed : bool;  (** false iff [should_stop] ended the run early *)
  recovered : int;  (** verdicts replayed from the journal, not re-run *)
  dropped_bytes : int;  (** torn journal tail truncated on resume *)
  retried : int;
      (** experiment attempts that raised (chaos crashes excluded):
          retries performed plus attempts given up as [Crashed] *)
}

val run :
  Campaign.t ->
  space:Fault_space.t ->
  seed:int ->
  n:int ->
  ?ident:string * string ->
  ?skip:(flop_id:int -> cycle:int -> bool) ->
  ?audit:float * audit_hooks ->
  ?kernel:Campaign.kernel ->
  ?lanes:int ->
  ?retries:int ->
  ?retry_backoff:Pruning_util.Backoff.policy ->
  ?journal:string ->
  ?resume:bool ->
  ?records_per_segment:int ->
  ?should_stop:(unit -> bool) ->
  ?chaos:Chaos.t ->
  ?fault:(index:int -> attempt:int -> unit) ->
  unit ->
  result
(** Durable counterpart of {!Campaign.run_sample} and
    {!Campaign.run_sample_delta_batched}: draws the identical fault list
    for the same [seed] (so its stats are bit-identical to theirs when
    nothing crashes), then runs it under journal + supervisor + sentinel.

    [ident] is the (core, program) pair recorded in the journal header
    and checked on resume. [skip] marks pruned faults; it must be pure
    except for quarantine effects. [audit] enables the sentinel ([p] in
    \[0, 1\]; audit decisions are drawn from a PRNG whose state lives in
    the journal header, so a resumed run audits exactly the faults the
    original would have). [kernel] selects the engine ([Scalar]
    (default) or [Delta_batched]; each runs every fault model). Both
    kernels write the same header shape ([shards = 1], one audit PRNG
    state), and since they are verdict-bit-identical their journals
    resume interchangeably — including journals whose header carries
    the historical [batched] flag of the deleted bit-parallel engine. A journal with
    [shards > 1], written by [--jobs N] of an older build, is refused
    by {!Journal.require_match}. [lanes] caps the in-flight faults per
    pass of [Delta_batched] (default: the engine's maximum; rejected
    with [Invalid_argument] for [Scalar]). [retries] (default 2) bounds
    the supervisor's fresh-system retries per experiment (per
    {!Executor.batch_window} of [lanes] on [Delta_batched], which is
    also its journaling unit); between retries the executor sleeps per [retry_backoff]
    (default {!Pruning_util.Backoff.retry_policy}: capped exponential
    with jitter drawn deterministically from the pinned PRNG state, so
    reruns hitting the same failures pace identically).
    [journal] is the journal directory; [resume] reopens it instead of
    creating it, raising {!Journal.Error} with an actionable message if
    the header does not match the invocation. [should_stop] is polled
    between experiments for cooperative shutdown (SIGINT/SIGTERM
    handlers); a stopped run journals everything it finished and reports
    [completed = false].

    [chaos] arms this run's deterministic infrastructure fault plan:
    execution chaos around every experiment attempt (a {!Chaos.Injected}
    crash is retried without consuming [retries], so chaos never
    manufactures [Crashed] verdicts) and journal chaos on the writer
    (short writes, injected ENOSPC/EIO, fsync failures, torn seal
    renames — all surfacing as {!Journal.Error}, from which [resume]
    completes the campaign bit-identically). The plan is reproducible
    draw-for-draw. [fault] is a test-only fault-injection hook for the
    supervisor itself, called before every attempt with the attempted
    sample index (a window's first injected index on [Delta_batched])
    and the attempt number; an exception it raises is handled exactly
    like a crashed experiment (see {!Executor.run}). *)
