(** The fault-tolerant campaign coordinator.

    One process owns the campaign: it derives nothing but hands out work
    — the fault list is a pure function of the journal header (seed), so
    the coordinator never touches a netlist or simulator. It shards the
    sample range into fixed-size chunks, leases them to whatever workers
    connect, collects verdict streams, journals every fresh verdict
    through {!Journal}, and declares the campaign complete when every
    sample index has exactly one verdict.

    {b Robustness model.}
    - {e Leases with heartbeat expiry}: any frame from a worker counts as
      liveness. A worker that stays silent longer than the lease window
      has its chunks requeued and re-dispatched to other workers — but
      its connection is kept: a straggler (not dead, just slow) may still
      deliver.
    - {e Idempotent dedup}: verdicts are deterministic per experiment, so
      a re-dispatched chunk's second result set must agree with the
      first. Duplicates are asserted equal and dropped, never
      double-counted; a disagreement opens a {e quorum arbitration}
      (below) instead of fail-stopping the campaign.
    - {e Quorum arbitration}: a verdict mismatch (duplicate delivery or
      cross-validation) re-issues the disputed chunk as ballots to up to
      [quorum] workers that are neither the recorded verdict's origin
      nor the challenger, one at a time. Each disputed sample is settled
      by strict majority among both claims plus the ballots; the winner
      is journaled as {!Journal.Arbitrated} (voter count, losing
      verdict, overturned flag — an override on resume) and every party
      that voted for a losing verdict takes a reputation hit. Disputes
      with no majority after [quorum] ballots, or no progress within
      [arb_patience] seconds (no eligible voter), are counted in
      [result.arb_unresolved] — the recorded verdict stands and the
      caller exits 19. Mismatches surfacing after completion (drain
      phase) cannot recruit voters and go straight to unresolved, with
      the late dissenter disconnected.
    - {e Worker reputation}: per-name suspicion scores ({!Reputation}),
      fed by arbitration losses (3), corrupt frames (2) and lease
      expiries (1). A name crossing [suspect_threshold] is quarantined
      for the rest of the run: excluded from arbitration voting, and
      every chunk it completes is cross-validated regardless of
      [verify_frac]. Quarantined names and scores are reported in
      [result.suspects]; the worker's own score travels in [Welcome].
    - {e Worker death}: EOF or a write failure requeues the worker's
      chunks immediately.
    - {e Poisoned-chunk quarantine}: a chunk whose execution kills
      [poison_threshold] {e distinct} workers (connection death while
      holding it and nothing else — lease expiry is mere straggling,
      and a death holding a batch only makes its chunks suspect, to be
      leased alone from then on) is quarantined
      instead of being re-dispatched forever: journaled as
      {!Journal.Poisoned}, skipped, and reported in [result.poisoned].
      The service then finishes degraded (exit 20 upstairs); resuming
      retries quarantined chunks from scratch.
    - {e Blacklisting}: every connection dropped for misbehavior
      (corrupt frame, protocol violation, determinism mismatch) is a
      strike against its announced worker name; a name with
      [blacklist_threshold] strikes has its next [Hello] refused.
    - {e Read deadline}: a connection silent past [idle_timeout] is
      closed (a live worker requests, streams or heartbeats well inside
      it) — the coordinator never carries a dead peer forever.
    - {e Cross-validation} ([verify_frac] > 0): a deterministic per-chunk
      draw from the campaign seed selects chunks to re-issue, after
      completion, to a second worker (preferring one that is not the
      chunk's origin). Re-delivered verdicts must dedup equal; a
      disagreement opens a quorum arbitration.
    - {e Coordinator death}: every handled frame's verdicts are already
      journaled (a kill loses at most the frame being committed); a new
      coordinator started with [resume:true] on the same journal picks
      up where the old one stopped. Every resume bumps the journal's
      {e epoch} (restart generation) and announces it in [Welcome]:
      workers that survived the old coordinator detect the change, drop
      stale lease state and re-deliver their in-flight verdicts (safe
      under first-verdict-wins dedup). Under {!Supervisor} this makes a
      coordinator SIGKILL a zero-intervention event.
    - {e Backpressure}: while the journal writer is degraded (disk
      pressure, ENOSPC retries — {!Journal.stalled}) or [max_inflight]
      chunks are already out on leases, [Request]s are answered [Wait]
      instead of leasing more — the coordinator degrades instead of
      ballooning in-flight state it cannot record.
    - {e Graceful degradation}: the campaign completes with bit-identical
      statistics as long as any non-empty subset of workers survives
      long enough to drain the chunk queue. *)

type config = {
  listen : string;  (** bind address *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  chunk_size : int;  (** samples per lease *)
  lease : float;
      (** seconds of worker silence before its chunks are re-dispatched;
          must comfortably exceed the time a worker needs between frames:
          one experiment on the scalar engine, one {!Worker.window} of
          faults (sixty-four full passes per domain) on delta-batched,
          whatever the chunk size *)
  write_timeout : float;  (** per-frame send deadline towards a worker *)
  tick : float;  (** event-loop wakeup period (lease/stop polling) *)
  drain : float;
      (** after completion, how long to keep answering [Request]s with
          [Done] while workers hang up — closing immediately would race
          a worker's in-flight request and lose the buffered [Done] *)
  idle_timeout : float;
      (** read deadline: seconds of total silence before a connection is
          closed as dead; must exceed [lease]. 0 disables *)
  poison_threshold : int;
      (** distinct workers a chunk may kill before it is quarantined
          instead of re-dispatched. Only a death holding that chunk
          alone counts: a connection that dies holding several chunks
          (a delta-batched worker's batch) marks each of them suspect,
          and a suspect chunk is then leased alone, to a connection
          holding nothing else, which is answered [Wait] if it asks for
          more. 0 disables quarantine *)
  blacklist_threshold : int;
      (** misbehavior strikes before a worker name's [Hello] is refused.
          0 disables blacklisting *)
  verify_frac : float;
      (** fraction of completed chunks re-issued to a second worker for
          cross-validation, in [0, 1]. 0 disables *)
  max_inflight : int;
      (** bound on chunks simultaneously out on leases; [Request]s past
          it are answered [Wait]. 0 disables the bound *)
  quorum : int;
      (** maximum ballots recruited per disputed chunk (≥ 1). Tolerates
          f lying parties per dispute when the electorate (2 disputants
          + ballots) holds a strict honest majority — f < K/2 for
          K = quorum against a lone liar *)
  suspect_threshold : int;
      (** suspicion score at which a worker name is quarantined
          (excluded from voting, chunks always verified). 0 disables
          reputation-based quarantine *)
  arb_patience : float;
      (** seconds an arbitration may sit with no progress (no ballot in
          flight or streaming) before its disputes are declared
          unresolved; must be positive and comfortably exceed [lease] in
          production (tests shrink it to force the no-quorum path) *)
}

val default_config : config
(** [{ listen = "127.0.0.1"; port = 0; chunk_size = 256; lease = 10.;
      write_timeout = 5.; tick = 0.05; drain = 5.; idle_timeout = 30.;
      poison_threshold = 3; blacklist_threshold = 3; verify_frac = 0.;
      max_inflight = 1024; quorum = 3; suspect_threshold = 5;
      arb_patience = 30. }] *)

type event =
  | Joined of { worker : string }
  | Left of { worker : string; reason : string }
  | Assigned of { worker : string; chunk : Proto.chunk }
  | Redispatched of { worker : string; chunk_id : int; reason : string }
      (** a lease expired (straggler) or its holder disconnected *)
  | Progress of { done_ : int; total : int }  (** after each results frame *)
  | Duplicate of { worker : string; index : int }
  | Mismatch of { worker : string; index : int }
      (** two workers disagreed on one experiment; arbitration follows
          (or, during drain, the dispute goes straight to unresolved) *)
  | Quarantined of { chunk_id : int; deaths : int }
      (** the chunk killed [deaths] distinct workers and is now skipped *)
  | Blacklisted of { worker : string; strikes : int }
      (** the name's [Hello] was refused after repeated misbehavior *)
  | Verified of { chunk_id : int; worker : string }
      (** a cross-validation pass re-derived identical verdicts *)
  | Rejoined of { worker : string; stale_epoch : int; epoch : int }
      (** the worker's [Hello] announced a previous coordinator's epoch:
          it survived a failover and is re-delivering in-flight verdicts *)
  | Arbitrating of { chunk_id : int; index : int; challenger : string }
      (** a dispute was opened on this sample; ballots will be recruited *)
  | Arbitrated of {
      chunk_id : int;
      index : int;
      outcome : Journal.outcome;  (** the quorum winner *)
      overturned : bool;  (** the first-recorded verdict lost *)
      voters : string list;  (** ballot-casting workers, in recruitment order *)
      losers : string list;  (** every party whose verdict lost the vote *)
    }  (** full arbitration provenance, also summarized in the journal *)
  | Arbitration_failed of { chunk_id : int; index : int; reason : string }
      (** no quorum: the recorded verdict stands, the dispute counts as
          unresolved (exit 19 upstairs) *)
  | Suspected of { worker : string; score : int }
      (** the name crossed [suspect_threshold] and is quarantined *)
  | Completed

val pp_event : Format.formatter -> event -> unit

type result = {
  stats : Campaign.stats;
  completed : bool;  (** false iff [should_stop] ended the run early *)
  recovered : int;  (** verdicts replayed from the journal on resume *)
  dropped_bytes : int;  (** torn journal tail truncated on resume *)
  duplicates : int;  (** re-submitted verdicts asserted equal, dropped *)
  mismatches : int;
      (** disputed samples (every mismatch, resolved or not); each is
          also counted in exactly one of [arb_resolved] /
          [arb_unresolved] *)
  redispatched : int;  (** chunk leases requeued (expiry or disconnect) *)
  workers : int;  (** distinct worker names that completed a handshake *)
  poisoned : int list;
      (** quarantined chunk ids, ascending; non-empty means the campaign
          finished degraded and should be resumed (exit 20 upstairs) *)
  blacklisted : int;  (** worker names refused at [Hello] *)
  verified : int;  (** chunks whose cross-validation pass agreed *)
  rejoined : int;  (** handshakes announcing a stale (pre-failover) epoch *)
  epoch : int;  (** the coordinator generation this run served under *)
  arb_resolved : int;  (** disputed samples settled by a quorum majority *)
  arb_overturned : int;
      (** resolved disputes where the quorum voted down the
          first-recorded verdict (subset of [arb_resolved]) *)
  arb_unresolved : int;
      (** disputes with no reachable quorum: the recorded verdict stood
          unvalidated — non-zero means exit 19 upstairs *)
  suspects : (string * int) list;
      (** quarantined worker names with their final suspicion scores,
          sorted by name *)
}

type t

val create : ?config:config -> unit -> t
(** Bind and listen. Raises [Unix.Unix_error] if the address is taken or
    unbindable — before any campaign state exists. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val serve :
  t ->
  header:Journal.header ->
  ?journal:string ->
  ?resume:bool ->
  ?records_per_segment:int ->
  ?chaos:Chaos.t ->
  ?should_stop:(unit -> bool) ->
  ?on_event:(event -> unit) ->
  ?recount:bool ->
  unit ->
  result
(** Run the campaign described by [header] ([header.samples] is the
    sample count; [header.shards] should be [0], the distributed
    marker, so local resume refuses distributed journals and vice
    versa; [header.audit] must be [0.] — the audit sentinel is a
    single-process feature). Blocks until every sample has a verdict
    (or lies in a quarantined chunk) with no cross-validation
    outstanding, or until [should_stop] (polled every [tick] and after
    every frame handled) returns true; either way every connection and the journal are closed before
    returning. With [journal], the new verdicts of each [Results] frame
    are journaled as one group ({!Journal.append_batch}) once the frame
    is handled, so a SIGKILL of the coordinator itself loses at most
    the frame being handled, whose chunk a resume re-leases (and a
    surviving worker re-delivers). [chaos] arms the coordinator's
    own fault plan, threaded to its {!Proto} sends and the journal
    writer. Raises {!Journal.Error} on journal create/resume problems
    and on (real or injected) disk failures while appending — everything
    already recorded is resumable. [serve] consumes [t]: it closes the
    listening socket on return. [recount] (default [false]) is a debug
    aid: after every frame it checks the incremental chunk-table
    counters against a full recount, raising [Failure] on a drift. *)
