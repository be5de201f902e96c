(** A stateless campaign worker.

    A worker connects to a {!Coordinator}, learns the campaign identity
    from the [Welcome] header, builds (or reuses) a local engine through
    the caller's [resolve] callback, re-derives the exact fault list from
    the header's pinned PRNG state ({!Campaign.draw_samples}), and then
    pulls chunk leases and streams verdicts back until the coordinator
    says [Done].

    Workers hold no campaign state the coordinator depends on: killing
    one — SIGKILL included — costs at most the un-submitted verdicts of
    the chunks it holds (one chunk for a scalar worker, a batch for a
    delta-batched one), which the coordinator re-dispatches when the
    connection dies. Conversely a worker outliving its coordinator
    reconnects with capped exponential backoff
    ({!Pruning_util.Backoff}) and gives up cleanly after
    [max_reconnects] consecutive failures.

    Chunks are classified by the same supervised {!Executor} that runs
    {!Durable}'s local runs — one kernel dispatch ({!Campaign.classify},
    where every kernel runs every fault model), one retry/backoff loop,
    one execution-chaos site: a raising experiment is retried on a
    fresh system with backoff, a persistent failure is reported as
    [Crashed]. Since both kernels produce bit-identical verdicts, a
    fleet may freely mix scalar and delta-batched workers. A worker
    simulates the golden run once per campaign identity: its campaign
    is cached by header across reconnects and chunk re-execution, and
    that campaign's golden trace ({!Campaign.golden_trace}) is the
    baseline of every delta-batched rebuild.

    {b Lease batching.} The lease stays the coordinator's unit of
    dispatch, verification and re-dispatch; the engine call is the
    worker's own. A scalar worker holds one lease at a time. A
    delta-batched worker keeps requesting leases until another chunk
    of the size just assigned would overflow {!window} (or the
    coordinator answers [Wait] or [Done]), classifies the union of
    its chunks one window per engine call, and streams each chunk's
    [Results] frames and [Chunk_done] as its verdicts appear: a batch
    of small chunks costs one horizon sweep instead of one per chunk.
    A chunk larger than the window is classified window by window,
    heartbeating and polling [should_stop] between windows. Batching
    needs nothing from the protocol or the coordinator. *)

type engine = {
  campaign : Campaign.t;
  space : Fault_space.t;
  skip : (flop_id:int -> cycle:int -> bool) option;
      (** the local pruner; must be the same deterministic predicate on
          every worker (quarantine-free), or verdicts will mismatch *)
  kernel : Campaign.kernel;
      (** which kernel this worker drives ({!Campaign.Scalar} or
          {!Campaign.Delta_batched}); any mix across a fleet yields
          identical verdicts *)
}

val window : int
(** The delta-batched worker's lease target and engine window:
    {!Executor.batch_window} at {!Campaign.max_delta_lanes} lanes,
    sixty-four full passes for each domain of this host. *)

type ended =
  | Campaign_done  (** the coordinator reported the campaign complete *)
  | Stopped  (** [should_stop] returned true *)
  | Gave_up of string  (** [max_reconnects] consecutive failures *)

type report = {
  ended : ended;
  chunks : int;  (** chunks fully processed and acknowledged *)
  submitted : int;  (** verdict records sent *)
  crashes : int;  (** experiments reported [Crashed] *)
  retried : int;
      (** experiment attempts that raised (chaos crashes excluded):
          retries performed plus attempts given up as [Crashed], as
          {!Durable.result}'s [retried] counts them *)
  reconnects : int;  (** sessions lost and re-established *)
  redelivered : int;  (** Results frames replayed into a new epoch *)
  epochs : int;  (** distinct coordinator generations handshook with *)
  suspicion : int;
      (** this worker's reputation score as reported by the last
          [Welcome] — non-zero means the coordinator has evidence
          against this name (arbitration losses, corrupt frames, lease
          expiries) *)
}

val run :
  host:string ->
  port:int ->
  resolve:(Journal.header -> engine) ->
  ?name:string ->
  ?heartbeat:float ->
  ?recv_timeout:float ->
  ?retries:int ->
  ?retry_backoff:Pruning_util.Backoff.policy ->
  ?reconnect_backoff:Pruning_util.Backoff.policy ->
  ?max_reconnects:int ->
  ?results_per_frame:int ->
  ?readdress:(unit -> (string * int) option) ->
  ?should_stop:(unit -> bool) ->
  ?chaos:Chaos.t ->
  ?fault:(chunk_id:int -> index:int -> attempt:int -> unit) ->
  unit ->
  report
(** Work for the coordinator at [host]:[port] until the campaign is done.

    [resolve] builds the engine for a campaign identity — typically a
    core/program lookup plus a deterministic MATE-pruner build when
    [header.prune] is set; it runs once per distinct header (cached
    across reconnects) and may raise to refuse an unknown identity
    (the exception escapes [run]). [name] (default ["worker-PID"])
    identifies the worker in coordinator logs and must be unique per
    connection. [heartbeat] (default [1.]) is the maximum silence
    between frames while computing; keep it well under the
    coordinator's lease. [recv_timeout] (default [30.]) is the read
    deadline mirroring the coordinator's write timeout: a coordinator
    silent that long mid-reply counts as a lost session and the worker
    backs off and reconnects instead of hanging. [retries] /
    [retry_backoff] supervise each experiment like {!Durable.run}.
    [reconnect_backoff] / [max_reconnects] (default 8) pace session
    re-establishment — the counter resets after every successful
    handshake. [results_per_frame] (default 64) batches verdict
    streaming. [should_stop] is polled before each batch's first
    [Request] and between windows, for cooperative shutdown (a stop
    mid-batch flushes the verdicts classified so far and closes the
    session; the coordinator re-dispatches the rest of the batch).

    {b Coordinator failover.} The worker remembers the coordinator
    epoch it last handshook with and announces it in every [Hello].
    When a reconnect lands on a {e different} epoch (a supervised
    coordinator died and was resumed), the worker drops its stale lease
    assumptions and re-delivers its 32 most
    recent Results frames — verdicts the dead coordinator journaled
    deduplicate, verdicts it lost are recovered without re-running the
    experiments. [readdress] (called before every connection attempt,
    exceptions treated as "no change") lets a worker follow a
    coordinator that came back on a different port, e.g. by re-reading
    the port file a supervised [serve] rewrites on every restart.

    [chaos] arms this worker's deterministic fault plan: network chaos
    on every frame sent and received, execution chaos around every
    experiment attempt (a {!Chaos.Injected} crash is retried without
    consuming the retry budget, so chaos never manufactures [Crashed]
    verdicts), and duplicate-verdict replay at results flushes. [fault]
    is a test-only hook called before every experiment attempt with the
    attempted (first) sample index, the chunk holding that index and the
    attempt number: on a delta-batched worker one attempt covers a whole
    window, which may span many chunks, and the hook names the chunk of
    the window's first injected index. An exception it raises is
    handled exactly like a crashed experiment
    (see {!Executor.run}). *)
