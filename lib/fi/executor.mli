(** The supervised executor: the one place a fault list is classified
    under supervision.

    {!Durable} runs and {!Worker} batches of chunks both hand it ranges
    of sample indices; it owns everything between "this fault must be classified"
    and "here is its outcome":

    - {b Kernel.} Every attempt classifies through {!Campaign.classify},
      which maps the kernel to its injector. The scalar kernel
      classifies one fault per attempt, delta-batched a window of faults
      per attempt. Both kernels yield bit-identical verdicts, so callers
      never branch on it.
    - {b Retries.} An attempt that raises (simulator bug, test hook)
      rebuilds the kernel's state (a fresh scalar worker, or a discarded
      batched-delta worker), sleeps per the caller's
      {!Pruning_util.Backoff} and tries again, up to [retries] times; a
      fault (or a batched window) that still fails is emitted as
      [Crashed]. No experiment is cut short: each runs to the campaign
      horizon at most.
    - {b Chaos.} With [~chaos], every attempt first draws the {!Chaos.Exec}
      site: a [Crash] raises {!Chaos.Injected}, retried {e without}
      consuming the retry budget, and a [Stall] sleeps — chaos never
      turns a healthy experiment into a [Crashed] outcome.

    What to do with an index is the caller's decision ({!plan}), and what
    to do with an outcome is the caller's too ([emit]): the executor
    knows nothing of journals, audits or frames. *)

type plan =
  | Done  (** already classified (e.g. recovered from a journal): nothing is emitted *)
  | Skip  (** pruned: emitted as [Skipped] without an experiment *)
  | Inject  (** classified by the kernel *)

type t

val create :
  Campaign.t ->
  space:Fault_space.t ->
  samples:(int * int) array ->
  kernel:Campaign.kernel ->
  ?lanes:int ->
  window:int ->
  ?retries:int ->
  backoff:Pruning_util.Backoff.t ->
  ?chaos:Chaos.t ->
  ?should_stop:(unit -> bool) ->
  unit ->
  t
(** An executor classifying [samples] (the campaign's
    {!Campaign.draw_samples} list) under [space]'s fault model.

    [lanes] caps the in-flight faults of a batched pass (default: the
    engine's maximum). [window] is how many indices the batched kernel
    classifies per attempt (usually {!batch_window}): its unit of retry, of
    [Crashed] accounting and of emission, with [should_stop] polled
    between windows (the scalar kernel uses a window of one).
    [retries] (default 2) bounds the retries per window; [backoff]
    paces them and is reset before every window.
    [should_stop] (default: never) is the cooperative-shutdown poll.

    The scalar kernel runs on the executor's own
    {!Campaign.fresh_worker}, built on first use, so scalar executors may
    run on distinct domains. The delta-batched kernel shares the
    campaign's one cached worker: at most one executor per campaign may
    drive it at a time. *)

val batch_window : lanes:int -> int
(** The batched kernel's window: sixty-four full passes of [lanes]
    faults for each of the [Domain.recommended_domain_count ()] domains
    {!Campaign.inject_delta_batch} splits a call across, deep enough
    that the lanes stay saturated (a pass costs a sweep to the horizon
    however few faults it holds). {!Durable} and {!Worker} both window
    by it. *)

val run :
  t ->
  ranges:(int * int) list ->
  plan:(int -> flop_id:int -> cycle:int -> plan) ->
  emit:(int -> Journal.outcome -> unit) ->
  ?fault:(index:int -> attempt:int -> unit) ->
  unit ->
  bool
(** Classify the sample indices of [ranges] (inclusive [(lo, hi)]
    pairs, empty ones ignored) window by window. A window takes the
    next indices in range order and may span several ranges, so a
    caller holding many small ranges pays one attempt for all of them.
    [plan] is called exactly once per index, with its sampled fault, in
    that order and before that index's window is attempted (so a caller
    may consume a PRNG draw per index). [emit] receives every non-[Done]
    index of a window, in the same order, once the whole window is
    classified: [Skipped], the kernel's verdict, or [Crashed]. [fault]
    is a test-only hook called before every attempt with the window's
    first injected index and the attempt number; an exception it raises
    is handled like a crashed experiment. Returns [false] iff
    [should_stop] ended the ranges early (a started window is always
    finished and emitted). *)

val failures : t -> int
(** Attempts that raised (chaos crashes excluded) over this executor's
    lifetime: retries performed plus attempts given up as [Crashed]. *)
