(** End-to-end fault-injection campaign: the experiment a HAFI platform
    runs for every non-pruned fault. Each experiment rewinds a simulated
    system to the injection cycle, flips the fault's member flip-flops
    (re-arming them over a hold window for intermittent faults), and runs
    to the campaign horizon while watching the primary outputs. An SEU is
    the one-member, one-cycle case of that experiment: each per-fault
    loop ({!inject_fault}, {!inject_fault_delta}) has one body, and
    {!inject} / {!inject_delta} are that body on one flop.

    Verdicts:
    - [Benign]: outputs matched the golden run at every cycle and the
      final architectural state (flip-flops + memory) is identical;
    - [Latent]: outputs matched throughout, but internal state differs at
      the horizon (the fault may still surface later);
    - [Sdc n]: silent data corruption — outputs first diverged from the
      golden run at cycle [n].

    The engine is checkpointed: the golden run records a whole-system
    snapshot plus the golden RAM every [checkpoint_interval] cycles, and
    every cycle's settled wires into the golden trace (which holds the
    golden outputs and flop states). An injection restores the nearest
    checkpoint at or before the injection cycle instead of re-simulating
    from reset, and the faulty run compares its architectural state
    against the golden checkpoints as it crosses them — a run that has
    re-converged returns [Benign] early, and runs whose exact state
    difference was classified before replay the memoized verdict. Both
    short cuts are sound (the simulator is deterministic, so equal state
    at an equal cycle implies an identical future), keeping verdicts
    bit-identical to a from-scratch simulation.

    The delta path ({!inject_delta}, {!run_sample_delta}) instead
    simulates each faulty run as a sparse difference against a recorded
    golden trace ({!Pruning_sim.Deltasim}): only gates in the fault
    cone's active frontier are re-evaluated, the experiment retires the
    instant the difference dies out, and attaching at the injection
    cycle replaces the checkpoint-replay prefix entirely. Verdicts are
    again bit-identical to {!inject}.

    The batched delta path ({!inject_delta_batch},
    {!run_sample_delta_batched}) is the production engine: up to
    {!Pruning_sim.Deltabatch.n_lanes} in-flight faults, each an
    independent sparse XOR-delta against the {e same} recorded golden
    trace, sweep one shared levelized schedule per cycle — a gate is
    re-evaluated once for the union of its dirty lanes instead of once
    per fault, and there is no golden lane to pay for (the trace is the
    golden reference). Lanes retire per the scalar delta engine's
    observation order (earliest-cycle Benign the instant a lane's dirty
    set empties, memo participation at checkpoint boundaries, SDC on
    output divergence) and freed lanes are refilled from the remaining
    fault queue mid-pass. A lane carries any fault model: all member
    flops of the fault are flipped in the lane at its injection cycle,
    and a held fault re-arms its members at the top of every window
    cycle. Verdicts — including SDC cycles — are bit-identical to
    {!inject} on every model.

    A campaign simulates its golden run once, in {!create}: that run's
    trace ({!golden_trace}) is the one golden record every engine judges
    against, so delta and batched-delta workers — including rebuilds
    after crash recovery, durable runs and distributed chunk
    re-execution — share one recording.

    The scalar engine is the reference oracle and delta-batched the
    production engine: they are the two {!kernel}s. Single-fault delta
    is not a kernel — no runner, executor or CLI selects it — but the
    differential tests' independent third engine. The scalar and delta
    loops are separate implementations of the same protocol — they share
    only the verdict memo, which touches no simulator state — so their
    agreement is a real check. {!classify} is the one place a kernel is
    mapped to its injector. *)

type verdict =
  | Benign
  | Latent
  | Sdc of int

type kernel =
  | Scalar  (** one fault at a time, full netlist eval per cycle: the reference *)
  | Delta_batched  (** 63 faults per pass, one shared golden delta baseline: production *)
(** The two interchangeable classification engines; selection changes
    throughput only, never verdicts. *)

val kernel_name : kernel -> string

type t

val create :
  ?checkpoint_interval:int ->
  ?make_delta:(trace:Pruning_sim.Trace.t -> Pruning_cpu.System.delta) ->
  ?make_delta_batch:(trace:Pruning_sim.Trace.t -> Pruning_cpu.System.delta_batch) ->
  make:(unit -> Pruning_cpu.System.t) ->
  total_cycles:int ->
  unit ->
  t
(** Runs the golden experiment once on one system from [make],
    recording its trace ({!golden_trace}), the periodic checkpoints and
    the golden RAM. [make] must produce a fresh, deterministic
    system each call (it is also invoked by {!fresh_worker}, which may
    run on another domain).
    [make_delta] builds the same system over the activity-gated delta
    kernel (from the campaign's golden trace, on the first delta call)
    and enables {!inject_delta} / {!run_sample_delta};
    [make_delta_batch] does the same over the batched delta kernel and
    enables {!inject_delta_batch} / {!run_sample_delta_batched}.
    [checkpoint_interval] defaults to [max 1 (total_cycles / 64)]; a value
    larger than [total_cycles] effectively disables checkpointing (single
    snapshot at reset, no early verdicts). *)

val checkpoint_interval : t -> int
(** The checkpoint spacing actually in use. *)

val total_cycles : t -> int
(** The campaign horizon. *)

val inject : t -> flop_id:int -> cycle:int -> verdict
(** One fault-injection experiment. [cycle] must be < [total_cycles]. Not
    safe to call concurrently from several domains (it reuses the
    campaign's primary worker). *)

type worker
(** One domain's private injection state: a system plus its own
    checkpoint snapshots. A worker must only ever be driven from one
    domain at a time. *)

val primary_worker : t -> worker
(** The calling domain's built-in worker (the one {!inject} uses). *)

val fresh_worker : t -> worker
(** Build a new worker by replaying the golden prefix on a fresh system
    from [make] — a supervised executor's own worker, and the
    supervisor's recovery action after a worker is lost to a crash.
    Safe to call from any domain. *)

val inject_fault : t -> worker -> space:Fault_space.t -> key:int -> cycle:int -> verdict
(** Model-aware scalar injection, the scalar engine's one experiment:
    classify the fault instance [(key, cycle)] under [space]'s fault
    model. The key expands ({!Fault_space.expand}) into simultaneous
    member flips — a single flop for [Seu] — and held flops are re-armed
    against the recorded golden trace for the hold window
    ({!Fault_space.hold}, 1 for every single-cycle model). An empty
    expansion (a SET pulse nothing latches) is [Benign] without
    simulating. Verdict-memo participation and early [Benign]
    retirement wait for the last forced cycle, so multi-cycle models
    never poison the state-determinism premise the shared memo rests
    on; with a one-cycle hold that wait is empty. The experiment runs to
    the campaign horizon at most; an exception leaves the worker usable
    (every injection starts from a checkpoint restore). *)

val inject_fault_delta : t -> space:Fault_space.t -> key:int -> cycle:int -> verdict
(** Model-aware delta injection, the delta engine's one experiment: the
    delta image of {!inject_fault} (expansion = initial dirty set;
    re-arm = re-flip any member whose flip flag cleared), implemented
    independently of it and verdict-bit-identical to it on every model.
    The differential reference for the two kernels, not a kernel itself.
    Requires [~make_delta] at {!create}. *)

val classify :
  ?lanes:int ->
  t ->
  worker:(unit -> worker) ->
  kernel:kernel ->
  space:Fault_space.t ->
  (int * int) array ->
  verdict array
(** Classify [(key, cycle)] faults of [space] on [kernel], returning
    the verdicts in input order: {!inject_fault} on [worker ()] (called
    once) for [Scalar], {!inject_delta_batch} with [~space] and [lanes]
    for [Delta_batched]. Every kernel runs every fault model. The only
    kernel-to-injector mapping: {!run_sample}, {!run_sample_delta_batched}
    and the supervised {!Executor} go through it. When an exception
    escapes [Delta_batched], {!inject_delta_batch} has discarded every
    domain's batched worker (the next call rebuilds them from the
    golden trace) and the exception is re-raised. *)

type stats = {
  injections : int;  (** experiments actually executed *)
  benign : int;
  latent : int;
  sdc : int;
  skipped : int;  (** faults skipped by the [skip] predicate, not run *)
  crashed : int;
      (** experiments that failed persistently under a supervised
          ({!Durable}) run — never aborts the campaign; always [0] on the
          unsupervised paths *)
}
(** Invariant: [injections = benign + latent + sdc]; [skipped] and
    [crashed] are counted separately
    ([injections + skipped + crashed] = total faults sampled). *)

val draw_samples :
  t -> space:Fault_space.t -> rng:Pruning_util.Prng.t -> n:int -> (int * int) array
(** Draw the campaign's fault list: [n] [(key, cycle)] pairs sampled
    uniformly from [space]'s model keys (cycles clipped to the campaign
    horizon; for [Seu] the key {e is} the netlist flop id and the draw
    is byte-identical to the historical flop draw). This is {e the}
    canonical draw — every [run_sample*], the durable runner and the
    distributed worker all use it, so every engine given
    generators in the same state classifies the identical faults. *)

val run_sample :
  t ->
  space:Fault_space.t ->
  rng:Pruning_util.Prng.t ->
  n:int ->
  ?skip:(flop_id:int -> cycle:int -> bool) ->
  unit ->
  stats
(** Randomly sample [n] faults from [space] and run them on the scalar
    engine's primary worker. [skip] marks faults already pruned (skipped
    without an experiment — exactly what a MATE-enriched platform would
    do). The sampled fault list is drawn up front from [rng], so the
    stats are a function of the seed alone. *)

val golden_trace : t -> Pruning_sim.Trace.t
(** The campaign's golden record, taken by {!create}'s golden run: one
    row per cycle [0 .. total_cycles - 1], equal to
    [System.record (make ()) ~cycles:total_cycles]. The scalar engine
    reads its golden outputs and flop states from it, and every
    delta-family worker built from the campaign — including rebuilds
    after a crash, durable runs and distributed chunk re-execution —
    uses it as its baseline. It is immutable; MATE replay reads it
    too. *)

val inject_delta : t -> flop_id:int -> cycle:int -> verdict
(** {!inject_fault_delta}'s experiment on the one-member, one-cycle
    fault [flop_id], on the activity-gated delta kernel
    ({!Pruning_sim.Deltasim}): attach at the injection cycle (no replay
    prefix), flip, and propagate only the fault cone's active frontier,
    retiring the instant the difference against the golden trace dies
    out. Verdict-bit-identical to {!inject} — including SDC cycles — by
    determinism; participates in the shared verdict memo at checkpoint
    boundaries with keys read straight off the flip flags and device
    diffs (byte-identical to the scalar engine's). Requires [~make_delta]
    at {!create}; the
    kernel is built lazily on first call. Not
    safe to call concurrently from several domains (one shared delta
    worker). *)

val run_sample_delta :
  t ->
  space:Fault_space.t ->
  rng:Pruning_util.Prng.t ->
  n:int ->
  ?skip:(flop_id:int -> cycle:int -> bool) ->
  unit ->
  stats
(** {!run_sample}, on the single-fault delta engine: draws the identical
    fault list for the same [rng] seed and classifies it with
    {!inject_fault_delta}, so the stats are bit-identical to the
    kernels'. The differential reference, outside {!classify}. *)

val max_delta_lanes : int
(** Fault-carrying lanes per batched-delta pass:
    [Pruning_sim.Deltabatch.n_lanes]. Every lane carries a fault — the
    golden reference is the recorded trace, not a lane. *)

val inject_delta_batch :
  t ->
  ?space:Fault_space.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?on_benign_retire:(index:int -> cycle:int -> unit) ->
  faults:(int * int) array ->
  unit ->
  verdict array
(** Classify every fault on the batched delta workers and return the
    verdicts in input order. Without [space] the faults are
    [(flop_id, cycle)] SEUs; with it they are [(key, cycle)] instances
    of [space]'s fault model, verdict-bit-identical to
    {!inject_fault}: each key is expanded once ({!Fault_space.expand})
    and all its members flip in one lane; a held fault
    ({!Fault_space.hold} > 1) re-arms its members at the top of every
    window cycle and takes no memo verdict and no [Benign] retirement
    before its last forced cycle; an empty expansion is [Benign]
    without taking a lane. [lanes] (default
    {!max_delta_lanes}, must be in [\[1, max_delta_lanes\]]) caps how
    many faults are in flight at once per domain.

    The call runs on [d = max 1 (min jobs (n / lanes))] domains, where
    [n] counts the lane-taking faults and [jobs] defaults to
    [Domain.recommended_domain_count ()] (must be positive), so no
    domain gets less than one full pass: the calling domain and
    [d - 1] helper domains spawned for the call and joined before it
    returns. Fault [i] of the cycle-sorted fault list goes to domain
    [i mod d]. Each domain drives a batched worker of its own; the
    calling domain builds the missing ones before the split, and all
    are kept in the campaign. All share the campaign's verdict memo,
    so the verdicts do not depend on [jobs]. Which faults a memo hit
    retires before they re-converge may.

    [on_benign_retire] is called (with the fault's index into [faults]
    and the retirement cycle) for every mid-pass Benign retirement —
    i.e. each time a lane's dirty set dies out before the horizon; the
    differential tests use it to confirm early retirements against
    scalar replay. It runs on the calling domain, after every domain's
    passes have finished and every helper has been joined, so it may
    drive the campaign's other engines. When a pass raises on any
    domain, every domain's worker
    is discarded (the next call rebuilds them from the golden trace)
    and the first exception is re-raised once all domains have been
    joined. Requires [~make_delta_batch] at {!create}. Not safe to call
    concurrently on one campaign, but composes with the other engines:
    all share the campaign's verdict memo. *)

val run_sample_delta_batched :
  t ->
  space:Fault_space.t ->
  rng:Pruning_util.Prng.t ->
  n:int ->
  ?skip:(flop_id:int -> cycle:int -> bool) ->
  ?lanes:int ->
  unit ->
  stats
(** {!run_sample}, on the batched delta kernel: draws the identical
    fault list for the same [rng] seed and classifies it with
    {!inject_delta_batch} [~space], so the stats are bit-identical to
    the other engines' on every fault model. [lanes] outside
    [\[1, max_delta_lanes\]] raises [Invalid_argument] before any fault
    is drawn. *)

val pack_memo_key : cp:int -> (int * bool) list -> (int * int) list -> string
(** The verdict memo's key for the architectural difference at
    checkpoint [cp]: the differing flops (index, faulty value) and RAM
    cells (address, faulty value), each ascending. Every engine builds
    its keys through it, so equal differences give equal keys; the
    packing is injective. Exposed for tests. *)

val pp_verdict : Format.formatter -> verdict -> unit
