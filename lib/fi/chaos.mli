(** Seeded, deterministic infrastructure fault injection ("self-chaos").

    The campaign service's own medicine: the same systematic,
    reproducible fault-space exploration the paper demands for hardware
    faults, applied to the service's I/O seams. A {!t} is a {e fault
    plan}: a pure function of its seed and {!profile}, consulted at
    well-defined {!site}s — protocol send/receive ({!Proto}), journal
    file operations ({!Journal}), experiment execution
    ({!Worker}/{!Durable}) — and answering with the {!action} to inject
    there, [Pass] for "behave normally".

    {b Determinism.} Every site draws from its own PRNG stream derived
    from the one seed, so the action sequence a given site observes is a
    pure function of [(seed, profile, site, draw index)] — independent
    of how draws at other sites interleave. Replaying a seed replays the
    plan byte-for-byte ({!plan} / {!plan_to_string}, property-tested).
    Draws are not synchronized across threads: share one [t] per
    single-threaded component (one worker, one coordinator), not across
    domains.

    {b Budget.} A plan injects at most [profile.budget] faults, then
    goes permanently quiet ([Pass] forever). A finite budget is what
    makes the chaos invariant checkable: any chaos campaign eventually
    runs fault-free, so it must either complete with statistics
    bit-identical to the chaos-free reference or fail with a documented,
    resumable exit code.

    {b Application semantics.} A consultation point draws one action and
    applies it if meaningful there, ignoring actions that only make
    sense elsewhere (e.g. [Duplicate] drawn at an execution-attempt
    point). Injected failures are raised either as the exact exception a
    real fault would produce (a [Unix_error] connection reset, a
    {!Journal.Error} disk failure) or as {!Injected} for faults with no
    errno — supervisors retry {!Injected} without consuming their retry
    budget, so a finite chaos plan can never convert a healthy
    experiment into a [Crashed] verdict. *)

exception Injected of string
(** An injected infrastructure fault with no natural exception to
    borrow (e.g. a crash-at-cycle inside an experiment). Supervisors
    retry these for free (no retry-budget consumption): chaos must
    perturb the campaign's path, never its verdicts. *)

type action =
  | Pass  (** behave normally *)
  | Delay of float  (** sleep this many seconds before the operation *)
  | Corrupt_bit of int  (** flip payload bit [k mod bits] (CRC must catch it) *)
  | Truncate of float  (** send only this fraction of the frame, then reset *)
  | Reset  (** fail the operation with a connection reset *)
  | Slow_loris of float  (** dribble the frame out with this much total stalling *)
  | Short_write of float  (** write only this fraction of the record, then fail *)
  | Io_error of Unix.error  (** injected errno ([ENOSPC], [EIO]) on a file op *)
  | Fsync_fail  (** fsync reports a real (non-ignorable) failure *)
  | Torn_rename  (** the segment-seal rename is lost before it happens *)
  | Crash  (** raise {!Injected} inside the experiment *)
  | Stall of float  (** stall the experiment this long (past leases and deadlines) *)
  | Duplicate  (** send the results frame twice (duplicate verdict replay) *)
  | Kill  (** SIGKILL the drawing process itself ({!kill_self}) *)
  | Disk_full  (** transient disk pressure: the journal pauses and retries *)
  | Lie of int
      (** Byzantine verdict corruption: deterministically rewrite the
          verdict about to be reported, keyed by [k], {e before} framing
          — the frame's CRC is computed over the lie, so nothing on the
          wire can catch it. Only cross-validation and quorum
          arbitration can. *)

type site =
  | Send  (** {!Proto} frame transmission *)
  | Recv  (** {!Proto} frame reception *)
  | Journal_write  (** {!Journal.append} record write *)
  | Journal_fsync  (** {!Journal} fsync points *)
  | Journal_rename  (** {!Journal} segment-seal rename *)
  | Exec  (** one experiment attempt (and one results flush) *)
  | Dispatch  (** coordinator, just before sending an [Assign] *)
  | Drain  (** coordinator, each iteration of the shutdown drain loop *)
  | Seal  (** coordinator journal, mid segment seal (between close and rename) *)
  | Disk  (** journal append, before the record write (disk-pressure point) *)
  | Verdict  (** worker, per verdict about to be reported (liar point) *)

type profile = {
  net_delay : float;  (** P(Delay) at [Send]/[Recv] *)
  net_corrupt : float;  (** P(Corrupt_bit) at [Send] *)
  net_truncate : float;  (** P(Truncate) at [Send] *)
  net_reset : float;  (** P(Reset) at [Send]/[Recv] *)
  net_slow : float;  (** P(Slow_loris) at [Send] *)
  max_delay : float;  (** upper bound on injected delays, seconds *)
  journal_short : float;  (** P(Short_write) at [Journal_write] *)
  journal_enospc : float;  (** P(Io_error ENOSPC) at [Journal_write] *)
  journal_eio : float;  (** P(Io_error EIO) at [Journal_write] *)
  journal_fsync : float;  (** P(Fsync_fail) at [Journal_fsync] *)
  journal_torn : float;  (** P(Torn_rename) at [Journal_rename] *)
  exec_crash : float;  (** P(Crash) per experiment attempt *)
  exec_stall : float;  (** P(Stall) per experiment attempt *)
  exec_dup : float;  (** P(Duplicate) per results flush *)
  exec_lie : float;  (** P(Lie) at [Verdict], per verdict reported *)
  proc_kill : float;  (** P(Kill) at [Dispatch]/[Drain]/[Seal] *)
  proc_stall : float;  (** P(Stall) at [Dispatch]/[Drain]/[Seal] *)
  disk_full : float;  (** P(Disk_full) at [Disk] *)
  disk_stall : float;  (** P(Stall) at [Disk] (drives writer backpressure) *)
  stall : float;  (** Stall duration, seconds *)
  budget : int;  (** total faults injected before the plan goes quiet *)
}
(** Per-class fault rates. Rates at one site should sum to at most 1;
    the remainder is the probability of [Pass]. *)

val default_profile : profile
(** Moderate rates at every I/O site, [budget = 64], [stall = 0.3] s.
    Whole-process kill and disk-pressure rates are {e zero}: a plain
    [--chaos N] run keeps the documented exit-code contract. *)

val process_profile : profile
(** {!default_profile} plus whole-process SIGKILLs ([Dispatch]/[Drain]/
    [Seal]) and transient disk pressure ([Disk]), minus the sticky
    injected disk faults (short writes, ENOSPC/EIO, fsync, torn rename):
    a restarted coordinator re-arms the same seeded plan, so a
    deterministic sticky fault would re-fire every incarnation and
    exhaust the restart budget instead of soaking failover. Only
    meaningful under {!Supervisor} — an unsupervised process dies
    un-resumed. *)

val quiet_profile : profile
(** All rates (and the budget) zero — a no-op plan; start from this to
    enable one fault class at a time. *)

val liar_profile : profile
(** A Byzantine worker: healthy on the wire and on time, but roughly a
    quarter of its verdicts are lies ([exec_lie = 0.25], [budget = 64],
    everything else zero). Deterministic per seed, so a lying fleet
    member is exactly reproducible. Only meaningful in a fleet with
    enough honest peers to outvote it ([--quorum]). *)

type t

val create : ?profile:profile -> seed:int -> unit -> t
(** A fresh fault plan. Same [seed] and [profile], same plan. *)

val draw : t -> site -> action
(** The next action of the plan at this site ([Pass] once the budget is
    exhausted). Consumes one draw of the site's stream either way. *)

val injected : t -> int
(** Faults injected (non-[Pass] draws) so far. *)

val exhausted : t -> bool
(** The budget is spent: every future {!draw} returns [Pass]. *)

val kill_self : unit -> unit
(** Apply a [Kill]: SIGKILL the calling process. No flush, no unwind —
    the most brutal crash a consultation point can inject. *)

(** {1 Materialized plans} (determinism tests, logging) *)

val plan : ?profile:profile -> seed:int -> site -> n:int -> action array
(** The first [n] actions a fresh plan would answer at [site]. *)

val action_to_string : action -> string
(** Exact rendering (floats via [%h]): two plans render identically iff
    they are identical. *)

val plan_to_string : action array -> string
