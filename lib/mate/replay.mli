(** Trace replay: evaluating a MATE set against a recorded fault-free
    execution (Figure 1b / Section 5.3 of the paper).

    MATE literals mention only wires outside the hypothetical fault's
    cone, so their fault-free (golden) trace values are exactly the values
    a MATE-enriched HAFI platform would see; a term that holds in cycle
    [t] removes its flip-flops' (flop, t) faults from the fault space. *)

type triggers
(** Per-mate trigger bitsets over trace cycles (the expensive replay pass,
    computed once and reused by coverage, selection and cost analyses). *)

val triggers : Mateset.t -> Pruning_sim.Trace.t -> triggers

val n_cycles : triggers -> int

val triggered : triggers -> mate:int -> cycle:int -> bool

val trigger_count : triggers -> int -> int
(** Cycles in which mate [i] held. *)

val effective_indices : triggers -> int list
(** Mates that triggered at least once ("#Effective MATEs"). *)

val masked : Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> ?subset:int list -> unit -> bool array array
(** [masked set trig ~space ()] is indexed [cycle].(space flop index): the
    (flop, cycle) faults proven benign. [subset] restricts to chosen mate
    indices. If the space spans more cycles than the recorded trace, the
    replay is clamped to [min space.cycles trace_cycles] — like
    {!raw_masked_per_mate} — and the rows beyond the trace are all-false
    (nothing can be proven benign without trace data). *)

val masked_count : bool array array -> int

val reduction_percent : Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> ?subset:int list -> unit -> float
(** Percentage of the fault space proven benign ("Masked Faults"). *)

type pruner
(** An online skip predicate over (flop, cycle) faults, backed by a MATE
    set and its trigger bitsets, with support for disabling mates
    mid-campaign. This is what a durable campaign's audit sentinel needs:
    when a MATE is caught misclassifying a fault it claimed benign, it is
    {!quarantine}d and the campaign degrades from "prune" to "inject" for
    its flops instead of producing wrong statistics. *)

val pruner :
  Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> ?subset:int list -> unit -> pruner
(** [subset] restricts the initially enabled mates (like {!masked}). *)

val pruned : pruner -> flop_id:int -> cycle:int -> bool
(** Some enabled mate proves the fault benign. Cycles beyond the recorded
    trace are never pruned. A [flop_id] outside the fault space is an
    explicit error path — logged once, counted in {!unknown_count}, and
    reported not-pruned so the fault is injected rather than silently
    mis-skipped. *)

val masking : pruner -> flop_id:int -> cycle:int -> int list
(** The enabled mates that prune this fault (the candidates to quarantine
    when an audit injection contradicts them); [[]] iff not {!pruned}. *)

val quarantine : pruner -> int -> unit
(** Disable one mate for the rest of the campaign (idempotent).
    Thread-safe; concurrent {!pruned} callers see the update on their
    next lookup. *)

val quarantined : pruner -> int list
(** Mates quarantined so far, in quarantine order. *)

val unknown_count : pruner -> int
(** Prune lookups for flops outside the fault space (each one a caller
    bug or a stale fault list — see {!pruned}). *)

val pruner_masked_count : pruner -> int
(** Faults currently proven benign by the enabled mates (the {!masked}
    count after quarantines). *)

val describe_mate : pruner -> int -> string
(** {!Mateset.describe} against the pruner's netlist. *)

val raw_masked_per_mate : Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> int array
(** Per-mate masked-fault count ignoring overlap with other mates (the
    ranking key used before greedy selection). Clamps to
    [min space.cycles trace_cycles], like {!masked}. *)
