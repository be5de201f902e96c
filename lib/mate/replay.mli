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

type pruner
(** The one representation a MATE set replays into: for every flop of a
    fault space, a packed bitset of the cycles in which some enabled mate
    masking that flop triggered. It is the skip predicate a campaign
    consults per fault, and it supports disabling mates mid-campaign.
    This is what a durable campaign's audit sentinel needs: when a MATE
    is caught misclassifying a fault it claimed benign, it is
    {!quarantine}d and the campaign degrades from "prune" to "inject"
    for its flops instead of producing wrong statistics. *)

val pruner :
  Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> ?subset:int list -> unit -> pruner
(** [pruner set trig ~space ()] replays [set]'s trigger bitsets onto
    [space]'s flops. [subset] restricts the initially enabled mates to
    the chosen indices. *)

val pruned : pruner -> flop_id:int -> cycle:int -> bool
(** Some enabled mate proves the fault benign. Cycles beyond the recorded
    trace are never pruned. A [flop_id] outside the fault space is an
    explicit error path — logged once, counted in {!unknown_count}, and
    reported not-pruned so the fault is injected rather than silently
    mis-skipped. Allocates nothing. *)

val masking : pruner -> flop_id:int -> cycle:int -> int list
(** The enabled mates that prune this fault, in ascending index order
    (the candidates to quarantine when an audit injection contradicts
    them); [[]] iff not {!pruned}. *)

val quarantine : pruner -> int -> unit
(** Disable one mate for the rest of the campaign (idempotent),
    rebuilding the bitsets of the flops it masks. Thread-safe;
    concurrent {!pruned} callers see the update on their next lookup. *)

val quarantined : pruner -> int list
(** Mates quarantined so far, in quarantine order. *)

val unknown_count : pruner -> int
(** Prune lookups for flops outside the fault space (each one a caller
    bug or a stale fault list — see {!pruned}). *)

val pruner_masked_count : pruner -> int
(** Faults of the space currently proven benign by the enabled mates.
    Only the cycles of [min space.cycles trace_cycles] count: nothing is
    provable without trace data. *)

val reduction_percent :
  Mateset.t -> triggers -> space:Pruning_fi.Fault_space.t -> ?subset:int list -> unit -> float
(** {!pruner_masked_count} of a fresh pruner as a percentage of the
    fault space ("Masked Faults"). *)

val describe_mate : pruner -> int -> string
(** {!Mateset.describe} against the pruner's netlist. *)

val masked_alone : pruner -> int -> int
(** Faults of the space mate [i] masks on its own, enabled or not,
    ignoring overlap with other mates (the ranking key before greedy
    selection). *)

val credits : pruner -> int list -> int list
(** [credits p order] credits each mate of [order], in turn, with the
    faults it masks that no mate before it in [order] masks, enabled or
    not (the greedy credit of trace-driven selection). The credits of
    every mate sum to the faults the whole set masks. *)
