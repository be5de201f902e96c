(** Heuristic MATE search (Section 4 of the paper).

    For every possibly-faulty wire the search:

    + extracts the fault cone and the gate-masking terms (GM) of every
      cone gate, with the gate's in-cone pins as the distrusted set and
      literals over its border pins only;
    + aborts early ({!Unmaskable}) when the faulty wire directly feeds a
      flip-flop or primary output, or when the fault can reach a sink
      through gates that have no masking capability at all (the paper's
      "path where no gate can mask the fault");
    + otherwise combines up to [max_terms] GM terms into candidate MATEs
      and validates each candidate by {e ternary cone simulation}: the
      faulty wire is F ("possibly differs from the golden run"), candidate
      literals fix their border wires, all other wires are U ("equal in
      both runs, value unknown"), and cone gates evaluate over
      \{0, 1, U, F\}. The candidate is a MATE iff no cone sink (flip-flop
      D pin or primary output) evaluates to F.

    Candidate generation is fault-frontier directed: a partial candidate
    that fails validation is extended only with terms anchored at gates
    whose output is currently F, up to [max_candidates] validations per
    wire. Validation by value propagation is strictly stronger than the
    paper's path-cut check (a border literal can force a cone wire to a
    known constant, which can block further gates for free), so the
    candidate budget buys more than it would there; the knob is
    correspondingly lower by default. *)

type params = {
  depth : int;  (** BFS radius (in gates from the faulty wire) within
                    which GM terms are collected (paper: 8) *)
  max_terms : int;
      (** GM terms per MATE. The paper uses 4 with a rich AOI/OAI-heavy
          netlist; our mapper decomposes multiplexing into finer 2-input
          gates, so more (finer) terms are needed to express the same
          condition — the default is 8. MATE hardware cost is governed by
          the resulting input count, which stays comparable. *)
  max_candidates : int;  (** candidate validations per faulty wire *)
  max_options : int;  (** cap on (gate, GM-term) extension pairs per node *)
  beam : int;  (** beam width of the frontier-shrinking search *)
  max_situations : int;
      (** distinct trace situations seeded per faulty wire when an
          exemplary trace is available *)
  max_mates : int;
      (** MATEs retained per faulty wire (cheapest-first); replay cost is
          linear in the retained set *)
}

val default_params : params
(** [{ depth = 8; max_terms = 8; max_candidates = 2_000; max_options = 64;
      beam = 8; max_situations = 12; max_mates = 64 }] *)

type outcome =
  | Unmaskable
      (** structurally unmaskable: the wire feeds a sink directly, or some
          propagation path has no masking-capable gate *)
  | Mates of Term.t list
      (** validated MATEs; may be empty when the budget found none *)

type wire_result = {
  wire : Pruning_netlist.Netlist.wire;
  cone_size : int;  (** gates in the fault cone *)
  n_options : int;  (** (gate, GM-term) pairs collected *)
  candidates_tried : int;
  outcome : outcome;
  time_s : float;  (** wall time spent on this wire ({!Pruning_util.Mono} clock) *)
}

val search_wire :
  ?traces:Pruning_sim.Trace.t list ->
  Pruning_netlist.Netlist.t ->
  params ->
  Pruning_netlist.Netlist.wire ->
  wire_result
(** When [traces] (exemplary fault-free executions of the same netlist)
    are given, the search additionally seeds candidates from them: for
    the most frequent distinct border-wire situations, the full situation
    cube is validated and then greedily generalized by dropping literals
    (far-from-the-cone first). The paper describes exactly this use of an
    "exemplary execution flow to find and select MATEs"; seeded MATEs are
    guaranteed to trigger on the trace. The purely structural
    frontier-directed beam search runs either way. *)

type flop_result = {
  flop : Pruning_netlist.Netlist.flop;
  result : wire_result;
}

type report = {
  params : params;
  flop_results : flop_result list;
  runtime_s : float;
      (** wall-clock time of the whole search ({!Pruning_util.Mono} clock),
          over however many domains it ran on *)
  domains : int;  (** number of domains the search ran on *)
}

val search_pair :
  ?traces:Pruning_sim.Trace.t list ->
  Pruning_netlist.Netlist.t ->
  params ->
  Pruning_netlist.Netlist.wire ->
  Pruning_netlist.Netlist.wire ->
  wire_result
(** Section 6.2 extension: MATEs for a simultaneous 2-bit fault. The joint
    fault cone of both wires is analyzed with both sources marked faulty;
    a resulting MATE proves the double fault benign within one cycle.
    [wire] in the result is the first of the pair. *)

val search_flops :
  ?params:params ->
  ?traces:Pruning_sim.Trace.t list ->
  ?jobs:int ->
  Pruning_netlist.Netlist.t ->
  Pruning_netlist.Netlist.flop list ->
  report
(** Search the Q output of every given flop (the paper's faulty-wire sets
    "FF" and "FF w/o RF").

    The wires are searched on [jobs] domains (default
    [Domain.recommended_domain_count ()], capped at the number of flops;
    [jobs = 1] spawns none). Domains pull flops from a shared counter and
    [flop_results] is assembled in the order of [flops], so the report
    equals the one-domain report apart from [time_s], [runtime_s] and
    [domains]. An
    exception raised while searching any wire is re-raised here after
    every domain has been joined. Raises [Invalid_argument] if
    [jobs < 1]. *)

val wire_time_s : report -> float
(** Sum of the per-wire [time_s], each the wall time of one wire's
    search. On one domain this is the sequential search time; on several,
    contention between the domains (shared cores and caches, minor
    collections that stop every domain) inflates each wire's time, so the
    sum grows with the number of domains. *)

val summary : report -> string
(** One progress line: wires searched, [domains], the wall time
    ([runtime_s]) and {!wire_time_s}. *)

val restrict : report -> (Pruning_netlist.Netlist.flop -> bool) -> report
(** Down-select a report to a flop subset (per-wire results are
    independent). A subset has no wall clock of its own, so [runtime_s]
    becomes the sum of the kept wires' times. *)

(** Aggregates for Table 1. *)

val n_faulty_wires : report -> int
val avg_cone : report -> float
val median_cone : report -> float

val n_unmaskable : report -> int
(** Structurally unmaskable wires (early aborts). *)

val total_candidates : report -> int
val total_mates : report -> int

(** {2 Incremental cone evaluation}

    The ternary evaluator behind candidate validation, exposed so tests can
    hold it against a from-scratch evaluation. Values are [0], [1], [2]
    (U: equal in both runs, unknown) and [3] (F: possibly faulty). *)
module Cone_eval : sig
  type t

  val create :
    Pruning_netlist.Netlist.t -> Pruning_netlist.Cone.t -> Pruning_netlist.Netlist.wire list -> t
  (** [create nl cone sources]: the baseline (every wire U, constants
      propagated through the cone's support logic) of [cone], whose faulty
      wires are [sources]. *)

  val validate : t -> Term.literal list -> bool
  (** Pin the literals' wires, re-evaluate the support gates downstream of
      them, then the cone with the sources at F. True iff no cone sink is
      F. Each call starts from the baseline, whatever came before, and
      drops every frame. *)

  val push : t -> unit
  (** Open a frame: remember the current values and pins. *)

  val extend : t -> Term.literal list -> bool
  (** Like {!validate}, but on top of the current state: the result equals
      a from-scratch validation of the literals pinned so far together
      with these, none of which may contradict a pinned one. *)

  val pop : t -> unit
  (** Back to the values and pins of the matching {!push}. Raises
      [Invalid_argument] without an open frame. *)

  val pinned : t -> Pruning_netlist.Netlist.wire -> bool
  (** Whether a literal currently pins the wire. *)

  val minimize : t -> Term.literal list -> Term.literal list
  (** The search's literal minimization: the literals kept by trying each
      in the given order and dropping it if the others still validate.
      The literals must validate; the result equals that loop's whenever
      validity is monotone in the literal set, as it is for literals that
      agree with a golden run. Drops every frame. *)

  val fault_extent : t -> int
  (** [10_000 * (F sinks) + (F cone gates)] of the last validation. *)

  val value : t -> Pruning_netlist.Netlist.wire -> int
  (** A wire's value in the last validation. *)
end
