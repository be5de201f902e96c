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
  runtime_s : float;  (** wall time of the whole search ({!Pruning_util.Mono} clock) *)
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
  Pruning_netlist.Netlist.t ->
  Pruning_netlist.Netlist.flop list ->
  report
(** Search the Q output of every given flop (the paper's faulty-wire sets
    "FF" and "FF w/o RF"). *)

val restrict : report -> (Pruning_netlist.Netlist.flop -> bool) -> report
(** Down-select a report to a flop subset (per-wire results are
    independent); the runtime becomes the sum of the kept wires' times. *)

(** Aggregates for Table 1. *)

val n_faulty_wires : report -> int
val avg_cone : report -> float
val median_cone : report -> float

val n_unmaskable : report -> int
(** Structurally unmaskable wires (early aborts). *)

val total_candidates : report -> int
val total_mates : report -> int
