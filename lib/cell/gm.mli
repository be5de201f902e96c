(** Gate-masking terms (Section 4, step 1 of the paper).

    For a cell with boolean function [F] and a set [S] of {e faulty} input
    pins, a gate-masking term is a minimal partial assignment [alpha] to
    pins outside [S] such that, for {e every} completion of the remaining
    trusted pins, the output of [F] is independent of the pins in [S].
    When [alpha] holds at run time, a fault entering the gate through any
    pin of [S] cannot change the gate output: the fault is stopped at this
    gate.

    Example from the paper: for a multiplexer [MUX(x, a, b)] with faulty
    select [{x}], the terms are [(not a && not b)] and [(a && b)] — if both
    data inputs agree, the select no longer matters. *)

type literal = {
  pin : int;  (** input-pin index of the cell *)
  value : bool;  (** required pin value *)
}

type term = literal list
(** A conjunction of pin literals, sorted by pin index, each pin at most
    once. The empty list is the always-true term (the output never depends
    on the faulty pins). *)

val masking_terms : Cell.t -> faulty:int list -> term list
(** [masking_terms cell ~faulty] computes all minimal gate-masking terms
    for the given faulty-pin set. The result contains only pins outside
    [faulty]. Terms are minimal: no term is implied by another returned
    term. Returns [[]] when the cell has no fault-masking capability for
    this faulty set (e.g. XOR gates). Raises [Invalid_argument] if [faulty]
    is empty, contains duplicates, or mentions pins outside the cell. *)

val masks : Cell.t -> faulty:int list -> term -> bool
(** [masks cell ~faulty term] checks the defining property directly (used
    by tests and by callers that build candidate terms themselves): under
    every completion of trusted pins consistent with [term], the cell
    output is constant across all values of the [faulty] pins. *)

val term_to_string : Cell.t -> term -> string
(** Human-readable rendering such as ["(!a2 & b)"] using generic pin
    names [a1], [a2], ... *)

val memoized_masking_terms : Cell.t -> faulty:int list -> term list
(** Same as {!masking_terms}, answered from a table built over
    {!Cell.all} at module initialisation (immutable afterwards, so safe to
    call from any domain); the whole-netlist MATE search calls this once per
    gate instance. Repeated calls return the same (physically equal) list. *)
