(** A collected MATE set for a whole circuit.

    The per-wire search often discovers the same boolean term for several
    faulty flip-flops (the paper: "one active MATE indicates the masking
    of more than one fault" — e.g. the operand-select MATE of a mov-style
    operation masks every bit of the unselected operand). Building a set
    merges identical terms and records all flip-flops each term masks. *)

type mate = {
  term : Term.t;
  flop_ids : int list;  (** flops whose fault this term proves benign *)
}

type t = { mates : mate array }

val build : (int * Term.t list) list -> t
(** From [(flop_id, terms)] pairs; merges duplicate terms. *)

val of_report : Search.report -> t
(** Collect every MATE found by a whole-circuit search. *)

val size : t -> int

val describe : Pruning_netlist.Netlist.t -> t -> int -> string
(** Human-readable one-liner for mate [i] (its term over named wires and
    how many flops it masks) — used by audit summaries. *)
