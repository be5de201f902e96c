(** Standard-cell library.

    A functional model of the combinational cells of a small ASIC standard
    cell library (the set mirrors the freely available 15nm Open Cell
    Library the paper synthesized against). Each cell is a single-output
    boolean function of up to {!max_arity} inputs, represented by its truth
    table. Sequential elements (D flip-flops) are not cells: the netlist
    layer models them separately, because the fault model and the simulator
    treat state elements specially.

    Pin conventions (input index order):
    - [MUX2]: inputs [(a, b, s)], output [s ? b : a];
    - [AOI21]: inputs [(a1, a2, b)], output [not ((a1 && a2) || b)];
    - [OAI21]: inputs [(a1, a2, b)], output [not ((a1 || a2) && b)];
    - [AOI22]/[OAI22]: two pairs, analogous;
    - [XOR3] is the full-adder sum, [MAJ3] the full-adder carry. *)

type kind =
  | INV
  | BUF
  | NAND2
  | NAND3
  | NAND4
  | NOR2
  | NOR3
  | NOR4
  | AND2
  | AND3
  | AND4
  | OR2
  | OR3
  | OR4
  | XOR2
  | XNOR2
  | MUX2
  | AOI21
  | AOI22
  | OAI21
  | OAI22
  | XOR3
  | MAJ3
  | TIEL  (** constant 0, no inputs *)
  | TIEH  (** constant 1, no inputs *)

type t = private {
  kind : kind;
  name : string;  (** library name, e.g. ["NAND2_X1"] *)
  arity : int;  (** number of input pins *)
  table : int;  (** truth table: bit [i] is the output for input pattern [i],
                    where bit [j] of [i] is the value of pin [j] *)
}

val max_arity : int
(** Largest cell arity in the library (4). *)

val of_kind : kind -> t
(** The library cell for a kind. *)

val all : t list
(** The whole catalogue. *)

val index : t -> int
(** Position of the cell in {!all}. Every [t] is a member of {!all}
    ([t] is private), so tables built over {!all} can be indexed by it. *)

val find_by_name : string -> t option
(** Look up a cell by its library name. *)

val eval : t -> bool array -> bool
(** [eval cell pins] applies the cell function. Raises [Invalid_argument]
    if [Array.length pins <> cell.arity]. *)

val eval_pattern : t -> int -> bool
(** [eval_pattern cell i] is the output for the input pattern [i] (bit [j]
    of [i] = pin [j]). *)

val kind_to_string : kind -> string

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
