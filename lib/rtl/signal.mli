(** Word-level RTL construction DSL.

    A hardcaml-flavoured combinator library for describing synchronous
    circuits, which {!Synth} then lowers ("technology-maps") onto the
    standard-cell netlist. Signals are bit vectors (LSB first) built as a
    hash-consed DAG with aggressive constant folding, so the emitted
    netlist contains no constant-feeding logic.

    All vectors belong to a {!circuit}; mixing circuits raises
    [Invalid_argument], as do width mismatches. Widths are 1..62 (vector
    constants are plain [int]s). *)

type circuit
type t
(** A bit-vector signal. Single bits are width-1 vectors. *)

type reg
(** A register (bank of D flip-flops) whose next-value input is connected
    after creation, enabling feedback. *)

val create_circuit : string -> circuit

val input : circuit -> string -> int -> t
(** Declare a primary-input port of the given width. Port names must be
    unique within the circuit. *)

val const : circuit -> width:int -> int -> t
(** Constant vector. Bits above [width] must be zero. *)

val vdd : circuit -> t
(** Width-1 constant 1. *)

val gnd : circuit -> t
(** Width-1 constant 0. *)

val width : t -> int

val reg : circuit -> ?init:int -> string -> int -> reg
(** [reg c name width] declares a register bank; its flip-flops will be
    named [name[i]] in the netlist. [init] is the reset value (default 0). *)

val q : reg -> t
(** Current-state output of a register. *)

val connect : reg -> t -> unit
(** Connect the next-state input. Must be called exactly once per register
    before synthesis. *)

val output : circuit -> string -> t -> unit
(** Declare a primary-output port. *)

(** {1 Bitwise logic} (operand widths must match) *)

val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( ~: ) : t -> t

(** {1 Arithmetic} *)

val ( +: ) : t -> t -> t
(** Modular addition, result has operand width. *)

val ( -: ) : t -> t -> t

val add_carry : t -> t -> cin:t -> t * t
(** Full addition: [(sum, carry_out)] with a width-1 carry-in. *)

val sub_borrow : t -> t -> bin:t -> t * t
(** [a - b - bin] as [(difference, borrow_out)]. *)

(** {1 Comparison} (width-1 results) *)

val ( ==: ) : t -> t -> t
val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t
(** Unsigned less-than. *)

val is_zero : t -> t

val eq_const : t -> int -> t
(** [eq_const v k] compares against a constant without creating one. *)

(** {1 Selection and assembly} *)

val mux2 : t -> t -> t -> t
(** [mux2 sel if_one if_zero]; [sel] has width 1, branches equal width. *)

val mux : t -> t list -> t
(** [mux sel cases] selects [cases[sel]] through a balanced MUX2 tree.
    When [cases] is shorter than [2^width sel], the last case is
    replicated; [cases] must be non-empty and at most [2^width sel]
    long. *)

val bit : t -> int -> t
(** [bit v i] extracts bit [i] (LSB = 0) as a width-1 vector. *)

val select : t -> hi:int -> lo:int -> t
(** Contiguous slice, inclusive. *)

val cat : t -> t -> t
(** [cat hi lo] concatenates; [lo] supplies the least-significant bits. *)

val concat : t list -> t
(** [concat [msb; ...; lsb]]. *)

val uresize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val sresize : t -> int -> t
(** Sign-extend or truncate. *)

val sll : t -> int -> t
(** Logical shift left by a constant, keeping width. *)

val srl : t -> int -> t
(** Logical shift right by a constant, keeping width. *)

val reduce_or : t -> t
(** OR of all bits. *)

val reduce_and : t -> t

val reduce_xor : t -> t

(** {1 Introspection used by the synthesizer} *)

type bit_node = private
  | Const of bool
  | Input of { port : string; index : int; id : int }
  | Regq of { reg : reg_def; index : int; id : int }
  | Op of { op : op; args : bit_node array; id : int }

and op =
  | Op_not
  | Op_and
  | Op_or
  | Op_xor
  | Op_mux  (** args \[f; t; s\]: output [s ? t : f], matching cell MUX2 *)
  | Op_xor3
  | Op_maj3

and reg_def = private {
  reg_name : string;
  reg_width : int;
  reg_init : int;
  mutable reg_next : bit_node array option;
  mutable reg_q : bit_node array;
}

val bits : t -> bit_node array
val circuit_name : circuit -> string
val circuit_inputs : circuit -> (string * int) list
(** In declaration order. *)

val circuit_outputs : circuit -> (string * t) list
val circuit_regs : circuit -> reg_def list
val node_count : circuit -> int
(** Number of distinct hash-consed nodes, a pre-synthesis size measure. *)
