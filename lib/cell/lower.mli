(** Lowering of cell truth tables to bitwise formulas.

    Every combinational cell is a truth table over at most
    {!Cell.max_arity} pins. [of_table] turns that table — once, at
    simulator-build time — into a straight-line formula over [land] /
    [lor] / [lxor] / [lnot] by recursive Shannon expansion, so a single
    evaluation over packed machine words computes the cell's output for
    [Sys.int_size] independent simulation lanes at once (classic
    parallel-pattern / parallel-fault simulation). *)

type expr =
  | Zero
  | One
  | Var of int  (** input pin index *)
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

val of_table : arity:int -> table:int -> expr
(** Shannon-lower a truth table (bit [p] of [table] = output for input
    pattern [p], pin [j] = bit [j] of [p]). Equal cofactors collapse, and
    complementary cofactors lower to [Xor], so e.g. XOR3 becomes two
    [lxor]s rather than a mux tree. Raises [Invalid_argument] if [arity]
    is negative or exceeds {!Cell.max_arity}. *)

val of_cell : Cell.t -> expr

val eval : expr -> int array -> int
(** [eval e ins] evaluates the formula bitwise; [ins.(j)] is the packed
    word of pin [j]. Lane [l] of the result is the cell output for lane
    [l] of the inputs. *)

val compile : expr -> inputs:int array -> int array -> int
(** [compile e ~inputs] specializes [e] into a closure mapping a wire
    value array to the packed output word, with [Var j] resolved to
    [values.(inputs.(j))]. The returned closure performs no allocation. *)

