(** Recorded wire-level execution trace.

    One packed bit row per clock cycle holding the stabilized value of
    every wire in that cycle (the paper's VCD-equivalent input to MATE
    selection and fault-space accounting). *)

type t

val create : n_wires:int -> t

val n_wires : t -> int

val n_cycles : t -> int

val append : t -> bool array -> unit
(** Record one cycle; the array length must equal [n_wires]. The array is
    copied. *)

val get : t -> cycle:int -> int -> bool
(** [get t ~cycle wire]. Raises [Invalid_argument] out of range. *)

val row : t -> cycle:int -> bool array
(** All wire values of one cycle, in a fresh array. *)

val row_bytes : t -> cycle:int -> Bytes.t
(** The internal packed row of one cycle (bit [w land 7] of byte
    [w lsr 3] is wire [w]): a zero-copy read-only view for the delta
    kernel's golden lookups. Callers must not mutate the bytes. *)

val bits_per_word : int
(** Cycles packed per word by {!column} ([Sys.int_size]). *)

val n_words : t -> int
(** Words per column: [ceil (n_cycles / bits_per_word)]. *)

val column : t -> wire:int -> int array
(** Column-packed view of one wire: bit [c mod bits_per_word] of word
    [c / bits_per_word] is the wire's value at cycle [c]. Lets replay
    loops (e.g. {!Pruning_mate.Replay.triggers}) evaluate a literal over
    [bits_per_word] cycles per machine operation. *)

val changed : t -> cycle:int -> int -> bool
(** [changed t ~cycle w] is true when the value of [w] differs from the
    previous cycle (always true at cycle 0): the VCD writer's delta
    source. *)
