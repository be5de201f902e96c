(** ISA-level reference interpreter for the MSP430 subset (architectural
    golden model for the multi-cycle core; word-sized operations on a
    unified word-addressed memory). *)

type t = {
  mem : int array;  (** 16-bit words; program loaded from word 0 *)
  mutable pc : int;  (** byte address *)
  regs : int array;  (** r1 (SP), r4..r15 live here; r0/r2/r3 special *)
  mutable flag_c : bool;
  mutable flag_z : bool;
  mutable flag_n : bool;
  mutable flag_v : bool;
  mutable halted : bool;  (** reached [JMP .] *)
  mutable steps : int;
}

val create : words:int -> program:int array -> t

val run : t -> max_steps:int -> unit

val read_reg : t -> int -> int
(** r0 = PC, r2 = SR bits (C,Z,N,V in bits 0..3), r3 = 0. *)
