(** ISA-level fault injection on the architectural reference models — the
    software-based layer of the paper's Section 6.3.

    The paper argues that intra-cycle MATEs are most effective for
    microarchitectural state (stage buffers, status register) while faults
    in the general-purpose register file are ISA-visible and better served
    by software-based fault injection, and envisions combining HAFI at
    flip-flop level with ISA-level injection for register faults. This
    module provides that ISA-level layer for the AVR model: flip one
    register bit between two instructions of the reference interpreter and
    classify the outcome architecturally. *)

type verdict =
  | Benign  (** outputs and final architectural state match the golden run *)
  | Latent  (** outputs match but registers/flags differ at the horizon *)
  | Sdc  (** memory contents or the PORTB write sequence differ *)

type experiment = {
  reg : int;  (** register 0..31 *)
  bit : int;  (** bit 0..7 *)
  at_step : int;  (** instruction count before the flip *)
}

val avr_inject : program:int array -> max_steps:int -> experiment -> verdict
(** Run the golden interpreter to the halt point (or [max_steps]), then a
    faulty twin with the register bit flipped after [at_step] retired
    instructions, and compare. *)

type stats = {
  injections : int;
  benign : int;
  latent : int;
  sdc : int;
}

val avr_campaign :
  program:int array ->
  max_steps:int ->
  rng:Pruning_util.Prng.t ->
  n:int ->
  ?regs:int list ->
  unit ->
  stats
(** Sampled register-file campaign. [regs] restricts the injected
    registers (default: all 32). *)
