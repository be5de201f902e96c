(** Environment devices for the two cores: instruction ROM, data RAM,
    unified memory, and input pins. These model everything outside the
    synthesized netlist (the paper's system model injects faults only into
    the CPU's flip-flops; memories are architectural state). *)

type backing = int array
(** Live view of a memory device's contents. *)

val avr_rom : Pruning_netlist.Netlist.t -> program:int array -> Pruning_sim.Sim.device
(** Combinational program ROM: drives [instr] with [program.(pmem_addr)]
    (NOP beyond the end). *)

val avr_ram : Pruning_netlist.Netlist.t -> backing * Pruning_sim.Sim.device
(** 256-byte data RAM on ports [dmem_addr]/[dmem_rdata]/[dmem_wdata]/
    [dmem_wen]. Reads are combinational; writes latch at the clock edge. *)

val avr_pins : Pruning_netlist.Netlist.t -> value:int -> Pruning_sim.Sim.device
(** Constant input pins on [io_in]. *)

val msp_memory :
  Pruning_netlist.Netlist.t -> words:int -> program:int array -> backing * Pruning_sim.Sim.device
(** Unified 16-bit-word memory for the MSP430 core on ports [mem_addr]
    (byte address; bit 0 ignored) / [mem_rdata] / [mem_wdata] / [mem_wen].
    [program] is loaded from word 0. *)

(** {1 Delta devices}

    Counterparts for the activity-gated kernel
    ({!Pruning_sim.Deltasim}). The golden device behaviour is baked
    into the recorded trace, so these model only the {e difference}
    between the faulty device and the golden one: ROMs are stateless
    recomputes, RAMs keep the golden contents replayed from the
    trace's write stream plus a sparse diff of faulty addresses. A
    clean faulty run keeps the diff empty and clocks in O(1). *)

val avr_rom_delta :
  Pruning_sim.Deltasim.t ->
  Pruning_netlist.Netlist.t ->
  program:int array ->
  Pruning_sim.Deltasim.device

val avr_ram_delta :
  Pruning_sim.Deltasim.t ->
  Pruning_netlist.Netlist.t ->
  trace:Pruning_sim.Trace.t ->
  Pruning_sim.Deltasim.device
(** [trace] must be the same golden trace the kernel was created
    over (its write stream defines the golden RAM contents). *)

val msp_memory_delta :
  Pruning_sim.Deltasim.t ->
  Pruning_netlist.Netlist.t ->
  trace:Pruning_sim.Trace.t ->
  words:int ->
  program:int array ->
  Pruning_sim.Deltasim.device

(** {1 Lane-masked delta devices}

    Counterparts for the batched activity-gated kernel
    ({!Pruning_sim.Deltabatch}): the golden replay — prescanned write
    stream, snapshots, the golden RAM image — is shared by every lane
    and paid once per clock; each lane carries only its own sparse
    diff table, summarized in a dirty mask so a clock edge with no
    diverged or port-flipped lane is O(1). The prescanned write stream
    and snapshots are immutable: devices built over the same trace (a
    campaign builds one batch worker per domain) share one copy while
    the trace keeps its length; a device built after the trace has
    grown gets fresh tables. Per-lane updates follow the
    scalar delta devices exactly, so diff tables (and therefore memo
    keys and Latent verdicts) are bit-identical to the scalar
    engine's. *)

val avr_rom_delta_batch :
  Pruning_sim.Deltabatch.t ->
  Pruning_netlist.Netlist.t ->
  program:int array ->
  Pruning_sim.Deltabatch.device

val avr_ram_delta_batch :
  Pruning_sim.Deltabatch.t ->
  Pruning_netlist.Netlist.t ->
  trace:Pruning_sim.Trace.t ->
  Pruning_sim.Deltabatch.device
(** [trace] must be the same golden trace the kernel was created
    over (its write stream defines the golden RAM contents). *)

val msp_memory_delta_batch :
  Pruning_sim.Deltabatch.t ->
  Pruning_netlist.Netlist.t ->
  trace:Pruning_sim.Trace.t ->
  words:int ->
  program:int array ->
  Pruning_sim.Deltabatch.device
