(** MSP430-compatible 16-bit multi-cycle core (gate level).

    A size-optimized microcoded implementation: a 7-state FSM (fetch,
    source fetch, source-indexed fetch, destination fetch,
    destination-indexed fetch, execute, write-back) sequences each
    instruction over 2-7 clock cycles through a single memory port and a
    single register-file read port — the style of CPU for which the paper
    reports the larger intra-cycle masking potential, because much state
    (IR, operand latches, effective address, result, FSM state) lives
    outside the register file between cycles.

    Ports:
    - in  [mem_rdata](16);
    - out [mem_addr](16) (byte address, bit 0 ignored), [mem_wdata](16),
      [mem_wen](1).

    Flop names: general-purpose registers r4..r15 are [rf_<n>[<bit>]];
    PC/SP/SR and the microarchitectural latches have their own names. *)

val circuit : unit -> Pruning_rtl.Signal.circuit
(** The RTL description, pre-synthesis (a fresh circuit per call). *)

val build : unit -> Pruning_netlist.Netlist.t

val rf_prefix : string
(** ["rf_"]. *)

(** FSM state encoding, exposed for tests and tracing. *)

val state_fetch : int
val state_src : int
val state_src_idx : int
val state_dst : int
val state_exec : int
val state_wb : int
