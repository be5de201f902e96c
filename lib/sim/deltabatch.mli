(** Batched activity-gated delta simulation: many in-flight faulty runs
    as independent sparse XOR-deltas against one recorded golden trace.

    The production campaign kernel: {!Deltasim}'s activity gating
    (only gates with a dirty input are re-evaluated, over one shared
    levelized bucket schedule) with lane packing (each wire carries one
    machine word, bit [l] = lane [l]).
    Bit [l] of a wire's {e flip word} is set iff lane [l]'s faulty
    value differs from the golden trace this cycle; a dirty gate is
    re-evaluated once per cycle through its Shannon-lowered formula
    over packed faulty words, classifying the union of dirty lanes in
    one pass instead of once per fault. There is no golden lane — the
    trace is the baseline — so all {!n_lanes} lanes carry faults.

    Dirty-set invariant (per lane): after {!propagate}, bit [l] of
    [flip_word t w] is set iff lane [l]'s value of [w] differs from the
    golden trace at the current cycle — exactly, for every wire.

    Retirement soundness (per lane): when lane [l] has a zero flip
    count and every device reports it clean, its machine is
    bit-identical to the golden one; simulation is deterministic, so
    all later cycles are golden too and the lane retires Benign without
    simulating them. {!wipe_lane} then frees the lane for the next
    queued fault without touching the other lanes. *)

module Netlist := Pruning_netlist.Netlist

type t

val n_lanes : int
(** Concurrent fault lanes per pass ([Sys.int_size]; every lane is a
    fault lane — the recorded trace plays the golden role). *)

type device = {
  db_name : string;
  db_comb : int -> unit;
      (** Fixed-point phase: recompute the lanes in the given mask from
          their faulty port values (via {!faulty}) and drive faulty
          words back (via {!drive_masked}). Only called with a nonzero
          mask — lanes whose state and watched ports are clean are
          already golden. *)
  db_clock : unit -> unit;
      (** Clock edge: advance all lanes one cycle. Called every cycle
          (must be O(1) when every lane is clean — golden replay). *)
  db_seek : int -> unit;
      (** Rewind internal state to golden at the start of a cycle. *)
  db_dirty : unit -> int;
      (** Mask of lanes whose internal state differs from golden. *)
  db_diffs : lane:int -> (int * int) list;
      (** [(address, faulty_value)] pairs where one lane's state
          diverges, sorted by address — the horizon Latent check and
          the memo-key RAM diff. *)
  db_reset : lane:int -> unit;
      (** Forget one lane's divergence (the lane retired). *)
  db_watch : int array;
      (** Port wires, read {e and} write side: a flip on any of them
          forces [db_comb] for the flipped lanes. *)
}

val create : Netlist.t -> Trace.t -> t
(** [create nl trace]: build a kernel over [nl] whose golden baseline
    is [trace]. Raises [Invalid_argument] on width mismatch or an
    empty trace. *)

val add_device : t -> device -> unit
(** Attach a batch delta device. Comb hooks run in attach order. *)

val attach : t -> cycle:int -> unit
(** Clear all delta state and position the kernel at the start of
    [cycle]: every lane is bit-exact golden until the first
    {!flip_flop_lane} or {!drive_masked}. Reuses all internal buffers —
    the cost is proportional to the {e previous} pass's dirty set. *)

val flip_flop_lane : t -> int -> lane:int -> unit
(** Flip one flop's Q in one lane for the current cycle — the SEU.
    Several calls on one lane seed a multi-flop fault (an expanded SET
    or an MBU). *)

val force_flop_lanes : t -> int -> mask:int -> unit
(** Force one flop's Q to the complement of golden, for the current
    cycle, in every lane of [mask] ("flip if not flipped"; lanes
    already flipped stay flipped, lanes outside [mask] are untouched).
    Call at the top of a cycle, before {!propagate}: the re-arm of a
    fault held over several cycles. *)

val propagate : t -> unit
(** Settle the current cycle: refresh surviving flip words against this
    cycle's golden row and run gates + devices to a fixed point (the
    delta image of [Sim.eval] for every lane at once). Raises [Failure] if devices fail to
    stabilize within the same round budget as the other engines. *)

val latch : t -> unit
(** Clock edge: each Q's flip word for the next cycle becomes exactly
    its D's flip word this cycle; devices clock (golden replay when
    clean). Advances {!cycle}. *)

val wipe_lane : t -> lane:int -> unit
(** Return one lane to bit-exact golden: clear its bit from every dirty
    wire and reset its device divergence. Safe immediately at any
    retirement point — the lane's state is then exactly the trace, so
    nothing stale can leak back through the latch. *)

val golden : t -> Netlist.wire -> bool
(** Golden value of a wire at the current cycle. *)

val faulty : t -> Netlist.wire -> lane:int -> bool
(** One lane's faulty value: golden XOR flip bit. Exact after
    {!propagate}. *)

val flip_word : t -> Netlist.wire -> int
(** The wire's packed flip word (bit [l] = lane [l] differs). *)

val drive_masked : t -> Netlist.wire -> mask:int -> int -> unit
(** Assert the faulty word of a port wire for the lanes in [mask],
    leaving other lanes' flip bits untouched (device comb hooks
    only). *)

val out_mask : t -> int
(** Mask of lanes with a flipped primary output this cycle (check
    after {!propagate} — the SDC test). *)

val q_mask : t -> int
(** Mask of lanes with a flipped flop Q (the horizon Latent test,
    with {!devices_dirty_mask}). *)

val devices_dirty_mask : t -> int
(** Mask of lanes with diverged device state. *)

val live_mask : t -> int
(** Lanes with a flipped wire or diverged device state: lanes not yet
    re-converged.
    A lane absent from this mask is bit-exact golden and can retire
    Benign. *)

val device_diffs : t -> lane:int -> (string * (int * int) list) list
(** One lane's per-device divergence, for memo keys and tests. *)
