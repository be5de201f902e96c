(** A complete hardware-software system under test: a synthesized core,
    its environment devices (ROM/RAM or unified memory) and a loaded
    program — the unit the fault-injection substrate and the evaluation
    harness operate on. *)

type kind =
  | Avr
  | Msp430

type t = {
  kind : kind;
  name : string;  (** e.g. ["avr8/fib"] *)
  netlist : Pruning_netlist.Netlist.t;
  sim : Pruning_sim.Sim.t;  (** devices attached, program loaded *)
  ram : Memory.backing;
      (** AVR: the 256-byte data RAM; MSP430: the unified word memory *)
  rf_prefix : string;
}

val create_avr : ?pins:int -> ?netlist:Pruning_netlist.Netlist.t -> program:int array -> string -> t
(** [create_avr ~program name]. [netlist] allows reusing an already
    synthesized core (the netlist itself is stateless). *)

val create_msp : ?words:int -> ?netlist:Pruning_netlist.Netlist.t -> program:int array -> string -> t
(** [words] is the unified memory size (default 2048 words). *)

type delta = {
  d_kind : kind;
  d_name : string;
  d_netlist : Pruning_netlist.Netlist.t;
  d_dsim : Pruning_sim.Deltasim.t;  (** delta devices attached, program loaded *)
}
(** The same system over the activity-gated delta kernel: the faulty
    run is represented as a sparse difference against a golden trace
    recorded from {!t} (see {!record}). *)

val create_avr_delta :
  ?netlist:Pruning_netlist.Netlist.t ->
  program:int array ->
  trace:Pruning_sim.Trace.t ->
  string ->
  delta
(** [trace] must be a golden recording of the {e same} core, program
    and pin values (the delta devices replay its write stream). *)

val create_msp_delta :
  ?words:int ->
  ?netlist:Pruning_netlist.Netlist.t ->
  program:int array ->
  trace:Pruning_sim.Trace.t ->
  string ->
  delta

type delta_batch = {
  db_kind : kind;
  db_name : string;
  db_netlist : Pruning_netlist.Netlist.t;
  db_dbsim : Pruning_sim.Deltabatch.t;  (** lane-masked delta devices attached *)
}
(** The same system over the batched activity-gated kernel: many
    in-flight faulty runs, each a sparse difference against one golden
    trace recorded from {!t} (see {!record}), sharing one levelized
    schedule and one golden RAM replay. *)

val create_avr_delta_batch :
  ?netlist:Pruning_netlist.Netlist.t ->
  program:int array ->
  trace:Pruning_sim.Trace.t ->
  string ->
  delta_batch
(** [trace] must be a golden recording of the {e same} core, program
    and pin values (the batch delta devices replay its write stream). *)

val create_msp_delta_batch :
  ?words:int ->
  ?netlist:Pruning_netlist.Netlist.t ->
  program:int array ->
  trace:Pruning_sim.Trace.t ->
  string ->
  delta_batch

val save_state : t -> unit -> unit
(** Whole-system snapshot: wire/flop values, cycle count and every
    attached device's internal state — including the RAM backing, which
    memory devices capture through their [dev_save] hook. Returns a
    restorer closure; the campaign engine uses this for checkpointing. *)

val run : t -> cycles:int -> unit

val record : t -> cycles:int -> Pruning_sim.Trace.t
(** Run while recording every wire each cycle. *)

val avr_netlist : unit -> Pruning_netlist.Netlist.t
(** Build (once per call) the AVR core netlist. *)

val msp_netlist : unit -> Pruning_netlist.Netlist.t

(** {1 Built-in catalogue}

    The one map from a built-in core/program name to its systems: every
    tool looks its [--core]/[--program] up here. *)

type program = {
  system_name : string;  (** e.g. ["avr/fib"], ["msp/conv"] *)
  make : Pruning_netlist.Netlist.t -> t;
      (** a fresh scalar system over the given core netlist *)
  make_delta_batch :
    Pruning_netlist.Netlist.t -> trace:Pruning_sim.Trace.t -> delta_batch;
      (** the same over the batched delta kernel (see {!create_avr_delta_batch}) *)
}

type core = {
  core_name : string;  (** ["avr"] or ["msp430"] *)
  build : unit -> Pruning_netlist.Netlist.t;  (** synthesize the core (once per call) *)
  core_rf_prefix : string;  (** the register file's flop-name prefix *)
  programs : (string * program) list;  (** program name ([fib], [conv], [sort]) -> program *)
}

val catalogue : core list
(** AVR with fib, conv and sort; MSP430 with fib and conv. *)

val find_core : string -> core option

val find : core:string -> program:string -> (core * program) option

val known : string
(** The catalogue's pairs for error messages:
    ["avr x fib|conv|sort, msp430 x fib|conv"]. *)
