(** Value-change-dump (IEEE 1364) writing and parsing.

    The paper's flow records a VCD per program/processor from netlist
    simulation and replays it for MATE selection; this module provides the
    same interchange point. Every netlist wire becomes a 1-bit VCD
    variable; one clock cycle is one timestep. Only scalar variables and
    the subset of the format we emit are supported by the parser. *)

val write_file : Pruning_netlist.Netlist.t -> Pruning_sim.Trace.t -> string -> unit
(** Dump a trace. Variable names are the netlist wire names. *)

val to_string : Pruning_netlist.Netlist.t -> Pruning_sim.Trace.t -> string

type parsed = {
  wire_names : string array;  (** by parsed wire index *)
  trace : Pruning_sim.Trace.t;  (** values indexed by parsed wire index *)
}

val parse : string -> parsed
(** Parse VCD text. Raises [Failure] with a line diagnostic on input we do
    not understand. *)

val parse_file : string -> parsed

val reorder : parsed -> Pruning_netlist.Netlist.t -> Pruning_sim.Trace.t
(** Re-index a parsed trace onto a netlist's wire numbering by name.
    Raises [Failure] if a netlist wire is missing from the dump. *)
