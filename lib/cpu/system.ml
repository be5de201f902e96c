module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Deltasim = Pruning_sim.Deltasim
module Deltabatch = Pruning_sim.Deltabatch
module Trace = Pruning_sim.Trace

type kind =
  | Avr
  | Msp430

type t = {
  kind : kind;
  name : string;
  netlist : Netlist.t;
  sim : Sim.t;
  ram : Memory.backing;
  rf_prefix : string;
}

let avr_netlist () = Avr_core.build ()
let msp_netlist () = Msp_core.build ()

let create_avr ?(pins = 0x5A) ?netlist ~program name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> avr_netlist ()
  in
  let sim = Sim.create netlist in
  Sim.add_device sim (Memory.avr_rom netlist ~program);
  let ram, ram_device = Memory.avr_ram netlist in
  Sim.add_device sim ram_device;
  Sim.add_device sim (Memory.avr_pins netlist ~value:pins);
  { kind = Avr; name; netlist; sim; ram; rf_prefix = Avr_core.rf_prefix }

let create_msp ?(words = 2048) ?netlist ~program name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> msp_netlist ()
  in
  let sim = Sim.create netlist in
  let ram, mem_device = Memory.msp_memory netlist ~words ~program in
  Sim.add_device sim mem_device;
  { kind = Msp430; name; netlist; sim; ram; rf_prefix = Msp_core.rf_prefix }

(* Delta counterpart: the same core and environment as a sparse
   difference against a recorded golden trace. *)
type delta = {
  d_kind : kind;
  d_name : string;
  d_netlist : Netlist.t;
  d_dsim : Deltasim.t;
}

let create_avr_delta ?netlist ~program ~trace name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> avr_netlist ()
  in
  let dsim = Deltasim.create netlist trace in
  Deltasim.add_device dsim (Memory.avr_rom_delta dsim netlist ~program);
  Deltasim.add_device dsim (Memory.avr_ram_delta dsim netlist ~trace);
  (* Constant pins need no delta device: their faulty value can never
     differ from the recorded golden one. *)
  { d_kind = Avr; d_name = name; d_netlist = netlist; d_dsim = dsim }

let create_msp_delta ?(words = 2048) ?netlist ~program ~trace name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> msp_netlist ()
  in
  let dsim = Deltasim.create netlist trace in
  Deltasim.add_device dsim (Memory.msp_memory_delta dsim netlist ~trace ~words ~program);
  { d_kind = Msp430; d_name = name; d_netlist = netlist; d_dsim = dsim }

(* Batched-delta counterpart: the same core and environment as many
   independent sparse differences against one recorded golden trace. *)
type delta_batch = {
  db_kind : kind;
  db_name : string;
  db_netlist : Netlist.t;
  db_dbsim : Deltabatch.t;
}

let create_avr_delta_batch ?netlist ~program ~trace name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> avr_netlist ()
  in
  let dbsim = Deltabatch.create netlist trace in
  Deltabatch.add_device dbsim (Memory.avr_rom_delta_batch dbsim netlist ~program);
  Deltabatch.add_device dbsim (Memory.avr_ram_delta_batch dbsim netlist ~trace);
  (* Constant pins need no delta device: no lane's faulty value can
     ever differ from the recorded golden one. *)
  { db_kind = Avr; db_name = name; db_netlist = netlist; db_dbsim = dbsim }

let create_msp_delta_batch ?(words = 2048) ?netlist ~program ~trace name =
  let netlist =
    match netlist with
    | Some nl -> nl
    | None -> msp_netlist ()
  in
  let dbsim = Deltabatch.create netlist trace in
  Deltabatch.add_device dbsim (Memory.msp_memory_delta_batch dbsim netlist ~trace ~words ~program);
  { db_kind = Msp430; db_name = name; db_netlist = netlist; db_dbsim = dbsim }

let save_state t = Sim.save_state t.sim

let run t ~cycles = Sim.run t.sim ~cycles ()

let record t ~cycles =
  let trace = Trace.create ~n_wires:(Netlist.n_wires t.netlist) in
  Sim.run t.sim ~trace ~cycles ();
  trace

(* The built-in catalogue: the one map from a core/program name to its
   systems. Each program is assembled once, here. *)

type program = {
  system_name : string;
  make : Netlist.t -> t;
  make_delta_batch : Netlist.t -> trace:Trace.t -> delta_batch;
}

type core = {
  core_name : string;
  build : unit -> Netlist.t;
  core_rf_prefix : string;
  programs : (string * program) list;
}

let avr_program system_name items =
  let program = Avr_asm.assemble items in
  {
    system_name;
    make = (fun netlist -> create_avr ~netlist ~program system_name);
    make_delta_batch =
      (fun netlist ~trace -> create_avr_delta_batch ~netlist ~program ~trace system_name);
  }

let msp_program system_name items =
  let program = Msp_asm.assemble items in
  {
    system_name;
    make = (fun netlist -> create_msp ~netlist ~program system_name);
    make_delta_batch =
      (fun netlist ~trace -> create_msp_delta_batch ~netlist ~program ~trace system_name);
  }

let catalogue =
  [
    {
      core_name = "avr";
      build = avr_netlist;
      core_rf_prefix = Avr_core.rf_prefix;
      programs =
        [
          ("fib", avr_program "avr/fib" Programs.avr_fib);
          ("conv", avr_program "avr/conv" Programs.avr_conv);
          ("sort", avr_program "avr/sort" Programs.avr_sort);
        ];
    };
    {
      core_name = "msp430";
      build = msp_netlist;
      core_rf_prefix = Msp_core.rf_prefix;
      programs =
        [
          ("fib", msp_program "msp/fib" Programs.msp_fib);
          ("conv", msp_program "msp/conv" Programs.msp_conv);
        ];
    };
  ]

let find_core name = List.find_opt (fun c -> c.core_name = name) catalogue

let find ~core ~program =
  Option.bind (find_core core) (fun c ->
      Option.map (fun p -> (c, p)) (List.assoc_opt program c.programs))

let known =
  String.concat ", "
    (List.map
       (fun c -> c.core_name ^ " x " ^ String.concat "|" (List.map fst c.programs))
       catalogue)
