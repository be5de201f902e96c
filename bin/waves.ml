(* waves: render recorded execution traces as ASCII waveforms.

   Works either from a live simulation of a built-in core/program or from
   a VCD file produced by cpusim (plus the matching --core to resolve
   wire names). *)

module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Waveform = Pruning_sim.Waveform
module Vcd = Pruning_vcd.Vcd
module System = Pruning_cpu.System
open Cmdliner

let default_names core =
  match core with
  | "msp430" -> [ "state"; "pc"; "ir"; "mem_addr"; "mem_wen" ]
  | _ -> [ "pc"; "ir"; "ir_valid[0]"; "sreg"; "portb" ]

let unknown what name =
  prerr_endline (Printf.sprintf "waves: unknown %s %S (built-in: %s)" what name System.known);
  exit 1

let run core program vcd names from_cycle cycles =
  let c =
    match System.find_core core with
    | Some c -> c
    | None -> unknown "core" core
  in
  let netlist = c.System.build () in
  let trace =
    match vcd with
    | Some path -> Vcd.reorder (Vcd.parse_file path) netlist
    | None ->
      let p =
        match List.assoc_opt program c.System.programs with
        | Some p -> p
        | None -> unknown "program" program
      in
      System.record (p.System.make netlist) ~cycles:(from_cycle + cycles)
  in
  let wf = Waveform.create netlist trace in
  let names = if names = [] then default_names core else names in
  (try print_string (Waveform.render wf ~names ~from_cycle ~cycles) with
  | Not_found ->
    prerr_endline "waves: unknown wire or group name";
    exit 1
  | Invalid_argument m ->
    prerr_endline ("waves: " ^ m);
    exit 1);
  0

let core = Arg.(value & opt string "avr" & info [ "core" ] ~doc:"Built-in core.")
let program =
  Arg.(value & opt string "fib" & info [ "program" ] ~doc:("Built-in program: " ^ System.known ^ "."))
let vcd = Arg.(value & opt (some file) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Use a recorded VCD instead of simulating.")
let names = Arg.(value & opt_all string [] & info [ "w"; "wire" ] ~docv:"NAME" ~doc:"Wire or group to display (repeatable).")
let from_cycle = Arg.(value & opt int 0 & info [ "from" ] ~doc:"First cycle.")
let cycles = Arg.(value & opt int 60 & info [ "cycles" ] ~doc:"Window length.")

let cmd =
  Cmd.v
    (Cmd.info "waves" ~doc:"ASCII waveforms of core execution traces")
    Term.(const run $ core $ program $ vcd $ names $ from_cycle $ cycles)

let () = exit (Cmd.eval' cmd)
