(* cpusim: run one of the built-in programs on one of the built-in cores,
   optionally dumping a wire-level VCD trace — the "netlist simulation"
   step of the paper's flow. *)

module Netlist = Pruning_netlist.Netlist
module Mono = Pruning_util.Mono
module Sim = Pruning_sim.Sim
module Vcd = Pruning_vcd.Vcd
module System = Pruning_cpu.System
open Cmdliner

let run core program cycles vcd_out ram_dump =
  match System.find ~core ~program with
  | None ->
    prerr_endline ("cpusim: unknown core/program (" ^ System.known ^ ")");
    1
  | Some (core, program) ->
    let sys = program.System.make (core.System.build ()) in
    let nl = sys.System.netlist in
    Printf.printf "%s: %d gates, %d flops, %d wires; running %d cycles\n%!" sys.System.name
      (Netlist.n_gates nl) (Netlist.n_flops nl) (Netlist.n_wires nl) cycles;
    let start = Mono.now () in
    (match vcd_out with
    | Some path ->
      let trace = System.record sys ~cycles in
      Vcd.write_file nl trace path;
      Printf.printf "VCD written to %s (%d cycles)\n" path cycles
    | None -> System.run sys ~cycles);
    let elapsed = Mono.now () -. start in
    Printf.printf "simulated in %.2fs (%.0f cycles/s)\n" elapsed
      (float_of_int cycles /. elapsed);
    if ram_dump > 0 then begin
      Printf.printf "memory[0..%d]:" (ram_dump - 1);
      Array.iteri
        (fun i v -> if i < ram_dump then Printf.printf " %02x" v)
        sys.System.ram;
      print_newline ()
    end;
    0

let core = Arg.(value & opt string "avr" & info [ "core" ] ~doc:"Built-in core.")
let program =
  Arg.(value & opt string "fib" & info [ "program" ] ~doc:("Built-in program: " ^ System.known ^ "."))
let cycles = Arg.(value & opt int 8500 & info [ "cycles" ] ~doc:"Clock cycles to simulate.")
let vcd = Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD trace.")
let ram_dump = Arg.(value & opt int 48 & info [ "dump" ] ~doc:"Dump the first N memory cells (0 = none).")

let cmd =
  Cmd.v
    (Cmd.info "cpusim" ~doc:"cycle-accurate netlist simulation of the built-in cores")
    Term.(const run $ core $ program $ cycles $ vcd $ ram_dump)

let () = exit (Cmd.eval' cmd)
