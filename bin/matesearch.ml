(* matesearch: run the heuristic MATE search on a netlist and print the
   discovered fault-masking terms.

   Input is either one of the built-in cores (--core avr|msp430) or a
   netlist in the textual interchange format (--netlist file). *)

module Netlist = Pruning_netlist.Netlist
module Textio = Pruning_netlist.Textio
module Vcd = Pruning_vcd.Vcd
module Search = Pruning_mate.Search
module Mate_term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module System = Pruning_cpu.System
open Cmdliner

let load_netlist core file =
  match (core, file) with
  | Some name, None -> (
    match System.find_core name with
    | Some c -> Ok (c.System.build ())
    | None -> Error (Printf.sprintf "unknown core %S (built-in: %s)" name System.known))
  | None, Some path -> begin
    try Ok (Textio.load path) with
    | Sys_error m | Failure m -> Error m
    | Netlist.Invalid m -> Error ("invalid netlist: " ^ m)
  end
  | Some _, Some _ -> Error "--core and --netlist are mutually exclusive"
  | None, None -> Error "one of --core or --netlist is required"

let run core file vcd exclude_prefix depth max_terms max_candidates verbose =
  match load_netlist core file with
  | Error m ->
    prerr_endline ("matesearch: " ^ m);
    1
  | Ok nl ->
    let params =
      { Search.default_params with Search.depth; max_terms; max_candidates }
    in
    let flops =
      match exclude_prefix with
      | None -> Array.to_list nl.Netlist.flops
      | Some prefix -> Netlist.flops_excluding nl ~prefix
    in
    Printf.printf "netlist %s: %d gates, %d flops; searching %d faulty wires\n%!"
      nl.Netlist.name (Netlist.n_gates nl) (Netlist.n_flops nl) (List.length flops);
    let traces =
      match vcd with
      | None -> []
      | Some path ->
        let trace = Vcd.reorder (Vcd.parse_file path) nl in
        Printf.printf "seeding from %s (%d cycles)\n%!" path (Pruning_sim.Trace.n_cycles trace);
        [ trace ]
    in
    let report = Search.search_flops ~params ~traces nl flops in
    print_endline (Search.summary report);
    Printf.printf "%d unmaskable, %d candidates tried, %d MATEs\n" (Search.n_unmaskable report)
      (Search.total_candidates report) (Search.total_mates report);
    let set = Mateset.of_report report in
    Printf.printf "%d distinct MATEs after merging\n" (Mateset.size set);
    if verbose then
      List.iter
        (fun (fr : Search.flop_result) ->
          match fr.Search.result.Search.outcome with
          | Search.Unmaskable ->
            Printf.printf "%-16s unmaskable\n" fr.Search.flop.Netlist.flop_name
          | Search.Mates [] -> Printf.printf "%-16s no MATE found\n" fr.Search.flop.Netlist.flop_name
          | Search.Mates mates ->
            Printf.printf "%-16s %d MATEs, e.g. %s\n" fr.Search.flop.Netlist.flop_name
              (List.length mates)
              (Mate_term.to_string nl (List.hd mates)))
        report.Search.flop_results;
    0

let core =
  Arg.(value & opt (some string) None & info [ "core" ] ~docv:"CORE" ~doc:"Built-in core: avr or msp430.")

let netlist_file =
  Arg.(value & opt (some file) None & info [ "netlist" ] ~docv:"FILE" ~doc:"Netlist in textual interchange format.")

let exclude =
  Arg.(value & opt (some string) None
       & info [ "exclude-prefix" ] ~docv:"PREFIX"
           ~doc:"Exclude flip-flops whose name starts with PREFIX (e.g. rf_).")

let depth =
  Arg.(value & opt int Search.default_params.Search.depth
       & info [ "depth" ] ~doc:"Fault-propagation search depth.")

let max_terms =
  Arg.(value & opt int Search.default_params.Search.max_terms
       & info [ "max-terms" ] ~doc:"Gate-masking terms per MATE.")

let max_candidates =
  Arg.(value & opt int Search.default_params.Search.max_candidates
       & info [ "max-candidates" ] ~doc:"Candidate budget per faulty wire.")

let vcd =
  Arg.(value & opt (some file) None
       & info [ "vcd" ] ~docv:"FILE"
           ~doc:"Exemplary execution trace (VCD, e.g. from cpusim --vcd) used to seed the search.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-flop results.")

let cmd =
  let doc = "heuristic fault-masking-term (MATE) search" in
  Cmd.v
    (Cmd.info "matesearch" ~doc)
    Term.(
      const run $ core $ netlist_file $ vcd $ exclude $ depth $ max_terms $ max_candidates
      $ verbose)

let () = exit (Cmd.eval' cmd)
