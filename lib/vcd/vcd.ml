module Netlist = Pruning_netlist.Netlist
module Trace = Pruning_sim.Trace

(* VCD identifier codes: little-endian base 94 over printable ASCII. *)
let id_of_index index =
  let buffer = Buffer.create 4 in
  let rec go n =
    Buffer.add_char buffer (Char.chr (33 + (n mod 94)));
    if n >= 94 then go ((n / 94) - 1)
  in
  go index;
  Buffer.contents buffer

let sanitize name = String.map (fun c -> if c = ' ' || c = '$' then '_' else c) name

let emit (nl : Netlist.t) trace add =
  if Trace.n_wires trace <> Netlist.n_wires nl then
    invalid_arg "Vcd: trace does not match netlist";
  let out fmt = Printf.ksprintf add fmt in
  out "$date\n  (pruning)\n$end\n";
  out "$version\n  pruning VCD writer\n$end\n";
  out "$timescale 1ns $end\n";
  out "$scope module %s $end\n" (sanitize nl.Netlist.name);
  for w = 0 to Netlist.n_wires nl - 1 do
    out "$var wire 1 %s %s $end\n" (id_of_index w) (sanitize (Netlist.wire_name nl w))
  done;
  out "$upscope $end\n$enddefinitions $end\n";
  let n_cycles = Trace.n_cycles trace in
  for cycle = 0 to n_cycles - 1 do
    out "#%d\n" cycle;
    if cycle = 0 then out "$dumpvars\n";
    for w = 0 to Netlist.n_wires nl - 1 do
      if Trace.changed trace ~cycle w then
        out "%c%s\n" (if Trace.get trace ~cycle w then '1' else '0') (id_of_index w)
    done;
    if cycle = 0 then out "$end\n"
  done;
  out "#%d\n" n_cycles

let write_file nl trace path =
  let oc = open_out path in
  (try emit nl trace (output_string oc)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let to_string nl trace =
  let buffer = Buffer.create 65536 in
  emit nl trace (Buffer.add_string buffer);
  Buffer.contents buffer

type parsed = {
  wire_names : string array;
  trace : Trace.t;
}

let split_words line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse text =
  let lines = String.split_on_char '\n' text in
  let names = ref [] in
  let ids = Hashtbl.create 256 in
  let n_vars = ref 0 in
  let in_definitions = ref true in
  let body = ref [] in
  List.iteri
    (fun lineno line ->
      if !in_definitions then
        match split_words line with
        | [ "$var"; "wire"; "1"; id; name; "$end" ] ->
          Hashtbl.replace ids id !n_vars;
          names := name :: !names;
          incr n_vars
        | "$enddefinitions" :: _ -> in_definitions := false
        | _ -> ()
      else if line <> "" then body := (lineno + 1, line) :: !body)
    lines;
  if !n_vars = 0 then failwith "Vcd.parse: no variables declared";
  let trace = Trace.create ~n_wires:!n_vars in
  let current = Array.make !n_vars false in
  let have_time = ref false in
  let pending = ref false in
  let flush_row () =
    if !have_time then Trace.append trace current;
    pending := false
  in
  List.iter
    (fun (lineno, line) ->
      if String.length line > 0 && line.[0] = '#' then begin
        flush_row ();
        have_time := true
      end
      else if line = "$dumpvars" || line = "$end" then ()
      else begin
        let value =
          match line.[0] with
          | '0' -> false
          | '1' -> true
          | _ -> failwith (Printf.sprintf "Vcd.parse: line %d: unsupported: %s" lineno line)
        in
        let id = String.sub line 1 (String.length line - 1) in
        (match Hashtbl.find_opt ids id with
        | Some index -> current.(index) <- value
        | None -> failwith (Printf.sprintf "Vcd.parse: line %d: unknown id %s" lineno id));
        pending := true
      end)
    (List.rev !body);
  (* Tolerate dumps without the trailing timestamp marker. *)
  if !pending then flush_row ();
  { wire_names = Array.of_list (List.rev !names); trace }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse text

let reorder parsed (nl : Netlist.t) =
  let index_of = Hashtbl.create 1024 in
  Array.iteri (fun i name -> Hashtbl.replace index_of name i) parsed.wire_names;
  let nw = Netlist.n_wires nl in
  let mapping =
    Array.init nw (fun w ->
        let name = sanitize (Netlist.wire_name nl w) in
        match Hashtbl.find_opt index_of name with
        | Some i -> i
        | None -> failwith (Printf.sprintf "Vcd.reorder: wire %s not in dump" name))
  in
  let out = Trace.create ~n_wires:nw in
  for cycle = 0 to Trace.n_cycles parsed.trace - 1 do
    let row = Trace.row parsed.trace ~cycle in
    Trace.append out (Array.map (fun i -> row.(i)) mapping)
  done;
  out
