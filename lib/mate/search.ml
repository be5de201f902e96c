module Netlist = Pruning_netlist.Netlist
module Cone = Pruning_netlist.Cone
module Cell = Pruning_cell.Cell
module Gm = Pruning_cell.Gm
module Stats = Pruning_util.Stats
module Mono = Pruning_util.Mono

type params = {
  depth : int;
  max_terms : int;
  max_candidates : int;
  max_options : int;
  beam : int;
  max_situations : int;
  max_mates : int;
}

let default_params =
  {
    depth = 8;
    max_terms = 8;
    max_candidates = 2_000;
    max_options = 64;
    beam = 8;
    max_situations = 12;
    max_mates = 64;
  }

type outcome =
  | Unmaskable
  | Mates of Term.t list

type wire_result = {
  wire : Netlist.wire;
  cone_size : int;
  n_options : int;
  candidates_tried : int;
  outcome : outcome;
  time_s : float;
}

type flop_result = {
  flop : Netlist.flop;
  result : wire_result;
}

type report = {
  params : params;
  flop_results : flop_result list;
  runtime_s : float;
}

(* ------------------------------------------------------------------ *)
(* Ternary values: 0, 1, U (golden-equal, unknown), F (possibly faulty) *)

let v0 = 0
let v1 = 1
let vu = 2
let vf = 3

(* Enumerate the assignments of the bit positions present in [mask]. *)
let iter_assignments mask f =
  let rec positions m = if m = 0 then [] else (m land -m) :: positions (m land (m - 1)) in
  let bits = Array.of_list (positions mask) in
  let n = Array.length bits in
  for combo = 0 to (1 lsl n) - 1 do
    let a = ref 0 in
    for j = 0 to n - 1 do
      if combo land (1 lsl j) <> 0 then a := !a lor bits.(j)
    done;
    f !a
  done

(* Abstract evaluation of one cell over packed ternary pin values (2 bits
   per pin). *)
let eval_gate_uncached (cell : Cell.t) packed =
  let fixed = ref 0 and u_mask = ref 0 and f_mask = ref 0 in
  for pin = 0 to cell.Cell.arity - 1 do
    match (packed lsr (2 * pin)) land 3 with
    | v when v = v0 -> ()
    | v when v = v1 -> fixed := !fixed lor (1 lsl pin)
    | v when v = vu -> u_mask := !u_mask lor (1 lsl pin)
    | _ -> f_mask := !f_mask lor (1 lsl pin)
  done;
  let f_dependent = ref false in
  let seen0 = ref false and seen1 = ref false in
  iter_assignments !u_mask (fun u ->
      if not !f_dependent then begin
        let base = !fixed lor u in
        let reference = Cell.eval_pattern cell base in
        iter_assignments !f_mask (fun f ->
            if Cell.eval_pattern cell (base lor f) <> reference then f_dependent := true);
        if reference then seen1 := true else seen0 := true
      end);
  if !f_dependent then vf
  else if !seen0 && !seen1 then vu
  else if !seen1 then v1
  else v0

(* One flat cache row per (cell function, arity). *)
let eval_cache : (int, int array) Hashtbl.t = Hashtbl.create 64

let cache_row (cell : Cell.t) =
  let key = (cell.Cell.table lsl 3) lor cell.Cell.arity in
  match Hashtbl.find_opt eval_cache key with
  | Some row -> row
  | None ->
    let row = Array.init 256 (fun packed -> eval_gate_uncached cell packed) in
    Hashtbl.replace eval_cache key row;
    row

(* ------------------------------------------------------------------ *)
(* Cone evaluation state.                                               *)

type cone_eval = {
  nl : Netlist.t;
  values : Bytes.t;  (** per wire: v0/v1/vu/vf *)
  baseline : Bytes.t;  (** values with no literals set *)
  rows : int array array;  (** per cone gate: eval-cache row *)
  cone_gates : Netlist.gate array;  (** topological order *)
  sink_index : int array;  (** indices into cone_gates whose output sinks *)
  border_wires : Netlist.wire array;
  in_cone : bool array;
  in_support : bool array;  (** wires in the transitive fanin of border *)
  topo_pos : int array;  (** per gate id: position in the global topo *)
  sources : Netlist.wire list;
  gate_depth : (int, int) Hashtbl.t;  (** cone-gate BFS distance *)
  downstream : (Netlist.wire, int list) Hashtbl.t;
      (** per literal-candidate wire: support gates downstream of it, in
          topological order (computed on demand) *)
  gate_stamp : int array;  (** scratch for merging downstream lists *)
  pin_stamp : int array;  (** per wire: literal-pinned in this validation *)
  mutable stamp : int;
  mutable touched : Netlist.wire list;  (** wires differing from baseline *)
}

let gate_value ev (g : Netlist.gate) =
  let packed = ref 0 in
  let ins = g.Netlist.inputs in
  for pin = 0 to Array.length ins - 1 do
    packed := !packed lor (Char.code (Bytes.get ev.values ins.(pin)) lsl (2 * pin))
  done;
  (cache_row g.Netlist.cell).(!packed)

let make_cone_eval (nl : Netlist.t) (cone : Cone.t) sources =
  let nw = Netlist.n_wires nl in
  let is_sink w =
    Array.length nl.Netlist.flop_readers.(w) > 0 || nl.Netlist.is_primary_output.(w)
  in
  let cone_gates = Array.of_list cone.Cone.gates in
  let sink_index =
    Array.to_list (Array.mapi (fun i g -> (i, g)) cone_gates)
    |> List.filter_map (fun (i, (g : Netlist.gate)) -> if is_sink g.Netlist.output then Some i else None)
    |> Array.of_list
  in
  (* Support: transitive fanin of border wires, disjoint from the cone. *)
  let in_support = Array.make nw false in
  let stack = ref cone.Cone.border in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | w :: rest ->
      stack := rest;
      if not in_support.(w) then begin
        in_support.(w) <- true;
        match nl.Netlist.driver.(w) with
        | Netlist.Driver_gate gid ->
          Array.iter (fun i -> stack := i :: !stack) nl.Netlist.gates.(gid).Netlist.inputs
        | Netlist.Driver_input | Netlist.Driver_flop _ -> ()
      end
  done;
  let topo_pos = Array.make (Netlist.n_gates nl) 0 in
  Array.iteri (fun pos gid -> topo_pos.(gid) <- pos) nl.Netlist.topo;
  (* Baseline: everything U, then constants propagated through support. *)
  let values = Bytes.make nw (Char.chr vu) in
  let ev =
    {
      nl;
      values;
      baseline = Bytes.make nw (Char.chr vu);
      rows = Array.map (fun (g : Netlist.gate) -> cache_row g.Netlist.cell) cone_gates;
      cone_gates;
      sink_index;
      border_wires = Array.of_list cone.Cone.border;
      in_cone = Array.copy cone.Cone.in_cone;
      in_support;
      topo_pos;
      sources;
      gate_depth = Hashtbl.create 64;
      downstream = Hashtbl.create 64;
      gate_stamp = Array.make (Netlist.n_gates nl) 0;
      pin_stamp = Array.make nw 0;
      stamp = 0;
      touched = [];
    }
  in
  Array.iter
    (fun gid ->
      let g = nl.Netlist.gates.(gid) in
      if in_support.(g.Netlist.output) then Bytes.set values g.Netlist.output (Char.chr (gate_value ev g)))
    nl.Netlist.topo;
  Bytes.blit values 0 ev.baseline 0 nw;
  (* BFS distances of cone gates from the sources. *)
  let seen_wire = Hashtbl.create 64 in
  let frontier = Queue.create () in
  List.iter
    (fun source ->
      Queue.add (source, 0) frontier;
      Hashtbl.replace seen_wire source ())
    sources;
  while not (Queue.is_empty frontier) do
    let w, d = Queue.pop frontier in
    Array.iter
      (fun gid ->
        if not (Hashtbl.mem ev.gate_depth gid) then begin
          Hashtbl.replace ev.gate_depth gid (d + 1);
          let out = nl.Netlist.gates.(gid).Netlist.output in
          if not (Hashtbl.mem seen_wire out) then begin
            Hashtbl.replace seen_wire out ();
            Queue.add (out, d + 1) frontier
          end
        end)
      nl.Netlist.readers.(w)
  done;
  ev

let value ev w = Char.code (Bytes.get ev.values w)
let set_value ev w v = Bytes.set ev.values w (Char.chr v)
let border_wires_of ev = ev.border_wires

(* Support gates downstream of a wire, topologically sorted; memoized per
   cone_eval because candidate literals recur on the same wires. *)
let downstream_gates ev w =
  match Hashtbl.find_opt ev.downstream w with
  | Some gates -> gates
  | None ->
    let seen = Hashtbl.create 32 in
    let rec mark w =
      Array.iter
        (fun gid ->
          let out = ev.nl.Netlist.gates.(gid).Netlist.output in
          if ev.in_support.(out) && not (Hashtbl.mem seen gid) then begin
            Hashtbl.replace seen gid ();
            mark out
          end)
        ev.nl.Netlist.readers.(w)
    in
    mark w;
    let gates = Hashtbl.fold (fun gid () acc -> gid :: acc) seen [] in
    let gates = List.sort (fun a b -> compare ev.topo_pos.(a) ev.topo_pos.(b)) gates in
    Hashtbl.replace ev.downstream w gates;
    gates

(* Candidate evaluation: reset to baseline, apply literals, constant-
   propagate them through the support logic, then evaluate the cone with
   the source marked possibly-faulty. True iff no sink is possibly
   faulty. *)
let validate ev literals =
  List.iter (fun w -> Bytes.set ev.values w (Bytes.get ev.baseline w)) ev.touched;
  ev.touched <- [];
  let touch w = ev.touched <- w :: ev.touched in
  ev.stamp <- ev.stamp + 1;
  let stamp = ev.stamp in
  List.iter
    (fun (l : Term.literal) ->
      set_value ev l.Term.wire (if l.Term.value then v1 else v0);
      ev.pin_stamp.(l.Term.wire) <- stamp;
      touch l.Term.wire)
    literals;
  let dirty =
    List.concat_map (fun (l : Term.literal) -> downstream_gates ev l.Term.wire) literals
    |> List.filter (fun gid ->
           if ev.gate_stamp.(gid) = stamp then false
           else begin
             ev.gate_stamp.(gid) <- stamp;
             true
           end)
    |> List.sort (fun a b -> compare ev.topo_pos.(a) ev.topo_pos.(b))
  in
  List.iter
    (fun gid ->
      let g = ev.nl.Netlist.gates.(gid) in
      (* A literal pins its wire: a support gate driving it must not
         overwrite the constraint (contradictory candidates simply never
         trigger at run time). *)
      if ev.pin_stamp.(g.Netlist.output) <> stamp then begin
        let v = gate_value ev g in
        if v <> value ev g.Netlist.output then begin
          set_value ev g.Netlist.output v;
          touch g.Netlist.output
        end
      end)
    dirty;
  (* Cone evaluation. *)
  List.iter
    (fun source ->
      set_value ev source vf;
      touch source)
    ev.sources;
  let n = Array.length ev.cone_gates in
  for i = 0 to n - 1 do
    let g = ev.cone_gates.(i) in
    let packed = ref 0 in
    let ins = g.Netlist.inputs in
    for pin = 0 to Array.length ins - 1 do
      packed := !packed lor (Char.code (Bytes.get ev.values ins.(pin)) lsl (2 * pin))
    done;
    let v = ev.rows.(i).(!packed) in
    if v <> value ev g.Netlist.output then begin
      set_value ev g.Netlist.output v;
      touch g.Netlist.output
    end
  done;
  Array.for_all (fun i -> value ev ev.cone_gates.(i).Netlist.output <> vf) ev.sink_index

let fault_extent ev =
  let sinks = ref 0 and gates = ref 0 in
  Array.iter
    (fun (g : Netlist.gate) -> if value ev g.Netlist.output = vf then incr gates)
    ev.cone_gates;
  Array.iter
    (fun i -> if value ev ev.cone_gates.(i).Netlist.output = vf then incr sinks)
    ev.sink_index;
  (!sinks * 10_000) + !gates

(* The gate-masking terms available against the gate's currently-faulty
   pins, instantiated to wires. Terms may only constrain non-cone wires;
   literals already satisfied by the current evaluation are dropped, and
   terms contradicting a known support constant are unusable. *)
let dynamic_gate_terms ev (g : Netlist.gate) =
  let dyn_faulty = ref [] in
  Array.iteri (fun pin w -> if value ev w = vf then dyn_faulty := pin :: !dyn_faulty) g.Netlist.inputs;
  match !dyn_faulty with
  | [] -> []
  | faulty ->
    let usable (term : Gm.term) =
      let rec go acc = function
        | [] -> Term.of_literals acc
        | (l : Gm.literal) :: rest ->
          let w = g.Netlist.inputs.(l.Gm.pin) in
          if ev.in_cone.(w) then None
          else begin
            let wanted = if l.Gm.value then v1 else v0 in
            let current = value ev w in
            if current = wanted then go acc rest
            else if current = vu then go ((w, l.Gm.value) :: acc) rest
            else None (* contradicts a propagated constant *)
          end
      in
      go [] term
    in
    List.filter_map usable (Gm.memoized_masking_terms g.Netlist.cell ~faulty)

(* Extension options for the current evaluation: blockable gates on the
   fault frontier within the BFS depth, nearest first. *)
let dynamic_options ev params =
  let with_depth =
    Array.to_list ev.cone_gates
    |> List.filter_map (fun (g : Netlist.gate) ->
           match Hashtbl.find_opt ev.gate_depth g.Netlist.gate_id with
           | Some d when d <= params.depth && value ev g.Netlist.output = vf -> Some (d, g)
           | _ -> None)
  in
  List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2) with_depth
  |> List.concat_map (fun (_, g) -> List.map (fun t -> (g, t)) (dynamic_gate_terms ev g))
  |> List.filteri (fun i _ -> i < params.max_options)

(* Optimistic reachability: evaluate the cone assuming every blockable
   gate within reach is blocked (output U). If a sink is still possibly
   faulty, no combination of gate-masking terms can mask the wire: the
   paper's "path where no gate can mask the fault" early abort, made
   value-aware. *)
let optimistic_escape ev params =
  ignore (validate ev []);
  List.iter (fun w -> Bytes.set ev.values w (Bytes.get ev.baseline w)) ev.touched;
  ev.touched <- [];
  List.iter
    (fun source ->
      set_value ev source vf;
      ev.touched <- source :: ev.touched)
    ev.sources;
  Array.iter
    (fun (g : Netlist.gate) ->
      let v = gate_value ev g in
      let v =
        if v = vf then begin
          let within_depth =
            match Hashtbl.find_opt ev.gate_depth g.Netlist.gate_id with
            | Some d -> d <= params.depth
            | None -> false
          in
          if within_depth && dynamic_gate_terms ev g <> [] then vu else vf
        end
        else v
      in
      set_value ev g.Netlist.output v;
      ev.touched <- g.Netlist.output :: ev.touched)
    ev.cone_gates;
  let escaped =
    Array.exists (fun i -> value ev ev.cone_gates.(i).Netlist.output = vf) ev.sink_index
  in
  escaped

(* Greedy literal minimization: drop literals (in the given order) whose
   removal keeps the candidate valid, producing MATEs that trigger as
   often as possible. *)
let minimize_literals ev literals =
  let rec go kept = function
    | [] -> kept
    | (l : Term.literal) :: rest ->
      let without = kept @ rest in
      if validate ev without then go kept rest else go (kept @ [ l ]) rest
  in
  go [] literals

let minimize_term ev term =
  match
    Term.of_literals
      (List.map
         (fun (l : Term.literal) -> (l.Term.wire, l.Term.value))
         (minimize_literals ev (Term.literals term)))
  with
  | Some t -> t
  | None -> term

(* ------------------------------------------------------------------ *)
(* Trace-seeded candidates: the most frequent border situations of an
   exemplary execution, validated as full cubes and generalized. *)

module Trace = Pruning_sim.Trace

let seeded_mates ev params trace found tried =
  let borders = border_wires_of ev in
  if Array.length borders = 0 then ()
  else begin
    let cycles = Trace.n_cycles trace in
    (* Distance of each border wire: nearest cone gate reading it. *)
    let depth_of w =
      Array.fold_left
        (fun acc gid ->
          match Hashtbl.find_opt ev.gate_depth gid with
          | Some d -> min acc d
          | None -> acc)
        max_int ev.nl.Netlist.readers.(w)
    in
    let tagged = Array.map (fun w -> (w, depth_of w)) borders in
    (* Near borders (selects, enables, decode) define the situation; far
       borders (mostly sibling data) are recorded per representative cycle
       and generalized away during minimization. *)
    let near =
      Array.to_list tagged
      |> List.filter (fun (_, d) -> d <= params.depth)
      |> List.map fst
      |> Array.of_list
    in
    let far =
      Array.to_list tagged
      |> List.filter (fun (_, d) -> d > params.depth)
      |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
      |> List.map fst
    in
    if Array.length near = 0 then ()
    else begin
      (* Representative cycle and frequency per near-border signature. *)
      let classes : (string, int * int) Hashtbl.t = Hashtbl.create 256 in
      let signature cycle =
        String.init (Array.length near) (fun i ->
            if Trace.get trace ~cycle near.(i) then '1' else '0')
      in
      for cycle = 0 to cycles - 1 do
        let s = signature cycle in
        match Hashtbl.find_opt classes s with
        | Some (rep, n) -> Hashtbl.replace classes s (rep, n + 1)
        | None -> Hashtbl.add classes s (cycle, 1)
      done;
      let situations =
        Hashtbl.fold (fun _ (rep, n) acc -> (rep, n) :: acc) classes []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      let literal_at cycle w =
        { Term.wire = w; Term.value = Trace.get trace ~cycle w }
      in
      (* Drop far literals first, in one block when possible. *)
      let near_literals cycle =
        List.map (literal_at cycle) (List.rev (Array.to_list near)) |> List.rev
      in
      let valid_seen = ref 0 in
      List.iter
        (fun (rep, _) ->
          if !valid_seen < params.max_situations && !tried < 4 * params.max_candidates
          then begin
            let near_lits = near_literals rep in
            let far_lits = List.map (literal_at rep) far in
            incr tried;
            if validate ev (far_lits @ near_lits) then begin
              incr valid_seen;
              incr tried;
              let remaining =
                if validate ev near_lits then near_lits (* far block dropped *)
                else far_lits @ near_lits
              in
              tried := !tried + List.length remaining;
              let minimal = minimize_literals ev remaining in
              match
                Term.of_literals
                  (List.map (fun (l : Term.literal) -> (l.Term.wire, l.Term.value)) minimal)
              with
              | Some t -> Hashtbl.replace found t ()
              | None -> ()
            end
          end)
        situations
    end
  end

(* ------------------------------------------------------------------ *)

let search_sources ?(traces = []) nl params wires =
  let wire =
    match wires with
    | [] -> invalid_arg "Search: no faulty wires"
    | w :: _ -> w
  in
  let cone = Cone.compute_multi nl wires in
  let cone_size = Cone.size cone in
  if cone.Cone.source_is_sink then
    { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Unmaskable; time_s = 0. }
  else begin
    let ev = make_cone_eval nl cone wires in
    if Array.length ev.sink_index = 0 then
      { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Mates [ Term.always_true ]; time_s = 0. }
    else if optimistic_escape ev params then
      { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Unmaskable; time_s = 0. }
    else begin
      let tried = ref 0 in
      let found : (Term.t, unit) Hashtbl.t = Hashtbl.create 32 in
      let attempted : (Term.t, unit) Hashtbl.t = Hashtbl.create 512 in
      ignore (validate ev []);
      let n_options = List.length (dynamic_options ev params) in
      (* Beam search, guided by how far each extension shrinks the fault
         frontier. [ev] holds the evaluation of [literals] on entry. *)
      let rec extend literals n_selected parent_extent =
        if !tried < params.max_candidates && n_selected < params.max_terms then begin
          let options = dynamic_options ev params in
          let children = ref [] in
          List.iter
            (fun ((_ : Netlist.gate), term) ->
              if !tried < params.max_candidates then begin
                match Term.conjoin literals term with
                | None -> ()
                | Some conj ->
                  if (not (Term.equal conj literals)) && not (Hashtbl.mem attempted conj) then begin
                    Hashtbl.replace attempted conj ();
                    incr tried;
                    if validate ev (Term.literals conj) then Hashtbl.replace found conj ()
                    else begin
                      let extent = fault_extent ev in
                      if extent < parent_extent then children := (conj, extent) :: !children
                    end
                  end
              end)
            options;
          let beam =
            List.sort (fun (_, a) (_, b) -> compare a b) !children
            |> List.filteri (fun i _ -> i < params.beam)
          in
          List.iter
            (fun (conj, extent) ->
              if !tried < params.max_candidates then begin
                ignore (validate ev (Term.literals conj));
                extend conj (n_selected + 1) extent
              end)
            beam;
          (* Restore the parent evaluation for our caller. *)
          ignore (validate ev (Term.literals literals))
        end
      in
      let initial_extent = fault_extent ev in
      extend Term.always_true 0 (initial_extent + 1);
      List.iter (fun trace -> seeded_mates ev params trace found tried) traces;
      (* Minimize the found candidates (dropping superfluous literals so
         MATEs trigger as often as possible), within a second budget. *)
      let raw = Hashtbl.fold (fun t () acc -> t :: acc) found [] in
      let raw =
        List.sort
          (fun a b -> compare (Term.n_inputs a) (Term.n_inputs b))
          raw
      in
      let minimize_budget = ref params.max_candidates in
      let mates =
        List.map
          (fun t ->
            if !minimize_budget > Term.n_inputs t * Term.n_inputs t then begin
              minimize_budget := !minimize_budget - (Term.n_inputs t * Term.n_inputs t);
              minimize_term ev t
            end
            else t)
          raw
      in
      let mates = List.sort_uniq Term.compare mates in
      (* Keep the cheapest MATEs: they trigger most often and replay cost
         is linear in the retained set size. *)
      let mates =
        List.sort
          (fun a b ->
            match compare (Term.n_inputs a) (Term.n_inputs b) with
            | 0 -> Term.compare a b
            | c -> c)
          mates
        |> List.filteri (fun i _ -> i < params.max_mates)
        |> List.sort Term.compare
      in
      { wire; cone_size; n_options; candidates_tried = !tried; outcome = Mates mates; time_s = 0. }
    end
  end

let search_wire ?traces nl params wire = search_sources ?traces nl params [ wire ]

let search_pair ?traces nl params w1 w2 = search_sources ?traces nl params [ w1; w2 ]

let timed_search_wire ?traces nl params wire =
  let start = Mono.now () in
  let result = search_wire ?traces nl params wire in
  { result with time_s = Mono.now () -. start }

let search_flops ?(params = default_params) ?traces nl flops =
  let start = Mono.now () in
  let flop_results =
    List.map
      (fun (f : Netlist.flop) ->
        { flop = f; result = timed_search_wire ?traces nl params f.Netlist.q })
      flops
  in
  { params; flop_results; runtime_s = Mono.now () -. start }

let restrict report keep =
  let flop_results = List.filter (fun fr -> keep fr.flop) report.flop_results in
  {
    report with
    flop_results;
    runtime_s = List.fold_left (fun acc fr -> acc +. fr.result.time_s) 0. flop_results;
  }

let n_faulty_wires report = List.length report.flop_results

let cone_sizes report = List.map (fun fr -> fr.result.cone_size) report.flop_results

let avg_cone report = Stats.mean_int (cone_sizes report)
let median_cone report = Stats.median_int (cone_sizes report)

let n_unmaskable report =
  List.length
    (List.filter
       (fun fr ->
         match fr.result.outcome with
         | Unmaskable -> true
         | Mates _ -> false)
       report.flop_results)

let total_candidates report =
  List.fold_left (fun acc fr -> acc + fr.result.candidates_tried) 0 report.flop_results

let total_mates report =
  List.fold_left
    (fun acc fr ->
      acc
      +
      match fr.result.outcome with
      | Unmaskable -> 0
      | Mates l -> List.length l)
    0 report.flop_results
