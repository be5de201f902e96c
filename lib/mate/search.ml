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
  domains : int;
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

(* One flat evaluation row per catalogue cell, indexed by {!Cell.index},
   built at module initialisation and never written afterwards, so any
   number of domains may read it. *)
let catalogue_rows =
  Array.of_list (List.map (fun cell -> Array.init 256 (fun packed -> eval_gate_uncached cell packed)) Cell.all)

let cache_row cell = catalogue_rows.(Cell.index cell)

(* ------------------------------------------------------------------ *)
(* Cone evaluation state. Support gates are named by their position in *)
(* the netlist's topological order, so sorting positions sorts gates.  *)

type cone_eval = {
  nl : Netlist.t;
  values : Bytes.t;
      (** per wire: v0/v1/vu/vf. With an empty undo log these are the
          baseline: no literals set, support constants, sources F and the
          cone evaluated over them. *)
  rows : int array array;  (** per cone gate: eval-cache row *)
  cone_gates : Netlist.gate array;  (** topological order *)
  cone_pos : int array;  (** per gate id: index into cone_gates, or -1 *)
  cone_readers : int array array;  (** per cone gate: indices of the cone gates reading its output *)
  cone_stamp : int array;  (** per cone gate: scheduled for re-evaluation in this application *)
  mutable first_pending : int;  (** lowest scheduled cone index *)
  sink_index : int array;  (** indices into cone_gates whose output sinks *)
  border_wires : Netlist.wire array;
  in_cone : bool array;
  in_support : bool array;  (** wires in the transitive fanin of border *)
  topo_pos : int array;  (** per gate id: position in the global topo *)
  support_rows : int array array;  (** per topo position: eval-cache row of a support gate *)
  support_positions : int array;  (** topo positions of the support gates, ascending *)
  sources : Netlist.wire list;
  gate_depth : int array;  (** per gate id: cone-gate BFS distance, [max_int] if none *)
  downstream : int array option array;
      (** per literal-candidate wire: topo positions of the support gates
          downstream of it, ascending (computed on first use) *)
  gate_stamp : int array;  (** per topo position: queued as dirty in this application *)
  mutable stamp : int;
  dirty : int array;  (** topo positions of this application's dirty support gates *)
  mutable lits : Term.literal array;  (** the literals being applied *)
  mutable n_lits : int;
  mutable touched : int array;
      (** undo log: [(wire lsl 2) lor old value] per overwrite since the
          baseline, oldest first *)
  mutable n_touched : int;
  pinned : Bytes.t;  (** per wire: ['\001'] while a literal pins it *)
  mutable pins : int array;  (** pin stack: wires in pinning order *)
  mutable n_pins : int;
  mutable frames : int array;  (** per {!push}: [n_touched] and [n_pins] at the time *)
  mutable n_frames : int;
}

let no_literal = { Term.wire = 0; value = false }

let value ev w = Char.code (Bytes.unsafe_get ev.values w)
let set_value ev w v = Bytes.unsafe_set ev.values w (Char.unsafe_chr v)

let packed_inputs ev (g : Netlist.gate) =
  let packed = ref 0 in
  let ins = g.Netlist.inputs in
  for pin = 0 to Array.length ins - 1 do
    packed := !packed lor (value ev ins.(pin) lsl (2 * pin))
  done;
  !packed

let make_cone_eval (nl : Netlist.t) (cone : Cone.t) sources =
  let nw = Netlist.n_wires nl and ng = Netlist.n_gates nl in
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
  let support_rows =
    Array.map
      (fun gid ->
        let g = nl.Netlist.gates.(gid) in
        if in_support.(g.Netlist.output) then cache_row g.Netlist.cell else [||])
      nl.Netlist.topo
  in
  let support_positions =
    List.init (Array.length support_rows) Fun.id
    |> List.filter (fun pos -> Array.length support_rows.(pos) > 0)
    |> Array.of_list
  in
  let topo_pos = Array.make ng 0 in
  Array.iteri (fun pos gid -> topo_pos.(gid) <- pos) nl.Netlist.topo;
  let cone_pos = Array.make ng (-1) in
  Array.iteri (fun i (g : Netlist.gate) -> cone_pos.(g.Netlist.gate_id) <- i) cone_gates;
  (* Every reader of a cone wire is a cone gate: the cone is a forward
     closure. *)
  let cone_readers =
    Array.map
      (fun (g : Netlist.gate) -> Array.map (fun gid -> cone_pos.(gid)) nl.Netlist.readers.(g.Netlist.output))
      cone_gates
  in
  (* Baseline: everything U, then constants propagated through support,
     then the sources at F propagated through the cone. *)
  let values = Bytes.make nw (Char.chr vu) in
  let ev =
    {
      nl;
      values;
      rows = Array.map (fun (g : Netlist.gate) -> cache_row g.Netlist.cell) cone_gates;
      cone_gates;
      cone_pos;
      cone_readers;
      cone_stamp = Array.make (Array.length cone_gates) 0;
      first_pending = 0;
      sink_index;
      border_wires = Array.of_list cone.Cone.border;
      in_cone = Array.copy cone.Cone.in_cone;
      in_support;
      topo_pos;
      support_rows;
      support_positions;
      sources;
      gate_depth = Array.make ng max_int;
      downstream = Array.make nw None;
      gate_stamp = Array.make ng 0;
      stamp = 0;
      dirty = Array.make (Array.length support_positions) 0;
      lits = Array.make 16 no_literal;
      n_lits = 0;
      touched = Array.make (Array.length cone_gates + 64) 0;
      n_touched = 0;
      pinned = Bytes.make nw '\000';
      pins = Array.make 16 0;
      n_pins = 0;
      frames = Array.make 32 0;
      n_frames = 0;
    }
  in
  Array.iteri
    (fun pos gid ->
      let row = support_rows.(pos) in
      if Array.length row > 0 then begin
        let g = nl.Netlist.gates.(gid) in
        set_value ev g.Netlist.output row.(packed_inputs ev g)
      end)
    nl.Netlist.topo;
  List.iter (fun source -> set_value ev source vf) sources;
  Array.iteri
    (fun i (g : Netlist.gate) -> set_value ev g.Netlist.output ev.rows.(i).(packed_inputs ev g))
    cone_gates;
  (* BFS distances of cone gates from the sources. *)
  let seen_wire = Array.make nw false in
  let frontier = Queue.create () in
  List.iter
    (fun source ->
      Queue.add (source, 0) frontier;
      seen_wire.(source) <- true)
    sources;
  while not (Queue.is_empty frontier) do
    let w, d = Queue.pop frontier in
    Array.iter
      (fun gid ->
        if ev.gate_depth.(gid) = max_int then begin
          ev.gate_depth.(gid) <- d + 1;
          let out = nl.Netlist.gates.(gid).Netlist.output in
          if not seen_wire.(out) then begin
            seen_wire.(out) <- true;
            Queue.add (out, d + 1) frontier
          end
        end)
      nl.Netlist.readers.(w)
  done;
  ev

let border_wires_of ev = ev.border_wires

(* Topo positions of the support gates downstream of a wire, ascending;
   memoized per cone_eval because candidate literals recur on the same
   wires. *)
let downstream_positions ev w =
  match ev.downstream.(w) with
  | Some positions -> positions
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
    let positions = Array.of_seq (Seq.map (fun gid -> ev.topo_pos.(gid)) (Hashtbl.to_seq_keys seen)) in
    Array.sort Int.compare positions;
    ev.downstream.(w) <- Some positions;
    positions

(* ------------------------------------------------------------------ *)
(* Incremental validation. Every overwrite of a wire value goes on an  *)
(* undo log with the value it replaced, and every literal pin on a pin *)
(* stack, so {!push} and {!pop} bracket a set of literals applied on   *)
(* top of the current state. Nothing below allocates once the buffers  *)
(* have grown to the search's working size.                            *)

let grow stack n fill =
  let grown = Array.make (2 * n) fill in
  Array.blit stack 0 grown 0 n;
  grown

(* Overwrite a wire value, logging the old one. *)
let assign ev w v =
  if ev.n_touched = Array.length ev.touched then ev.touched <- grow ev.touched ev.n_touched 0;
  ev.touched.(ev.n_touched) <- (w lsl 2) lor value ev w;
  ev.n_touched <- ev.n_touched + 1;
  set_value ev w v

let is_pinned ev w = Bytes.unsafe_get ev.pinned w <> '\000'

let pin ev w =
  if not (is_pinned ev w) then begin
    Bytes.unsafe_set ev.pinned w '\001';
    if ev.n_pins = Array.length ev.pins then ev.pins <- grow ev.pins ev.n_pins 0;
    ev.pins.(ev.n_pins) <- w;
    ev.n_pins <- ev.n_pins + 1
  end

(* Undo the log down to [n_touched] entries and the pins down to [n_pins],
   newest first, so a wire overwritten twice gets its oldest value back. *)
let unwind ev ~n_touched ~n_pins =
  for i = ev.n_touched - 1 downto n_touched do
    let entry = ev.touched.(i) in
    set_value ev (entry lsr 2) (entry land 3)
  done;
  ev.n_touched <- n_touched;
  for i = ev.n_pins - 1 downto n_pins do
    Bytes.unsafe_set ev.pinned ev.pins.(i) '\000'
  done;
  ev.n_pins <- n_pins

let push ev =
  if ev.n_frames + 2 > Array.length ev.frames then ev.frames <- grow ev.frames ev.n_frames 0;
  ev.frames.(ev.n_frames) <- ev.n_touched;
  ev.frames.(ev.n_frames + 1) <- ev.n_pins;
  ev.n_frames <- ev.n_frames + 2

(* Back to the state of the matching {!push}. *)
let pop ev =
  if ev.n_frames = 0 then invalid_arg "Search.Cone_eval.pop: no frame";
  ev.n_frames <- ev.n_frames - 2;
  unwind ev ~n_touched:ev.frames.(ev.n_frames) ~n_pins:ev.frames.(ev.n_frames + 1)

(* Drop every frame: values return to baseline, nothing is pinned. *)
let reset ev =
  ev.n_frames <- 0;
  unwind ev ~n_touched:0 ~n_pins:0

let push_literal ev (l : Term.literal) =
  if ev.n_lits = Array.length ev.lits then ev.lits <- grow ev.lits ev.n_lits no_literal;
  ev.lits.(ev.n_lits) <- l;
  ev.n_lits <- ev.n_lits + 1

let rec push_literals ev = function
  | [] -> ()
  | l :: rest ->
    push_literal ev l;
    push_literals ev rest

(* Load the literals of [conj] whose wire [parent] does not constrain;
   both are sorted by wire and [conj] extends [parent]. *)
let rec push_added ev conj parent =
  match (conj, parent) with
  | [], _ -> ()
  | (l : Term.literal) :: rest, [] ->
    push_literal ev l;
    push_added ev rest []
  | (l : Term.literal) :: rest, (p : Term.literal) :: prest ->
    if l.Term.wire = p.Term.wire then push_added ev rest prest
    else begin
      push_literal ev l;
      push_added ev rest parent
    end

let schedule ev i =
  ev.cone_stamp.(i) <- ev.stamp;
  if i < ev.first_pending then ev.first_pending <- i

(* The cone gates reading [w] must be re-evaluated. *)
let schedule_readers ev w =
  let readers = ev.nl.Netlist.readers.(w) in
  for k = 0 to Array.length readers - 1 do
    let i = ev.cone_pos.(readers.(k)) in
    if i >= 0 then schedule ev i
  done

(* A value forced onto a cone gate's output is overwritten when that gate
   is evaluated, so it is re-evaluated too. *)
let schedule_driver ev w =
  match ev.nl.Netlist.driver.(w) with
  | Netlist.Driver_gate gid when ev.cone_pos.(gid) >= 0 -> schedule ev ev.cone_pos.(gid)
  | Netlist.Driver_gate _ | Netlist.Driver_input | Netlist.Driver_flop _ -> ()

(* Put the sources back to F where a literal overrode them. *)
let rec force_sources ev = function
  | [] -> ()
  | source :: rest ->
    if value ev source <> vf then begin
      assign ev source vf;
      schedule_readers ev source;
      schedule_driver ev source
    end;
    force_sources ev rest

(* Apply the loaded literals on top of the current state: pin them,
   constant-propagate them through the support logic, then re-evaluate the
   cone with the sources marked possibly-faulty. True iff no sink is
   possibly faulty. Only gates downstream of the new literals are
   re-evaluated, in topological order; support and cone form a DAG of pure
   table lookups, so starting from the fixpoint of some literals this
   reaches the same fixpoint as a run from the baseline with those
   literals and the new ones. *)
let apply_loaded ev =
  ev.stamp <- ev.stamp + 1;
  ev.first_pending <- Array.length ev.cone_gates;
  let stamp = ev.stamp in
  let n_dirty = ref 0 and contributors = ref 0 in
  for k = 0 to ev.n_lits - 1 do
    let l = ev.lits.(k) in
    let w = l.Term.wire in
    assign ev w (if l.Term.value then v1 else v0);
    pin ev w;
    schedule_readers ev w;
    schedule_driver ev w;
    let down = downstream_positions ev w in
    if Array.length down > 0 then incr contributors;
    for j = 0 to Array.length down - 1 do
      let pos = down.(j) in
      if ev.gate_stamp.(pos) <> stamp then begin
        ev.gate_stamp.(pos) <- stamp;
        ev.dirty.(!n_dirty) <- pos;
        incr n_dirty
      end
    done
  done;
  (* One literal's downstream positions are already ascending; the union
     of several is put in topological order in place, by one pass over the
     support that gathers the stamped positions. *)
  if !contributors > 1 then begin
    let k = ref 0 in
    for j = 0 to Array.length ev.support_positions - 1 do
      let pos = ev.support_positions.(j) in
      if ev.gate_stamp.(pos) = stamp then begin
        ev.dirty.(!k) <- pos;
        incr k
      end
    done
  end;
  let nl = ev.nl in
  for k = 0 to !n_dirty - 1 do
    let pos = ev.dirty.(k) in
    let g = nl.Netlist.gates.(nl.Netlist.topo.(pos)) in
    let out = g.Netlist.output in
    (* A literal pins its wire: a support gate driving it must not
       overwrite the constraint (contradictory candidates simply never
       trigger at run time). *)
    if not (is_pinned ev out) then begin
      let v = ev.support_rows.(pos).(packed_inputs ev g) in
      if v <> value ev out then begin
        assign ev out v;
        schedule_readers ev out
      end
    end
  done;
  (* Cone evaluation. *)
  force_sources ev ev.sources;
  for i = ev.first_pending to Array.length ev.cone_gates - 1 do
    if ev.cone_stamp.(i) = stamp then begin
      let g = ev.cone_gates.(i) in
      let v = ev.rows.(i).(packed_inputs ev g) in
      if v <> value ev g.Netlist.output then begin
        assign ev g.Netlist.output v;
        let readers = ev.cone_readers.(i) in
        for k = 0 to Array.length readers - 1 do
          ev.cone_stamp.(readers.(k)) <- stamp
        done
      end
    end
  done;
  let masked = ref true in
  for k = 0 to Array.length ev.sink_index - 1 do
    if value ev ev.cone_gates.(ev.sink_index.(k)).Netlist.output = vf then masked := false
  done;
  !masked

(* From-scratch validation of the loaded literals. *)
let validate_loaded ev =
  reset ev;
  apply_loaded ev

let validate ev literals =
  ev.n_lits <- 0;
  push_literals ev literals;
  validate_loaded ev

let extend ev literals =
  ev.n_lits <- 0;
  push_literals ev literals;
  apply_loaded ev

(* Apply [conj] on top of the evaluation of [parent], which it extends. *)
let extend_by ev conj parent =
  ev.n_lits <- 0;
  push_added ev (Term.literals conj) (Term.literals parent);
  apply_loaded ev

let fault_extent ev =
  let sinks = ref 0 and gates = ref 0 in
  for i = 0 to Array.length ev.cone_gates - 1 do
    if value ev ev.cone_gates.(i).Netlist.output = vf then incr gates
  done;
  for k = 0 to Array.length ev.sink_index - 1 do
    if value ev ev.cone_gates.(ev.sink_index.(k)).Netlist.output = vf then incr sinks
  done;
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

(* The cone gates within the BFS depth, nearest first and in topological
   order within one distance: the order in which options are offered. *)
let near_gates ev params =
  Array.to_list ev.cone_gates
  |> List.filter (fun (g : Netlist.gate) -> ev.gate_depth.(g.Netlist.gate_id) <= params.depth)
  |> List.stable_sort (fun (a : Netlist.gate) (b : Netlist.gate) ->
         Int.compare ev.gate_depth.(a.Netlist.gate_id) ev.gate_depth.(b.Netlist.gate_id))
  |> Array.of_list

(* Extension options for the current evaluation: the first [max_options]
   (gate, term) pairs of the blockable [near] gates on the fault
   frontier. *)
let dynamic_options ev near params =
  let rec collect i n acc =
    if i = Array.length near || n >= params.max_options then acc
    else begin
      let g = near.(i) in
      if value ev g.Netlist.output <> vf then collect (i + 1) n acc
      else begin
        let options = List.map (fun t -> (g, t)) (dynamic_gate_terms ev g) in
        collect (i + 1) (n + List.length options) (List.rev_append options acc)
      end
    end
  in
  List.rev (collect 0 0 []) |> List.filteri (fun i _ -> i < params.max_options)

(* Optimistic reachability: evaluate the cone assuming every blockable
   gate within reach is blocked (output U). If a sink is still possibly
   faulty, no combination of gate-masking terms can mask the wire: the
   paper's "path where no gate can mask the fault" early abort, made
   value-aware. *)
let optimistic_escape ev params =
  reset ev;
  Array.iteri
    (fun i (g : Netlist.gate) ->
      let v = ev.rows.(i).(packed_inputs ev g) in
      let v =
        if v = vf && ev.gate_depth.(g.Netlist.gate_id) <= params.depth && dynamic_gate_terms ev g <> []
        then vu
        else v
      in
      assign ev g.Netlist.output v)
    ev.cone_gates;
  Array.exists (fun i -> value ev ev.cone_gates.(i).Netlist.output = vf) ev.sink_index

(* Literal minimization: drop literals (in the given order) whose removal
   keeps the candidate valid, producing MATEs that trigger as often as
   possible. The result is that of the greedy loop which tries each
   literal in turn, dropping it if the others still validate; it is found
   by bisection instead. After the kept literals [K] before position [p],
   the greedy loop drops [p .. p + r - 1] and keeps [p + r] iff [K] with
   the literals from [p + r] on validates and [K] with those from
   [p + r + 1] on does not. Validity is monotone in the literal set when
   the literals agree with the golden values (a literal then only refines
   a U wire to its constant), so the longest droppable run is found by
   binary search: O(k log m) validations for [k] kept literals out of [m],
   against [m] for the loop. A beam term whose literals contradict each
   other through the support can break monotonicity; the result may then
   differ from the loop's. Precondition: [literals] is valid. *)
let minimize_literals ev literals =
  let lits = Array.of_list literals in
  let m = Array.length lits in
  let kept = Array.make m false in
  (* The kept literals before [from], then every literal from [from] on. *)
  let valid_from from =
    ev.n_lits <- 0;
    for j = 0 to m - 1 do
      if j >= from || kept.(j) then push_literal ev lits.(j)
    done;
    validate_loaded ev
  in
  let p = ref 0 in
  while !p < m do
    (* Largest run [r] with [valid_from (!p + r)]; [r = 0] holds. *)
    let lo = ref 0 and hi = ref (m - !p + 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if valid_from (!p + mid) then lo := mid else hi := mid
    done;
    if !p + !lo < m then kept.(!p + !lo) <- true;
    p := !p + !lo + 1
  done;
  List.filteri (fun i _ -> kept.(i)) literals

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

type situation = {
  rep : int;  (** first cycle showing the signature *)
  mutable count : int;
}

let seeded_mates ev params trace found tried =
  let borders = border_wires_of ev in
  if Array.length borders = 0 then ()
  else begin
    let cycles = Trace.n_cycles trace in
    (* Distance of each border wire: nearest cone gate reading it. *)
    let depth_of w =
      Array.fold_left (fun acc gid -> Int.min acc ev.gate_depth.(gid)) max_int ev.nl.Netlist.readers.(w)
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
      (* Representative cycle and frequency per near-border signature,
         read into one scratch buffer; only a new signature is copied into
         a key. *)
      let classes : (string, situation) Hashtbl.t = Hashtbl.create ~random:false 256 in
      let signature = Bytes.create (Array.length near) in
      let near_byte = Array.map (fun w -> w lsr 3) near in
      let near_mask = Array.map (fun w -> 1 lsl (w land 7)) near in
      (* A run of cycles with one signature costs no table lookup. *)
      let current = ref { rep = 0; count = 0 } in
      for cycle = 0 to cycles - 1 do
        let row = Trace.row_bytes trace ~cycle in
        let same = ref (cycle > 0) in
        for i = 0 to Array.length near - 1 do
          let bit = if Char.code (Bytes.get row near_byte.(i)) land near_mask.(i) <> 0 then '1' else '0' in
          if Bytes.unsafe_get signature i <> bit then begin
            Bytes.unsafe_set signature i bit;
            same := false
          end
        done;
        if not !same then
          current :=
            (match Hashtbl.find_opt classes (Bytes.unsafe_to_string signature) with
            | Some situation -> situation
            | None ->
              let situation = { rep = cycle; count = 0 } in
              Hashtbl.add classes (Bytes.to_string signature) situation;
              situation);
        !current.count <- !current.count + 1
      done;
      let situations =
        Hashtbl.fold (fun _ { rep; count } acc -> (rep, count) :: acc) classes []
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

(* Candidates already tried. [Hashtbl.hash] reads only a term's first few
   literals, which sibling candidates share, so the key hashes them all. *)
module Attempted = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal

  let hash t =
    List.fold_left
      (fun h (l : Term.literal) -> (31 * h) + (2 * l.Term.wire) + Bool.to_int l.Term.value)
      0 (Term.literals t)
    land max_int
end)

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
      (* Not randomized: the MATE set depends on the order of equal-size
         terms folded out of [found] (and of equal-count situations out of
         [classes]), which must not vary with OCAMLRUNPARAM. *)
      let found : (Term.t, unit) Hashtbl.t = Hashtbl.create ~random:false 32 in
      let attempted = Attempted.create 512 in
      ignore (validate ev []);
      let near = near_gates ev params in
      let n_options = List.length (dynamic_options ev near params) in
      (* Beam search, guided by how far each extension shrinks the fault
         frontier. [ev] holds the evaluation of [literals] on entry and on
         exit: each candidate and each beam child is applied in a frame of
         its own on top of it. *)
      let rec extend literals n_selected parent_extent =
        if !tried < params.max_candidates && n_selected < params.max_terms then begin
          let options = dynamic_options ev near params in
          let children = ref [] in
          List.iter
            (fun ((_ : Netlist.gate), term) ->
              if !tried < params.max_candidates then begin
                match Term.conjoin literals term with
                | None -> ()
                | Some conj ->
                  if (not (Term.equal conj literals)) && not (Attempted.mem attempted conj) then begin
                    Attempted.replace attempted conj ();
                    incr tried;
                    push ev;
                    if extend_by ev conj literals then Hashtbl.replace found conj ()
                    else begin
                      let extent = fault_extent ev in
                      if extent < parent_extent then children := (conj, extent) :: !children
                    end;
                    pop ev
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
                push ev;
                ignore (extend_by ev conj literals);
                extend conj (n_selected + 1) extent;
                pop ev
              end)
            beam
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

let domains_for ?jobs n_flops =
  let jobs = match jobs with Some j -> j | None -> Domain.recommended_domain_count () in
  if jobs < 1 then invalid_arg "Search.search_flops: jobs must be positive";
  max 1 (min jobs n_flops)

(* Domains pull flop indices from one atomic counter and write each result
   into the flop's own slot, so the report is in flop order whatever the
   schedule. The first exception stops the pulling and is re-raised once
   every domain has been joined. *)
let search_flops ?(params = default_params) ?traces ?jobs nl flops =
  let start = Mono.now () in
  let flops = Array.of_list flops in
  let n = Array.length flops in
  let slots = Array.make n None in
  let next = Atomic.make 0 and failure = Atomic.make None in
  let fail e bt =
    ignore (Atomic.compare_and_set failure None (Some (e, bt)));
    Atomic.set next n
  in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match timed_search_wire ?traces nl params flops.(i).Netlist.q with
      | result -> slots.(i) <- Some { flop = flops.(i); result }
      | exception e -> fail e (Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let spawn helpers _ =
    match Domain.spawn work with
    | d -> d :: helpers
    | exception e ->
      fail e (Printexc.get_raw_backtrace ());
      helpers
  in
  let helpers = List.fold_left spawn [] (List.init (domains_for ?jobs n - 1) Fun.id) in
  work ();
  List.iter Domain.join helpers;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
  {
    params;
    flop_results = Array.to_list (Array.map Option.get slots);
    runtime_s = Mono.now () -. start;
    domains = List.length helpers + 1;
  }

let wire_time_s report = List.fold_left (fun acc fr -> acc +. fr.result.time_s) 0. report.flop_results

let restrict report keep =
  let report = { report with flop_results = List.filter (fun fr -> keep fr.flop) report.flop_results } in
  { report with runtime_s = wire_time_s report }

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

let summary report =
  Printf.sprintf "MATE search: %d wires on %d domains, %.2fs wall, %.2fs summed over wires"
    (n_faulty_wires report) report.domains report.runtime_s (wire_time_s report)

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

module Cone_eval = struct
  type t = cone_eval

  let create = make_cone_eval
  let validate = validate
  let push = push
  let extend = extend
  let pop = pop
  let pinned = is_pinned
  let minimize = minimize_literals
  let fault_extent = fault_extent
  let value = value
end
