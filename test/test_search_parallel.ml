open Helpers
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs

(* The domain-parallel search driver and the incremental cone evaluator
   behind candidate validation: the report must not depend on the number
   of domains, and every validation must equal a from-scratch ternary
   evaluation of the whole support and cone. *)

let zero_times (r : Search.report) =
  {
    r with
    Search.runtime_s = 0.;
    domains = 0;
    flop_results =
      List.map
        (fun (fr : Search.flop_result) ->
          { fr with Search.result = { fr.Search.result with Search.time_s = 0. } })
        r.Search.flop_results;
  }

(* Search with 1 and [jobs] domains; the reports, MATE sets and pruned
   fault counts must be equal. Returns the [jobs] report. *)
let check_jobs_invariant ~params ~trace ~space ~jobs nl flops =
  let search jobs = Search.search_flops ~params ~traces:[ trace ] ~jobs nl flops in
  let one = search 1 and many = search jobs in
  check_bool "reports equal apart from times" true (zero_times one = zero_times many);
  let set_one = Mateset.of_report one and set_many = Mateset.of_report many in
  check_bool "MATE sets equal" true (set_one = set_many);
  let masked set = Replay.pruner_masked_count (Replay.pruner set (Replay.triggers set trace) ~space ()) in
  check_int "pruned faults equal" (masked set_one) (masked set_many);
  check_int "one domain recorded" 1 one.Search.domains;
  many

let small_params = { Search.default_params with Search.max_candidates = 50; max_situations = 2 }

let avr_setup =
  lazy
    (let nl = System.avr_netlist () in
     let program = Avr_asm.assemble Programs.avr_fib in
     let trace = System.record (System.create_avr ~netlist:nl ~program "avr/fib") ~cycles:120 in
     (nl, trace))

let avr_ff_wo_rf = lazy (Netlist.flops_excluding (fst (Lazy.force avr_setup)) ~prefix:"rf_")

let avr_space () =
  let nl, trace = Lazy.force avr_setup in
  Fault_space.without_prefix nl ~prefix:"rf_" ~cycles:(Trace.n_cycles trace)

(* The jobs:4 report of the AVR "FF w/o RF" search, checked against
   jobs:1 on first use. *)
let avr_report =
  lazy
    (let nl, trace = Lazy.force avr_setup in
     check_jobs_invariant ~params:small_params ~trace ~space:(avr_space ()) ~jobs:4 nl
       (Lazy.force avr_ff_wo_rf))

let test_avr_jobs_invariant () =
  let flops = Lazy.force avr_ff_wo_rf in
  let report = Lazy.force avr_report in
  check_int "every flop searched, in order"
    (List.length flops) (Search.n_faulty_wires report);
  check_bool "flop order kept" true
    (List.map (fun (fr : Search.flop_result) -> fr.Search.flop) report.Search.flop_results = flops)

(* The search's results, pinned: a change to what the search computes
   moves these, while jobs-invariance holds either way. Every figure is
   also independent of OCAMLRUNPARAM's hashtable randomization. *)
let test_avr_search_pinned () =
  let _, trace = Lazy.force avr_setup in
  let report = Lazy.force avr_report in
  let set = Mateset.of_report report in
  check_int "unmaskable wires" 28 (Search.n_unmaskable report);
  check_int "candidates tried" 9519 (Search.total_candidates report);
  check_int "MATEs" 51 (Search.total_mates report);
  check_int "distinct MATEs" 39 (Mateset.size set);
  check_int "pruned faults" 339
    (Replay.pruner_masked_count (Replay.pruner set (Replay.triggers set trace) ~space:(avr_space ()) ()))

let figure1_trace nl =
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  let rng = Prng.create 5 in
  for _ = 1 to 16 do
    List.iter (fun name -> Sim.set_port sim (name ^ "_in") (Prng.int rng 2)) [ "a"; "b"; "c"; "d"; "e" ];
    Sim.step sim ~trace ()
  done;
  trace

let test_figure1_more_jobs_than_flops () =
  let nl = figure1_seq_netlist () in
  let trace = figure1_trace nl in
  let space = Fault_space.full nl ~cycles:(Trace.n_cycles trace) in
  let flops = Array.to_list nl.Netlist.flops in
  let report =
    check_jobs_invariant ~params:Search.default_params ~trace ~space ~jobs:(2 * List.length flops) nl
      flops
  in
  check_int "five wires" 5 (Search.n_faulty_wires report);
  check_int "domains capped at the flop count" 5 report.Search.domains;
  check_bool "summary names the recorded domain count" true
    (Scanf.sscanf (Search.summary report) "MATE search: %d wires on %d domains" (fun w d -> w = 5 && d = 5))

let test_exception_after_join () =
  let nl = figure1_seq_netlist () in
  let flops = Array.to_list nl.Netlist.flops in
  let bogus = { (List.hd flops) with Netlist.q = Netlist.n_wires nl + 7 } in
  let flops = List.concat [ flops; [ bogus ]; flops ] in
  (match Search.search_flops ~jobs:3 nl flops with
  | _ -> Alcotest.fail "a wire outside the netlist must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Search.search_flops: jobs must be positive") (fun () ->
      ignore (Search.search_flops ~jobs:0 nl flops))

(* ------------------------------------------------------------------ *)
(* From-scratch reference of candidate validation.                     *)

(* Ternary gate by brute force over every 0/1 completion: F iff some
   setting of the U pins lets the F pins change the output, else U iff the
   U pins do, else the constant. *)
let reference_gate (cell : Cell.t) (vals : int array) =
  let n = Array.length vals in
  let consistent p =
    let ok = ref true in
    Array.iteri
      (fun i v ->
        let bit = p land (1 lsl i) <> 0 in
        if (v = 0 && bit) || (v = 1 && not bit) then ok := false)
      vals;
    !ok
  in
  let umask = ref 0 in
  Array.iteri (fun i v -> if v = 2 then umask := !umask lor (1 lsl i)) vals;
  let outs =
    List.filter consistent (List.init (1 lsl n) Fun.id)
    |> List.map (fun p -> (p land !umask, Cell.eval_pattern cell p))
  in
  if List.exists (fun (u, o) -> List.exists (fun (u', o') -> u = u' && o <> o') outs) outs then 3
  else
    match List.sort_uniq compare (List.map snd outs) with
    | [ o ] -> if o then 1 else 0
    | _ -> 2

(* The support: the transitive fanin of the border. *)
let support_of (nl : Netlist.t) (cone : Cone.t) =
  let in_support = Array.make (Netlist.n_wires nl) false in
  let rec mark w =
    if not in_support.(w) then begin
      in_support.(w) <- true;
      match nl.Netlist.driver.(w) with
      | Netlist.Driver_gate gid -> Array.iter mark nl.Netlist.gates.(gid).Netlist.inputs
      | Netlist.Driver_input | Netlist.Driver_flop _ -> ()
    end
  in
  List.iter mark cone.Cone.border;
  in_support

(* Every wire at U, literals pinned, every support gate re-evaluated in
   topological order, then the sources at F and every cone gate. *)
let reference_values (nl : Netlist.t) (cone : Cone.t) sources literals =
  let nw = Netlist.n_wires nl in
  let in_support = support_of nl cone in
  let v = Array.make nw 2 and pinned = Array.make nw false in
  List.iter
    (fun (l : Term.literal) ->
      v.(l.Term.wire) <- (if l.Term.value then 1 else 0);
      pinned.(l.Term.wire) <- true)
    literals;
  let eval (g : Netlist.gate) = reference_gate g.Netlist.cell (Array.map (fun w -> v.(w)) g.Netlist.inputs) in
  Array.iter
    (fun gid ->
      let g = nl.Netlist.gates.(gid) in
      if in_support.(g.Netlist.output) && not pinned.(g.Netlist.output) then v.(g.Netlist.output) <- eval g)
    nl.Netlist.topo;
  List.iter (fun s -> v.(s) <- 3) sources;
  Array.iter
    (fun gid ->
      let g = nl.Netlist.gates.(gid) in
      if cone.Cone.in_cone.(g.Netlist.output) then v.(g.Netlist.output) <- eval g)
    nl.Netlist.topo;
  v

let is_sink (nl : Netlist.t) w =
  Array.length nl.Netlist.flop_readers.(w) > 0 || nl.Netlist.is_primary_output.(w)

let reference_extent (nl : Netlist.t) (cone : Cone.t) v =
  let f_gates = List.filter (fun (g : Netlist.gate) -> v.(g.Netlist.output) = 3) cone.Cone.gates in
  let f_sinks = List.filter (fun (g : Netlist.gate) -> is_sink nl g.Netlist.output) f_gates in
  (10_000 * List.length f_sinks) + List.length f_gates

(* y = AND2(x, TIEL) -> BUF -> z: with both x and y faulty, y's driver
   masks x through a support constant, so the driver's value, not F,
   reaches z. *)
let tied_netlist () =
  let b = Netlist.Builder.create "tied" in
  let wire = Netlist.Builder.add_wire b in
  let x = wire "x" and t = wire "t" and y = wire "y" and z = wire "z" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.TIEL) [||] t;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.AND2) [| x; t |] y;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.BUF) [| y |] z;
  Netlist.Builder.add_input_port b "x" [| x |];
  Netlist.Builder.add_output_port b "z" [| z |];
  Netlist.Builder.finalize b

(* Maskable cones: Figure 1's free wires, a spread of AVR flops outside
   the register file, and joint cones of wire pairs (some with the second
   wire inside the first one's cone, as [search_pair] allows). *)
let oracle_cones =
  lazy
    (let figure1 = figure1_netlist () in
     let avr, _ = Lazy.force avr_setup in
     let avr_wires =
       List.filteri (fun i _ -> i mod 5 = 0) (Netlist.flops_excluding avr ~prefix:"rf_")
       |> List.map (fun (f : Netlist.flop) -> f.Netlist.q)
     in
     let fig names = (figure1, List.map (Netlist.find_wire figure1) names) in
     let rec avr_pairs = function
       | w1 :: (w2 :: _ as rest) -> (avr, [ w1; w2 ]) :: avr_pairs rest
       | [ _ ] | [] -> []
     in
     List.map (fun name -> fig [ name ]) [ "a"; "b"; "c"; "d"; "e" ]
     @ List.map fig [ [ "d"; "g" ]; [ "a"; "f" ]; [ "a"; "d" ]; [ "c"; "e" ] ]
     @ (let tied = tied_netlist () in
        [ (tied, List.map (Netlist.find_wire tied) [ "x"; "y" ]) ])
     @ List.map (fun w -> (avr, [ w ])) avr_wires
     @ avr_pairs avr_wires
     |> List.filter_map (fun (nl, sources) ->
            let cone = Cone.compute_multi nl sources in
            if cone.Cone.source_is_sink || cone.Cone.border = [] then None
            else Some (nl, cone, sources, Array.of_list cone.Cone.border))
     |> Array.of_list)

let prop_validate_matches_reference =
  QCheck2.Test.make ~name:"search: incremental validate = from-scratch evaluation" ~count:150
    QCheck2.Gen.(
      pair (int_range 0 1_000)
        (list_size (int_range 1 5) (list_size (int_range 0 8) (pair (int_range 0 1_000) bool))))
    (fun (pick, sequence) ->
      let cones = Lazy.force oracle_cones in
      let nl, cone, sources, border = cones.(pick mod Array.length cones) in
      let ev = Search.Cone_eval.create nl cone sources in
      (* One evaluator across the whole sequence: stale touched wires or
         stamps from an earlier validation would show in a later one. *)
      List.for_all
        (fun picks ->
          let literals =
            List.map
              (fun (i, value) -> { Term.wire = border.(i mod Array.length border); value })
              picks
          in
          let valid = Search.Cone_eval.validate ev literals in
          let v = reference_values nl cone sources literals in
          let masked =
            not
              (List.exists
                 (fun (g : Netlist.gate) -> v.(g.Netlist.output) = 3 && is_sink nl g.Netlist.output)
                 cone.Cone.gates)
          in
          valid = masked
          && Search.Cone_eval.fault_extent ev = reference_extent nl cone v
          && List.for_all
               (fun w -> Search.Cone_eval.value ev w = v.(w))
               (List.init (Netlist.n_wires nl) Fun.id))
        sequence)

(* ------------------------------------------------------------------ *)
(* Stacked evaluation: literals applied in frames on top of each other. *)

type op =
  | Push
  | Extend of (int * bool) list
  | Pop
  | Validate of (int * bool) list

let gen_op =
  QCheck2.Gen.(
    let picks = list_size (int_range 0 4) (pair (int_range 0 10_000) bool) in
    frequency
      [
        (3, pure Push);
        (4, map (fun p -> Extend p) picks);
        (3, pure Pop);
        (1, map (fun p -> Validate p) picks);
      ])

(* After every step the evaluator must hold the from-scratch evaluation of
   the union of the literals in its open frames, pin exactly their wires,
   and every pop must give back the values and pins of its push. Literals
   fall on border wires and on support wires further upstream, so a pin
   left behind by a pop shows when a later literal reaches its driver. *)
let prop_stacked_matches_reference =
  QCheck2.Test.make ~name:"search: stacked push/extend/pop = from-scratch evaluation" ~count:150
    QCheck2.Gen.(pair (int_range 0 1_000) (list_size (int_range 1 24) gen_op))
    (fun (pick, ops) ->
      let cones = Lazy.force oracle_cones in
      let nl, cone, sources, border = cones.(pick mod Array.length cones) in
      let nw = Netlist.n_wires nl in
      let in_support = support_of nl cone in
      let support = Array.of_list (List.filter (fun w -> in_support.(w)) (List.init nw Fun.id)) in
      let wire_of i =
        if i land 1 = 0 then border.(i / 2 mod Array.length border)
        else support.(i / 2 mod Array.length support)
      in
      (* One literal per wire, the first; none against [current]. *)
      let literals current picks =
        List.fold_left
          (fun acc (i, value) ->
            let w = wire_of i in
            let clash (l : Term.literal) = l.Term.wire = w in
            if List.exists clash acc then acc
            else
              match List.find_opt clash current with
              | Some l when l.Term.value <> value -> acc
              | Some _ | None -> { Term.wire = w; value } :: acc)
          [] picks
        |> List.rev
      in
      let ev = Search.Cone_eval.create nl cone sources in
      let state () =
        Array.init nw (fun w -> (Search.Cone_eval.value ev w, Search.Cone_eval.pinned ev w))
      in
      let matches valid current =
        let v = reference_values nl cone sources current in
        let masked =
          not
            (List.exists
               (fun (g : Netlist.gate) -> v.(g.Netlist.output) = 3 && is_sink nl g.Netlist.output)
               cone.Cone.gates)
        in
        let pinned = Array.make nw false in
        List.iter (fun (l : Term.literal) -> pinned.(l.Term.wire) <- true) current;
        Option.fold ~none:true ~some:(fun valid -> valid = masked) valid
        && Search.Cone_eval.fault_extent ev = reference_extent nl cone v
        && state () = Array.init nw (fun w -> (v.(w), pinned.(w)))
      in
      (* [current]: the union of the open frames' literals; [frames]: per
         open frame, the union and the state at its push. *)
      let rec run current frames = function
        | [] -> true
        | Push :: rest ->
          Search.Cone_eval.push ev;
          run current ((current, state ()) :: frames) rest
        | Pop :: rest -> (
          match frames with
          | [] -> (
            match Search.Cone_eval.pop ev with
            | () -> false
            | exception Invalid_argument _ -> run current frames rest)
          | (parent, pushed) :: frames ->
            Search.Cone_eval.pop ev;
            state () = pushed && matches None parent && run parent frames rest)
        | Extend picks :: rest ->
          let added = literals current picks in
          let valid = Search.Cone_eval.extend ev added in
          let current = current @ List.filter (fun l -> not (List.mem l current)) added in
          matches (Some valid) current && run current frames rest
        | Validate picks :: rest ->
          let current = literals [] picks in
          let valid = Search.Cone_eval.validate ev current in
          matches (Some valid) current && run current [] rest
      in
      ignore (Search.Cone_eval.validate ev []);
      run [] [] ops)

(* ------------------------------------------------------------------ *)
(* Literal minimization against the one-at-a-time greedy loop.          *)

let greedy_minimize ev literals =
  let kept = Array.make (List.length literals) true in
  List.iteri
    (fun i _ ->
      let others = List.filteri (fun j _ -> j <> i && kept.(j)) literals in
      if Search.Cone_eval.validate ev others then kept.(i) <- false)
    literals;
  List.filteri (fun i _ -> kept.(i)) literals

(* Random input-port values, one row per cycle: a golden run of a
   combinational netlist. *)
let port_trace (nl : Netlist.t) =
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  let rng = Prng.create 3 in
  for _ = 1 to 32 do
    List.iter
      (fun (p : Netlist.port) ->
        Sim.set_port sim p.Netlist.port_name (Prng.int rng (1 lsl Array.length p.Netlist.port_wires)))
      nl.Netlist.inputs;
    Sim.step sim ~trace ()
  done;
  trace

(* Full border cubes read off trace rows agree with a golden run, so
   validity is monotone in them and bisection must keep exactly the
   literals the greedy loop keeps, in any literal order. *)
let prop_minimize_matches_greedy =
  QCheck2.Test.make ~name:"search: bisection minimization = greedy drop-one loop" ~count:150
    QCheck2.Gen.(triple (int_range 0 1_000) (int_range 0 1_000) (int_range 0 1_000))
    (fun (pick, start, seed) ->
      let cones = Lazy.force oracle_cones in
      let nl, cone, sources, border = cones.(pick mod Array.length cones) in
      let avr, avr_trace = Lazy.force avr_setup in
      let trace = if nl == avr then avr_trace else port_trace nl in
      let ev = Search.Cone_eval.create nl cone sources in
      let n = Trace.n_cycles trace in
      let cube cycle =
        Prng.shuffle (Prng.create seed)
          (Array.to_list (Array.map (fun w -> { Term.wire = w; value = Trace.get trace ~cycle w }) border))
      in
      (* The first cycle from [start] on whose cube is valid, if any. *)
      let rec valid_cube k =
        if k = n then None
        else
          let c = cube ((start + k) mod n) in
          if Search.Cone_eval.validate ev c then Some c else valid_cube (k + 1)
      in
      match valid_cube 0 with
      | None -> true
      | Some c ->
        let minimal = Search.Cone_eval.minimize ev c in
        Search.Cone_eval.validate ev minimal && minimal = greedy_minimize ev c)

(* Two literals whose downstream support gates interleave: x1 reaches
   only pa, x2 reaches pb then pa (pa reads pb), so the union comes out
   of the per-literal lists as [pa; pb] and must be put in topological
   order. *)
let test_dirty_union_sorted () =
  let b = Netlist.Builder.create "interleaved" in
  let wire = Netlist.Builder.add_wire b in
  let s = wire "s" and x1 = wire "x1" and x2 = wire "x2" and y = wire "y" and m = wire "m" in
  let out = wire "out" in
  Netlist.Builder.add_gate b (Cell.of_kind Cell.BUF) [| x2 |] y;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.AND2) [| x1; y |] m;
  Netlist.Builder.add_gate b (Cell.of_kind Cell.AND2) [| s; m |] out;
  List.iter
    (fun (name, w) -> Netlist.Builder.add_input_port b name [| w |])
    [ ("s", s); ("x1", x1); ("x2", x2) ];
  Netlist.Builder.add_output_port b "out" [| out |];
  let nl = Netlist.Builder.finalize b in
  let cone = Cone.compute nl s in
  let ev = Search.Cone_eval.create nl cone [ s ] in
  (* x1 & !x2 blocks out. *)
  let literals = [ { Term.wire = x1; value = true }; { Term.wire = x2; value = false } ] in
  check_bool "masked" true (Search.Cone_eval.validate ev literals);
  let v = reference_values nl cone [ s ] literals in
  check_bool "every wire as from scratch" true
    (List.for_all (fun w -> Search.Cone_eval.value ev w = v.(w)) (List.init (Netlist.n_wires nl) Fun.id))

let suite =
  [
    Alcotest.test_case "jobs 1 = jobs 4 on AVR FF w/o RF" `Quick test_avr_jobs_invariant;
    Alcotest.test_case "AVR FF w/o RF search results pinned" `Quick test_avr_search_pinned;
    Alcotest.test_case "jobs > flops on Figure 1" `Quick test_figure1_more_jobs_than_flops;
    Alcotest.test_case "exception re-raised after join" `Quick test_exception_after_join;
    Alcotest.test_case "dirty support gates in topological order" `Quick test_dirty_union_sorted;
    QCheck_alcotest.to_alcotest prop_validate_matches_reference;
    QCheck_alcotest.to_alcotest prop_stacked_matches_reference;
    QCheck_alcotest.to_alcotest prop_minimize_matches_greedy;
  ]
