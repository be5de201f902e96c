open Helpers

let eval_kind kind pins = Cell.eval (Cell.of_kind kind) pins

let test_truth_tables () =
  check_bool "AND2 11" true (eval_kind Cell.AND2 [| true; true |]);
  check_bool "AND2 10" false (eval_kind Cell.AND2 [| true; false |]);
  check_bool "NAND2 11" false (eval_kind Cell.NAND2 [| true; true |]);
  check_bool "NAND2 00" true (eval_kind Cell.NAND2 [| false; false |]);
  check_bool "OR2 00" false (eval_kind Cell.OR2 [| false; false |]);
  check_bool "NOR2 00" true (eval_kind Cell.NOR2 [| false; false |]);
  check_bool "XOR2 10" true (eval_kind Cell.XOR2 [| true; false |]);
  check_bool "XNOR2 10" false (eval_kind Cell.XNOR2 [| true; false |]);
  check_bool "INV 0" true (eval_kind Cell.INV [| false |]);
  check_bool "BUF 1" true (eval_kind Cell.BUF [| true |]);
  check_bool "TIEL" false (eval_kind Cell.TIEL [||]);
  check_bool "TIEH" true (eval_kind Cell.TIEH [||])

let test_mux_semantics () =
  (* MUX2 pins (a, b, s): s ? b : a *)
  check_bool "mux s=0 -> a" true (eval_kind Cell.MUX2 [| true; false; false |]);
  check_bool "mux s=1 -> b" false (eval_kind Cell.MUX2 [| true; false; true |]);
  check_bool "mux s=1 -> b'" true (eval_kind Cell.MUX2 [| false; true; true |])

let test_complex_cells () =
  (* AOI21 (a1, a2, b) = !((a1 && a2) || b) *)
  check_bool "aoi21 110" false (eval_kind Cell.AOI21 [| true; true; false |]);
  check_bool "aoi21 100" true (eval_kind Cell.AOI21 [| true; false; false |]);
  check_bool "aoi21 001" false (eval_kind Cell.AOI21 [| false; false; true |]);
  (* OAI22 (a1, a2, b1, b2) = !((a1 || a2) && (b1 || b2)) *)
  check_bool "oai22 1010" false (eval_kind Cell.OAI22 [| true; false; true; false |]);
  check_bool "oai22 0010" true (eval_kind Cell.OAI22 [| false; false; true; false |]);
  (* Full-adder decomposition *)
  check_bool "xor3 111" true (eval_kind Cell.XOR3 [| true; true; true |]);
  check_bool "xor3 110" false (eval_kind Cell.XOR3 [| true; true; false |]);
  check_bool "maj3 110" true (eval_kind Cell.MAJ3 [| true; true; false |]);
  check_bool "maj3 100" false (eval_kind Cell.MAJ3 [| true; false; false |])

let test_catalogue () =
  check_int "catalogue size" 25 (List.length Cell.all);
  List.iter
    (fun (c : Cell.t) ->
      check_bool ("find " ^ c.Cell.name) true
        (match Cell.find_by_name c.Cell.name with
        | Some c' -> Cell.equal c c'
        | None -> false))
    Cell.all;
  check_bool "unknown cell" true (Cell.find_by_name "FOO_X1" = None)

let test_eval_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Cell.eval AND2_X1: expected 2 pins, got 3") (fun () ->
      ignore (eval_kind Cell.AND2 [| true; true; true |]))

let sort_terms terms =
  List.sort compare
    (List.map (List.map (fun (l : Gm.literal) -> (l.Gm.pin, l.Gm.value))) terms)

let gm kind faulty = sort_terms (Gm.masking_terms (Cell.of_kind kind) ~faulty)

let test_gm_paper_mux_example () =
  (* The paper: GM(MUX(x,a,b), {x}) = {(!a & !b), (a & b)}; our pin order
     is (a, b, s) so the faulty select is pin 2. *)
  Alcotest.(check (list (list (pair int bool))))
    "mux faulty select"
    [ [ (0, false); (1, false) ]; [ (0, true); (1, true) ] ]
    (gm Cell.MUX2 [ 2 ])

let test_gm_basic_gates () =
  Alcotest.(check (list (list (pair int bool))))
    "and2 faulty a" [ [ (1, false) ] ] (gm Cell.AND2 [ 0 ]);
  Alcotest.(check (list (list (pair int bool))))
    "or2 faulty b" [ [ (0, true) ] ] (gm Cell.OR2 [ 1 ]);
  Alcotest.(check (list (list (pair int bool))))
    "nand3 faulty a" [ [ (1, false) ]; [ (2, false) ] ] (gm Cell.NAND3 [ 0 ]);
  Alcotest.(check (list (list (pair int bool)))) "xor2 has no masking" [] (gm Cell.XOR2 [ 0 ]);
  Alcotest.(check (list (list (pair int bool)))) "xor3 has no masking" [] (gm Cell.XOR3 [ 1 ]);
  Alcotest.(check (list (list (pair int bool)))) "inv has no masking" [] (gm Cell.INV [ 0 ]);
  Alcotest.(check (list (list (pair int bool)))) "buf has no masking" [] (gm Cell.BUF [ 0 ])

let test_gm_complex_gates () =
  Alcotest.(check (list (list (pair int bool))))
    "aoi21 faulty a1"
    [ [ (1, false) ]; [ (2, true) ] ]
    (gm Cell.AOI21 [ 0 ]);
  Alcotest.(check (list (list (pair int bool))))
    "maj3 faulty a"
    [ [ (1, false); (2, false) ]; [ (1, true); (2, true) ] ]
    (gm Cell.MAJ3 [ 0 ]);
  (* Data-input fault on a mux is masked by selecting the other input. *)
  Alcotest.(check (list (list (pair int bool)))) "mux faulty a" [ [ (2, true) ] ] (gm Cell.MUX2 [ 0 ]);
  Alcotest.(check (list (list (pair int bool))))
    "mux faulty b" [ [ (2, false) ] ] (gm Cell.MUX2 [ 1 ])

let test_gm_multi_fault () =
  (* Both data pins faulty: the mux output is faulty whichever way the
     select goes. *)
  Alcotest.(check (list (list (pair int bool)))) "mux both data" [] (gm Cell.MUX2 [ 0; 1 ]);
  (* Data+select faulty: never maskable. *)
  Alcotest.(check (list (list (pair int bool)))) "mux a+s" [] (gm Cell.MUX2 [ 0; 2 ]);
  Alcotest.(check (list (list (pair int bool))))
    "nand4 two faulty"
    [ [ (2, false) ]; [ (3, false) ] ]
    (gm Cell.NAND4 [ 0; 1 ]);
  Alcotest.(check (list (list (pair int bool)))) "and2 both" [] (gm Cell.AND2 [ 0; 1 ])

let test_gm_invalid () =
  let cell = Cell.of_kind Cell.AND2 in
  Alcotest.check_raises "empty faulty" (Invalid_argument "Gm: empty faulty set") (fun () ->
      ignore (Gm.masking_terms cell ~faulty:[]));
  Alcotest.check_raises "dup faulty" (Invalid_argument "Gm: duplicate faulty pin") (fun () ->
      ignore (Gm.masking_terms cell ~faulty:[ 0; 0 ]));
  Alcotest.check_raises "pin range" (Invalid_argument "Gm: pin 5 outside AND2_X1") (fun () ->
      ignore (Gm.masking_terms cell ~faulty:[ 5 ]))

(* Exhaustive semantic check of the GM computation for every cell and every
   faulty subset: a full trusted assignment masks iff it is subsumed by a
   returned term, and every returned term is minimal. *)
let subsets n =
  let rec go = function
    | 0 -> [ [] ]
    | k ->
      let rest = go (k - 1) in
      rest @ List.map (fun s -> (k - 1) :: s) rest
  in
  go n |> List.filter (fun s -> s <> [])

let full_assignment_masks (cell : Cell.t) fmask assignment =
  (* assignment covers all trusted pins *)
  let masked = ref true in
  for s = 0 to (1 lsl cell.Cell.arity) - 1 do
    if s land lnot fmask = 0 then
      if Cell.eval_pattern cell (assignment lor s) <> Cell.eval_pattern cell assignment then
        masked := false
  done;
  !masked

let term_subsumes (term : Gm.term) assignment =
  List.for_all
    (fun (l : Gm.literal) -> assignment land (1 lsl l.Gm.pin) <> 0 = l.Gm.value)
    term

let test_gm_exhaustive () =
  List.iter
    (fun (cell : Cell.t) ->
      if cell.Cell.arity > 0 then
        List.iter
          (fun faulty ->
            let fmask = List.fold_left (fun m p -> m lor (1 lsl p)) 0 faulty in
            let terms = Gm.masking_terms cell ~faulty in
            (* Soundness + minimality of each term. *)
            List.iter
              (fun term ->
                check_bool
                  (Printf.sprintf "%s sound" cell.Cell.name)
                  true
                  (Gm.masks cell ~faulty term);
                List.iteri
                  (fun i _ ->
                    let weaker = List.filteri (fun j _ -> j <> i) term in
                    check_bool
                      (Printf.sprintf "%s minimal" cell.Cell.name)
                      false
                      (Gm.masks cell ~faulty weaker))
                  term)
              terms;
            (* Completeness over full trusted assignments. *)
            let tmask = ((1 lsl cell.Cell.arity) - 1) land lnot fmask in
            for a = 0 to (1 lsl cell.Cell.arity) - 1 do
              if a land lnot tmask = 0 then begin
                let masks_now = full_assignment_masks cell fmask a in
                let covered = List.exists (fun t -> term_subsumes t a) terms in
                check_bool
                  (Printf.sprintf "%s complete (faulty=%s, a=%d)" cell.Cell.name
                     (String.concat "," (List.map string_of_int faulty))
                     a)
                  masks_now covered
              end
            done)
          (subsets cell.Cell.arity))
    Cell.all

let test_gm_memoized () =
  let cell = Cell.of_kind Cell.MUX2 in
  let a = Gm.memoized_masking_terms cell ~faulty:[ 2 ] in
  let b = Gm.memoized_masking_terms cell ~faulty:[ 2 ] in
  check_bool "memoized results equal" true (a == b);
  check_bool "matches direct" true (sort_terms a = sort_terms (Gm.masking_terms cell ~faulty:[ 2 ]))

let test_index_is_catalogue_position () =
  List.iteri (fun i cell -> check_int (Cell.kind_to_string cell.Cell.kind) i (Cell.index cell)) Cell.all

let test_term_to_string () =
  let cell = Cell.of_kind Cell.MUX2 in
  match Gm.masking_terms cell ~faulty:[ 0 ] with
  | [ term ] -> check_string "render" "(a3)" (Gm.term_to_string cell term)
  | _ -> Alcotest.fail "expected one term"

(* --- Lower: Shannon-lowered formula = truth table, every lane --------- *)

module Lower = Pruning_cell.Lower

(* Pack every input pattern of an [arity]-pin cell across the word's
   lanes: lane [l] carries pattern [l mod 2^arity], so all [Sys.int_size]
   lanes are exercised even for small cells. Pin [j]'s packed word has
   bit [l] set iff pattern [l mod 2^arity] sets pin [j]. *)
let packed_pins arity =
  let n_patterns = 1 lsl arity in
  Array.init arity (fun j ->
      let w = ref 0 in
      for lane = 0 to Sys.int_size - 1 do
        if (lane mod n_patterns) lsr j land 1 = 1 then w := !w lor (1 lsl lane)
      done;
      !w)

let check_table ~what ~arity ~table out =
  let n_patterns = 1 lsl arity in
  for lane = 0 to Sys.int_size - 1 do
    let expect = table lsr (lane mod n_patterns) land 1 in
    if (out lsr lane) land 1 <> expect then
      Alcotest.failf "%s (arity %d, table %#x): lane %d (pattern %d) got %d, want %d" what arity
        table lane (lane mod n_patterns)
        ((out lsr lane) land 1)
        expect
  done

let test_lower_cells_exhaustive () =
  List.iter
    (fun (cell : Cell.t) ->
      let e = Lower.of_cell cell in
      let pins = packed_pins cell.Cell.arity in
      check_table ~what:(cell.Cell.name ^ "/eval") ~arity:cell.Cell.arity ~table:cell.Cell.table
        (Lower.eval e pins);
      (* The compiled closure reads pins through a wire-value array. *)
      let inputs = Array.init cell.Cell.arity (fun j -> j) in
      let f = Lower.compile e ~inputs in
      check_table ~what:(cell.Cell.name ^ "/compile") ~arity:cell.Cell.arity ~table:cell.Cell.table
        (f pins))
    Cell.all

let test_lower_random_tables () =
  let rng = Prng.create 0xBEEF in
  for _ = 1 to 500 do
    let arity = Prng.int rng (Cell.max_arity + 1) in
    let table = Prng.int rng (1 lsl (1 lsl arity)) in
    let e = Lower.of_table ~arity ~table in
    check_table ~what:"random" ~arity ~table (Lower.eval e (packed_pins arity))
  done

let suite =
  [
    Alcotest.test_case "truth tables" `Quick test_truth_tables;
    Alcotest.test_case "mux semantics" `Quick test_mux_semantics;
    Alcotest.test_case "complex cells" `Quick test_complex_cells;
    Alcotest.test_case "catalogue" `Quick test_catalogue;
    Alcotest.test_case "eval arity check" `Quick test_eval_arity_check;
    Alcotest.test_case "gm paper mux example" `Quick test_gm_paper_mux_example;
    Alcotest.test_case "gm basic gates" `Quick test_gm_basic_gates;
    Alcotest.test_case "gm complex gates" `Quick test_gm_complex_gates;
    Alcotest.test_case "gm multi fault" `Quick test_gm_multi_fault;
    Alcotest.test_case "gm invalid input" `Quick test_gm_invalid;
    Alcotest.test_case "gm exhaustive semantics" `Quick test_gm_exhaustive;
    Alcotest.test_case "gm memoized" `Quick test_gm_memoized;
    Alcotest.test_case "index = catalogue position" `Quick test_index_is_catalogue_position;
    Alcotest.test_case "term rendering" `Quick test_term_to_string;
    Alcotest.test_case "lowered cells = truth tables (all lanes)" `Quick
      test_lower_cells_exhaustive;
    Alcotest.test_case "lowered random tables (500)" `Quick test_lower_random_tables;
  ]
