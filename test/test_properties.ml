(* Property-based tests (QCheck, registered as alcotest cases).

   These complement the hand-rolled randomized tests with shrinking
   generators over the core data structures: terms, traces, statistics,
   gate-masking semantics, VCD round-trips. *)

open Helpers
module Term = Pruning_mate.Term
module Stats = Pruning_util.Stats
module Vcd = Pruning_vcd.Vcd

let literal_gen = QCheck2.Gen.(pair (int_range 0 15) bool)
let literals_gen = QCheck2.Gen.(list_size (int_range 0 8) literal_gen)

let prop_term_normalization =
  QCheck2.Test.make ~name:"term: of_literals normalizes" ~count:500 literals_gen (fun pairs ->
      match Term.of_literals pairs with
      | None ->
        (* Contradiction: some wire appears with both polarities. *)
        List.exists (fun (w, v) -> List.mem (w, not v) pairs) pairs
      | Some t ->
        let ls = Term.literals t in
        (* sorted strictly by wire *)
        let rec sorted = function
          | (a : Term.literal) :: (b : Term.literal) :: rest ->
            a.Term.wire < b.Term.wire && sorted (b :: rest)
          | [ _ ] | [] -> true
        in
        sorted ls
        (* and faithful: every input literal is represented *)
        && List.for_all
             (fun (w, v) ->
               List.exists (fun (l : Term.literal) -> l.Term.wire = w && l.Term.value = v) ls)
             pairs)

let prop_term_conjoin_holds =
  QCheck2.Test.make ~name:"term: conjoin = intersection of models" ~count:500
    QCheck2.Gen.(pair literals_gen literals_gen)
    (fun (p1, p2) ->
      match (Term.of_literals p1, Term.of_literals p2) with
      | Some t1, Some t2 -> begin
        (* evaluate under a specific valuation derived from p1+p2 *)
        let valuation w = List.assoc_opt w (p1 @ p2) = Some true in
        match Term.conjoin t1 t2 with
        | Some t -> Term.holds t valuation = (Term.holds t1 valuation && Term.holds t2 valuation)
        | None ->
          (* contradictory: there is a wire with both polarities across them *)
          List.exists
            (fun (l : Term.literal) ->
              List.exists
                (fun (m : Term.literal) -> l.Term.wire = m.Term.wire && l.Term.value <> m.Term.value)
                (Term.literals t2))
            (Term.literals t1)
      end
      | _ -> QCheck2.assume_fail ())

let prop_term_conjoin_commutative =
  QCheck2.Test.make ~name:"term: conjoin commutative" ~count:300
    QCheck2.Gen.(pair literals_gen literals_gen)
    (fun (p1, p2) ->
      match (Term.of_literals p1, Term.of_literals p2) with
      | Some t1, Some t2 -> begin
        match (Term.conjoin t1 t2, Term.conjoin t2 t1) with
        | Some a, Some b -> Term.equal a b
        | None, None -> true
        | _ -> false
      end
      | _ -> QCheck2.assume_fail ())

let prop_stats_mean_bounds =
  QCheck2.Test.make ~name:"stats: min <= mean <= max" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_stats_median_is_member_or_midpoint =
  QCheck2.Test.make ~name:"stats: median within range" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.median xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_trace_roundtrip =
  QCheck2.Test.make ~name:"trace: append/get roundtrip" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 70) (int_range 1 20) >>= fun (w, c) ->
      list_repeat c (list_repeat w bool) >|= fun rows -> (w, rows))
    (fun (w, rows) ->
      let t = Trace.create ~n_wires:w in
      List.iter (fun row -> Trace.append t (Array.of_list row)) rows;
      Trace.n_cycles t = List.length rows
      && List.for_all2
           (fun cycle row ->
             List.for_all2 (fun wire v -> Trace.get t ~cycle wire = v) (List.init w Fun.id) row)
           (List.init (List.length rows) Fun.id)
           rows)

let prop_gm_terms_mask =
  (* For random cells and faulty sets: every returned masking term indeed
     masks (checked by the independent [Gm.masks] definition). *)
  QCheck2.Test.make ~name:"gm: returned terms mask" ~count:300
    QCheck2.Gen.(
      oneofl (List.filter (fun (c : Cell.t) -> c.Cell.arity > 0) Cell.all) >>= fun cell ->
      int_range 0 (cell.Cell.arity - 1) >>= fun pin ->
      int_range 0 (cell.Cell.arity - 1) >|= fun pin2 -> (cell, List.sort_uniq compare [ pin; pin2 ]))
    (fun (cell, faulty) ->
      let terms = Gm.masking_terms cell ~faulty in
      List.for_all (fun t -> Gm.masks cell ~faulty t) terms)

let prop_prng_int_bounds =
  QCheck2.Test.make ~name:"prng: int stays in bounds" ~count:200
    QCheck2.Gen.(pair int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      List.for_all
        (fun _ ->
          let v = Prng.int rng bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_vcd_roundtrip =
  QCheck2.Test.make ~name:"vcd: random counter traces roundtrip" ~count:25
    QCheck2.Gen.(int_range 1 40)
    (fun cycles ->
      let nl = counter_netlist () in
      let sim = Sim.create nl in
      Sim.set_port sim "enable" 1;
      let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
      Sim.run sim ~trace ~cycles ();
      let back = Vcd.reorder (Vcd.parse (Vcd.to_string nl trace)) nl in
      Trace.n_cycles back = cycles
      && List.for_all
           (fun cycle ->
             List.for_all
               (fun w -> Trace.get trace ~cycle w = Trace.get back ~cycle w)
               (List.init (Netlist.n_wires nl) Fun.id))
           (List.init cycles Fun.id))

(* The merge in [Term.conjoin] is the normalization of the concatenated
   literals. *)
let prop_term_conjoin_normalizes =
  QCheck2.Test.make ~name:"term: conjoin = of_literals of both" ~count:500
    QCheck2.Gen.(pair literals_gen literals_gen)
    (fun (p1, p2) ->
      match (Term.of_literals p1, Term.of_literals p2) with
      | Some t1, Some t2 ->
        let pairs t =
          List.map (fun (l : Term.literal) -> (l.Term.wire, l.Term.value)) (Term.literals t)
        in
        Term.conjoin t1 t2 = Term.of_literals (pairs t1 @ pairs t2)
      | _ -> true)

(* Memo keys: the packed string is equal exactly when the difference
   is. Half the pairs are a diff against a one-step mutation of itself,
   so near-equal keys are exercised, not only unrelated ones. Values
   span the full int range (RAM words are ints). *)
let prop_memo_key_injective =
  let diff_gen =
    QCheck2.Gen.(
      triple (int_range 0 300)
        (list_size (int_range 0 6) (pair (int_range 0 5000) bool))
        (list_size (int_range 0 6) (pair (int_range 0 5000) (oneof [ int_range 0 300; int ]))))
  in
  let mutate (cp, fd, rd) k =
    match (k mod 5, fd, rd) with
    | 0, _, _ -> (cp + 1, fd, rd)
    | 1, (i, v) :: rest, _ -> (cp, (i, not v) :: rest, rd)
    | 2, _, (a, x) :: rest -> (cp, fd, (a, x + 1) :: rest)
    | 3, (i, v) :: rest, _ -> (cp, rest, (i, Bool.to_int v) :: rd)
    | _ -> (cp, fd, rd @ [ (k, k) ])
  in
  QCheck2.Test.make ~name:"campaign: memo key packing is injective" ~count:1000
    QCheck2.Gen.(triple diff_gen diff_gen (pair bool nat))
    (fun (a, b, (near, k)) ->
      let b = if near then mutate a k else b in
      let pack (cp, fd, rd) = Pruning_fi.Campaign.pack_memo_key ~cp fd rd in
      pack a = pack b = (a = b))

let prop_shuffle_permutation =
  QCheck2.Test.make ~name:"prng: shuffle is a permutation" ~count:200
    QCheck2.Gen.(pair int (list_size (int_range 0 50) int))
    (fun (seed, xs) ->
      let rng = Prng.create seed in
      List.sort compare (Prng.shuffle rng xs) = List.sort compare xs)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_term_normalization;
      prop_term_conjoin_holds;
      prop_term_conjoin_commutative;
      prop_term_conjoin_normalizes;
      prop_memo_key_injective;
      prop_stats_mean_bounds;
      prop_stats_median_is_member_or_midpoint;
      prop_trace_roundtrip;
      prop_gm_terms_mask;
      prop_prng_int_bounds;
      prop_vcd_roundtrip;
      prop_shuffle_permutation;
    ]
