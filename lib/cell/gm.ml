type literal = {
  pin : int;
  value : bool;
}

type term = literal list

let check_faulty (cell : Cell.t) faulty =
  if faulty = [] then invalid_arg "Gm: empty faulty set";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun pin ->
      if pin < 0 || pin >= cell.arity then
        invalid_arg (Printf.sprintf "Gm: pin %d outside %s" pin cell.name);
      if Hashtbl.mem seen pin then invalid_arg "Gm: duplicate faulty pin";
      Hashtbl.add seen pin ())
    faulty

let bitmask_of_pins pins = List.fold_left (fun m pin -> m lor (1 lsl pin)) 0 pins

(* Enumerate the assignments of the bit positions present in [mask];
   applies [f] to each assignment (an int whose set bits are within
   [mask]). *)
let iter_assignments mask f =
  let rec positions m = if m = 0 then [] else (m land -m) :: positions (m land (m - 1)) in
  let bits = Array.of_list (positions mask) in
  let n = Array.length bits in
  for combo = 0 to (1 lsl n) - 1 do
    let assignment = ref 0 in
    for j = 0 to n - 1 do
      if combo land (1 lsl j) <> 0 then assignment := !assignment lor bits.(j)
    done;
    f !assignment
  done

(* Masking property for a partial assignment (amask, avals): for every
   completion of trusted-but-unassigned pins, the output is constant over
   all values of the faulty pins. *)
let assignment_masks (cell : Cell.t) ~fmask ~amask ~avals =
  let all_pins = (1 lsl cell.arity) - 1 in
  let free = all_pins land lnot fmask land lnot amask in
  let ok = ref true in
  iter_assignments free (fun beta ->
      if !ok then begin
        let base = avals lor beta in
        let reference = Cell.eval_pattern cell base in
        iter_assignments fmask (fun s ->
            if Cell.eval_pattern cell (base lor s) <> reference then ok := false)
      end);
  !ok

let term_of_assignment amask avals =
  let rec build pin =
    if amask lsr pin = 0 then []
    else if amask land (1 lsl pin) <> 0 then
      { pin; value = avals land (1 lsl pin) <> 0 } :: build (pin + 1)
    else build (pin + 1)
  in
  build 0

let masks cell ~faulty term =
  check_faulty cell faulty;
  let fmask = bitmask_of_pins faulty in
  let amask = bitmask_of_pins (List.map (fun l -> l.pin) term) in
  if amask land fmask <> 0 then invalid_arg "Gm.masks: term mentions a faulty pin";
  let avals =
    List.fold_left (fun v l -> if l.value then v lor (1 lsl l.pin) else v) 0 term
  in
  assignment_masks cell ~fmask ~amask ~avals

(* A found term (amask', avals') subsumes (amask, avals) when it is a
   sub-assignment: amask' included in amask with agreeing values. *)
let subsumed found amask avals =
  List.exists
    (fun (amask', avals') -> amask' land lnot amask = 0 && avals land amask' = avals')
    found

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n land (n - 1)) (acc + 1) in
  go n 0

let masking_terms (cell : Cell.t) ~faulty =
  check_faulty cell faulty;
  let fmask = bitmask_of_pins faulty in
  let all_pins = (1 lsl cell.arity) - 1 in
  let tmask = all_pins land lnot fmask in
  (* Trusted-pin subsets by ascending size, so minimality is a simple
     subsumption check against already-found terms. *)
  let subsets = ref [] in
  iter_assignments tmask (fun amask -> subsets := amask :: !subsets);
  let subsets = List.sort (fun a b -> compare (popcount a) (popcount b)) !subsets in
  let found = ref [] in
  List.iter
    (fun amask ->
      iter_assignments amask (fun avals ->
          if
            (not (subsumed !found amask avals))
            && assignment_masks cell ~fmask ~amask ~avals
          then found := (amask, avals) :: !found))
    subsets;
  !found
  |> List.rev
  |> List.map (fun (amask, avals) -> term_of_assignment amask avals)

let pin_name index = Printf.sprintf "a%d" (index + 1)

let term_to_string (_cell : Cell.t) term =
  match term with
  | [] -> "(true)"
  | _ ->
    let literal l = (if l.value then "" else "!") ^ pin_name l.pin in
    "(" ^ String.concat " & " (List.map literal term) ^ ")"

let pins_of_mask mask = List.filter (fun pin -> mask land (1 lsl pin) <> 0) (List.init Cell.max_arity Fun.id)

(* The terms of every catalogue cell for every faulty-pin set (indexed by
   {!Cell.index}, then by the set's bitmask), built at module
   initialisation and never written afterwards, so any number of domains
   may read them. *)
let catalogue_terms =
  Array.of_list
    (List.map
       (fun (cell : Cell.t) ->
         Array.init (1 lsl cell.arity) (fun mask ->
             if mask = 0 then [] else masking_terms cell ~faulty:(pins_of_mask mask)))
       Cell.all)

let memoized_masking_terms (cell : Cell.t) ~faulty =
  check_faulty cell faulty;
  catalogue_terms.(Cell.index cell).(bitmask_of_pins faulty)
