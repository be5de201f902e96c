module Netlist = Pruning_netlist.Netlist

type literal = {
  wire : Netlist.wire;
  value : bool;
}

type t = literal list

let always_true = []

let of_literals pairs =
  let sorted = List.sort_uniq compare (List.map (fun (wire, value) -> { wire; value }) pairs) in
  let rec consistent = function
    | a :: (b :: _ as rest) -> if a.wire = b.wire then None else consistent rest
    | [ _ ] | [] -> Some sorted
  in
  consistent sorted

(* Both terms are sorted by wire with each wire once, so one merge
   normalizes their conjunction; a wire bound both ways contradicts. *)
let conjoin a b =
  let rec merge acc a b =
    match (a, b) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | x :: a', y :: b' ->
      if x.wire < y.wire then merge (x :: acc) a' b
      else if y.wire < x.wire then merge (y :: acc) a b'
      else if x.value = y.value then merge (x :: acc) a' b'
      else None
  in
  merge [] a b

let holds t valuation = List.for_all (fun l -> valuation l.wire = l.value) t

let literals t = t
let inputs t = List.map (fun l -> l.wire) t
let n_inputs t = List.length t
let compare = Stdlib.compare
let equal a b = compare a b = 0

let to_string nl t =
  match t with
  | [] -> "(true)"
  | _ ->
    let literal l = (if l.value then "" else "!") ^ Netlist.wire_name nl l.wire in
    "(" ^ String.concat " & " (List.map literal t) ^ ")"
