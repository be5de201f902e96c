type kind =
  | INV
  | BUF
  | NAND2
  | NAND3
  | NAND4
  | NOR2
  | NOR3
  | NOR4
  | AND2
  | AND3
  | AND4
  | OR2
  | OR3
  | OR4
  | XOR2
  | XNOR2
  | MUX2
  | AOI21
  | AOI22
  | OAI21
  | OAI22
  | XOR3
  | MAJ3
  | TIEL
  | TIEH

type t = {
  kind : kind;
  name : string;
  arity : int;
  table : int;
}

let max_arity = 4

let kind_to_string = function
  | INV -> "INV"
  | BUF -> "BUF"
  | NAND2 -> "NAND2"
  | NAND3 -> "NAND3"
  | NAND4 -> "NAND4"
  | NOR2 -> "NOR2"
  | NOR3 -> "NOR3"
  | NOR4 -> "NOR4"
  | AND2 -> "AND2"
  | AND3 -> "AND3"
  | AND4 -> "AND4"
  | OR2 -> "OR2"
  | OR3 -> "OR3"
  | OR4 -> "OR4"
  | XOR2 -> "XOR2"
  | XNOR2 -> "XNOR2"
  | MUX2 -> "MUX2"
  | AOI21 -> "AOI21"
  | AOI22 -> "AOI22"
  | OAI21 -> "OAI21"
  | OAI22 -> "OAI22"
  | XOR3 -> "XOR3"
  | MAJ3 -> "MAJ3"
  | TIEL -> "TIEL"
  | TIEH -> "TIEH"

(* The boolean function of each kind, over a pin-value vector. The truth
   tables below are derived from these reference functions at module
   initialization, so the table and the function cannot drift apart. *)
let semantics kind (pin : int -> bool) =
  match kind with
  | INV -> not (pin 0)
  | BUF -> pin 0
  | NAND2 -> not (pin 0 && pin 1)
  | NAND3 -> not (pin 0 && pin 1 && pin 2)
  | NAND4 -> not (pin 0 && pin 1 && pin 2 && pin 3)
  | NOR2 -> not (pin 0 || pin 1)
  | NOR3 -> not (pin 0 || pin 1 || pin 2)
  | NOR4 -> not (pin 0 || pin 1 || pin 2 || pin 3)
  | AND2 -> pin 0 && pin 1
  | AND3 -> pin 0 && pin 1 && pin 2
  | AND4 -> pin 0 && pin 1 && pin 2 && pin 3
  | OR2 -> pin 0 || pin 1
  | OR3 -> pin 0 || pin 1 || pin 2
  | OR4 -> pin 0 || pin 1 || pin 2 || pin 3
  | XOR2 -> pin 0 <> pin 1
  | XNOR2 -> pin 0 = pin 1
  | MUX2 -> if pin 2 then pin 1 else pin 0
  | AOI21 -> not ((pin 0 && pin 1) || pin 2)
  | AOI22 -> not ((pin 0 && pin 1) || (pin 2 && pin 3))
  | OAI21 -> not ((pin 0 || pin 1) && pin 2)
  | OAI22 -> not ((pin 0 || pin 1) && (pin 2 || pin 3))
  | XOR3 -> (pin 0 <> pin 1) <> pin 2
  | MAJ3 -> (pin 0 && pin 1) || (pin 1 && pin 2) || (pin 0 && pin 2)
  | TIEL -> false
  | TIEH -> true

let arity_of_kind = function
  | TIEL | TIEH -> 0
  | INV | BUF -> 1
  | NAND2 | NOR2 | AND2 | OR2 | XOR2 | XNOR2 -> 2
  | NAND3 | NOR3 | AND3 | OR3 | MUX2 | AOI21 | OAI21 | XOR3 | MAJ3 -> 3
  | NAND4 | NOR4 | AND4 | OR4 | AOI22 | OAI22 -> 4

let table_of_kind kind =
  let arity = arity_of_kind kind in
  let table = ref 0 in
  for pattern = (1 lsl arity) - 1 downto 0 do
    let pin j = pattern land (1 lsl j) <> 0 in
    if semantics kind pin then table := !table lor (1 lsl pattern)
  done;
  !table

let make kind =
  {
    kind;
    name = kind_to_string kind ^ "_X1";
    arity = arity_of_kind kind;
    table = table_of_kind kind;
  }

let all_kinds =
  [
    INV; BUF; NAND2; NAND3; NAND4; NOR2; NOR3; NOR4; AND2; AND3; AND4; OR2;
    OR3; OR4; XOR2; XNOR2; MUX2; AOI21; AOI22; OAI21; OAI22; XOR3; MAJ3;
    TIEL; TIEH;
  ]

let all = List.map make all_kinds

let of_kind kind = List.find (fun c -> c.kind = kind) all

(* Position in [all]; [all_kinds] lists the kinds in this order. *)
let index cell =
  match cell.kind with
  | INV -> 0
  | BUF -> 1
  | NAND2 -> 2
  | NAND3 -> 3
  | NAND4 -> 4
  | NOR2 -> 5
  | NOR3 -> 6
  | NOR4 -> 7
  | AND2 -> 8
  | AND3 -> 9
  | AND4 -> 10
  | OR2 -> 11
  | OR3 -> 12
  | OR4 -> 13
  | XOR2 -> 14
  | XNOR2 -> 15
  | MUX2 -> 16
  | AOI21 -> 17
  | AOI22 -> 18
  | OAI21 -> 19
  | OAI22 -> 20
  | XOR3 -> 21
  | MAJ3 -> 22
  | TIEL -> 23
  | TIEH -> 24

let find_by_name name = List.find_opt (fun c -> c.name = name) all

let eval_pattern cell pattern = cell.table land (1 lsl pattern) <> 0

let eval cell pins =
  if Array.length pins <> cell.arity then
    invalid_arg
      (Printf.sprintf "Cell.eval %s: expected %d pins, got %d" cell.name
         cell.arity (Array.length pins));
  let pattern = ref 0 in
  for j = 0 to cell.arity - 1 do
    if pins.(j) then pattern := !pattern lor (1 lsl j)
  done;
  eval_pattern cell !pattern

let equal a b = a.kind = b.kind

let pp ppf cell = Format.fprintf ppf "%s" cell.name
