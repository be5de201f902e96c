(* Shannon lowering of cell truth tables to straight-line bitwise
   formulas, the gate kernel of the batched delta simulator: one
   evaluation of the lowered formula over machine words advances
   [Sys.int_size] independent simulation lanes at once. *)

type expr =
  | Zero
  | One
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

(* Recursive Shannon expansion on the highest pin: split the table into
   the pin=0 and pin=1 cofactors and rebuild f = (~x & f0) | (x & f1),
   simplifying the constant and equal-cofactor cases. The XOR case
   (f1 = ~f0) is detected on the cofactor tables so XOR2/XOR3/XNOR2
   lower to single lxor chains instead of mux trees. *)
let rec of_table ~arity ~table =
  if arity < 0 || arity > Cell.max_arity then invalid_arg "Lower.of_table: arity";
  if arity = 0 then if table land 1 <> 0 then One else Zero
  else begin
    let half = 1 lsl (arity - 1) in
    let mask = (1 lsl half) - 1 in
    let t0 = table land mask and t1 = (table lsr half) land mask in
    if t0 = t1 then of_table ~arity:(arity - 1) ~table:t0
    else
      let x = Var (arity - 1) in
      if t1 = lnot t0 land mask then
        match of_table ~arity:(arity - 1) ~table:t0 with
        | Zero -> x
        | One -> Not x
        | f0 -> Xor (x, f0)
      else
        let f0 = of_table ~arity:(arity - 1) ~table:t0 in
        let f1 = of_table ~arity:(arity - 1) ~table:t1 in
        match (f0, f1) with
        | Zero, f1 -> And (x, f1)
        | One, f1 -> Or (Not x, f1)
        | f0, Zero -> And (Not x, f0)
        | f0, One -> Or (x, f0)
        | f0, f1 -> Or (And (Not x, f0), And (x, f1))
  end

let of_cell (c : Cell.t) = of_table ~arity:c.Cell.arity ~table:c.Cell.table

let rec eval e (ins : int array) =
  match e with
  | Zero -> 0
  | One -> -1
  | Var j -> ins.(j)
  | Not a -> lnot (eval a ins)
  | And (a, b) -> eval a ins land eval b ins
  | Or (a, b) -> eval a ins lor eval b ins
  | Xor (a, b) -> eval a ins lxor eval b ins

(* Compile to a closure with the variable -> wire indirection resolved at
   build time: the hot per-gate evaluation performs only array loads and
   bitwise ops, no pattern matches. *)
let rec compile e ~(inputs : int array) : int array -> int =
  match e with
  | Zero -> fun _ -> 0
  | One -> fun _ -> -1
  | Var j ->
    let w = inputs.(j) in
    fun values -> Array.unsafe_get values w
  | Not a ->
    let fa = compile a ~inputs in
    fun values -> lnot (fa values)
  | And (a, b) ->
    let fa = compile a ~inputs and fb = compile b ~inputs in
    fun values -> fa values land fb values
  | Or (a, b) ->
    let fa = compile a ~inputs and fb = compile b ~inputs in
    fun values -> fa values lor fb values
  | Xor (a, b) ->
    let fa = compile a ~inputs and fb = compile b ~inputs in
    fun values -> fa values lxor fb values
