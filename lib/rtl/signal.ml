type op =
  | Op_not
  | Op_and
  | Op_or
  | Op_xor
  | Op_mux
  | Op_xor3
  | Op_maj3

type bit_node =
  | Const of bool
  | Input of { port : string; index : int; id : int }
  | Regq of { reg : reg_def; index : int; id : int }
  | Op of { op : op; args : bit_node array; id : int }

and reg_def = {
  reg_name : string;
  reg_width : int;
  reg_init : int;
  mutable reg_next : bit_node array option;
  mutable reg_q : bit_node array;
}

type circuit = {
  circ_name : string;
  mutable circ_inputs : (string * int) list; (* reversed *)
  mutable circ_outputs : (string * t) list; (* reversed *)
  mutable circ_regs : reg_def list; (* reversed *)
  cons : (op * int array, bit_node) Hashtbl.t;
  mutable next_id : int;
}

and t = {
  circ : circuit;
  vbits : bit_node array;
}

type reg = {
  r_def : reg_def;
  r_circ : circuit;
}

let create_circuit name =
  {
    circ_name = name;
    circ_inputs = [];
    circ_outputs = [];
    circ_regs = [];
    cons = Hashtbl.create 1024;
    next_id = 0;
  }

let circuit_name c = c.circ_name
let circuit_inputs c = List.rev c.circ_inputs
let circuit_outputs c = List.rev c.circ_outputs
let circuit_regs c = List.rev c.circ_regs
let node_count c = c.next_id

let width v = Array.length v.vbits
let bits v = v.vbits

let bit_id = function
  | Const false -> -1
  | Const true -> -2
  | Input { id; _ } | Regq { id; _ } | Op { id; _ } -> id

let fresh c =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

let mk_op c op args =
  let key = (op, Array.map bit_id args) in
  match Hashtbl.find_opt c.cons key with
  | Some b -> b
  | None ->
    let b = Op { op; args; id = fresh c } in
    Hashtbl.add c.cons key b;
    b

let bfalse = Const false
let btrue = Const true
let bconst b = if b then btrue else bfalse
let same a b = bit_id a = bit_id b

let complement a b =
  let inv x y =
    match y with
    | Op { op = Op_not; args; _ } -> same args.(0) x
    | Const _ | Input _ | Regq _ | Op _ -> false
  in
  inv a b || inv b a

let bnot c a =
  match a with
  | Const b -> bconst (not b)
  | Op { op = Op_not; args; _ } -> args.(0)
  | Input _ | Regq _ | Op _ -> mk_op c Op_not [| a |]

let order2 a b = if bit_id a <= bit_id b then (a, b) else (b, a)

let band c a b =
  match (a, b) with
  | Const false, _ | _, Const false -> bfalse
  | Const true, x | x, Const true -> x
  | _ when same a b -> a
  | _ when complement a b -> bfalse
  | _ ->
    let a, b = order2 a b in
    mk_op c Op_and [| a; b |]

let bor c a b =
  match (a, b) with
  | Const true, _ | _, Const true -> btrue
  | Const false, x | x, Const false -> x
  | _ when same a b -> a
  | _ when complement a b -> btrue
  | _ ->
    let a, b = order2 a b in
    mk_op c Op_or [| a; b |]

let bxor c a b =
  match (a, b) with
  | Const false, x | x, Const false -> x
  | Const true, x | x, Const true -> bnot c x
  | _ when same a b -> bfalse
  | _ when complement a b -> btrue
  | _ ->
    let a, b = order2 a b in
    mk_op c Op_xor [| a; b |]

(* mux: s ? t : f. Cell MUX2 pin order is (f, t, s). *)
let bmux c ~s ~t ~f =
  match s with
  | Const true -> t
  | Const false -> f
  | _ when same t f -> t
  | _ -> begin
    match (t, f) with
    | Const true, Const false -> s
    | Const false, Const true -> bnot c s
    | Const true, _ -> bor c s f
    | Const false, _ -> band c (bnot c s) f
    | _, Const true -> bor c (bnot c s) t
    | _, Const false -> band c s t
    | _ when same t s -> bor c s f
    | _ when same f s -> band c s t
    | _ -> mk_op c Op_mux [| f; t; s |]
  end

let sort3 a b d =
  let l = List.sort (fun x y -> compare (bit_id x) (bit_id y)) [ a; b; d ] in
  match l with
  | [ x; y; z ] -> (x, y, z)
  | _ -> assert false

let bxor3 c a b d =
  match (a, b, d) with
  | Const v, x, y | x, Const v, y | x, y, Const v ->
    if v then bnot c (bxor c x y) else bxor c x y
  | _ when same a b -> d
  | _ when same a d -> b
  | _ when same b d -> a
  | _ when complement a b -> bnot c d
  | _ when complement a d -> bnot c b
  | _ when complement b d -> bnot c a
  | _ ->
    let a, b, d = sort3 a b d in
    mk_op c Op_xor3 [| a; b; d |]

let bmaj3 c a b d =
  match (a, b, d) with
  | Const v, x, y | x, Const v, y | x, y, Const v ->
    if v then bor c x y else band c x y
  | _ when same a b -> a
  | _ when same a d -> a
  | _ when same b d -> b
  | _ when complement a b -> d
  | _ when complement a d -> b
  | _ when complement b d -> a
  | _ ->
    let a, b, d = sort3 a b d in
    mk_op c Op_maj3 [| a; b; d |]

(* ------------------------------------------------------------------ *)
(* Vector layer                                                        *)

let check_same_circuit a b =
  if a.circ != b.circ then invalid_arg "Signal: operands from different circuits"

let check_same_width what a b =
  check_same_circuit a b;
  if width a <> width b then
    invalid_arg
      (Printf.sprintf "Signal.%s: width mismatch (%d vs %d)" what (width a) (width b))

let check_width_range w =
  if w < 1 || w > 62 then invalid_arg (Printf.sprintf "Signal: bad width %d" w)

let const c ~width:w value =
  check_width_range w;
  if value lsr w <> 0 || value < 0 then
    invalid_arg (Printf.sprintf "Signal.const: %d does not fit in %d bits" value w);
  { circ = c; vbits = Array.init w (fun i -> bconst (value land (1 lsl i) <> 0)) }

let vdd c = const c ~width:1 1
let gnd c = const c ~width:1 0

let input c name w =
  check_width_range w;
  if List.mem_assoc name c.circ_inputs then
    invalid_arg (Printf.sprintf "Signal.input: duplicate port %s" name);
  c.circ_inputs <- (name, w) :: c.circ_inputs;
  { circ = c; vbits = Array.init w (fun index -> Input { port = name; index; id = fresh c }) }

let reg c ?(init = 0) name w =
  check_width_range w;
  if init < 0 || init lsr w <> 0 then
    invalid_arg (Printf.sprintf "Signal.reg %s: init %d does not fit" name init);
  if List.exists (fun r -> String.equal r.reg_name name) c.circ_regs then
    invalid_arg (Printf.sprintf "Signal.reg: duplicate register %s" name);
  let def = { reg_name = name; reg_width = w; reg_init = init; reg_next = None; reg_q = [||] } in
  def.reg_q <- Array.init w (fun index -> Regq { reg = def; index; id = fresh c });
  c.circ_regs <- def :: c.circ_regs;
  { r_def = def; r_circ = c }

let q r = { circ = r.r_circ; vbits = r.r_def.reg_q }

let connect r v =
  if v.circ != r.r_circ then invalid_arg "Signal.connect: wrong circuit";
  if width v <> r.r_def.reg_width then
    invalid_arg
      (Printf.sprintf "Signal.connect %s: width %d, expected %d" r.r_def.reg_name (width v)
         r.r_def.reg_width);
  match r.r_def.reg_next with
  | Some _ -> invalid_arg (Printf.sprintf "Signal.connect %s: already connected" r.r_def.reg_name)
  | None -> r.r_def.reg_next <- Some v.vbits

let output c name v =
  if v.circ != c then invalid_arg "Signal.output: wrong circuit";
  if List.mem_assoc name c.circ_outputs then
    invalid_arg (Printf.sprintf "Signal.output: duplicate port %s" name);
  c.circ_outputs <- (name, v) :: c.circ_outputs

let map2 what f a b =
  check_same_width what a b;
  { circ = a.circ; vbits = Array.init (width a) (fun i -> f a.circ a.vbits.(i) b.vbits.(i)) }

let ( &: ) a b = map2 "(&:)" band a b
let ( |: ) a b = map2 "(|:)" bor a b
let ( ^: ) a b = map2 "(^:)" bxor a b
let ( ~: ) a = { circ = a.circ; vbits = Array.map (bnot a.circ) a.vbits }

let expect_bit what v =
  if width v <> 1 then invalid_arg (Printf.sprintf "Signal.%s: expected width 1" what);
  v.vbits.(0)

let add_carry a b ~cin =
  check_same_width "add_carry" a b;
  check_same_circuit a cin;
  let c = a.circ in
  let carry = ref (expect_bit "add_carry cin" cin) in
  let sum =
    Array.init (width a) (fun i ->
        let s = bxor3 c a.vbits.(i) b.vbits.(i) !carry in
        carry := bmaj3 c a.vbits.(i) b.vbits.(i) !carry;
        s)
  in
  ({ circ = c; vbits = sum }, { circ = c; vbits = [| !carry |] })

let ( +: ) a b = fst (add_carry a b ~cin:(gnd a.circ))

let sub_borrow a b ~bin =
  check_same_width "sub_borrow" a b;
  (* a - b - bin = a + ~b + (1 - bin); carry-out 0 means borrow. *)
  let c = a.circ in
  let nbin = { circ = c; vbits = [| bnot c (expect_bit "sub_borrow bin" bin) |] } in
  let diff, carry = add_carry a ~:b ~cin:nbin in
  (diff, { circ = c; vbits = [| bnot c carry.vbits.(0) |] })

let ( -: ) a b = fst (sub_borrow a b ~bin:(gnd a.circ))

let bit v i =
  if i < 0 || i >= width v then invalid_arg (Printf.sprintf "Signal.bit %d of width %d" i (width v));
  { circ = v.circ; vbits = [| v.vbits.(i) |] }

let select v ~hi ~lo =
  if lo < 0 || hi < lo || hi >= width v then
    invalid_arg (Printf.sprintf "Signal.select [%d:%d] of width %d" hi lo (width v));
  { circ = v.circ; vbits = Array.sub v.vbits lo (hi - lo + 1) }

let cat hi lo =
  check_same_circuit hi lo;
  { circ = hi.circ; vbits = Array.append lo.vbits hi.vbits }

let concat = function
  | [] -> invalid_arg "Signal.concat: empty"
  | first :: rest -> List.fold_left (fun acc v -> cat acc v) first rest

let uresize v w =
  check_width_range w;
  let cur = width v in
  if w = cur then v
  else if w < cur then select v ~hi:(w - 1) ~lo:0
  else
    { circ = v.circ; vbits = Array.append v.vbits (Array.make (w - cur) bfalse) }

let sresize v w =
  check_width_range w;
  let cur = width v in
  if w <= cur then uresize v w
  else
    let sign = v.vbits.(cur - 1) in
    { circ = v.circ; vbits = Array.append v.vbits (Array.make (w - cur) sign) }

let sll v n =
  if n < 0 then invalid_arg "Signal.sll";
  let w = width v in
  let shifted i = if i < n then bfalse else v.vbits.(i - n) in
  { circ = v.circ; vbits = Array.init w shifted }

let srl v n =
  if n < 0 then invalid_arg "Signal.srl";
  let w = width v in
  let shifted i = if i + n < w then v.vbits.(i + n) else bfalse in
  { circ = v.circ; vbits = Array.init w shifted }

(* Balanced binary reduction for shallow logic depth. *)
let reduce f c nodes =
  let rec go = function
    | [] -> assert false
    | [ x ] -> x
    | nodes ->
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest -> f c x y :: pair rest
      in
      go (pair nodes)
  in
  go nodes

let reduce_or v = { circ = v.circ; vbits = [| reduce bor v.circ (Array.to_list v.vbits) |] }
let reduce_and v = { circ = v.circ; vbits = [| reduce band v.circ (Array.to_list v.vbits) |] }
let reduce_xor v = { circ = v.circ; vbits = [| reduce bxor v.circ (Array.to_list v.vbits) |] }

let ( ==: ) a b =
  check_same_width "(==:)" a b;
  let c = a.circ in
  let equal_bits =
    Array.to_list (Array.init (width a) (fun i -> bnot c (bxor c a.vbits.(i) b.vbits.(i))))
  in
  { circ = c; vbits = [| reduce band c equal_bits |] }

let ( <>: ) a b = ~:(a ==: b)

let is_zero v =
  { circ = v.circ; vbits = [| bnot v.circ (reduce bor v.circ (Array.to_list v.vbits)) |] }

let eq_const v k = v ==: const v.circ ~width:(width v) k

let ( <: ) a b =
  let _, borrow = sub_borrow a b ~bin:(gnd a.circ) in
  borrow

let mux2 sel if_one if_zero =
  check_same_width "mux2" if_one if_zero;
  check_same_circuit sel if_one;
  let s = expect_bit "mux2 sel" sel in
  let c = sel.circ in
  {
    circ = c;
    vbits = Array.init (width if_one) (fun i -> bmux c ~s ~t:if_one.vbits.(i) ~f:if_zero.vbits.(i));
  }

let mux sel cases =
  let n = List.length cases in
  if n = 0 then invalid_arg "Signal.mux: no cases";
  let w = width sel in
  if w > 8 then invalid_arg "Signal.mux: selector wider than 8 bits";
  let total = 1 lsl w in
  if n > total then invalid_arg "Signal.mux: more cases than selector values";
  let case_width =
    match cases with
    | c :: _ -> width c
    | [] -> assert false
  in
  List.iter
    (fun c ->
      if width c <> case_width then invalid_arg "Signal.mux: case width mismatch";
      check_same_circuit sel c)
    cases;
  let last = List.nth cases (n - 1) in
  let padded = Array.make total last in
  List.iteri (fun i c -> padded.(i) <- c) cases;
  let rec level j remaining =
    match remaining with
    | [ x ] -> x
    | _ ->
      let s = bit sel j in
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | zero :: one :: rest -> mux2 s one zero :: pair rest
      in
      level (j + 1) (pair remaining)
  in
  level 0 (Array.to_list padded)

