type t = {
  n_wires : int;
  bytes_per_cycle : int;
  mutable rows : Bytes.t array; (* capacity-grown *)
  mutable n_cycles : int;
}

let create ~n_wires =
  if n_wires <= 0 then invalid_arg "Trace.create";
  { n_wires; bytes_per_cycle = (n_wires + 7) / 8; rows = Array.make 64 Bytes.empty; n_cycles = 0 }

let n_wires t = t.n_wires
let n_cycles t = t.n_cycles

let ensure_capacity t =
  if t.n_cycles >= Array.length t.rows then begin
    let bigger = Array.make (2 * Array.length t.rows) Bytes.empty in
    Array.blit t.rows 0 bigger 0 t.n_cycles;
    t.rows <- bigger
  end

let append t values =
  if Array.length values <> t.n_wires then invalid_arg "Trace.append: width mismatch";
  ensure_capacity t;
  (* Pack 8 wires per byte in one pass: accumulate the byte in a local
     int and store it once, instead of a read-modify-write through
     Char.code/Char.chr for every set bit. *)
  let row = Bytes.create t.bytes_per_cycle in
  let n = t.n_wires in
  for b = 0 to t.bytes_per_cycle - 1 do
    let base = b lsl 3 in
    let lim = min 8 (n - base) in
    let byte = ref 0 in
    for j = 0 to lim - 1 do
      if Array.unsafe_get values (base + j) then byte := !byte lor (1 lsl j)
    done;
    Bytes.unsafe_set row b (Char.unsafe_chr !byte)
  done;
  t.rows.(t.n_cycles) <- row;
  t.n_cycles <- t.n_cycles + 1

let check t ~cycle w =
  if cycle < 0 || cycle >= t.n_cycles then invalid_arg "Trace: cycle out of range";
  if w < 0 || w >= t.n_wires then invalid_arg "Trace: wire out of range"

let get_unchecked t cycle w =
  Char.code (Bytes.get t.rows.(cycle) (w lsr 3)) land (1 lsl (w land 7)) <> 0

let get t ~cycle w =
  check t ~cycle w;
  get_unchecked t cycle w

let row_bytes t ~cycle =
  if cycle < 0 || cycle >= t.n_cycles then invalid_arg "Trace.row_bytes: cycle out of range";
  t.rows.(cycle)

let row t ~cycle =
  if cycle < 0 || cycle >= t.n_cycles then invalid_arg "Trace.row: cycle out of range";
  Array.init t.n_wires (get_unchecked t cycle)

let bits_per_word = Sys.int_size

let n_words t = (t.n_cycles + bits_per_word - 1) / bits_per_word

let column t ~wire =
  if wire < 0 || wire >= t.n_wires then invalid_arg "Trace.column: wire out of range";
  let words = Array.make (n_words t) 0 in
  let byte = wire lsr 3 and bit = wire land 7 in
  for cycle = 0 to t.n_cycles - 1 do
    if Char.code (Bytes.unsafe_get t.rows.(cycle) byte) land (1 lsl bit) <> 0 then
      words.(cycle / bits_per_word) <-
        words.(cycle / bits_per_word) lor (1 lsl (cycle mod bits_per_word))
  done;
  words

let changed t ~cycle w =
  check t ~cycle w;
  if cycle = 0 then true
  else get_unchecked t cycle w <> get_unchecked t (cycle - 1) w
