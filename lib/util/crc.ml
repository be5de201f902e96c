(* Built eagerly at module initialisation: a [lazy] table raises
   [CamlinternalLazy.Undefined] when two domains force it at once (a
   coordinator and a worker framing their first messages in one
   process). The array is never mutated after this, so sharing it
   across domains is safe. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask32 = 0xFFFFFFFF

let bytes ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Crc.bytes";
  let c = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask32

let string ?crc s = bytes ?crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
