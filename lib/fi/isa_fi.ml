module Avr_ref = Pruning_cpu.Avr_ref
module Prng = Pruning_util.Prng

type verdict =
  | Benign
  | Latent
  | Sdc

type experiment = {
  reg : int;
  bit : int;
  at_step : int;
}

let golden_cache : (int array * int, Avr_ref.t) Hashtbl.t = Hashtbl.create 4

let golden ~program ~max_steps =
  match Hashtbl.find_opt golden_cache (program, max_steps) with
  | Some t -> t
  | None ->
    let t = Avr_ref.create ~program () in
    Avr_ref.run t ~max_steps;
    Hashtbl.replace golden_cache (program, max_steps) t;
    t

let avr_inject ~program ~max_steps { reg; bit; at_step } =
  if reg < 0 || reg > 31 then invalid_arg "Isa_fi: register out of range";
  if bit < 0 || bit > 7 then invalid_arg "Isa_fi: bit out of range";
  let g = golden ~program ~max_steps in
  let faulty = Avr_ref.create ~program () in
  Avr_ref.run faulty ~max_steps:at_step;
  faulty.Avr_ref.rf.(reg) <- faulty.Avr_ref.rf.(reg) lxor (1 lsl bit);
  Avr_ref.run faulty ~max_steps:(max_steps - at_step);
  if
    faulty.Avr_ref.ram <> g.Avr_ref.ram
    || faulty.Avr_ref.portb_writes <> g.Avr_ref.portb_writes
  then Sdc
  else if
    faulty.Avr_ref.rf <> g.Avr_ref.rf
    || faulty.Avr_ref.flag_c <> g.Avr_ref.flag_c
    || faulty.Avr_ref.flag_z <> g.Avr_ref.flag_z
    || faulty.Avr_ref.flag_n <> g.Avr_ref.flag_n
    || faulty.Avr_ref.flag_v <> g.Avr_ref.flag_v
  then Latent
  else Benign

type stats = {
  injections : int;
  benign : int;
  latent : int;
  sdc : int;
}

let avr_campaign ~program ~max_steps ~rng ~n ?(regs = List.init 32 Fun.id) () =
  let regs = Array.of_list regs in
  let stats = ref { injections = 0; benign = 0; latent = 0; sdc = 0 } in
  for _ = 1 to n do
    let experiment =
      {
        reg = regs.(Prng.int rng (Array.length regs));
        bit = Prng.int rng 8;
        at_step = Prng.int rng (max 1 max_steps);
      }
    in
    let s = { !stats with injections = !stats.injections + 1 } in
    stats :=
      (match avr_inject ~program ~max_steps experiment with
      | Benign -> { s with benign = s.benign + 1 }
      | Latent -> { s with latent = s.latent + 1 }
      | Sdc -> { s with sdc = s.sdc + 1 })
  done;
  !stats
