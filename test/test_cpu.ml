open Helpers
module Avr_isa = Pruning_cpu.Avr_isa
module Avr_asm = Pruning_cpu.Avr_asm
module Avr_ref = Pruning_cpu.Avr_ref
module Msp_isa = Pruning_cpu.Msp_isa
module Msp_asm = Pruning_cpu.Msp_asm
module Msp_ref = Pruning_cpu.Msp_ref
module Programs = Pruning_cpu.Programs
module System = Pruning_cpu.System

(* Read a multi-bit register from the simulator by flop naming convention. *)
let vec sim nl name width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    let w = Netlist.find_wire nl (Printf.sprintf "%s[%d]" name i) in
    if Sim.peek sim w then v := !v lor (1 lsl i)
  done;
  !v

(* ------------------------------------------------------------------ *)
(* ISA encode/decode                                                    *)

let avr_random_instr rng : Avr_isa.t =
  let r () = Prng.int rng 32 in
  let h () = 16 + Prng.int rng 16 in
  let k () = Prng.int rng 256 in
  let io () = List.nth [ 0x16; 0x18; 0x01; 0x3F ] (Prng.int rng 4) (* not 0x32: TCNT is cycle-dependent *) in
  let t () = Avr_isa.Rel (Prng.int rng 128 - 64) in
  match Prng.int rng 42 with
  | 0 -> Avr_isa.Nop
  | 1 -> Avr_isa.Mov (r (), r ())
  | 2 -> Avr_isa.Add (r (), r ())
  | 3 -> Avr_isa.Adc (r (), r ())
  | 4 -> Avr_isa.Sub (r (), r ())
  | 5 -> Avr_isa.Sbc (r (), r ())
  | 6 -> Avr_isa.And_ (r (), r ())
  | 7 -> Avr_isa.Or_ (r (), r ())
  | 8 -> Avr_isa.Eor (r (), r ())
  | 9 -> Avr_isa.Cp (r (), r ())
  | 10 -> Avr_isa.Cpc (r (), r ())
  | 11 -> Avr_isa.Ldi (h (), k ())
  | 12 -> Avr_isa.Subi (h (), k ())
  | 13 -> Avr_isa.Sbci (h (), k ())
  | 14 -> Avr_isa.Andi (h (), k ())
  | 15 -> Avr_isa.Ori (h (), k ())
  | 16 -> Avr_isa.Cpi (h (), k ())
  | 17 -> Avr_isa.Com (r ())
  | 18 -> Avr_isa.Neg (r ())
  | 19 -> Avr_isa.Inc (r ())
  | 20 -> Avr_isa.Dec (r ())
  | 21 -> Avr_isa.Lsr (r ())
  | 22 -> Avr_isa.Ror (r ())
  | 23 -> Avr_isa.Asr (r ())
  | 24 -> Avr_isa.Ld_x (r ())
  | 25 ->
    let d = r () in
    Avr_isa.Ld_x_inc (if d = 26 then 25 else d)
  | 26 -> Avr_isa.St_x (r ())
  | 27 -> Avr_isa.St_x_inc (r ())
  | 28 -> Avr_isa.In_ (r (), io ())
  | 29 -> Avr_isa.Out (io (), r ())
  | 30 -> Avr_isa.Rjmp (Avr_isa.Rel (Prng.int rng 4096 - 2048))
  | 31 -> Avr_isa.Breq (t ())
  | 32 -> Avr_isa.Brne (t ())
  | 33 -> Avr_isa.Swap (r ())
  | 34 -> Avr_isa.Adiw (24 + (2 * Prng.int rng 4), Prng.int rng 64)
  | 35 -> Avr_isa.Sbiw (24 + (2 * Prng.int rng 4), Prng.int rng 64)
  | 36 -> Avr_isa.Brmi (t ())
  | 37 -> Avr_isa.Brpl (t ())
  | 38 -> Avr_isa.Brvs (t ())
  | 39 -> Avr_isa.Brvc (t ())
  | 40 -> Avr_isa.Brlt (t ())
  | _ -> Avr_isa.Brge (t ())

let test_avr_encode_decode_roundtrip () =
  let rng = Prng.create 123 in
  for _ = 1 to 2000 do
    let insn = avr_random_instr rng in
    let word = Avr_isa.encode insn in
    check_bool "16-bit word" true (word >= 0 && word <= 0xFFFF);
    match Avr_isa.decode word with
    | None -> Alcotest.failf "decode failed for %s (0x%04X)" (Avr_isa.to_string insn) word
    | Some insn' ->
      if insn <> insn' then
        Alcotest.failf "roundtrip: %s -> 0x%04X -> %s" (Avr_isa.to_string insn) word
          (Avr_isa.to_string insn')
  done

let test_avr_encode_errors () =
  Alcotest.check_raises "ldi low register"
    (Invalid_argument "Avr_isa: LDI: register r3 not in r16..r31") (fun () ->
      ignore (Avr_isa.encode (Avr_isa.Ldi (3, 1))));
  Alcotest.check_raises "branch range"
    (Invalid_argument "Avr_isa: BRNE: offset 100 out of range") (fun () ->
      ignore (Avr_isa.encode (Avr_isa.Brne (Avr_isa.Rel 100))));
  Alcotest.check_raises "unresolved label"
    (Invalid_argument "Avr_isa: RJMP: unresolved label foo") (fun () ->
      ignore (Avr_isa.encode (Avr_isa.Rjmp (Avr_isa.Label "foo"))));
  Alcotest.check_raises "ld x+ r26"
    (Invalid_argument "Avr_isa: LD X+: LD r26, X+ would double-write r26") (fun () ->
      ignore (Avr_isa.encode (Avr_isa.Ld_x_inc 26)))

let msp_random_src rng : Msp_isa.src =
  match Prng.int rng 5 with
  | 0 -> Msp_isa.Reg (4 + Prng.int rng 12)
  | 1 -> Msp_isa.Indexed (4 + Prng.int rng 12, Prng.int rng 0x10000)
  | 2 -> Msp_isa.Indirect (4 + Prng.int rng 12)
  | 3 -> Msp_isa.Indirect_inc (4 + Prng.int rng 12)
  | _ -> Msp_isa.Imm (Prng.int rng 0x10000)

let msp_random_dst rng : Msp_isa.dst =
  if Prng.bool rng then Msp_isa.Dreg (4 + Prng.int rng 12)
  else Msp_isa.Dindexed (4 + Prng.int rng 12, Prng.int rng 0x10000)

let msp_random_instr rng : Msp_isa.t =
  let s () = msp_random_src rng in
  let d () = msp_random_dst rng in
  let r () = 4 + Prng.int rng 12 in
  let t () = Msp_isa.Rel (Prng.int rng 1024 - 512) in
  match Prng.int rng 23 with
  | 0 -> Msp_isa.Mov (s (), d ())
  | 1 -> Msp_isa.Add (s (), d ())
  | 2 -> Msp_isa.Addc (s (), d ())
  | 3 -> Msp_isa.Sub (s (), d ())
  | 4 -> Msp_isa.Subc (s (), d ())
  | 5 -> Msp_isa.Cmp (s (), d ())
  | 6 -> Msp_isa.Bit (s (), d ())
  | 7 -> Msp_isa.Bic (s (), d ())
  | 8 -> Msp_isa.Bis (s (), d ())
  | 9 -> Msp_isa.Xor (s (), d ())
  | 10 -> Msp_isa.And_ (s (), d ())
  | 11 -> Msp_isa.Rrc (r ())
  | 12 -> Msp_isa.Rra (r ())
  | 13 -> Msp_isa.Swpb (r ())
  | 14 -> Msp_isa.Sxt (r ())
  | 15 -> Msp_isa.Jnz (t ())
  | 16 -> Msp_isa.Jz (t ())
  | 17 -> Msp_isa.Jnc (t ())
  | 18 -> Msp_isa.Jc (t ())
  | 19 -> Msp_isa.Jn (t ())
  | 20 -> Msp_isa.Jge (t ())
  | 21 -> Msp_isa.Jl (t ())
  | _ -> Msp_isa.Jmp (t ())

let test_msp_encode_decode_roundtrip () =
  let rng = Prng.create 321 in
  for _ = 1 to 2000 do
    let insn = msp_random_instr rng in
    let words = Array.of_list (Msp_isa.encode insn) in
    check_int "size matches" (Msp_isa.size insn) (Array.length words);
    match Msp_isa.decode words 0 with
    | None -> Alcotest.failf "decode failed for %s" (Msp_isa.to_string insn)
    | Some (insn', size) ->
      check_int "decoded size" (Array.length words) size;
      if insn <> insn' then
        Alcotest.failf "roundtrip: %s -> %s" (Msp_isa.to_string insn) (Msp_isa.to_string insn')
  done

let test_asm_labels () =
  let open Avr_isa in
  let prog =
    [
      Avr_asm.L "top"; Avr_asm.I (Ldi (16, 1)); Avr_asm.I (Brne (Label "top"));
      Avr_asm.I (Rjmp (Label "end")); Avr_asm.I Nop; Avr_asm.L "end";
      Avr_asm.I (Rjmp (Label "top"));
    ]
  in
  let words = Avr_asm.assemble prog in
  check_int "length" 5 (Array.length words);
  (match Avr_isa.decode words.(1) with
  | Some (Brne (Rel (-2))) -> ()
  | _ -> Alcotest.fail "backward branch offset");
  (match Avr_isa.decode words.(2) with
  | Some (Rjmp (Rel 1)) -> ()
  | _ -> Alcotest.fail "forward jump offset");
  match Avr_isa.decode words.(4) with
  | Some (Rjmp (Rel (-5))) -> ()
  | _ -> Alcotest.fail "far backward jump"

let test_asm_errors () =
  Alcotest.check_raises "dup label" (Invalid_argument "Avr_asm: duplicate label x") (fun () ->
      ignore (Avr_asm.assemble [ Avr_asm.L "x"; Avr_asm.L "x" ]));
  Alcotest.check_raises "undefined" (Invalid_argument "Avr_asm: undefined label nowhere")
    (fun () -> ignore (Avr_asm.assemble [ Avr_asm.I (Avr_isa.Rjmp (Avr_isa.Label "nowhere")) ]));
  Alcotest.check_raises "msp undefined" (Invalid_argument "Msp_asm: undefined label nope")
    (fun () -> ignore (Msp_asm.assemble [ Msp_asm.I (Msp_isa.Jmp (Msp_isa.Label "nope")) ]))

let test_msp_asm_multiword_offsets () =
  let open Msp_isa in
  (* Multi-word instructions must advance the location counter by their
     size when resolving jumps. *)
  let prog =
    [
      Msp_asm.L "top"; Msp_asm.I (Mov (Imm 0x1234, Dindexed (6, 8)));
      Msp_asm.I (Jnz (Label "top"));
    ]
  in
  let words = Msp_asm.assemble prog in
  check_int "3 + 1 words" 4 (Array.length words);
  match Msp_isa.decode words 3 with
  | Some (Jnz (Rel (-4)), 1) -> ()
  | Some (Jnz (Rel k), _) -> Alcotest.failf "wrong offset %d" k
  | _ -> Alcotest.fail "expected JNZ"

(* ------------------------------------------------------------------ *)
(* Gate-level core vs ISA reference model                               *)

let avr_compare_state ?(check_ram = true) name (sys : System.t) (reference : Avr_ref.t) =
  let nl = sys.System.netlist in
  for i = 0 to 31 do
    Alcotest.(check int)
      (Printf.sprintf "%s: r%d" name i)
      reference.Avr_ref.rf.(i)
      (vec sys.System.sim nl (Printf.sprintf "rf_%d" i) 8)
  done;
  let sreg = vec sys.System.sim nl "sreg" 5 in
  check_bool (name ^ ": C") reference.Avr_ref.flag_c (sreg land 1 <> 0);
  check_bool (name ^ ": Z") reference.Avr_ref.flag_z (sreg land 2 <> 0);
  check_bool (name ^ ": N") reference.Avr_ref.flag_n (sreg land 4 <> 0);
  check_bool (name ^ ": V") reference.Avr_ref.flag_v (sreg land 8 <> 0);
  check_bool (name ^ ": S") reference.Avr_ref.flag_s (sreg land 16 <> 0);
  check_int (name ^ ": portb") reference.Avr_ref.portb (vec sys.System.sim nl "portb" 8);
  if check_ram then
    for a = 0 to 255 do
      check_int (Printf.sprintf "%s: ram[%d]" name a) reference.Avr_ref.ram.(a) sys.System.ram.(a)
    done

let run_avr_against_ref ?(pinb = 0x5A) ~cycles name items =
  let program = Avr_asm.assemble items in
  let sys = System.create_avr ~pins:pinb ~program name in
  System.run sys ~cycles;
  Sim.eval sys.System.sim;
  let reference = Avr_ref.create ~pinb ~program () in
  Avr_ref.run reference ~max_steps:cycles;
  check_bool (name ^ ": reference halted") true reference.Avr_ref.halted;
  avr_compare_state name sys reference

let test_avr_fib_program () = run_avr_against_ref ~cycles:2500 "fib" Programs.avr_fib_halting

let test_avr_fib_expected_values () =
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let sys = System.create_avr ~program "fib" in
  System.run sys ~cycles:2500;
  Array.iteri
    (fun i expected -> check_int (Printf.sprintf "fib[%d]" i) expected sys.System.ram.(i))
    Programs.avr_fib_expected

let test_avr_conv_program () = run_avr_against_ref ~cycles:8000 "conv" Programs.avr_conv_halting

let test_avr_conv_expected_values () =
  let program = Avr_asm.assemble Programs.avr_conv_halting in
  let sys = System.create_avr ~program "conv" in
  System.run sys ~cycles:8000;
  List.iter
    (fun (addr, expected) ->
      check_int (Printf.sprintf "y at %d" addr) expected sys.System.ram.(addr))
    Programs.avr_conv_expected

let test_avr_sort_program () = run_avr_against_ref ~cycles:6000 "sort" Programs.avr_sort_halting

let test_avr_sort_expected_values () =
  let program = Avr_asm.assemble Programs.avr_sort_halting in
  let sys = System.create_avr ~program "sort" in
  System.run sys ~cycles:6000;
  Array.iteri
    (fun i expected -> check_int (Printf.sprintf "sorted[%d]" i) expected sys.System.ram.(i))
    Programs.avr_sort_expected

let test_avr_flag_semantics () =
  (* Directed flag corner cases: carry chains, Z-chain of SBC/CPC, ROR
     through carry, INC/DEC overflow. *)
  let open Avr_isa in
  let i x = Avr_asm.I x in
  let directed =
    [
      [ i (Ldi (16, 255)); i (Ldi (17, 1)); i (Add (16, 17)); i (Adc (17, 17)) ];
      [ i (Ldi (16, 0x80)); i (Dec 16) ];
      [ i (Ldi (16, 0x7F)); i (Inc 16) ];
      [ i (Ldi (16, 1)); i (Lsr 16); i (Ror 16); i (Ror 16) ];
      [ i (Ldi (16, 0)); i (Ldi (17, 0)); i (Sub (16, 17)); i (Sbc (16, 17)) ];
      [ i (Ldi (16, 5)); i (Neg 16); i (Neg 16); i (Com 16) ];
      [ i (Ldi (16, 200)); i (Cpi (16, 200)); i (Sbci (16, 0)) ];
      [ i (Ldi (16, 0x90)); i (Asr 16); i (Asr 16) ];
      [ i (Ldi (16, 0xAB)); i (Swap 16); i (Swap 16) ];
      [ i (Ldi (24, 0xFF)); i (Ldi (25, 0xFF)); i (Adiw (24, 1)); i (Adiw (24, 63)) ];
      [ i (Ldi (26, 0)); i (Ldi (27, 0)); i (Sbiw (26, 1)); i (Sbiw (26, 63)) ];
      [ i (Ldi (28, 0xFF)); i (Ldi (29, 0x7F)); i (Adiw (28, 1)) ] (* signed overflow *);
      [
        i (Ldi (16, 10)); i (Cpi (16, 20)); i (Brlt (Label "less")); i (Ldi (17, 1));
        Avr_asm.L "less"; i (Ldi (18, 2)); i (Cpi (16, 5)); i (Brge (Label "geq"));
        i (Ldi (19, 3)); Avr_asm.L "geq"; i (Ldi (20, 4));
      ];
      [ i (Ldi (16, 0x80)); i (Dec 16); i (Brvs (Label "v")); i (Ldi (17, 9)); Avr_asm.L "v";
        i (Subi (16, 1)); i (Brmi (Label "m")); i (Ldi (18, 9)); Avr_asm.L "m"; i Nop ];
    ]
  in
  List.iteri
    (fun idx body ->
      let items = body @ [ Avr_asm.L "h"; i (Rjmp (Label "h")) ] in
      run_avr_against_ref ~cycles:200 (Printf.sprintf "flags-%d" idx) items)
    directed

let test_avr_random_programs () =
  let rng = Prng.create 777 in
  for case = 1 to 40 do
    let body =
      List.init 30 (fun _ ->
          let rec pick () =
            let insn = avr_random_instr rng in
            match insn with
            | Avr_isa.Rjmp _ | Avr_isa.Breq _ | Avr_isa.Brne _ | Avr_isa.Brcs _
            | Avr_isa.Brcc _ | Avr_isa.Brmi _ | Avr_isa.Brpl _ | Avr_isa.Brvs _
            | Avr_isa.Brvc _ | Avr_isa.Brlt _ | Avr_isa.Brge _ ->
              pick () (* keep random programs straight-line *)
            | _ -> insn
          in
          Avr_asm.I (pick ()))
    in
    (* Seed the pointer so loads/stores stay deterministic but varied. *)
    let items =
      (Avr_asm.I (Avr_isa.Ldi (26, Prng.int rng 256)) :: body)
      @ [ Avr_asm.L "h"; Avr_asm.I (Avr_isa.Rjmp (Avr_isa.Label "h")) ]
    in
    run_avr_against_ref ~cycles:120 (Printf.sprintf "random-%d" case) items
  done

(* ---- MSP430 ------------------------------------------------------- *)

let msp_compare_state ?(check_mem = true) name (sys : System.t) (reference : Msp_ref.t) =
  let nl = sys.System.netlist in
  for r = 4 to 15 do
    check_int
      (Printf.sprintf "%s: r%d" name r)
      reference.Msp_ref.regs.(r)
      (vec sys.System.sim nl (Printf.sprintf "rf_%d" r) 16)
  done;
  let sr = vec sys.System.sim nl "sr" 4 in
  check_bool (name ^ ": C") reference.Msp_ref.flag_c (sr land 1 <> 0);
  check_bool (name ^ ": Z") reference.Msp_ref.flag_z (sr land 2 <> 0);
  check_bool (name ^ ": N") reference.Msp_ref.flag_n (sr land 4 <> 0);
  check_bool (name ^ ": V") reference.Msp_ref.flag_v (sr land 8 <> 0);
  if check_mem then
    Array.iteri
      (fun i v -> check_int (Printf.sprintf "%s: mem[%d]" name i) v sys.System.ram.(i))
      reference.Msp_ref.mem

let run_msp_against_ref ~cycles name items =
  let program = Msp_asm.assemble items in
  let sys = System.create_msp ~program name in
  System.run sys ~cycles;
  Sim.eval sys.System.sim;
  let reference = Msp_ref.create ~words:2048 ~program in
  Msp_ref.run reference ~max_steps:cycles;
  check_bool (name ^ ": reference halted") true reference.Msp_ref.halted;
  msp_compare_state name sys reference

let test_msp_fib_program () = run_msp_against_ref ~cycles:3000 "fib" Programs.msp_fib_halting

let test_msp_fib_expected_values () =
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  let sys = System.create_msp ~program "fib" in
  System.run sys ~cycles:3000;
  Array.iteri
    (fun i expected ->
      check_int
        (Printf.sprintf "fib[%d]" i)
        expected
        sys.System.ram.((Programs.msp_fib_base / 2) + i))
    Programs.msp_fib_expected

let test_msp_conv_program () = run_msp_against_ref ~cycles:25000 "conv" Programs.msp_conv_halting

let test_msp_conv_expected_values () =
  let program = Msp_asm.assemble Programs.msp_conv_halting in
  let sys = System.create_msp ~program "conv" in
  System.run sys ~cycles:25000;
  List.iter
    (fun (addr, expected) ->
      check_int (Printf.sprintf "y at 0x%x" addr) expected sys.System.ram.(addr / 2))
    Programs.msp_conv_expected

let test_msp_addressing_modes () =
  let open Msp_isa in
  let i x = Msp_asm.I x in
  let cases =
    [
      (* register/immediate *)
      [ i (Mov (Imm 0x1234, Dreg 4)); i (Add (Reg 4, Dreg 4)) ];
      (* indexed store + load back *)
      [
        i (Mov (Imm 0x400, Dreg 6)); i (Mov (Imm 77, Dindexed (6, 4)));
        i (Mov (Indexed (6, 4), Dreg 5));
      ];
      (* indirect and post-increment *)
      [
        i (Mov (Imm 0x400, Dreg 6)); i (Mov (Imm 1111, Dindexed (6, 0)));
        i (Mov (Imm 2222, Dindexed (6, 2))); i (Mov (Indirect_inc 6, Dreg 7));
        i (Mov (Indirect 6, Dreg 8)); i (Add (Indirect_inc 6, Dreg 7));
      ];
      (* format II *)
      [
        i (Mov (Imm 0x8001, Dreg 4)); i (Rra 4); i (Mov (Imm 0x8001, Dreg 5));
        i (Rrc 5); i (Rrc 5); i (Mov (Imm 0x00AB, Dreg 9)); i (Swpb 9);
        i (Mov (Imm 0x0080, Dreg 10)); i (Sxt 10);
      ];
      (* flags: carry / overflow / zero *)
      [
        i (Mov (Imm 0xFFFF, Dreg 4)); i (Add (Imm 1, Dreg 4)); i (Addc (Imm 0, Dreg 4));
        i (Mov (Imm 0x8000, Dreg 5)); i (Sub (Imm 1, Dreg 5)); i (Cmp (Reg 5, Dreg 5));
        i (Subc (Imm 0, Dreg 5));
      ];
      (* logic ops *)
      [
        i (Mov (Imm 0xF0F0, Dreg 4)); i (And_ (Imm 0xFF00, Dreg 4));
        i (Bis (Imm 0x000F, Dreg 4)); i (Xor (Imm 0xFFFF, Dreg 4));
        i (Bic (Imm 0x00F0, Dreg 4)); i (Bit (Imm 0x0F00, Dreg 4));
      ];
    ]
  in
  List.iteri
    (fun idx body ->
      let items = body @ [ Msp_asm.L "h"; Msp_asm.I (Jmp (Label "h")) ] in
      run_msp_against_ref ~cycles:800 (Printf.sprintf "modes-%d" idx) items)
    cases

let test_msp_random_programs () =
  let rng = Prng.create 999 in
  for case = 1 to 25 do
    let safe_src () : Msp_isa.src =
      match Prng.int rng 6 with
      | 0 | 1 -> Msp_isa.Reg (4 + Prng.int rng 9)
      | 2 -> Msp_isa.Imm (Prng.int rng 0x10000)
      | 3 -> Msp_isa.Indexed (13, 2 * Prng.int rng 16)
      | 4 -> Msp_isa.Indirect 13
      | _ -> Msp_isa.Indirect_inc 13
    in
    let safe_dst () : Msp_isa.dst =
      if Prng.int rng 3 = 0 then Msp_isa.Dindexed (13, 2 * Prng.int rng 16)
      else Msp_isa.Dreg (4 + Prng.int rng 9)
    in
    let random_op () : Msp_isa.t =
      let s = safe_src () and d = safe_dst () in
      match Prng.int rng 15 with
      | 0 -> Msp_isa.Mov (s, d)
      | 1 -> Msp_isa.Add (s, d)
      | 2 -> Msp_isa.Addc (s, d)
      | 3 -> Msp_isa.Sub (s, d)
      | 4 -> Msp_isa.Subc (s, d)
      | 5 -> Msp_isa.Cmp (s, d)
      | 6 -> Msp_isa.Bit (s, d)
      | 7 -> Msp_isa.Bic (s, d)
      | 8 -> Msp_isa.Bis (s, d)
      | 9 -> Msp_isa.Xor (s, d)
      | 10 -> Msp_isa.And_ (s, d)
      | 11 -> Msp_isa.Rrc (4 + Prng.int rng 9)
      | 12 -> Msp_isa.Rra (4 + Prng.int rng 9)
      | 13 -> Msp_isa.Swpb (4 + Prng.int rng 9)
      | _ -> Msp_isa.Sxt (4 + Prng.int rng 9)
    in
    (* R13 is the memory window pointer, reset periodically; R14/R15 stay
       free so the register file keeps unwritten cells too. *)
    let body =
      List.concat
        (List.init 20 (fun i ->
             let reseed =
               if i mod 7 = 0 then [ Msp_asm.I (Msp_isa.Mov (Msp_isa.Imm 0x400, Msp_isa.Dreg 13)) ]
               else []
             in
             reseed @ [ Msp_asm.I (random_op ()) ]))
    in
    let items =
      (Msp_asm.I (Msp_isa.Mov (Msp_isa.Imm 0x400, Msp_isa.Dreg 13)) :: body)
      @ [ Msp_asm.L "h"; Msp_asm.I (Msp_isa.Jmp (Msp_isa.Label "h")) ]
    in
    run_msp_against_ref ~cycles:1200 (Printf.sprintf "random-%d" case) items
  done

let test_core_sizes () =
  let avr = System.avr_netlist () in
  check_int "avr flops" 306 (Netlist.n_flops avr);
  check_int "avr rf flops" 256 (List.length (Netlist.flops_matching avr ~prefix:"rf_"));
  check_bool "avr has gates" true (Netlist.n_gates avr > 500);
  let msp = System.msp_netlist () in
  check_int "msp flops" 311 (Netlist.n_flops msp);
  check_int "msp rf flops" 192 (List.length (Netlist.flops_matching msp ~prefix:"rf_"));
  check_bool "msp has gates" true (Netlist.n_gates msp > 500)

(* The catalogue every tool looks its core/program up in: the pairs
   and system names are pinned (they label tables and journals), and
   each maker builds over the netlist it is handed, not a fresh one. *)
let test_catalogue () =
  let names =
    List.concat_map
      (fun (c : System.core) ->
        List.map
          (fun (p, (program : System.program)) ->
            (c.System.core_name, p, program.System.system_name))
          c.System.programs)
      System.catalogue
  in
  Alcotest.(check (list (triple string string string)))
    "pairs and system names"
    [
      ("avr", "fib", "avr/fib");
      ("avr", "conv", "avr/conv");
      ("avr", "sort", "avr/sort");
      ("msp430", "fib", "msp/fib");
      ("msp430", "conv", "msp/conv");
    ]
    names;
  List.iter
    (fun (c : System.core) ->
      let nl = c.System.build () in
      List.iter
        (fun (_, (program : System.program)) ->
          let name = program.System.system_name in
          let sys = program.System.make nl in
          check_bool (name ^ ": make uses the given netlist") true (sys.System.netlist == nl);
          check_string (name ^ ": system name") name sys.System.name;
          check_string (name ^ ": rf prefix") c.System.core_rf_prefix sys.System.rf_prefix;
          let db = program.System.make_delta_batch nl ~trace:(System.record sys ~cycles:4) in
          check_bool (name ^ ": make_delta_batch uses the given netlist") true
            (db.System.db_netlist == nl);
          check_string (name ^ ": batched system name") name db.System.db_name)
        c.System.programs)
    System.catalogue;
  check_bool "an unbuilt pair is not found" true
    (Option.is_none (System.find ~core:"msp430" ~program:"sort"))

let suite =
  [
    Alcotest.test_case "avr encode/decode roundtrip" `Quick test_avr_encode_decode_roundtrip;
    Alcotest.test_case "avr encode errors" `Quick test_avr_encode_errors;
    Alcotest.test_case "msp encode/decode roundtrip" `Quick test_msp_encode_decode_roundtrip;
    Alcotest.test_case "assembler labels" `Quick test_asm_labels;
    Alcotest.test_case "assembler errors" `Quick test_asm_errors;
    Alcotest.test_case "msp multiword offsets" `Quick test_msp_asm_multiword_offsets;
    Alcotest.test_case "avr fib vs reference" `Quick test_avr_fib_program;
    Alcotest.test_case "avr fib values" `Quick test_avr_fib_expected_values;
    Alcotest.test_case "avr conv vs reference" `Quick test_avr_conv_program;
    Alcotest.test_case "avr conv values" `Quick test_avr_conv_expected_values;
    Alcotest.test_case "avr sort vs reference" `Quick test_avr_sort_program;
    Alcotest.test_case "avr sort values" `Quick test_avr_sort_expected_values;
    Alcotest.test_case "avr flag corner cases" `Quick test_avr_flag_semantics;
    Alcotest.test_case "avr random programs" `Slow test_avr_random_programs;
    Alcotest.test_case "msp fib vs reference" `Quick test_msp_fib_program;
    Alcotest.test_case "msp fib values" `Quick test_msp_fib_expected_values;
    Alcotest.test_case "msp conv vs reference" `Quick test_msp_conv_program;
    Alcotest.test_case "msp conv values" `Quick test_msp_conv_expected_values;
    Alcotest.test_case "msp addressing modes" `Quick test_msp_addressing_modes;
    Alcotest.test_case "msp random programs" `Slow test_msp_random_programs;
    Alcotest.test_case "core sizes" `Quick test_core_sizes;
    Alcotest.test_case "built-in catalogue" `Quick test_catalogue;
  ]
