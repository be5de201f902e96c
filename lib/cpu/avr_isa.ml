type target =
  | Label of string
  | Rel of int

type t =
  | Nop
  | Mov of int * int
  | Add of int * int
  | Adc of int * int
  | Sub of int * int
  | Sbc of int * int
  | And_ of int * int
  | Or_ of int * int
  | Eor of int * int
  | Cp of int * int
  | Cpc of int * int
  | Ldi of int * int
  | Subi of int * int
  | Sbci of int * int
  | Andi of int * int
  | Ori of int * int
  | Cpi of int * int
  | Com of int
  | Neg of int
  | Swap of int
  | Inc of int
  | Dec of int
  | Lsr of int
  | Ror of int
  | Asr of int
  | Ld_x of int
  | Ld_x_inc of int
  | St_x of int
  | St_x_inc of int
  | Adiw of int * int
  | Sbiw of int * int
  | In_ of int * int
  | Out of int * int
  | Rjmp of target
  | Breq of target
  | Brne of target
  | Brcs of target
  | Brcc of target
  | Brmi of target
  | Brpl of target
  | Brvs of target
  | Brvc of target
  | Brlt of target
  | Brge of target

let io_portb = 0x18
let io_pinb = 0x16

let bad fmt = Printf.ksprintf invalid_arg fmt

let check_reg what r = if r < 0 || r > 31 then bad "Avr_isa: %s: register r%d out of range" what r

let check_hreg what r =
  if r < 16 || r > 31 then bad "Avr_isa: %s: register r%d not in r16..r31" what r

let check_imm what k = if k < 0 || k > 255 then bad "Avr_isa: %s: immediate %d out of range" what k

let check_io what a = if a < 0 || a > 63 then bad "Avr_isa: %s: i/o address %d out of range" what a

let rel what bits = function
  | Label l -> bad "Avr_isa: %s: unresolved label %s" what l
  | Rel k ->
    let lo = -(1 lsl (bits - 1)) and hi = (1 lsl (bits - 1)) - 1 in
    if k < lo || k > hi then bad "Avr_isa: %s: offset %d out of range" what k;
    k land ((1 lsl bits) - 1)

(* Two-register format: oooooo rd dddd rrrr with r = {bit9, bits3..0}. *)
let two_reg opcode6 rd rr what =
  check_reg what rd;
  check_reg what rr;
  (opcode6 lsl 10) lor ((rr lsr 4) lsl 9) lor (rd lsl 4) lor (rr land 0xF)

(* Immediate format: oooo KKKK dddd KKKK with d = 16 + field. *)
let imm_op opcode4 rd k what =
  check_hreg what rd;
  check_imm what k;
  (opcode4 lsl 12) lor ((k lsr 4) lsl 8) lor ((rd - 16) lsl 4) lor (k land 0xF)

(* One-register format: 1001 010d dddd oooo. *)
let one_reg op4 rd what =
  check_reg what rd;
  0x9400 lor (rd lsl 4) lor op4

let ldst load inc r what =
  check_reg what r;
  if load && inc && r = 26 then bad "Avr_isa: %s: LD r26, X+ would double-write r26" what;
  (if load then 0x9000 else 0x9200) lor (r lsl 4) lor if inc then 0xD else 0xC

(* Word format: 1001 011o KKdd KKKK with the pair dd in {24,26,28,30}. *)
let word_op o rp k what =
  if rp <> 24 && rp <> 26 && rp <> 28 && rp <> 30 then
    bad "Avr_isa: %s: register pair r%d invalid (24/26/28/30)" what rp;
  if k < 0 || k > 63 then bad "Avr_isa: %s: constant %d out of range" what k;
  let dd = (rp - 24) / 2 in
  0x9600 lor (o lsl 8) lor ((k lsr 4) lsl 6) lor (dd lsl 4) lor (k land 0xF)

(* Branch format: 1111 0skk kkkk ksss; bs=0 -> BRBS, bs=1 -> BRBC. *)
let branch bs sreg_bit target what =
  let k = rel what 7 target in
  0xF000 lor (bs lsl 10) lor (k lsl 3) lor sreg_bit

let encode = function
  | Nop -> 0x0000
  | Mov (rd, rr) -> two_reg 0b001011 rd rr "MOV"
  | Add (rd, rr) -> two_reg 0b000011 rd rr "ADD"
  | Adc (rd, rr) -> two_reg 0b000111 rd rr "ADC"
  | Sub (rd, rr) -> two_reg 0b000110 rd rr "SUB"
  | Sbc (rd, rr) -> two_reg 0b000010 rd rr "SBC"
  | And_ (rd, rr) -> two_reg 0b001000 rd rr "AND"
  | Or_ (rd, rr) -> two_reg 0b001010 rd rr "OR"
  | Eor (rd, rr) -> two_reg 0b001001 rd rr "EOR"
  | Cp (rd, rr) -> two_reg 0b000101 rd rr "CP"
  | Cpc (rd, rr) -> two_reg 0b000001 rd rr "CPC"
  | Ldi (rd, k) -> imm_op 0b1110 rd k "LDI"
  | Subi (rd, k) -> imm_op 0b0101 rd k "SUBI"
  | Sbci (rd, k) -> imm_op 0b0100 rd k "SBCI"
  | Andi (rd, k) -> imm_op 0b0111 rd k "ANDI"
  | Ori (rd, k) -> imm_op 0b0110 rd k "ORI"
  | Cpi (rd, k) -> imm_op 0b0011 rd k "CPI"
  | Com rd -> one_reg 0b0000 rd "COM"
  | Neg rd -> one_reg 0b0001 rd "NEG"
  | Swap rd -> one_reg 0b0010 rd "SWAP"
  | Inc rd -> one_reg 0b0011 rd "INC"
  | Asr rd -> one_reg 0b0101 rd "ASR"
  | Lsr rd -> one_reg 0b0110 rd "LSR"
  | Ror rd -> one_reg 0b0111 rd "ROR"
  | Dec rd -> one_reg 0b1010 rd "DEC"
  | Ld_x rd -> ldst true false rd "LD X"
  | Ld_x_inc rd -> ldst true true rd "LD X+"
  | St_x rr -> ldst false false rr "ST X"
  | St_x_inc rr -> ldst false true rr "ST X+"
  | Adiw (rp, k) -> word_op 0 rp k "ADIW"
  | Sbiw (rp, k) -> word_op 1 rp k "SBIW"
  | In_ (rd, a) ->
    check_reg "IN" rd;
    check_io "IN" a;
    0xB000 lor ((a lsr 4) lsl 9) lor (rd lsl 4) lor (a land 0xF)
  | Out (a, rr) ->
    check_reg "OUT" rr;
    check_io "OUT" a;
    0xB800 lor ((a lsr 4) lsl 9) lor (rr lsl 4) lor (a land 0xF)
  | Rjmp target -> 0xC000 lor rel "RJMP" 12 target
  | Breq target -> branch 0 1 target "BREQ"
  | Brne target -> branch 1 1 target "BRNE"
  | Brcs target -> branch 0 0 target "BRCS"
  | Brcc target -> branch 1 0 target "BRCC"
  | Brmi target -> branch 0 2 target "BRMI"
  | Brpl target -> branch 1 2 target "BRPL"
  | Brvs target -> branch 0 3 target "BRVS"
  | Brvc target -> branch 1 3 target "BRVC"
  | Brlt target -> branch 0 4 target "BRLT"
  | Brge target -> branch 1 4 target "BRGE"

let sign_extend bits v = if v land (1 lsl (bits - 1)) <> 0 then v - (1 lsl bits) else v

let decode word =
  if word < 0 || word > 0xFFFF then None
  else if word = 0 then Some Nop
  else
    let op6 = word lsr 10 in
    let rd = (word lsr 4) land 0x1F in
    let rr = (((word lsr 9) land 1) lsl 4) lor (word land 0xF) in
    let two ctor = Some (ctor (rd, rr)) in
    match op6 with
    | 0b000001 -> two (fun (d, r) -> Cpc (d, r))
    | 0b000010 -> two (fun (d, r) -> Sbc (d, r))
    | 0b000011 -> two (fun (d, r) -> Add (d, r))
    | 0b000101 -> two (fun (d, r) -> Cp (d, r))
    | 0b000110 -> two (fun (d, r) -> Sub (d, r))
    | 0b000111 -> two (fun (d, r) -> Adc (d, r))
    | 0b001000 -> two (fun (d, r) -> And_ (d, r))
    | 0b001001 -> two (fun (d, r) -> Eor (d, r))
    | 0b001010 -> two (fun (d, r) -> Or_ (d, r))
    | 0b001011 -> two (fun (d, r) -> Mov (d, r))
    | _ -> begin
      let op4 = word lsr 12 in
      let imm_d = 16 + ((word lsr 4) land 0xF) in
      let imm_k = (((word lsr 8) land 0xF) lsl 4) lor (word land 0xF) in
      match op4 with
      | 0b0011 -> Some (Cpi (imm_d, imm_k))
      | 0b0100 -> Some (Sbci (imm_d, imm_k))
      | 0b0101 -> Some (Subi (imm_d, imm_k))
      | 0b0110 -> Some (Ori (imm_d, imm_k))
      | 0b0111 -> Some (Andi (imm_d, imm_k))
      | 0b1110 -> Some (Ldi (imm_d, imm_k))
      | 0b1100 -> Some (Rjmp (Rel (sign_extend 12 (word land 0xFFF))))
      | _ ->
        if word lsr 9 = 0b1001011 then begin
          let k = (((word lsr 6) land 0x3) lsl 4) lor (word land 0xF) in
          let rp = 24 + (2 * ((word lsr 4) land 0x3)) in
          if (word lsr 8) land 1 = 0 then Some (Adiw (rp, k)) else Some (Sbiw (rp, k))
        end
        else if word lsr 9 = 0b1001010 then begin
          match word land 0xF with
          | 0b0000 -> Some (Com rd)
          | 0b0001 -> Some (Neg rd)
          | 0b0010 -> Some (Swap rd)
          | 0b0011 -> Some (Inc rd)
          | 0b0101 -> Some (Asr rd)
          | 0b0110 -> Some (Lsr rd)
          | 0b0111 -> Some (Ror rd)
          | 0b1010 -> Some (Dec rd)
          | _ -> None
        end
        else if word lsr 9 = 0b1001000 then begin
          match word land 0xF with
          | 0xC -> Some (Ld_x rd)
          | 0xD -> Some (Ld_x_inc rd)
          | _ -> None
        end
        else if word lsr 9 = 0b1001001 then begin
          match word land 0xF with
          | 0xC -> Some (St_x rd)
          | 0xD -> Some (St_x_inc rd)
          | _ -> None
        end
        else if word lsr 11 = 0b10110 then
          Some (In_ (rd, (((word lsr 9) land 0x3) lsl 4) lor (word land 0xF)))
        else if word lsr 11 = 0b10111 then
          Some (Out ((((word lsr 9) land 0x3) lsl 4) lor (word land 0xF), rd))
        else if word lsr 11 = 0b11110 || word lsr 11 = 0b11111 then begin
          let offset = Rel (sign_extend 7 ((word lsr 3) land 0x7F)) in
          let set = (word lsr 10) land 1 = 0 in
          match (set, word land 0x7) with
          | true, 1 -> Some (Breq offset)
          | false, 1 -> Some (Brne offset)
          | true, 0 -> Some (Brcs offset)
          | false, 0 -> Some (Brcc offset)
          | true, 2 -> Some (Brmi offset)
          | false, 2 -> Some (Brpl offset)
          | true, 3 -> Some (Brvs offset)
          | false, 3 -> Some (Brvc offset)
          | true, 4 -> Some (Brlt offset)
          | false, 4 -> Some (Brge offset)
          | _ -> None
        end
        else None
    end

let target_to_string = function
  | Label l -> l
  | Rel k -> Printf.sprintf ".%+d" k

let to_string = function
  | Nop -> "NOP"
  | Mov (d, r) -> Printf.sprintf "MOV r%d, r%d" d r
  | Add (d, r) -> Printf.sprintf "ADD r%d, r%d" d r
  | Adc (d, r) -> Printf.sprintf "ADC r%d, r%d" d r
  | Sub (d, r) -> Printf.sprintf "SUB r%d, r%d" d r
  | Sbc (d, r) -> Printf.sprintf "SBC r%d, r%d" d r
  | And_ (d, r) -> Printf.sprintf "AND r%d, r%d" d r
  | Or_ (d, r) -> Printf.sprintf "OR r%d, r%d" d r
  | Eor (d, r) -> Printf.sprintf "EOR r%d, r%d" d r
  | Cp (d, r) -> Printf.sprintf "CP r%d, r%d" d r
  | Cpc (d, r) -> Printf.sprintf "CPC r%d, r%d" d r
  | Ldi (d, k) -> Printf.sprintf "LDI r%d, %d" d k
  | Subi (d, k) -> Printf.sprintf "SUBI r%d, %d" d k
  | Sbci (d, k) -> Printf.sprintf "SBCI r%d, %d" d k
  | Andi (d, k) -> Printf.sprintf "ANDI r%d, %d" d k
  | Ori (d, k) -> Printf.sprintf "ORI r%d, %d" d k
  | Cpi (d, k) -> Printf.sprintf "CPI r%d, %d" d k
  | Com d -> Printf.sprintf "COM r%d" d
  | Neg d -> Printf.sprintf "NEG r%d" d
  | Swap d -> Printf.sprintf "SWAP r%d" d
  | Inc d -> Printf.sprintf "INC r%d" d
  | Dec d -> Printf.sprintf "DEC r%d" d
  | Lsr d -> Printf.sprintf "LSR r%d" d
  | Ror d -> Printf.sprintf "ROR r%d" d
  | Asr d -> Printf.sprintf "ASR r%d" d
  | Ld_x d -> Printf.sprintf "LD r%d, X" d
  | Ld_x_inc d -> Printf.sprintf "LD r%d, X+" d
  | St_x r -> Printf.sprintf "ST X, r%d" r
  | St_x_inc r -> Printf.sprintf "ST X+, r%d" r
  | Adiw (rp, k) -> Printf.sprintf "ADIW r%d:%d, %d" (rp + 1) rp k
  | Sbiw (rp, k) -> Printf.sprintf "SBIW r%d:%d, %d" (rp + 1) rp k
  | In_ (d, a) -> Printf.sprintf "IN r%d, 0x%02X" d a
  | Out (a, r) -> Printf.sprintf "OUT 0x%02X, r%d" a r
  | Rjmp t -> Printf.sprintf "RJMP %s" (target_to_string t)
  | Breq t -> Printf.sprintf "BREQ %s" (target_to_string t)
  | Brne t -> Printf.sprintf "BRNE %s" (target_to_string t)
  | Brcs t -> Printf.sprintf "BRCS %s" (target_to_string t)
  | Brcc t -> Printf.sprintf "BRCC %s" (target_to_string t)
  | Brmi t -> Printf.sprintf "BRMI %s" (target_to_string t)
  | Brpl t -> Printf.sprintf "BRPL %s" (target_to_string t)
  | Brvs t -> Printf.sprintf "BRVS %s" (target_to_string t)
  | Brvc t -> Printf.sprintf "BRVC %s" (target_to_string t)
  | Brlt t -> Printf.sprintf "BRLT %s" (target_to_string t)
  | Brge t -> Printf.sprintf "BRGE %s" (target_to_string t)
