(** AVR instruction subset: encoding and decoding.

    The 8-bit AVR-compatible core implements the subset below with the
    original ATmega instruction encodings. Branch targets are PC-relative
    word offsets; the assembler resolves labels to offsets.

    Restrictions mirrored from the core (documented deviations from a full
    ATmega): immediate instructions require [r16]..[r31] as on real AVR;
    data addressing uses the X pointer's low byte only (256-byte data
    space); [LD Rd, X+] must not target r26. *)

type target =
  | Label of string  (** resolved by the assembler *)
  | Rel of int  (** signed word offset, relative to the next instruction *)

type t =
  | Nop
  | Mov of int * int  (** [Mov (rd, rr)]: rd <- rr *)
  | Add of int * int
  | Adc of int * int
  | Sub of int * int
  | Sbc of int * int
  | And_ of int * int
  | Or_ of int * int
  | Eor of int * int
  | Cp of int * int
  | Cpc of int * int
  | Ldi of int * int  (** [Ldi (rd, k)], rd in 16..31, k in 0..255 *)
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
  | Ld_x of int  (** [LD Rd, X] *)
  | Ld_x_inc of int  (** [LD Rd, X+] *)
  | St_x of int  (** [ST X, Rr] *)
  | St_x_inc of int  (** [ST X+, Rr] *)
  | Adiw of int * int
      (** [Adiw (rp, k)]: 16-bit add of k (0..63) to the register pair
          rp:rp+1, rp in \{24, 26, 28, 30\} *)
  | Sbiw of int * int  (** 16-bit subtract from a register pair *)
  | In_ of int * int  (** [In_ (rd, io_addr)] *)
  | Out of int * int  (** [Out (io_addr, rr)] *)
  | Rjmp of target
  | Breq of target
  | Brne of target
  | Brcs of target
  | Brcc of target
  | Brmi of target  (** branch if N set *)
  | Brpl of target  (** branch if N clear *)
  | Brvs of target  (** branch if V set *)
  | Brvc of target  (** branch if V clear *)
  | Brlt of target  (** branch if S = N xor V set (signed less-than) *)
  | Brge of target  (** branch if S clear (signed greater-or-equal) *)

val encode : t -> int
(** 16-bit instruction word. Raises [Invalid_argument] on out-of-range
    operands or unresolved labels. *)

val decode : int -> t option
(** Inverse of {!encode} for the implemented subset ([None] otherwise).
    Branches decode to [Rel] targets. Aliases decode to their underlying
    instruction. *)

val to_string : t -> string
(** Assembly-ish rendering, e.g. ["ADD r16, r17"]. *)

(** I/O addresses implemented by the core. *)

val io_portb : int
(** Output port register (0x18). *)

val io_pinb : int
(** Input pins (0x16). *)
