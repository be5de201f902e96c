(** Deterministic splitmix64 pseudo-random number generator.

    Used wherever the library needs reproducible randomness (random netlist
    generation in tests, fault sampling in campaigns) so that experiments are
    repeatable without threading OCaml's global [Random] state around. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a generator from a seed. Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in \[0, bound) by rejection
    sampling (exactly uniform — no modulo bias). [bound] must be
    positive. *)

val bool : t -> bool
(** Uniform boolean. *)

val float : t -> float
(** Uniform float in \[0, 1). *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent generator (for parallel deterministic streams). *)

val save : t -> string
(** Serialize the exact generator state (a short printable token). The
    source generator is not advanced. *)

val restore : string -> t
(** Rebuild a generator from {!save}'s output; the restored generator
    replays the identical stream the saved one would have produced.
    Raises [Invalid_argument] on a malformed token. *)
