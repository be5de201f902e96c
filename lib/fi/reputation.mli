(** Worker reputation: per-name suspicion scores.

    The coordinator cannot tell a lying worker from an unlucky one on a
    single observation, so it accumulates evidence instead: every
    observable misbehaviour maps to an {!event} with a fixed integer
    weight, and a worker whose accumulated score crosses the campaign's
    [--suspect-threshold] is quarantined (excluded from arbitration
    voting, its completed chunks always cross-validated).

    The module is deliberately pure bookkeeping — no clocks, no I/O, no
    randomness — so a worker's score is a function of the event sequence
    alone ({!of_events} folds a sequence into the same table that
    incremental {!record} calls build).  This is load-bearing for audit:
    the serve log's reputation events fully determine the final scores. *)

type event =
  | Arbitration_loss  (** held a verdict a quorum voted down (weight 3) *)
  | Corrupt_frame  (** sent a frame that failed CRC/decode (weight 2) *)
  | Lease_expiry  (** let a chunk lease lapse while connected (weight 1) *)

val weight : event -> int
(** Fixed integer weight added to the score per event (3 / 2 / 1). *)

type t
(** Mutable score table, keyed by worker name. *)

val create : unit -> t
(** Empty table; every name scores 0. *)

val score : t -> string -> int
(** Current score for [name] (0 if never seen). *)

val record : t -> name:string -> event -> int
(** Add [weight event] to [name]'s score and return the new score. *)

val of_events : (string * event) list -> t
(** Fold an event sequence into a fresh table.  Equal to replaying the
    same events through {!record} in order — scores are a pure function
    of the sequence (tested by a qcheck property). *)

val scores : t -> (string * int) list
(** All (name, score) pairs, sorted by name for deterministic output. *)
