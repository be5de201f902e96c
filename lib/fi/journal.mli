(** Crash-safe verdict journal for fault-injection campaigns.

    A journal is a directory holding one immutable [header] file plus a
    sequence of binary record segments. Every verdict a campaign produces
    is appended as a fixed-size CRC-32-checksummed record and flushed to
    the OS with the group it was appended in ({!append_batch}) before
    the campaign moves on, so a campaign killed at any point (including
    SIGKILL) loses at most the group in flight, can be resumed from the
    journal, and finishes with final statistics bit-identical to an
    uninterrupted run.

    Layout:
    - [header]: textual key=value block (campaign identity: core,
      program, cycles, seed, sample count, prune/audit configuration,
      shard count and the serialized {!Pruning_util.Prng} state of the
      master sampler and of the audit sampler), protected by a trailing CRC-32
      line and written atomically (tempfile + rename);
    - [seg-NNNNNN.bin]: finalized segments of exactly
      [records_per_segment] records each, sealed by an atomic rename of
      the active segment — a finalized segment is never written again,
      so any CRC failure inside one is real corruption;
    - [active.bin]: the segment currently being appended to. Only its
      tail (the unflushed group) can be torn by a kill; {!resume} detects the torn
      tail (short or CRC-mismatching record), truncates it — again via
      tempfile + rename — and reports how many bytes were dropped.

    Record layout (13 bytes, little-endian): one byte holding the fault
    model id in its high nibble ({!Fault_model.id}; 0 = seu, so
    pre-fault-model journals are bit-compatible) and the record kind in
    its low nibble, two 32-bit arguments, CRC-32 of the preceding
    9 bytes. *)

type outcome =
  | Benign
  | Latent
  | Sdc of int  (** first divergence cycle *)
  | Skipped  (** pruned (or audited and confirmed benign), not injected *)
  | Crashed  (** experiment failed persistently under the supervisor *)

type entry =
  | Outcome of int * outcome  (** sample index, its classification *)
  | Quarantine of int
      (** MATE of this index was caught misclassifying and is disabled
          for the rest of the campaign *)
  | Poisoned of int
      (** distributed campaigns: this chunk id killed enough distinct
          workers to be quarantined and skipped; its samples have no
          verdicts. Resume ignores these entries, so a resumed campaign
          retries the chunk fresh. *)
  | Arbitrated of {
      index : int;  (** sample whose verdict was disputed *)
      outcome : outcome;  (** quorum winner — authoritative on resume *)
      loser : outcome;
          (** the defeated verdict. Its Sdc cycle is not preserved by
              the 13-byte record (a losing [Sdc c] decodes as [Sdc 0]);
              only the kind matters for audit. *)
      voters : int;  (** quorum ballots beyond the two disputants
                         (saturates at 15 in the record) *)
      overturned : bool;
          (** the quorum voted down the first-recorded verdict; on
              resume this entry overrides the earlier [Outcome] *)
    }
      (** distributed campaigns: a verdict mismatch on [index] was
          settled by majority vote among re-issued workers. Written
          *after* the disputed [Outcome] record; {!resume} and fsck
          apply it as an override, so replay order preserves the
          arbitrated truth. *)

type header = {
  core : string;
  program : string;
  cycles : int;
  seed : int;
  samples : int;
  prune : bool;
  audit : float;  (** audited fraction of pruned faults, 0 = off *)
  shards : int;
      (** [1] for a local ({!Durable}) journal, [0] for a distributed
          one. Older builds wrote [N > 1] under [--jobs N]; such
          journals still parse, but {!require_match} refuses to resume
          them. *)
  batched : bool;
      (** historical: set by the deleted bit-parallel engine. Kept in the
          record and on disk so old journals parse, but not campaign
          identity — {!require_match} ignores it. *)
  epoch : int;
      (** coordinator restart generation: bumped (and persisted) on every
          [serve --resume] so reconnecting workers can tell a restarted
          coordinator from the one they lost. Not campaign identity —
          {!require_match} ignores it; journals written before epochs
          existed parse as generation 0. *)
  fault_model : Fault_model.t;
      (** the fault model every recorded verdict was classified under;
          journals written before fault models existed parse as [Seu].
          Campaign identity: {!require_match} refuses a mismatch and the
          coordinator's [Welcome] payload carries it to every worker. *)
  prng : string;  (** master sampler state, before any draw *)
  shard_prng : string array;
      (** audit-sampler states, one per shard: one for a local journal,
          none for a distributed one *)
}

type writer

val header_to_string : header -> string
(** The textual key=value rendering (trailing CRC-32 line included) used
    for the on-disk header file — and, verbatim, as the coordinator's
    [Welcome] payload on the distributed-campaign wire protocol, so both
    sides pin the identical campaign identity. *)

val header_of_string : what:string -> string -> header
(** Parse {!header_to_string}'s output, verifying the CRC. [what] names
    the source (a directory, a network peer) in error messages. Raises
    {!Error}. *)

val require_match : what:string -> header -> header -> unit
(** [require_match ~what recorded wanted] raises {!Error} with a message
    naming every mismatched campaign-identity field unless the two
    headers describe the same campaign. Resuming — locally or in the
    distributed coordinator — under a different invocation would
    silently change what recorded verdicts mean. The [epoch] and
    [batched] fields are exempt: neither is campaign identity. *)

val same_campaign : header -> header -> bool
(** Equality modulo [epoch]: do two headers describe the same campaign
    (and thus the same engine compilation, the same verdict meaning)?
    Workers key their engine caches on this, so a coordinator failover
    does not force an engine rebuild. *)

exception Error of string
(** Unusable or failing journal: corrupt finalized segment, malformed
    header, an attempt to create over an existing journal, or a disk
    failure (real or injected) while appending — write errors, ENOSPC,
    EIO, a supported-but-failing fsync. Disk failures are sticky: once a
    writer has raised, every later {!append} re-raises the original
    message, so a campaign fails fast instead of recording into a hole.
    The campaign on top maps this to a clean resumable exit. *)

val exists : dir:string -> bool
(** A journal (its header) is present at [dir]. *)

val create : ?records_per_segment:int -> ?chaos:Chaos.t -> dir:string -> header -> writer
(** Start a fresh journal ([records_per_segment] defaults to 4096).
    Creates [dir] if needed; raises {!Error} if a journal already lives
    there (resume it or remove it explicitly — never overwrite).
    [chaos] arms the writer's fault plan: appends consult
    {!Chaos.Journal_write} (short writes, injected ENOSPC/EIO), segment
    seals consult {!Chaos.Journal_fsync} and {!Chaos.Journal_rename};
    injected faults raise {!Error} exactly as the real failure would. *)

val resume : ?records_per_segment:int -> ?chaos:Chaos.t -> dir:string -> unit -> header * entry array * int * writer
(** Reopen a journal for appending: validates the header and every
    finalized segment, truncates a torn tail of the active segment, and
    returns the header, every intact entry in append order, the number
    of torn bytes dropped, and a writer positioned after the last intact
    record. *)

val load : dir:string -> header * entry array * int
(** Read-only {!resume}: same validation and torn-tail detection, but
    nothing on disk is modified and no writer is opened. *)

val read_header : dir:string -> header
(** Parse and CRC-check just the header file, touching no segments —
    the cheap pre-flight for resume-compatibility checks (e.g. refusing
    a [--fault-model] that contradicts the journal before any engine is
    built). Raises {!Error}. *)

val update_header : dir:string -> header -> unit
(** Atomically replace the header file of an {e existing} journal —
    the supervised-failover epoch bump. Never races appends (the header
    is a separate file); a crash mid-update leaves the old header, which
    the next resume simply bumps past. Raises {!Error} if no journal
    lives at [dir]. *)

val append : writer -> entry -> unit
(** [append w e] is [append_batch w [| e |]]. *)

val append_batch : writer -> entry array -> unit
(** Append a group of records (the coordinator passes one [Results]
    frame's verdicts) under one lock, from one buffer, and flush them to
    the OS together: a kill loses at most the group being appended,
    never a record of an earlier group. Thread-safe. The chaos sites
    draw once per record, in order, exactly as one [append] per record
    would, and an injected failure at record k leaves the records before
    it whole on disk and k torn or absent. A {e real} transient ENOSPC
    is absorbed: the writer pauses and retries for a bounded while
    (space freed by an operator or log rotation mid-campaign) before
    declaring the sticky failure; an injected [Chaos.Io_error ENOSPC]
    stays immediately sticky, preserving the injected-fault contract. *)

val stalled : writer -> bool
(** The writer is currently degraded: a recent append was slow (disk
    pressure, injected stall, ENOSPC retry) and the cooldown window has
    not elapsed. The coordinator consults this to pause dispatch —
    backpressure instead of ballooning leases over a struggling disk. *)

val close : writer -> unit

(** {1 Replaying verdicts} *)

val replay : ?quarantine:(int -> unit) -> outcome option array -> entry array -> int
(** [replay outcomes entries] folds a journal's entries, in append
    order, into [outcomes] (one slot per sample index) and returns how
    many empty slots it filled — the recovered verdicts. The first
    [Outcome] for an index wins; an [Arbitrated] entry overrides
    whatever the slot holds (filling it, and counting as recovered, if
    empty); [Poisoned] entries and indices outside [outcomes] are
    ignored. [quarantine] receives every [Quarantine] entry's index
    (default: ignored). Both {!Durable} and {!Coordinator} resume
    through this fold. *)

val stats : outcome option array -> Campaign.stats
(** Statistics of an outcome table: empty slots are not counted, and
    [injections] = benign + latent + sdc. *)

(** {1 Offline integrity check} *)

type fsck_report = {
  fsck_header : header option;  (** [None] if missing or unreadable *)
  fsck_segments : int;  (** sealed segments scanned *)
  fsck_records : int;  (** intact records across all files *)
  fsck_active : int option;  (** records in [active.bin], [None] if absent *)
  fsck_torn_bytes : int;  (** torn tail bytes in [active.bin] *)
  fsck_counts : int array;
      (** per-kind counts, indexed by record kind: benign, latent, sdc,
          skipped, crashed, quarantine, poisoned, arbitrated. The verdict
          kinds (0..4) are the {!stats} of the {!replay} fold over the
          header's [samples] — exactly the statistics a resume
          reconstructs; the others count records. *)
  fsck_models : (int * int array) list;
      (** per-fault-model record counts: (model id, per-kind record
          counts, indexed as [fsck_counts]), ascending by model id. Records whose model
          nibble is unknown ({!Fault_model.base_name_of_id} = [None]) or
          disagrees with the header's pinned model additionally get an
          [fsck_errors] row — reported, never a crash. *)
  fsck_covered : int;
      (** sample indices the {!replay} fold assigns a verdict (without a
          header: distinct indices the records name) *)
  fsck_overturned : int;
      (** arbitrated records whose quorum overturned the first verdict *)
  fsck_arb_ballots : int;  (** total quorum ballots across arbitrations *)
  fsck_errors : (string * string) list;  (** (file, problem) pairs *)
}

val fsck : dir:string -> fsck_report
(** Read-only CRC-32 scan of a journal directory: every finalized
    segment strictly, the active segment leniently (torn tail counted,
    not an error). Never modifies anything and never raises on damage —
    each problem becomes an [fsck_errors] row — so an operator can
    assess a journal mid-failover without touching it. A report with
    [fsck_errors = []] is a journal {!resume} will accept; a header with
    [shards > 1] (an older build's [--jobs N]) is reported as a problem. *)
