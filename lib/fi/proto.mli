(** Wire protocol of the distributed campaign layer.

    {b Framing.} Every message travels in a frame:
    [\[len:4 LE\]\[crc:4 LE\]\[payload:len bytes\]] where [crc] is the
    CRC-32 ({!Pruning_util.Crc}) of the payload. A frame whose CRC does
    not match, whose length field exceeds the 16 MiB payload cap (a
    garbage length field must not make the receiver allocate
    gigabytes), or whose stream ends mid-frame raises {!Error} — a
    coordinator never acts on bytes a flaky link or a half-dead peer
    mangled.

    {b Messages.} The conversation is worker-driven: a worker greets with
    [Hello], the coordinator pins the campaign identity with [Welcome]
    (the {!Journal.header}, verbatim in its CRC-guarded textual form),
    and the worker then pulls [Request] → [Assign]/[Wait]/[Done], streams
    [Results] while computing, and closes each chunk with [Chunk_done].
    Any frame counts as liveness for the heartbeat/lease machinery;
    [Heartbeat] exists for when a worker has nothing else to say. *)

exception Error of string
(** Corrupt, truncated or oversized frame, or an undecodable message. *)

exception Closed
(** The peer closed the connection at a clean frame boundary. *)

(** {1 Frames} *)

val encode_frame : string -> string
(** The full frame encoding of a payload (for tests and buffering). *)

(** {1 Streaming decoder}

    For select-loop receivers: feed whatever bytes arrived, pop complete
    frames. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> unit
(** [feed d buf n] appends the first [n] bytes of [buf]. *)

val next_frame : decoder -> string option
(** Pop the next complete frame's payload, [None] if more bytes are
    needed. Raises {!Error} on a corrupt or oversized frame. *)

(** {1 Messages} *)

val version : int
(** Protocol version; [Hello]/[Welcome] with a different version are
    refused. Version 2 added the worker's last-seen coordinator epoch
    to [Hello]; version 3 pins the fault model on every [Assign] chunk
    descriptor; version 4 tags every chunk with its {!purpose}
    (arbitration re-issue descriptors) and reports the worker's own
    suspicion score in [Welcome]. *)

type purpose =
  | Data  (** first issue of the chunk *)
  | Verify  (** cross-validation re-run ([--verify-frac]) *)
  | Arbitrate  (** quorum ballot: re-run to vote on a disputed verdict *)
      (** Why a chunk is being issued. Workers execute all three
          identically — determinism is the contract — the tag exists for
          logs, tests and future scheduling policy. *)

val purpose_name : purpose -> string
(** ["data" | "verify" | "arbitrate"]. *)

type chunk = {
  chunk_id : int;
  lo : int;  (** first sample index, inclusive *)
  hi : int;  (** last sample index, inclusive *)
  model : int;
      (** {!Fault_model.id} of the model the chunk's samples are
          classified under — must agree with the Welcome header's model;
          a worker refuses a contradicting lease *)
  model_param : int;  (** {!Fault_model.param} (cluster size / hold cycles) *)
  purpose : purpose;
}

type msg =
  | Hello of { version : int; name : string; epoch : int }
      (** worker → coordinator. [epoch] is the coordinator generation the
          worker last spoke to ([-1] = never): a coordinator seeing a
          stale epoch knows this worker survived a failover and is about
          to re-deliver its in-flight verdicts (safe: first-verdict-wins
          dedup). *)
  | Welcome of { header : Journal.header; suspicion : int }
      (** coordinator → worker: campaign identity (the {!Journal.header},
          including the current [epoch] — how a reconnecting worker
          detects a restarted coordinator and drops stale lease state)
          plus the coordinator's current suspicion score for this
          worker's name ({!Reputation}); a worker rejoining past the
          quarantine threshold learns it is sidelined *)
  | Request  (** worker → coordinator: give me a chunk *)
  | Assign of chunk
  | Wait  (** nothing assignable now; heartbeat and ask again *)
  | Results of { chunk_id : int; results : (int * Journal.outcome) array }
      (** worker → coordinator: classified sample indices, streamed as
          they are produced *)
  | Chunk_done of { chunk_id : int }
  | Heartbeat  (** worker → coordinator: liveness only *)
  | Done  (** coordinator → worker: campaign complete, disconnect *)

val encode : msg -> string
(** Message payload bytes (to be framed). *)

val decode : string -> msg
(** Raises {!Error} on undecodable payloads (including a [Welcome]
    header whose own CRC fails). *)

val send : ?deadline:float -> ?chaos:Chaos.t -> Unix.file_descr -> msg -> unit
(** Write one message's frame, looping over partial writes. [deadline]
    (absolute, {!Pruning_util.Mono} monotonic clock) bounds the total
    time spent blocked on an unwritable socket — needed on non-blocking
    descriptors, where EAGAIN is awaited with [select] until the
    deadline, then {!Error} is raised (a stalled peer must not wedge the
    coordinator). [chaos] consults the fault plan at {!Chaos.Send}
    before writing: injected delays and slow-loris dribbles keep the
    frame intact; bit corruption flips one payload bit {e after} the CRC
    was computed (the receiver must detect it); truncation and resets
    raise the [ECONNRESET] a real dying link would. *)

val recv : ?deadline:float -> ?chaos:Chaos.t -> Unix.file_descr -> msg
(** Blocking read of one frame, decoded. [deadline] (absolute,
    {!Pruning_util.Mono} clock) bounds the total wait for the peer's
    bytes — {!Error} once it passes, so a slow-loris or half-dead sender
    cannot hang the reader. [chaos] consults the plan at {!Chaos.Recv}
    (delays and connection resets only). Raises {!Closed} on EOF at a
    frame boundary, {!Error} on EOF mid-frame, CRC mismatch or an
    undecodable payload. *)

val connect : string -> int -> Unix.file_descr
(** A blocking TCP connection to [host]:[port] with [TCP_NODELAY] set:
    [host] is resolved with [getaddrinfo] (IPv4), each address tried in
    turn. Raises [Unix.Unix_error] when none accepts. *)
