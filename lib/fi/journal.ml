module Crc = Pruning_util.Crc
module Mono = Pruning_util.Mono

type outcome =
  | Benign
  | Latent
  | Sdc of int
  | Skipped
  | Crashed

type entry =
  | Outcome of int * outcome
  | Quarantine of int
  | Poisoned of int
  | Arbitrated of {
      index : int;
      outcome : outcome;
      loser : outcome;
      voters : int;
      overturned : bool;
    }

type header = {
  core : string;
  program : string;
  cycles : int;
  seed : int;
  samples : int;
  prune : bool;
  audit : float;
  shards : int;
  batched : bool;
  epoch : int;
  fault_model : Fault_model.t;
  prng : string;
  shard_prng : string array;
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Records: [model:4 bits | kind:4 bits][a:4 LE][b:4 LE]
   [crc32(first 9 bytes):4 LE]. The high nibble of the first byte pins
   the fault model the record was classified under (Fault_model.id);
   journals written before fault models existed carry nibble 0 = seu,
   so the layout is bit-compatible with every historical journal. *)

let record_size = 13

let kind_of_entry = function
  | Outcome (_, Benign) -> 0
  | Outcome (_, Latent) -> 1
  | Outcome (_, Sdc _) -> 2
  | Outcome (_, Skipped) -> 3
  | Outcome (_, Crashed) -> 4
  | Quarantine _ -> 5
  | Poisoned _ -> 6
  | Arbitrated _ -> 7

(* Arbitrated packs its provenance into the b word:
     bits 0..2   winner outcome kind (same coding as record kinds 0..4)
     bits 3..5   losing outcome kind
     bit  6      overturned (winner differs from the first-recorded verdict)
     bits 7..10  quorum ballot count (saturates at 15)
     bits 11..31 winner's Sdc detection cycle (saturates at 2^21 - 1)
   The loser's Sdc cycle is dropped — it lost the vote; only its kind
   matters for audit — so a losing [Sdc c] decodes as [Sdc 0]. *)
let outcome_kind = function
  | Benign -> 0
  | Latent -> 1
  | Sdc _ -> 2
  | Skipped -> 3
  | Crashed -> 4

let outcome_of_kind k arg =
  match k with
  | 0 -> Benign
  | 1 -> Latent
  | 2 -> Sdc arg
  | 3 -> Skipped
  | _ -> Crashed

let args_of_entry = function
  | Outcome (i, Sdc c) -> (i, c)
  | Outcome (i, _) -> (i, 0)
  | Quarantine m -> (m, 0)
  | Poisoned c -> (c, 0)
  | Arbitrated { index; outcome; loser; voters; overturned } ->
    let cycle = match outcome with Sdc c -> min c 0x1FFFFF | _ -> 0 in
    ( index,
      outcome_kind outcome
      lor (outcome_kind loser lsl 3)
      lor ((if overturned then 1 else 0) lsl 6)
      lor (min voters 15 lsl 7)
      lor (cycle lsl 11) )

let put32 buf pos v =
  for k = 0 to 3 do
    Bytes.set buf (pos + k) (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

let get32 buf pos =
  let v = ref 0 in
  for k = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get buf (pos + k))
  done;
  !v

let encode_record ?(model = 0) ?(pos = 0) buf entry =
  Bytes.set buf pos (Char.chr (((model land 0xF) lsl 4) lor kind_of_entry entry));
  let a, b = args_of_entry entry in
  put32 buf (pos + 1) a;
  put32 buf (pos + 5) b;
  put32 buf (pos + 9) (Crc.bytes buf ~pos ~len:9)

(* [None] on CRC mismatch or unknown kind (a torn or corrupt record).
   The model nibble is returned as-is, even for ids no decoder knows
   yet: a CRC-intact record from a future model is data to report, not
   corruption ({!fsck} surfaces unknown ids as problems). *)
let decode_record buf pos =
  let crc = get32 buf (pos + 9) in
  if crc <> Crc.bytes buf ~pos ~len:9 then None
  else
    let byte = Char.code (Bytes.get buf pos) in
    let model = byte lsr 4 in
    let a = get32 buf (pos + 1) and b = get32 buf (pos + 5) in
    match byte land 0xF with
    | 0 -> Some (model, Outcome (a, Benign))
    | 1 -> Some (model, Outcome (a, Latent))
    | 2 -> Some (model, Outcome (a, Sdc b))
    | 3 -> Some (model, Outcome (a, Skipped))
    | 4 -> Some (model, Outcome (a, Crashed))
    | 5 -> Some (model, Quarantine a)
    | 6 -> Some (model, Poisoned a)
    | 7 ->
      Some
        ( model,
          Arbitrated
            {
              index = a;
              outcome = outcome_of_kind (b land 0x7) (b lsr 11);
              loser = outcome_of_kind ((b lsr 3) land 0x7) 0;
              voters = (b lsr 7) land 0xF;
              overturned = b land 0x40 <> 0;
            } )
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Paths and atomic writes.                                            *)

let header_file dir = Filename.concat dir "header"
let active_file dir = Filename.concat dir "active.bin"
let segment_file dir i = Filename.concat dir (Printf.sprintf "seg-%06d.bin" i)

(* Filesystems that simply cannot fsync this descriptor (directories on
   some FS, odd mounts) degrade the journal to
   crash-safe-but-not-power-loss-safe — tolerable, and exactly what it
   was before fsync support. A failing fsync that *was* supported
   (ENOSPC, EIO) is different: the records the OS accepted may never
   reach the platter, so continuing would record verdicts that a power
   loss silently unrecords. Surface those as {!Error} and let the
   campaign fail cleanly and be resumed. *)
let fsync_fd fd =
  try Unix.fsync fd with
  | Unix.Unix_error ((Unix.EINVAL | Unix.EOPNOTSUPP | Unix.ENOSYS), _, _) -> ()
  | Unix.Unix_error (e, _, _) -> error "fsync failed: %s" (Unix.error_message e)

let fsync_channel oc =
  flush oc;
  fsync_fd (Unix.descr_of_out_channel oc)

(* A rename is only durable once the directory entry itself is on disk;
   fsync the directory after every rename that must survive power loss. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fsync_fd fd)

(* Tempfile + rename: readers and resumers never observe a half-written
   file, and a kill mid-write leaves only a stale [.tmp] behind. The
   content is fsynced before the rename and the directory after it, so
   the renamed file is durable, not merely atomic. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  fsync_channel oc;
  close_out oc;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let buf = Bytes.create len in
  really_input ic buf 0 len;
  close_in ic;
  buf

(* ------------------------------------------------------------------ *)
(* Header serialization: key=value lines guarded by a trailing CRC.    *)

let magic = "pruning-verdict-journal v1"

let header_to_string h =
  let b = Buffer.create 256 in
  Buffer.add_string b (magic ^ "\n");
  let kv k v = Buffer.add_string b (Printf.sprintf "%s=%s\n" k v) in
  kv "core" h.core;
  kv "program" h.program;
  kv "cycles" (string_of_int h.cycles);
  kv "seed" (string_of_int h.seed);
  kv "samples" (string_of_int h.samples);
  kv "prune" (if h.prune then "1" else "0");
  (* %h is exact: the audit fraction must survive the round-trip
     bit-for-bit for resumed audit draws to replay identically. *)
  kv "audit" (Printf.sprintf "%h" h.audit);
  kv "shards" (string_of_int h.shards);
  kv "batched" (if h.batched then "1" else "0");
  kv "epoch" (string_of_int h.epoch);
  kv "fault_model" (Fault_model.name h.fault_model);
  kv "prng" h.prng;
  Array.iteri (fun i s -> kv (Printf.sprintf "shard%d" i) s) h.shard_prng;
  let body = Buffer.contents b in
  body ^ Printf.sprintf "crc=%08x\n" (Crc.string body)

let header_of_string ~what:dir s =
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> l <> "") lines in
  (match lines with
  | m :: _ when m = magic -> ()
  | _ -> error "%s: not a verdict journal (bad magic)" dir);
  let fields = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match String.index_opt line '=' with
      | None -> ()
      | Some i ->
        Hashtbl.replace fields (String.sub line 0 i)
          (String.sub line (i + 1) (String.length line - i - 1)))
    (List.tl lines);
  let get k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None -> error "%s: journal header is missing field %S" dir k
  in
  let crc_line = Printf.sprintf "crc=%s\n" (get "crc") in
  let body_len = String.length s - String.length crc_line in
  if body_len < 0 || String.sub s body_len (String.length crc_line) <> crc_line then
    error "%s: journal header CRC line is malformed" dir;
  if Printf.sprintf "%08x" (Crc.string (String.sub s 0 body_len)) <> get "crc" then
    error "%s: journal header CRC mismatch" dir;
  let int k =
    match int_of_string_opt (get k) with
    | Some v -> v
    | None -> error "%s: journal header field %S is not an integer" dir k
  in
  (* Counts size arrays downstream: a CRC-valid header is still untrusted
     input (a peer's Welcome), so out-of-range counts are an [Error]. *)
  let count k ~least =
    let v = int k in
    if v < least then
      error "%s: journal header field %S must be at least %d (got %d)" dir k least v;
    v
  in
  let shards = count "shards" ~least:0 in
  (* The shardK keys are read until the first gap, never pre-sized by
     [shards], and must then number exactly [shards]. *)
  let rec shard_states i =
    match Hashtbl.find_opt fields (Printf.sprintf "shard%d" i) with
    | Some v -> v :: shard_states (i + 1)
    | None -> []
  in
  let shard_prng = Array.of_list (shard_states 0) in
  if Array.length shard_prng <> shards then
    error "%s: journal header has %d shard PRNG states for shards=%d" dir
      (Array.length shard_prng) shards;
  {
    core = get "core";
    program = get "program";
    cycles = count "cycles" ~least:1;
    seed = int "seed";
    samples = count "samples" ~least:0;
    prune = get "prune" = "1";
    audit =
      (match float_of_string_opt (get "audit") with
      | Some f -> f
      | None -> error "%s: journal header field \"audit\" is not a float" dir);
    shards;
    batched = get "batched" = "1";
    (* Journals written before coordinator epochs existed have no epoch
       field; they are generation zero. *)
    epoch =
      (match Hashtbl.find_opt fields "epoch" with
      | None -> 0
      | Some v -> (
        match int_of_string_opt v with
        | Some e -> e
        | None -> error "%s: journal header field \"epoch\" is not an integer" dir));
    (* Same backward-compat rule as epoch: journals written before fault
       models existed are SEU journals. *)
    fault_model =
      (match Hashtbl.find_opt fields "fault_model" with
      | None -> Fault_model.Seu
      | Some v -> (
        match Fault_model.of_string v with
        | Ok m -> m
        | Error msg -> error "%s: journal header field \"fault_model\": %s" dir msg));
    prng = get "prng";
    shard_prng;
  }

(* A local run is one shard; [shards > 1] was written by [--jobs N] of
   an older build, whose per-shard audit streams this build cannot
   replay: such a journal parses, but never resumes. *)
let legacy_jobs shards =
  Printf.sprintf "written by --jobs %d of an older build, which cannot be resumed" shards

(* Resuming (or serving) under a different invocation would silently
   change what the recorded verdicts mean; refuse with a message naming
   every mismatched identity field. *)
let require_match ~what (h : header) (want : header) =
  let problems = ref [] in
  let chk name same render_h render_w =
    if not same then
      problems :=
        Printf.sprintf "%s: journal has %s, invocation has %s" name render_h render_w :: !problems
  in
  chk "core" (h.core = want.core) h.core want.core;
  chk "program" (h.program = want.program) h.program want.program;
  chk "cycles" (h.cycles = want.cycles) (string_of_int h.cycles) (string_of_int want.cycles);
  chk "seed" (h.seed = want.seed) (string_of_int h.seed) (string_of_int want.seed);
  chk "samples" (h.samples = want.samples) (string_of_int h.samples) (string_of_int want.samples);
  chk "prune" (h.prune = want.prune) (string_of_bool h.prune) (string_of_bool want.prune);
  chk "audit" (h.audit = want.audit)
    (Printf.sprintf "%g" h.audit)
    (Printf.sprintf "%g" want.audit);
  chk "shards" (h.shards = want.shards)
    (if h.shards > 1 then Printf.sprintf "%d (%s)" h.shards (legacy_jobs h.shards)
     else string_of_int h.shards)
    (string_of_int want.shards);
  chk "fault_model"
    (h.fault_model = want.fault_model)
    (Fault_model.name h.fault_model)
    (Fault_model.name want.fault_model);
  chk "prng" (h.prng = want.prng) h.prng want.prng;
  (* The epoch is deliberately NOT checked: it is the coordinator's
     restart generation, not campaign identity — every supervised
     failover resumes under a bumped epoch by design. Nor is [batched]:
     it only ever named the engine, and engines never change verdicts. *)
  if !problems <> [] then
    error "%s: cannot resume, the journal was written by a different campaign:\n  %s" what
      (String.concat "\n  " (List.rev !problems))

(* Campaign identity modulo the restart generation: what a worker's
   engine cache may key on, and what decides whether two headers
   describe the same verdicts. *)
let same_campaign (a : header) (b : header) =
  { a with epoch = 0 } = { b with epoch = 0 }

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)

type writer = {
  dir : string;
  records_per_segment : int;
  model : int;  (* Fault_model.id of the header's model, stamped on every record *)
  lock : Mutex.t;
  chaos : Chaos.t option;
  mutable chan : out_channel;  (* the active segment *)
  mutable in_active : int;  (* records in the active segment *)
  mutable next_segment : int;
  mutable closed : bool;
  mutable failed : string option;  (* first failure; all later appends refuse *)
  mutable slow_until : float;  (* Mono deadline while the writer is degraded *)
}

let default_rps = 4096

(* An append slower than this marks the writer degraded for the cooldown
   window; {!stalled} then reads true and the coordinator answers [Wait]
   instead of leasing more chunks — backpressure instead of ballooning
   in-flight state over a struggling disk. *)
let slow_append_threshold = 0.25
let slow_cooldown = 2.0

(* Transient real ENOSPC: pause and retry this many times (an operator
   or log rotation freeing space mid-campaign) before declaring the
   sticky failure that [--resume] recovers from. *)
let enospc_retries = 8
let enospc_pause = 0.25

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* strerror(ENOSPC) is "No space left on device"; Sys_error gives us only
   the rendered message, so match on its distinctive word. *)
let is_no_space msg = string_contains msg "space"

(* Disk failures are sticky: after the first failed write/fsync/rename
   the writer refuses every further append with the original message.
   Limping on past a failure would leave silent holes in the verdict
   stream; failing fast keeps the journal a truthful prefix that
   [resume] completes from. *)
let fail w fmt =
  Printf.ksprintf
    (fun msg ->
      let msg = w.dir ^ ": " ^ msg in
      w.failed <- Some msg;
      raise (Error msg))
    fmt

let chaos_draw w site =
  match w.chaos with
  | None -> Chaos.Pass
  | Some c -> Chaos.draw c site

let rotate w =
  (match chaos_draw w Chaos.Journal_fsync with
  | Chaos.Fsync_fail -> fail w "injected fsync failure sealing segment %d" w.next_segment
  | _ -> ());
  (* Push the segment's bytes all the way to disk before the seal
     rename: [flush] alone only hands them to the OS, and a power loss
     after the rename would otherwise leave a "finalized" segment with
     missing tail records — indistinguishable from corruption. *)
  fsync_channel w.chan;
  close_out w.chan;
  (* The cruellest instant for a crash: the active segment is closed but
     not yet sealed under its final name. *)
  (match chaos_draw w Chaos.Seal with
  | Chaos.Kill -> Chaos.kill_self ()
  | Chaos.Stall s -> Unix.sleepf s
  | _ -> ());
  (match chaos_draw w Chaos.Journal_rename with
  | Chaos.Torn_rename ->
    (* The seal rename is lost, as if power died between the close and
       the rename: the over-full active segment stays behind, which
       [resume] seals on reopen. *)
    fail w "injected torn rename sealing segment %d" w.next_segment
  | _ -> Sys.rename (active_file w.dir) (segment_file w.dir w.next_segment));
  fsync_dir w.dir;
  w.next_segment <- w.next_segment + 1;
  w.chan <- open_out_bin (active_file w.dir);
  w.in_active <- 0

(* A frame's records go out as one buffer under one lock, with one
   flush at the end (and one before every segment seal inside it). The
   chaos sites still draw once per record, in record order, so a plan
   sees the draw sequence it saw when every record was flushed alone,
   and an injected failure at record k leaves on disk exactly what
   appending the records one by one would have left: records before k
   whole, record k torn or absent. A SIGKILL loses at most the records
   not yet flushed, which the caller has not yet acknowledged. *)
let append_batch w entries =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) @@ fun () ->
  if w.closed then error "%s: journal writer is closed" w.dir;
  (match w.failed with Some msg -> raise (Error msg) | None -> ());
  let t0 = Mono.now () in
  let mark_slow () = w.slow_until <- Mono.now () +. slow_cooldown in
  let n = Array.length entries in
  let buf = Bytes.create (n * record_size) in
  (* [buf] up to [written] is already handed to the channel. *)
  let written = ref 0 in
  let hand_over upto =
    match output w.chan buf !written (upto - !written) with
    | () -> written := upto
    | exception Sys_error msg -> fail w "journal append failed: %s" msg
  in
  (* A real ENOSPC is retried for a bounded while (space is often freed
     within seconds) before the sticky failure that --resume recovers
     from; the channel buffer keeps the undelivered bytes across
     retries, so no record is torn by it. *)
  let rec flush_retry tries =
    match flush w.chan with
    | () -> ()
    | exception Sys_error msg when is_no_space msg && tries < enospc_retries ->
      mark_slow ();
      Unix.sleepf enospc_pause;
      flush_retry (tries + 1)
    | exception Sys_error msg -> fail w "journal append failed: %s" msg
  in
  (* Transient disk pressure: wait it out, re-consulting the plan each
     round. The chaos budget bounds the loop; the writer is marked
     degraded so the coordinator stops leasing until it drains. *)
  let rec disk_pressure () =
    match chaos_draw w Chaos.Disk with
    | Chaos.Disk_full ->
      mark_slow ();
      Unix.sleepf 0.02;
      disk_pressure ()
    | Chaos.Stall s ->
      mark_slow ();
      Unix.sleepf s
    | _ -> ()
  in
  (* An injected failure first leaves on disk what a crash at that byte
     would leave: the records before the failing one, and the torn
     prefix [resume] must truncate. *)
  let leave upto =
    try
      output w.chan buf !written (upto - !written);
      flush w.chan
    with Sys_error _ -> ()
  in
  Array.iteri
    (fun j entry ->
      let pos = j * record_size in
      encode_record ~model:w.model ~pos buf entry;
      disk_pressure ();
      (match chaos_draw w Chaos.Journal_write with
      | Chaos.Short_write f ->
        let keep = max 0 (min (record_size - 1) (int_of_float (f *. float_of_int record_size))) in
        leave (pos + keep);
        fail w "injected short write (%d of %d bytes)" keep record_size
      | Chaos.Io_error e ->
        leave pos;
        fail w "injected %s on journal append" (Unix.error_message e)
      | _ -> ());
      w.in_active <- w.in_active + 1;
      if w.in_active >= w.records_per_segment then begin
        hand_over (pos + record_size);
        flush_retry 0;
        match rotate w with
        | () -> ()
        | exception Sys_error msg -> fail w "segment rotation failed: %s" msg
        | exception Error msg ->
          w.failed <- Some msg;
          raise (Error msg)
      end)
    entries;
  hand_over (n * record_size);
  flush_retry 0;
  if Mono.now () -. t0 > slow_append_threshold then mark_slow ()

let append w entry = append_batch w [| entry |]

let stalled w = Mono.now () < w.slow_until

let close w =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) @@ fun () ->
  if not w.closed then begin
    w.closed <- true;
    match close_out w.chan with
    | () -> ()
    | exception Sys_error _ when w.failed <> None -> ()
  end

let exists ~dir = Sys.file_exists (header_file dir)

let create ?(records_per_segment = default_rps) ?chaos ~dir header =
  if records_per_segment <= 0 then invalid_arg "Journal.create: records_per_segment must be positive";
  if exists ~dir then
    error "%s: a journal already exists here (resume it with --resume, or remove it)" dir;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_atomic (header_file dir) (header_to_string header);
  {
    dir;
    records_per_segment;
    model = Fault_model.id header.fault_model;
    lock = Mutex.create ();
    chaos;
    chan = open_out_bin (active_file dir);
    in_active = 0;
    next_segment = 0;
    closed = false;
    failed = None;
    slow_until = neg_infinity;
  }

(* ------------------------------------------------------------------ *)
(* Reading back.                                                       *)

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f = String.length "seg-000000.bin"
         && String.sub f 0 4 = "seg-"
         && Filename.check_suffix f ".bin")
  |> List.sort compare

(* Decode a whole segment buffer into (model, entry) pairs. [strict]
   (finalized segments) raises on any damage; otherwise (the active
   segment) decoding stops at the first short or corrupt record and the
   number of dropped tail bytes is returned alongside the intact
   prefix. *)
let decode_buffer ~strict ~what buf =
  let len = Bytes.length buf in
  let n_whole = len / record_size in
  let out = ref [] in
  let good = ref 0 in
  (try
     for r = 0 to n_whole - 1 do
       match decode_record buf (r * record_size) with
       | Some e ->
         out := e :: !out;
         incr good
       | None ->
         if strict then error "%s: corrupt record %d in finalized segment" what r;
         raise Exit
     done;
     if strict && len mod record_size <> 0 then
       error "%s: finalized segment has a partial trailing record" what
   with Exit -> ());
  (List.rev !out, len - (!good * record_size))

let read_journal ~dir =
  if not (exists ~dir) then error "%s: no journal here (missing header)" dir;
  let header = header_of_string ~what:dir (Bytes.to_string (read_file (header_file dir))) in
  let segments = list_segments dir in
  let finalized =
    List.concat_map
      (fun seg ->
        let entries, _ =
          decode_buffer ~strict:true ~what:(Filename.concat dir seg)
            (read_file (Filename.concat dir seg))
        in
        entries)
      segments
  in
  let active, dropped =
    if Sys.file_exists (active_file dir) then
      decode_buffer ~strict:false ~what:(active_file dir) (read_file (active_file dir))
    else ([], 0)
  in
  (header, finalized, active, dropped, List.length segments)

let read_header ~dir =
  if not (exists ~dir) then error "%s: no journal here (missing header)" dir;
  header_of_string ~what:dir (Bytes.to_string (read_file (header_file dir)))

let load ~dir =
  let header, finalized, active, dropped, _ = read_journal ~dir in
  (header, Array.of_list (List.map snd (finalized @ active)), dropped)

let resume ?(records_per_segment = default_rps) ?chaos ~dir () =
  if records_per_segment <= 0 then invalid_arg "Journal.resume: records_per_segment must be positive";
  let header, finalized, active, dropped, n_segments = read_journal ~dir in
  (* Truncate the torn tail by atomically rewriting the active segment
     with only its intact records — each re-encoded under its own model
     nibble, so the rewrite is byte-preserving — then reopen it for
     appending. *)
  let buf = Bytes.create (List.length active * record_size) in
  List.iteri (fun i (model, e) -> encode_record ~model ~pos:(i * record_size) buf e) active;
  write_atomic (active_file dir) (Bytes.to_string buf);
  let w =
    {
      dir;
      records_per_segment;
      model = Fault_model.id header.fault_model;
      lock = Mutex.create ();
      chaos;
      chan = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 (active_file dir);
      in_active = List.length active;
      next_segment = n_segments;
      closed = false;
      failed = None;
      slow_until = neg_infinity;
    }
  in
  if w.in_active >= w.records_per_segment then rotate w;
  (header, Array.of_list (List.map snd (finalized @ active)), dropped, w)

(* Atomic header replacement, for epoch bumps on supervised failover.
   The header file is independent of the segments, so this never races
   an append; write_atomic means a crash mid-bump leaves the old header
   (same campaign, stale epoch — harmless, the next resume bumps past
   it). *)
let update_header ~dir header =
  if not (exists ~dir) then error "%s: no journal here (missing header)" dir;
  write_atomic (header_file dir) (header_to_string header)

(* Resume fold: the one place that says what a journal's entries mean
   for the verdict table. Both schedulers (Durable and Coordinator)
   replay through it. *)
let replay ?(quarantine = ignore) outcomes entries =
  let n = Array.length outcomes in
  let recovered = ref 0 in
  Array.iter
    (function
      | Outcome (i, o) ->
        if i >= 0 && i < n && outcomes.(i) = None then begin
          outcomes.(i) <- Some o;
          incr recovered
        end
      (* The quorum's verdict supersedes the disputed [Outcome] recorded
         before it, so a resumed campaign carries the arbitrated truth. *)
      | Arbitrated { index = i; outcome = o; _ } ->
        if i >= 0 && i < n then begin
          if outcomes.(i) = None then incr recovered;
          outcomes.(i) <- Some o
        end
      | Quarantine m -> quarantine m
      (* Poisoning a chunk is a property of one service run, not of the
         fault space: a resumed campaign retries it from scratch, with
         its death count reset. *)
      | Poisoned _ -> ())
    entries;
  !recovered

let stats outcomes =
  let b = ref 0 and l = ref 0 and s = ref 0 and sk = ref 0 and cr = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some Benign -> incr b
      | Some Latent -> incr l
      | Some (Sdc _) -> incr s
      | Some Skipped -> incr sk
      | Some Crashed -> incr cr)
    outcomes;
  {
    Campaign.injections = !b + !l + !s;
    benign = !b;
    latent = !l;
    sdc = !s;
    skipped = !sk;
    crashed = !cr;
  }

(* ------------------------------------------------------------------ *)
(* fsck: offline, read-only trust check.                                *)

type fsck_report = {
  fsck_header : header option;
  fsck_segments : int;
  fsck_records : int;
  fsck_active : int option;
  fsck_torn_bytes : int;
  fsck_counts : int array;
  fsck_models : (int * int array) list;
  fsck_covered : int;
  fsck_overturned : int;
  fsck_arb_ballots : int;
  fsck_errors : (string * string) list;
}

let fsck ~dir =
  let errors = ref [] in
  let err file msg = errors := (file, msg) :: !errors in
  let header =
    if not (Sys.file_exists (header_file dir)) then begin
      err "header" "missing header file";
      None
    end
    else
      match header_of_string ~what:dir (Bytes.to_string (read_file (header_file dir))) with
      | h ->
        if h.shards > 1 then
          err "header" (Printf.sprintf "shards=%d: %s" h.shards (legacy_jobs h.shards));
        Some h
      | exception Error msg -> err "header" msg; None
  in
  let header_model = Option.map (fun h -> Fault_model.id h.fault_model) header in
  let counts = Array.make 8 0 in
  let model_counts : (int, int array) Hashtbl.t = Hashtbl.create 4 in
  let unknown_models = Hashtbl.create 4 in
  let foreign_models = Hashtbl.create 4 in
  let all = ref [] in
  let records = ref 0 in
  let overturned = ref 0 in
  let arb_ballots = ref 0 in
  let scan file entries =
    List.iter
      (fun (model, e) ->
        incr records;
        all := e :: !all;
        counts.(kind_of_entry e) <- counts.(kind_of_entry e) + 1;
        let mc =
          match Hashtbl.find_opt model_counts model with
          | Some a -> a
          | None ->
            let a = Array.make 8 0 in
            Hashtbl.replace model_counts model a;
            a
        in
        mc.(kind_of_entry e) <- mc.(kind_of_entry e) + 1;
        (* Unknown or header-disagreeing model nibbles are problems to
           report, never crashes: the record itself is CRC-intact. One
           problem row per (file, model) keeps the report readable. *)
        (if Fault_model.base_name_of_id model = None && not (Hashtbl.mem unknown_models (file, model))
         then begin
           Hashtbl.replace unknown_models (file, model) ();
           err file (Printf.sprintf "records carry unknown fault-model id %d" model)
         end);
        (match header_model with
        | Some hm when model <> hm && not (Hashtbl.mem foreign_models (file, model)) ->
          Hashtbl.replace foreign_models (file, model) ();
          err file
            (Printf.sprintf "records carry fault-model id %d but the header pins %s" model
               (match header with Some h -> Fault_model.name h.fault_model | None -> "?"))
        | _ -> ());
        match e with
        | Arbitrated a ->
          arb_ballots := !arb_ballots + a.voters;
          if a.overturned then incr overturned
        | _ -> ())
      entries
  in
  let segments =
    match list_segments dir with
    | segs -> segs
    | exception Sys_error msg -> err dir msg; []
  in
  List.iter
    (fun seg ->
      let path = Filename.concat dir seg in
      match decode_buffer ~strict:true ~what:path (read_file path) with
      | entries, _ -> scan seg entries
      | exception Error msg -> err seg msg
      | exception Sys_error msg -> err seg msg)
    segments;
  let active, torn =
    if Sys.file_exists (active_file dir) then
      match decode_buffer ~strict:false ~what:(active_file dir) (read_file (active_file dir)) with
      | entries, dropped ->
        scan "active.bin" entries;
        (Some (List.length entries), dropped)
      | exception Sys_error msg -> err "active.bin" msg; (None, 0)
    else (None, 0)
  in
  (* The verdict kinds come from the resume fold itself, so they are by
     construction what a resume reconstructs. Without a header there is
     no sample count: fold over the distinct indices the records name. *)
  let entries = Array.of_list (List.rev !all) in
  let n, entries =
    match header with
    | Some h -> (h.samples, entries)
    | None ->
      let slots = Hashtbl.create 1024 in
      let slot i =
        match Hashtbl.find_opt slots i with
        | Some k -> k
        | None ->
          let k = Hashtbl.length slots in
          Hashtbl.add slots i k;
          k
      in
      let dense =
        Array.map
          (function
            | Outcome (i, o) -> Outcome (slot i, o)
            | Arbitrated a -> Arbitrated { a with index = slot a.index }
            | e -> e)
          entries
      in
      (Hashtbl.length slots, dense)
  in
  let outcomes = Array.make n None in
  ignore (replay outcomes entries);
  let st = stats outcomes in
  counts.(0) <- st.Campaign.benign;
  counts.(1) <- st.Campaign.latent;
  counts.(2) <- st.Campaign.sdc;
  counts.(3) <- st.Campaign.skipped;
  counts.(4) <- st.Campaign.crashed;
  {
    fsck_header = header;
    fsck_segments = List.length segments;
    fsck_records = !records;
    fsck_active = active;
    fsck_torn_bytes = torn;
    fsck_counts = counts;
    fsck_models =
      Hashtbl.fold (fun m a acc -> (m, a) :: acc) model_counts [] |> List.sort compare;
    fsck_covered = st.Campaign.injections + st.Campaign.skipped + st.Campaign.crashed;
    fsck_overturned = !overturned;
    fsck_arb_ballots = !arb_ballots;
    fsck_errors = List.rev !errors;
  }
