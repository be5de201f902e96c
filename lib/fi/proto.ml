module Crc = Pruning_util.Crc
module Mono = Pruning_util.Mono

exception Error of string
exception Closed

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
let max_frame = 1 lsl 24

(* v2: Hello carries the worker's last-seen coordinator epoch.
   v3: Assign pins the fault model (id + parameter) on every chunk
   descriptor, so a worker can refuse a lease that contradicts the
   campaign identity it resolved from Welcome.
   v4: Assign carries the chunk's purpose (data / verify / arbitrate
   re-issue) and Welcome carries the connecting worker's reputation
   (suspicion score) so a rejoining worker learns its own standing. *)
let version = 4

(* ------------------------------------------------------------------ *)
(* Little-endian integer plumbing shared by frames and messages.       *)

let put32 buf v =
  for k = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
  done

let get32 s pos =
  let v = ref 0 in
  for k = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get s (pos + k))
  done;
  !v

(* EINTR-restarting wrappers: a SIGINT arriving mid-syscall must reach
   the signal handler and then resume the I/O, not kill the campaign. *)
let rec restart f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* ------------------------------------------------------------------ *)
(* Frames.                                                             *)

let frame_header_size = 8

let encode_frame payload =
  let len = String.length payload in
  if len > max_frame then error "frame payload of %d bytes exceeds the %d cap" len max_frame;
  let buf = Buffer.create (frame_header_size + len) in
  put32 buf len;
  put32 buf (Crc.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let write_all ?deadline fd s =
  let total = Bytes.length s in
  let off = ref 0 in
  while !off < total do
    match restart (fun () -> Unix.write fd s !off (total - !off)) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* Non-blocking socket with a full buffer: wait for writability,
         bounded by the caller's deadline so a stalled peer cannot wedge
         the writer forever. *)
      let timeout =
        match deadline with
        | None -> -1.
        | Some d ->
          let left = d -. Mono.now () in
          if left <= 0. then error "write stalled past its deadline" else left
      in
      ignore (restart (fun () -> Unix.select [] [ fd ] [] timeout))
  done

let injected_reset () = raise (Unix.Unix_error (Unix.ECONNRESET, "chaos", "injected"))

let write_frame ?deadline ?chaos fd payload =
  let frame = encode_frame payload in
  let plain () = write_all ?deadline fd (Bytes.unsafe_of_string frame) in
  match Option.map (fun c -> Chaos.draw c Chaos.Send) chaos with
  | None | Some Chaos.Pass -> plain ()
  | Some (Chaos.Delay s) ->
    Unix.sleepf s;
    plain ()
  | Some (Chaos.Corrupt_bit k) ->
    (* Flip one payload bit after the CRC was computed: the receiver
       must detect the corruption and drop us as misbehaving. *)
    let b = Bytes.of_string frame in
    let payload_bits = (Bytes.length b - frame_header_size) * 8 in
    if payload_bits > 0 then begin
      let bit = k mod payload_bits in
      let pos = frame_header_size + (bit / 8) in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit mod 8))))
    end;
    write_all ?deadline fd b
  | Some (Chaos.Truncate f) ->
    (* A connection reset mid-frame: the peer is left with a torn frame
       (never acted upon), we see the reset and reconnect. *)
    let keep = int_of_float (f *. float_of_int (String.length frame)) in
    let keep = max 0 (min keep (String.length frame - 1)) in
    write_all ?deadline fd (Bytes.unsafe_of_string (String.sub frame 0 keep));
    injected_reset ()
  | Some Chaos.Reset -> injected_reset ()
  | Some (Chaos.Slow_loris s) ->
    (* Dribble the frame out in four stalled installments — total extra
       latency [s], bounded, to exercise peer read deadlines. *)
    let len = String.length frame in
    let step = max 1 ((len + 3) / 4) in
    let off = ref 0 in
    while !off < len do
      let k = min step (len - !off) in
      write_all ?deadline fd (Bytes.unsafe_of_string (String.sub frame !off k));
      off := !off + k;
      if !off < len then Unix.sleepf (s /. 4.)
    done
  | Some _ -> plain ()

let check_len len =
  if len < 0 || len > max_frame then error "frame length %d is outside [0, %d]" len max_frame

(* Select-before-read: bounds the time spent blocked waiting for the
   peer's next bytes, so a slow-loris sender cannot wedge the reader. *)
let wait_readable ?deadline fd =
  match deadline with
  | None -> ()
  | Some d ->
    let left = d -. Mono.now () in
    if left <= 0. then error "read stalled past its deadline";
    let ready, _, _ = restart (fun () -> Unix.select [ fd ] [] [] left) in
    if ready = [] then error "read stalled past its deadline"

(* Read exactly [n] bytes. [at_boundary] selects whether EOF is a clean
   close ([Closed]) or a truncated frame ([Error]). *)
let really_read ?deadline fd n ~at_boundary =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    wait_readable ?deadline fd;
    let k = restart (fun () -> Unix.read fd buf !off (n - !off)) in
    if k = 0 then
      if !off = 0 && at_boundary then raise Closed else error "connection closed mid-frame";
    off := !off + k
  done;
  Bytes.unsafe_to_string buf

let read_frame ?deadline ?chaos fd =
  (match Option.map (fun c -> Chaos.draw c Chaos.Recv) chaos with
  | None | Some Chaos.Pass -> ()
  | Some (Chaos.Delay s) -> Unix.sleepf s
  | Some Chaos.Reset -> injected_reset ()
  | Some _ -> ());
  let header = really_read ?deadline fd frame_header_size ~at_boundary:true in
  let len = get32 header 0 in
  let crc = get32 header 4 in
  check_len len;
  let payload = really_read ?deadline fd len ~at_boundary:false in
  if Crc.string payload <> crc then error "frame CRC mismatch";
  payload

(* ------------------------------------------------------------------ *)
(* Streaming decoder.                                                  *)

(* The undecoded bytes are [buf.[rd .. wr)]. A feed that does not fit
   after [wr] first moves them to the front, doubling the buffer when
   even that is too small; a popped frame costs one copy, its payload. *)
type decoder = { mutable buf : Bytes.t; mutable rd : int; mutable wr : int }

let decoder () = { buf = Bytes.create 4096; rd = 0; wr = 0 }

let feed d src n =
  if n > Bytes.length d.buf - d.wr then begin
    let live = d.wr - d.rd in
    let cap = ref (Bytes.length d.buf) in
    while live + n > !cap do
      cap := 2 * !cap
    done;
    let dst = if !cap = Bytes.length d.buf then d.buf else Bytes.create !cap in
    Bytes.blit d.buf d.rd dst 0 live;
    d.buf <- dst;
    d.rd <- 0;
    d.wr <- live
  end;
  Bytes.blit src 0 d.buf d.wr n;
  d.wr <- d.wr + n

let next_frame d =
  let have = d.wr - d.rd in
  if have < frame_header_size then None
  else begin
    (* Read-only view of the buffer for the header fields; nothing keeps it. *)
    let s = Bytes.unsafe_to_string d.buf in
    let len = get32 s d.rd in
    check_len len;
    if have < frame_header_size + len then None
    else begin
      let payload = Bytes.sub_string d.buf (d.rd + frame_header_size) len in
      if Crc.string payload <> get32 s (d.rd + 4) then error "frame CRC mismatch";
      d.rd <- d.rd + frame_header_size + len;
      Some payload
    end
  end

(* ------------------------------------------------------------------ *)
(* Messages.                                                           *)

(* Why the chunk is being issued. Workers execute all three identically
   (determinism is the whole point); the tag exists so logs and tests can
   tell a first-issue lease from a cross-check or an arbitration ballot. *)
type purpose = Data | Verify | Arbitrate

let purpose_code = function Data -> 0 | Verify -> 1 | Arbitrate -> 2

let purpose_of_code = function
  | 0 -> Data
  | 1 -> Verify
  | 2 -> Arbitrate
  | k -> error "unknown chunk purpose %d" k

let purpose_name = function Data -> "data" | Verify -> "verify" | Arbitrate -> "arbitrate"

type chunk = {
  chunk_id : int;
  lo : int;
  hi : int;
  model : int;  (* Fault_model.id the chunk's samples are classified under *)
  model_param : int;  (* Fault_model.param (MBU cluster size / hold cycles) *)
  purpose : purpose;
}

type msg =
  | Hello of { version : int; name : string; epoch : int }
  | Welcome of { header : Journal.header; suspicion : int }
  | Request
  | Assign of chunk
  | Wait
  | Results of { chunk_id : int; results : (int * Journal.outcome) array }
  | Chunk_done of { chunk_id : int }
  | Heartbeat
  | Done

let add_string32 buf s =
  put32 buf (String.length s);
  Buffer.add_string buf s

(* Outcomes reuse the journal's record vocabulary: kind byte + one
   32-bit argument (the SDC divergence cycle). *)
let add_outcome buf (o : Journal.outcome) =
  let kind, arg =
    match o with
    | Journal.Benign -> (0, 0)
    | Journal.Latent -> (1, 0)
    | Journal.Sdc c -> (2, c)
    | Journal.Skipped -> (3, 0)
    | Journal.Crashed -> (4, 0)
  in
  Buffer.add_char buf (Char.chr kind);
  put32 buf arg

let encode msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Hello { version; name; epoch } ->
    Buffer.add_char buf 'H';
    put32 buf version;
    add_string32 buf name;
    (* epoch >= -1 (-1 = "never connected"); shift by one so the wire
       field stays an unsigned 32-bit value. *)
    put32 buf (epoch + 1)
  | Welcome { header; suspicion } ->
    Buffer.add_char buf 'W';
    add_string32 buf (Journal.header_to_string header);
    put32 buf suspicion
  | Request -> Buffer.add_char buf 'R'
  | Assign { chunk_id; lo; hi; model; model_param; purpose } ->
    Buffer.add_char buf 'A';
    put32 buf chunk_id;
    put32 buf lo;
    put32 buf hi;
    put32 buf model;
    put32 buf model_param;
    put32 buf (purpose_code purpose)
  | Wait -> Buffer.add_char buf 'w'
  | Results { chunk_id; results } ->
    Buffer.add_char buf 'r';
    put32 buf chunk_id;
    put32 buf (Array.length results);
    Array.iter
      (fun (index, outcome) ->
        put32 buf index;
        add_outcome buf outcome)
      results
  | Chunk_done { chunk_id } ->
    Buffer.add_char buf 'C';
    put32 buf chunk_id
  | Heartbeat -> Buffer.add_char buf 'h'
  | Done -> Buffer.add_char buf 'D');
  Buffer.contents buf

(* A cursor over the payload; every read is bounds-checked so a short or
   trailing-garbage message fails loudly instead of decoding nonsense. *)
type cursor = { s : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.s then error "truncated message"

let take_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let take_u32 c =
  need c 4;
  let v = get32 c.s c.pos in
  c.pos <- c.pos + 4;
  v

let take_string32 c =
  let len = take_u32 c in
  need c len;
  let v = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  v

let take_outcome c : Journal.outcome =
  let kind = take_u8 c in
  let arg = take_u32 c in
  match kind with
  | 0 -> Journal.Benign
  | 1 -> Journal.Latent
  | 2 -> Journal.Sdc arg
  | 3 -> Journal.Skipped
  | 4 -> Journal.Crashed
  | k -> error "unknown outcome kind %d" k

let decode payload =
  if payload = "" then error "empty message";
  let c = { s = payload; pos = 1 } in
  let msg =
    match payload.[0] with
    | 'H' ->
      let version = take_u32 c in
      let name = take_string32 c in
      let epoch = take_u32 c - 1 in
      Hello { version; name; epoch }
    | 'W' -> (
      let text = take_string32 c in
      let suspicion = take_u32 c in
      match Journal.header_of_string ~what:"peer" text with
      | h -> Welcome { header = h; suspicion }
      | exception Journal.Error msg -> error "bad Welcome header: %s" msg)
    | 'R' -> Request
    | 'A' ->
      let chunk_id = take_u32 c in
      let lo = take_u32 c in
      let hi = take_u32 c in
      let model = take_u32 c in
      let model_param = take_u32 c in
      let purpose = purpose_of_code (take_u32 c) in
      Assign { chunk_id; lo; hi; model; model_param; purpose }
    | 'w' -> Wait
    | 'r' ->
      let chunk_id = take_u32 c in
      let n = take_u32 c in
      (* 9 bytes per result: cheap sanity bound before allocating. *)
      if n * 9 > String.length payload then error "results count %d exceeds the payload" n;
      (* Explicit loop: [Array.init]'s evaluation order is unspecified
         and the cursor reads must happen left to right. *)
      let results = Array.make n (0, Journal.Benign) in
      for i = 0 to n - 1 do
        let index = take_u32 c in
        let outcome = take_outcome c in
        results.(i) <- (index, outcome)
      done;
      Results { chunk_id; results }
    | 'C' -> Chunk_done { chunk_id = take_u32 c }
    | 'h' -> Heartbeat
    | 'D' -> Done
    | t -> error "unknown message tag %C" t
  in
  if c.pos <> String.length payload then error "trailing garbage after message";
  msg

let send ?deadline ?chaos fd msg = write_frame ?deadline ?chaos fd (encode msg)
let recv ?deadline ?chaos fd = decode (read_frame ?deadline ?chaos fd)

let connect host port =
  let addrs =
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  in
  let addrs =
    if addrs = [] then
      [
        {
          Unix.ai_family = Unix.PF_INET;
          ai_socktype = Unix.SOCK_STREAM;
          ai_protocol = 0;
          ai_addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port);
          ai_canonname = "";
        };
      ]
    else addrs
  in
  let rec try_addrs = function
    | [] -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", host))
    | ai :: rest -> (
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol in
      match Unix.connect fd ai.Unix.ai_addr with
      | () ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        fd
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if rest = [] then raise e else try_addrs rest)
  in
  try_addrs addrs
