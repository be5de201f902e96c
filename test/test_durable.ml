(* The durable campaign layer: crash-safe journal (round-trip, segment
   rotation, torn-tail truncation at awkward byte offsets), kill/resume
   bit-identity on both cores and both engines, the supervisor's
   retry/crash accounting, and the MATE
   soundness sentinel (sound MATEs audit clean; an artificially unsound
   MATE is quarantined without aborting the campaign). *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Durable = Pruning_fi.Durable
module Journal = Pruning_fi.Journal
module Fault_space = Pruning_fi.Fault_space
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Term = Pruning_mate.Term

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_stats label (a : Campaign.stats) (b : Campaign.stats) =
  check_int (label ^ ": injections") a.Campaign.injections b.Campaign.injections;
  check_int (label ^ ": benign") a.Campaign.benign b.Campaign.benign;
  check_int (label ^ ": latent") a.Campaign.latent b.Campaign.latent;
  check_int (label ^ ": sdc") a.Campaign.sdc b.Campaign.sdc;
  check_int (label ^ ": skipped") a.Campaign.skipped b.Campaign.skipped;
  check_int (label ^ ": crashed") a.Campaign.crashed b.Campaign.crashed

(* --- scratch directories (self-cleaning, collision-free) ------------- *)

let scratch_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pruning-durable-%d" !scratch_counter)
  in
  rm_rf d;
  d

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let buf = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc buf;
  close_out oc

let copy_journal src dst =
  rm_rf dst;
  Sys.mkdir dst 0o755;
  Array.iter (fun e -> copy_file (Filename.concat src e) (Filename.concat dst e)) (Sys.readdir src)

let truncate_file path bytes_off_end =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = max 0 (len - bytes_off_end) in
  let buf = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc buf;
  close_out oc

let append_garbage path bytes =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.make bytes '\x5a');
  close_out oc

(* --- journal unit tests ---------------------------------------------- *)

let header ?(shards = 1) ?(batched = false) ?(audit = 0.) ?(samples = 10) () =
  {
    Journal.core = "avr";
    program = "fib";
    cycles = 120;
    seed = 42;
    samples;
    prune = audit > 0.;
    audit;
    shards;
    batched;
    epoch = 0;
    fault_model = Pruning_fi.Fault_model.Seu;
    prng = Prng.save (Prng.create 42);
    shard_prng = Array.init shards (fun s -> Prng.save (Prng.create (100 + s)));
  }

let entries_10 =
  [|
    Journal.Outcome (0, Journal.Benign);
    Journal.Outcome (1, Journal.Latent);
    Journal.Outcome (2, Journal.Sdc 37);
    Journal.Outcome (3, Journal.Skipped);
    Journal.Quarantine 4;
    Journal.Outcome (4, Journal.Sdc 0);
    Journal.Outcome (5, Journal.Crashed);
    Journal.Outcome (6, Journal.Benign);
    Journal.Quarantine 0;
    Journal.Outcome (7, Journal.Skipped);
  |]

let test_journal_round_trip () =
  let dir = scratch_dir () in
  let h = header ~shards:3 ~audit:0.25 () in
  let w = Journal.create ~records_per_segment:4 ~dir h in
  Array.iter (Journal.append w) entries_10;
  Journal.close w;
  (* 10 records at 4 per segment: two sealed segments plus an active one. *)
  check_bool "exists" true (Journal.exists ~dir);
  check_bool "seg 0 sealed" true (Sys.file_exists (Filename.concat dir "seg-000000.bin"));
  check_bool "seg 1 sealed" true (Sys.file_exists (Filename.concat dir "seg-000001.bin"));
  check_bool "active present" true (Sys.file_exists (Filename.concat dir "active.bin"));
  let h', entries, dropped = Journal.load ~dir in
  check_bool "header round-trips" true (h' = h);
  check_int "no torn bytes" 0 dropped;
  check_bool "entries round-trip" true (entries = entries_10);
  (* Creating over a live journal must refuse, not overwrite. *)
  (match Journal.create ~dir h with
  | exception Journal.Error _ -> ()
  | w ->
    Journal.close w;
    Alcotest.fail "create over an existing journal must raise");
  rm_rf dir

(* Chop the active segment at several byte offsets — mid-CRC, mid-record
   body, exactly one record, the whole file — and check resume keeps only
   whole intact records and reports exactly the torn remainder. *)
let test_journal_torn_tail () =
  let reference = scratch_dir () in
  let w = Journal.create ~records_per_segment:4 ~dir:reference (header ()) in
  Array.iter (Journal.append w) entries_10;
  Journal.close w;
  (* records_per_segment = 4: 8 records sealed in two segments, records
     8 and 9 (26 bytes) in active.bin. *)
  List.iter
    (fun cut ->
      let dir = scratch_dir () in
      copy_journal reference dir;
      truncate_file (Filename.concat dir "active.bin") cut;
      let active_len = max 0 (26 - cut) in
      let expect_n = 8 + (active_len / 13) in
      let expect_dropped = active_len mod 13 in
      let _, entries, dropped, w = Journal.resume ~records_per_segment:4 ~dir () in
      Journal.close w;
      check_int (Printf.sprintf "cut %d: entries" cut) expect_n (Array.length entries);
      check_bool
        (Printf.sprintf "cut %d: prefix" cut)
        true
        (entries = Array.sub entries_10 0 expect_n);
      check_int (Printf.sprintf "cut %d: dropped" cut) expect_dropped dropped;
      (* The truncation is persisted: a second open sees a clean tail. *)
      let _, entries2, dropped2 = Journal.load ~dir in
      check_bool (Printf.sprintf "cut %d: clean reopen" cut) true (entries2 = entries);
      check_int (Printf.sprintf "cut %d: clean reopen drop" cut) 0 dropped2;
      rm_rf dir)
    [ 1; 4; 12; 13; 14; 25; 26; 100 ];
  rm_rf reference

(* A bit flipped inside a sealed segment is real corruption, not a torn
   tail: resume must refuse loudly rather than resume wrong statistics. *)
(* fsck counts verdicts through the resume fold: a duplicate outcome
   counts once (the first wins), an overturned arbitration replaces the
   recorded verdict, and an index outside the header's sample range is
   ignored — exactly what a resume reconstructs. *)
let test_fsck_counts_what_resume_reconstructs () =
  let dir = scratch_dir () in
  let w = Journal.create ~dir (header ~samples:4 ()) in
  List.iter (Journal.append w)
    [
      Journal.Outcome (0, Journal.Benign);
      Journal.Outcome (0, Journal.Latent);
      Journal.Outcome (1, Journal.Sdc 3);
      Journal.Arbitrated
        { index = 1; outcome = Journal.Latent; loser = Journal.Sdc 0; voters = 3; overturned = true };
      Journal.Outcome (9, Journal.Benign);
      Journal.Outcome (2, Journal.Skipped);
    ];
  Journal.close w;
  let r = Journal.fsck ~dir in
  check_bool "clean" true (r.Journal.fsck_errors = []);
  let c = r.Journal.fsck_counts in
  check_int "benign" 1 c.(0);
  check_int "latent" 1 c.(1);
  check_int "sdc" 0 c.(2);
  check_int "skipped" 1 c.(3);
  check_int "arbitrated records" 1 c.(7);
  check_int "covered" 3 r.Journal.fsck_covered;
  let _, entries, _ = Journal.load ~dir in
  let outcomes = Array.make 4 None in
  ignore (Journal.replay outcomes entries);
  let st = Journal.stats outcomes in
  check_int "resume: benign" c.(0) st.Campaign.benign;
  check_int "resume: latent" c.(1) st.Campaign.latent;
  check_int "resume: sdc" c.(2) st.Campaign.sdc;
  check_int "resume: skipped" c.(3) st.Campaign.skipped;
  rm_rf dir

let test_journal_sealed_corruption () =
  let dir = scratch_dir () in
  let w = Journal.create ~records_per_segment:4 ~dir (header ()) in
  Array.iter (Journal.append w) entries_10;
  Journal.close w;
  let seg = Filename.concat dir "seg-000001.bin" in
  let ic = open_in_bin seg in
  let buf = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set buf 20 (Char.chr (Char.code (Bytes.get buf 20) lxor 1));
  let oc = open_out_bin seg in
  output_bytes oc buf;
  close_out oc;
  (match Journal.load ~dir with
  | exception Journal.Error _ -> ()
  | _ -> Alcotest.fail "corrupt sealed segment must raise");
  rm_rf dir

(* The resume fold both schedulers share, against a per-index spec: a
   slot ends with its last [Arbitrated] outcome if it has one, else it
   keeps its prior value, else its first [Outcome]; [recovered] counts
   the slots that were empty and received any verdict; out-of-range
   indices and [Poisoned] change nothing; [quarantine] sees exactly the
   [Quarantine] indices, in order. The tally counts the final table. *)
let prop_replay_semantics =
  let n = 6 in
  let outcome =
    QCheck2.Gen.(
      oneof
        [
          pure Journal.Benign;
          pure Journal.Latent;
          map (fun c -> Journal.Sdc c) (int_range 0 50);
          pure Journal.Skipped;
          pure Journal.Crashed;
        ])
  in
  let index = QCheck2.Gen.int_range (-2) (n + 1) in
  let entry =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun i o -> Journal.Outcome (i, o)) index outcome;
          map3
            (fun i (o, loser) overturned ->
              Journal.Arbitrated { index = i; outcome = o; loser; voters = 3; overturned })
            index (pair outcome outcome) bool;
          map (fun i -> Journal.Quarantine i) index;
          map (fun c -> Journal.Poisoned c) (int_range 0 4);
        ])
  in
  let gen = QCheck2.Gen.(pair (array_size (pure n) (opt outcome)) (array_size (int_range 0 40) entry)) in
  QCheck2.Test.make ~name:"journal replay: first outcome wins, arbitration overrides" ~count:500 gen
    (fun (prior, entries) ->
      let outcomes = Array.copy prior in
      let seen = ref [] in
      let recovered = Journal.replay ~quarantine:(fun m -> seen := m :: !seen) outcomes entries in
      let pick f = List.filter_map f (Array.to_list entries) in
      let expected =
        Array.mapi
          (fun i p ->
            let arbitrated =
              pick (function Journal.Arbitrated a when a.index = i -> Some a.outcome | _ -> None)
            in
            let first = pick (function Journal.Outcome (j, o) when j = i -> Some o | _ -> None) in
            match (List.rev arbitrated, p, first) with
            | o :: _, _, _ -> Some o
            | [], Some o, _ -> Some o
            | [], None, o :: _ -> Some o
            | [], None, [] -> None)
          prior
      in
      let filled =
        Array.to_list prior
        |> List.mapi (fun i p -> p = None && expected.(i) <> None)
        |> List.filter Fun.id |> List.length
      in
      let quarantines = pick (function Journal.Quarantine m -> Some m | _ -> None) in
      let count pred = Array.fold_left (fun acc o -> if pred o then acc + 1 else acc) 0 outcomes in
      let st = Journal.stats outcomes in
      outcomes = expected && recovered = filled
      && List.rev !seen = quarantines
      && st.Campaign.benign = count (( = ) (Some Journal.Benign))
      && st.Campaign.latent = count (( = ) (Some Journal.Latent))
      && st.Campaign.sdc = count (function Some (Journal.Sdc _) -> true | _ -> false)
      && st.Campaign.skipped = count (( = ) (Some Journal.Skipped))
      && st.Campaign.crashed = count (( = ) (Some Journal.Crashed))
      && st.Campaign.injections = st.Campaign.benign + st.Campaign.latent + st.Campaign.sdc)


(* Header fuzzing: a header whose field values are mutated (and whose
   CRC is recomputed, so the parser gets past the checksum) either
   parses or raises [Journal.Error] — never [Invalid_argument] from an
   array sized by a hostile count. The same text inside a coordinator's
   [Welcome] payload surfaces only as [Proto.Error], the one exception
   a worker handles. *)
let prop_header_mutation =
  let module Proto = Pruning_fi.Proto in
  let base = Journal.header_to_string (header ~shards:2 ~audit:0.5 ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' base) in
  (* The magic line and the CRC line stay; every key=value line between
     them may be mutated, dropped or duplicated. *)
  let fields =
    List.filter
      (fun l -> String.contains l '=' && not (String.starts_with ~prefix:"crc=" l))
      lines
  in
  let value =
    QCheck2.Gen.(
      oneof
        [
          map string_of_int (int_range (-3) 3);
          oneofl
            [
              "-1"; "4611686018427387903"; "-4611686018427387904"; ""; "x"; "0x10"; "1e3";
              "nan"; "mbu:0"; "mbu:-2"; "set"; "intermittent:4";
            ];
          string_size ~gen:printable (int_range 0 8);
        ])
  in
  let mutation =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun i v -> `Set (i, v)) (int_bound (List.length fields - 1)) value;
          map (fun i -> `Drop i) (int_bound (List.length fields - 1));
          map2 (fun k v -> `Add (Printf.sprintf "shard%d" k, v)) (int_range 0 4) value;
        ])
  in
  let key l = String.sub l 0 (String.index l '=') in
  let apply fields = function
    | `Set (i, v) -> List.mapi (fun j l -> if i = j then key l ^ "=" ^ v else l) fields
    | `Drop i -> List.filteri (fun j _ -> i <> j) fields
    | `Add (k, v) -> fields @ [ k ^ "=" ^ v ]
  in
  let render fields =
    let body = String.concat "\n" (List.hd lines :: fields) ^ "\n" in
    body ^ Printf.sprintf "crc=%08x\n" (Pruning_util.Crc.string body)
  in
  let le32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * k)) land 0xFF)) in
  let welcome text = "W" ^ le32 (String.length text) ^ text ^ le32 0 in
  QCheck2.Test.make ~name:"journal header: mutated fields parse or raise Journal.Error" ~count:500
    QCheck2.Gen.(list_size (int_range 1 4) mutation)
    (fun mutations ->
      let text = render (List.fold_left apply fields mutations) in
      (match Journal.header_of_string ~what:"fuzz" text with
      | _ | (exception Journal.Error _) -> ());
      (match Proto.decode (welcome text) with
      | _ | (exception Proto.Error _) -> ());
      true)

(* The fuzz property's hand-built [Welcome] payload is the real one, and
   the reproduced crash — shards=-1 behind a valid CRC — is an error. *)
let test_header_negative_shards () =
  let module Proto = Pruning_fi.Proto in
  let h = header () in
  let le32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * k)) land 0xFF)) in
  let text = Journal.header_to_string h in
  check_bool "hand-built Welcome = encoder's" true
    (Proto.encode (Proto.Welcome { header = h; suspicion = 0 })
    = "W" ^ le32 (String.length text) ^ text ^ le32 0);
  let body =
    String.concat "\n"
      (List.filter_map
         (fun l ->
           if l = "" || String.starts_with ~prefix:"crc=" l then None
           else if l = "shards=1" then Some "shards=-1"
           else Some l)
         (String.split_on_char '\n' text))
    ^ "\n"
  in
  let bad = body ^ Printf.sprintf "crc=%08x\n" (Pruning_util.Crc.string body) in
  (match Journal.header_of_string ~what:"peer" bad with
  | exception Journal.Error msg -> check_bool "names shards" true (contains msg "shards")
  | _ -> Alcotest.fail "shards=-1 must be rejected");
  match Proto.decode ("W" ^ le32 (String.length bad) ^ bad ^ le32 0) with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "a Welcome with shards=-1 must be a protocol error"

(* Journal decoding is total. A valid journal (two sealed segments of
   five records and an active segment of four) has one file replaced by
   arbitrary bytes or by its own bytes flipped, truncated or extended
   (with garbage, or with a copy of one of its records), and goes through
   [load], [resume] and [fsck]. Only [Journal.Error] may escape the first
   two and nothing escapes [fsck]. Damage to a sealed segment is refused
   by all three; a resume keeps exactly the records before the first
   damaged one of the active segment. The reference for "damaged" is
   this test's own record check: a short record, a CRC mismatch or an
   unknown kind. *)
let prop_journal_decoding_total =
  let record_size = 13 in
  let template =
    lazy
      (let dir = scratch_dir () in
       let extra =
         [|
           Journal.Poisoned 3;
           Journal.Arbitrated
             { index = 2; outcome = Journal.Sdc 9; loser = Journal.Benign; voters = 3;
               overturned = true };
           Journal.Outcome (8, Journal.Latent);
           Journal.Outcome (9, Journal.Sdc 101);
         |]
       in
       let w = Journal.create ~records_per_segment:5 ~dir (header ()) in
       Array.iter (Journal.append w) (Array.append entries_10 extra);
       Journal.close w;
       let _, entries, _ = Journal.load ~dir in
       let files =
         List.map
           (fun f ->
             let ic = open_in_bin (Filename.concat dir f) in
             let s = really_input_string ic (in_channel_length ic) in
             close_in ic;
             (f, s))
           [ "header"; "seg-000000.bin"; "seg-000001.bin"; "active.bin" ]
       in
       rm_rf dir;
       (files, entries))
  in
  let le32 s pos =
    let v = ref 0 in
    for k = 3 downto 0 do
      v := (!v lsl 8) lor Char.code s.[pos + k]
    done;
    !v
  in
  let intact s r =
    let pos = r * record_size in
    pos + record_size <= String.length s
    && Char.code s.[pos] land 0xF <= 7
    && le32 s (pos + 9) = Pruning_util.Crc.string (String.sub s pos 9)
  in
  let rec intact_prefix s r = if intact s r then intact_prefix s (r + 1) else r in
  let mutation =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun i x -> `Flip (i, x)) nat (int_range 1 255);
          map (fun k -> `Truncate k) nat;
          map (fun e -> `Extend e) (string_size ~gen:char (int_range 1 20));
          map (fun r -> `Copy r) nat;
        ])
  in
  let mutate s = function
    | `Flip (i, x) when s <> "" ->
      let b = Bytes.of_string s in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.to_string b
    | `Truncate k -> String.sub s 0 (k mod (String.length s + 1))
    | `Extend e -> s ^ e
    | `Copy r when String.length s >= record_size ->
      s ^ String.sub s (r mod (String.length s / record_size) * record_size) record_size
    | `Flip _ | `Copy _ -> s
  in
  let gen =
    QCheck2.Gen.(
      pair (int_bound 3)
        (oneof
           [
             map (fun b -> `Bytes b) (string_size ~gen:char (int_range 0 80));
             map (fun m -> `Mutate m) (list_size (int_range 1 3) mutation);
           ]))
  in
  QCheck2.Test.make ~name:"journal: load, resume and fsck raise only Journal.Error" ~count:1500
    ~print:(fun (target, input) ->
      Printf.sprintf "file %d, %s" target
        (match input with
        | `Bytes b -> Printf.sprintf "bytes %S" b
        | `Mutate ms -> Printf.sprintf "%d mutations" (List.length ms)))
    gen
    (fun (target, input) ->
      let files, entries = Lazy.force template in
      let name, original = List.nth files target in
      let bytes =
        match input with
        | `Bytes b -> b
        | `Mutate ms -> List.fold_left mutate original ms
      in
      let dir = scratch_dir () in
      Sys.mkdir dir 0o755;
      List.iter
        (fun (f, s) ->
          let oc = open_out_bin (Filename.concat dir f) in
          output_string oc (if f = name then bytes else s);
          close_out oc)
        files;
      let only_error f = match f () with () -> true | exception Journal.Error _ -> false in
      let report = Journal.fsck ~dir in
      let loaded = only_error (fun () -> ignore (Journal.load ~dir)) in
      let resume () =
        let _, _, _, w = Journal.resume ~dir () in
        Journal.close w
      in
      let n_sealed = 10 in
      let ok =
        match name with
        | "header" ->
          ignore (only_error resume);
          true
        | "active.bin" ->
          let k = intact_prefix bytes 0 in
          let _, got, dropped, w = Journal.resume ~dir () in
          Journal.close w;
          let kept = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
          loaded && report.Journal.fsck_errors = []
          && Array.length got = n_sealed + k
          && dropped = String.length bytes - (k * record_size)
          && kept = String.sub bytes 0 (k * record_size)
          && Array.for_all2 ( = ) (Array.sub got 0 n_sealed) (Array.sub entries 0 n_sealed)
        | _ ->
          let sound =
            String.length bytes mod record_size = 0
            && intact_prefix bytes 0 = String.length bytes / record_size
          in
          let resumed = only_error resume in
          loaded = sound && resumed = sound && (report.Journal.fsck_errors = []) = sound
      in
      rm_rf dir;
      ok)

(* --- durable runs on the real cores ---------------------------------- *)

let total_cycles = 120
let n_samples = 400

(* The batched kernel is journaled per {!Pruning_fi.Executor.batch_window}:
   sixteen full passes per domain. The kill/resume cases run it at a few
   lanes over at least three windows, on any domain count, so a stop
   after the first window leaves work to resume. *)
let batched_lanes = 4
let batched_n = max n_samples (3 * Pruning_fi.Executor.batch_window ~lanes:batched_lanes)

let avr_makers () =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  ( nl,
    (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
    fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" )

let msp_makers () =
  let nl = System.msp_netlist () in
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  ( nl,
    (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
    fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" )

let build makers =
  let nl, make, make_delta_batch = makers in
  let space = Fault_space.full nl ~cycles:total_cycles in
  let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles () in
  (space, campaign)

(* A fresh durable run (no journal) must be a drop-in replacement for the
   plain engines: bit-identical statistics for the same seed. *)
let test_durable_matches_run_sample () =
  let space, campaign = build (avr_makers ()) in
  let seed = 7 in
  let plain =
    Campaign.run_sample campaign ~space ~rng:(Prng.create seed) ~n:n_samples ()
  in
  let durable = Durable.run campaign ~space ~seed ~n:n_samples () in
  check_stats "scalar" plain durable.Durable.stats;
  check_bool "completed" true durable.Durable.completed;
  let batched =
    Durable.run campaign ~space ~seed ~n:n_samples ~kernel:Campaign.Delta_batched ()
  in
  check_stats "delta-batched" plain batched.Durable.stats;
  (* ~lanes belongs to the wide engine only. *)
  match Durable.run campaign ~space ~seed ~n:1 ~lanes:7 ~kernel:Campaign.Scalar () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "~lanes with the scalar kernel must raise"

(* Kill/resume bit-identity: run to completion for the reference stats,
   then run the same campaign with a stop switch thrown partway, tear the
   journal's tail (as a SIGKILL mid-append would), resume, and require
   statistics bit-identical to the uninterrupted run. *)
let check_kill_resume label makers ~kernel =
  let space, campaign = build makers in
  let seed = 13 in
  let ident = ("test", label) in
  let batched = kernel = Campaign.Delta_batched in
  let n = if batched then batched_n else n_samples in
  let lanes = if batched then Some batched_lanes else None in
  let run ?journal ?resume ?should_stop () =
    Durable.run campaign ~space ~seed ~n ~ident ~kernel ?lanes
      ~records_per_segment:64 ?journal ?resume ?should_stop ()
  in
  let reference = run () in
  check_bool (label ^ ": reference complete") true reference.Durable.completed;
  let dir = scratch_dir () in
  (* The windowed engine polls once per window, the sequential kernels
     once per sample; pick a threshold that stops every engine partway. *)
  let stop_after = if batched then 1 else 120 in
  let polls = Atomic.make 0 in
  let interrupted =
    run ~journal:dir
      ~should_stop:(fun () ->
        Atomic.incr polls;
        Atomic.get polls > stop_after)
      ()
  in
  check_bool (label ^ ": interrupted early") false interrupted.Durable.completed;
  append_garbage (Filename.concat dir "active.bin") 7;
  let resumed = run ~journal:dir ~resume:true () in
  check_bool (label ^ ": resumed complete") true resumed.Durable.completed;
  check_bool (label ^ ": recovered something") true (resumed.Durable.recovered > 0);
  check_bool
    (label ^ ": recovered partially")
    true
    (resumed.Durable.recovered < n);
  check_int (label ^ ": torn bytes dropped") 7 resumed.Durable.dropped_bytes;
  check_stats label reference.Durable.stats resumed.Durable.stats;
  rm_rf dir

let test_kill_resume_avr_scalar () =
  check_kill_resume "avr-scalar" (avr_makers ()) ~kernel:Campaign.Scalar
(* The "batched" cases drive Durable's windowed path: the delta-batched
   engine, which [batched] names. *)
let test_kill_resume_avr_batched () =
  check_kill_resume "avr-delta-batched" (avr_makers ()) ~kernel:Campaign.Delta_batched
let test_kill_resume_msp_scalar () =
  check_kill_resume "msp-scalar" (msp_makers ()) ~kernel:Campaign.Scalar
let test_kill_resume_msp_batched () =
  check_kill_resume "msp-delta-batched" (msp_makers ()) ~kernel:Campaign.Delta_batched

(* A journal written by the deleted bit-parallel engine carries
   [batched = true] in its header. The flag is not campaign identity:
   such a journal resumes on any engine to bit-identical stats. *)
let test_resume_batched_header () =
  let space, campaign = build (avr_makers ()) in
  let seed = 17 in
  let ident = ("avr", "fib") in
  let reference = Durable.run campaign ~space ~seed ~n:batched_n ~ident () in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let dir = scratch_dir () in
      let polls = ref 0 in
      let first =
        Durable.run campaign ~space ~seed ~n:batched_n ~ident ~kernel:Campaign.Delta_batched
          ~lanes:batched_lanes ~journal:dir
          ~should_stop:(fun () ->
            incr polls;
            !polls > 1)
          ()
      in
      check_bool (label ^ ": interrupted") false first.Durable.completed;
      Journal.update_header ~dir { (Journal.read_header ~dir) with Journal.batched = true };
      let resumed =
        Durable.run campaign ~space ~seed ~n:batched_n ~ident ~kernel ~journal:dir ~resume:true ()
      in
      check_bool (label ^ ": resumed complete") true resumed.Durable.completed;
      check_bool (label ^ ": recovered something") true (resumed.Durable.recovered > 0);
      check_stats (label ^ ": batched-header resume") reference.Durable.stats resumed.Durable.stats;
      rm_rf dir)
    [ Campaign.Delta_batched; Campaign.Scalar ]

(* Resuming under a different invocation must refuse with Journal.Error
   (a silent mismatch would make the journal's verdicts mean the wrong
   thing). *)
let test_resume_mismatch () =
  let space, campaign = build (avr_makers ()) in
  let dir = scratch_dir () in
  let r =
    Durable.run campaign ~space ~seed:3 ~n:50 ~ident:("avr", "fib") ~journal:dir ()
  in
  check_bool "complete" true r.Durable.completed;
  (match
     Durable.run campaign ~space ~seed:3 ~n:60 ~ident:("avr", "fib") ~journal:dir ~resume:true ()
   with
  | exception Journal.Error msg -> check_bool "names the field" true (contains msg "samples")
  | _ -> Alcotest.fail "mismatched resume must raise");
  (match
     Durable.run campaign ~space ~seed:4 ~n:50 ~ident:("avr", "fib") ~journal:dir ~resume:true ()
   with
  | exception Journal.Error _ -> ()
  | _ -> Alcotest.fail "mismatched seed must raise");
  rm_rf dir

(* --- a tiny hand-built system for supervisor/sentinel tests ----------- *)

(* figure1_seq with undriven inputs: every flop reloads false each cycle,
   so the golden run is constant and a flipped flop perturbs at most its
   injection cycle. Flipping [a] is invisible on the outputs (f = NAND(a,
   0) = 1 either way) — always benign; flipping [e] inverts output h —
   always SDC. That gives us one honestly-prunable flop and one flop any
   MATE claim about is a lie. *)
let toy_cycles = 8

let toy_campaign () =
  let nl = figure1_seq_netlist () in
  let make () =
    {
      System.kind = System.Avr;
      name = "toy";
      netlist = nl;
      sim = Sim.create nl;
      ram = [||];
      rf_prefix = "!none";
    }
  in
  let space = Fault_space.full nl ~cycles:toy_cycles in
  let campaign = Campaign.create ~make ~total_cycles:toy_cycles () in
  (nl, make, space, campaign)

let flop_named (nl : Netlist.t) name =
  let found = ref None in
  Array.iter
    (fun (f : Netlist.flop) -> if f.Netlist.flop_name = name then found := Some f.Netlist.flop_id)
    nl.Netlist.flops;
  match !found with
  | Some id -> id
  | None -> Alcotest.fail ("no flop named " ^ name)

let toy_pruner _nl make space ~flop =
  let set = Mateset.build [ (flop, [ Term.always_true ]) ] in
  let trace = System.record (make ()) ~cycles:toy_cycles in
  let triggers = Replay.triggers set trace in
  Replay.pruner set triggers ~space ()

let hooks_of_pruner p =
  {
    Durable.masking = (fun ~flop_id ~cycle -> Replay.masking p ~flop_id ~cycle);
    quarantine = Replay.quarantine p;
    describe = Replay.describe_mate p;
  }

let toy_n = 60

(* Transient failures are retried on fresh systems and leave the
   statistics untouched; a persistent failure becomes [Crashed] for that
   one sample and the campaign still completes. *)
let test_supervisor_retries () =
  let _, _, space, campaign = toy_campaign () in
  let seed = 21 in
  let clean = Durable.run campaign ~space ~seed ~n:toy_n () in
  let transient =
    Durable.run campaign ~space ~seed ~n:toy_n
      ~fault:(fun ~index ~attempt ->
        if index = 3 && attempt = 0 then failwith "chaos: transient")
      ()
  in
  check_bool "transient retried" true (transient.Durable.retried >= 1);
  check_stats "transient stats unchanged" clean.Durable.stats transient.Durable.stats;
  let persistent =
    Durable.run campaign ~space ~seed ~n:toy_n ~retries:2
      ~fault:(fun ~index ~attempt:_ ->
        if index = 5 then failwith "chaos: persistent")
      ()
  in
  check_bool "persistent completes" true persistent.Durable.completed;
  check_int "persistent crashed" 1 persistent.Durable.stats.Campaign.crashed;
  check_int "persistent retried" 3 persistent.Durable.retried;
  check_int "one fewer injection" (clean.Durable.stats.Campaign.injections - 1)
    persistent.Durable.stats.Campaign.injections

(* A journal written by --jobs 4 of an older build carries four shards
   and four audit streams; a local run is one shard, so the resume is
   refused by name rather than replaying the wrong audit draws. *)
let test_resume_legacy_shards_refused () =
  let _, _, space, campaign = toy_campaign () in
  let dir = scratch_dir () in
  let r = Durable.run campaign ~space ~seed:5 ~n:20 ~ident:("toy", "p") ~journal:dir () in
  check_bool "complete" true r.Durable.completed;
  let h = Journal.read_header ~dir in
  check_int "a local run writes one shard" 1 h.Journal.shards;
  Journal.update_header ~dir
    {
      h with
      Journal.shards = 4;
      shard_prng = Array.init 4 (fun s -> Prng.save (Prng.create (200 + s)));
    };
  (match
     Durable.run campaign ~space ~seed:5 ~n:20 ~ident:("toy", "p") ~journal:dir ~resume:true ()
   with
  | exception Journal.Error msg ->
    check_bool "names shards" true (contains msg "shards");
    check_bool "names the old --jobs" true (contains msg "--jobs 4")
  | _ -> Alcotest.fail "a shards=4 journal must not resume");
  check_bool "fsck flags it" true
    (List.exists (fun (_, p) -> contains p "--jobs 4") (Journal.fsck ~dir).Journal.fsck_errors);
  rm_rf dir

(* Sound MATE + audit 1.0: every pruned fault is injected for auditing,
   confirmed benign, and counted as skipped — statistics identical to the
   unaudited pruned run, zero violations, zero quarantines. *)
let test_audit_sound_mate () =
  let nl, make, space, campaign = toy_campaign () in
  let seed = 23 in
  let a = flop_named nl "a" in
  let p0 = toy_pruner nl make space ~flop:a in
  let skip ~flop_id ~cycle = Replay.pruned p0 ~flop_id ~cycle in
  let unaudited = Durable.run campaign ~space ~seed ~n:toy_n ~skip () in
  check_bool "something was pruned" true (unaudited.Durable.stats.Campaign.skipped > 0);
  let p1 = toy_pruner nl make space ~flop:a in
  let audited =
    Durable.run campaign ~space ~seed ~n:toy_n
      ~skip:(fun ~flop_id ~cycle -> Replay.pruned p1 ~flop_id ~cycle)
      ~audit:(1.0, hooks_of_pruner p1) ()
  in
  check_stats "audit of a sound MATE is invisible" unaudited.Durable.stats audited.Durable.stats;
  check_int "every pruned fault audited" unaudited.Durable.stats.Campaign.skipped
    audited.Durable.audit.Durable.audited;
  check_int "no violations" 0 (List.length audited.Durable.audit.Durable.violations);
  check_int "no quarantines" 0 (List.length audited.Durable.audit.Durable.quarantined);
  check_bool "pruner untouched" true (Replay.quarantined p1 = [])

(* Unsound MATE (claims flop e benign; flipping e is always SDC): the
   sentinel catches the first audited e-fault, quarantines the MATE, and
   the campaign degrades to injecting e's faults — final statistics equal
   the completely unpruned run, and nothing aborts. *)
let test_audit_quarantines_unsound_mate () =
  let nl, make, space, campaign = toy_campaign () in
  let seed = 24 in
  let clean = Durable.run campaign ~space ~seed ~n:toy_n () in
  let p = toy_pruner nl make space ~flop:(flop_named nl "e") in
  let audited =
    Durable.run campaign ~space ~seed ~n:toy_n
      ~skip:(fun ~flop_id ~cycle -> Replay.pruned p ~flop_id ~cycle)
      ~audit:(1.0, hooks_of_pruner p) ()
  in
  check_bool "completes despite violations" true audited.Durable.completed;
  check_int "no crashes" 0 audited.Durable.stats.Campaign.crashed;
  check_bool "violation detected" true (audited.Durable.audit.Durable.violations <> []);
  check_bool "MATE quarantined" true
    (List.mem 0 audited.Durable.audit.Durable.quarantined && Replay.quarantined p = [ 0 ]);
  (let v = List.hd audited.Durable.audit.Durable.violations in
   check_int "violating flop" (flop_named nl "e") v.Durable.v_flop_id;
   check_bool "real verdict is non-benign" true (v.Durable.v_verdict <> Campaign.Benign);
   check_bool "names the MATE" true (List.mem 0 v.Durable.v_mates));
  check_stats "degrades to the unpruned statistics" clean.Durable.stats audited.Durable.stats

(* Quarantine events live in the journal: a resumed run re-applies them
   to its (fresh) pruner before re-running anything, so the statistics
   still converge to the unpruned run's. *)
let test_audit_resume_replays_quarantine () =
  let nl, make, space, campaign = toy_campaign () in
  let seed = 25 in
  let clean = Durable.run campaign ~space ~seed ~n:toy_n () in
  let e = flop_named nl "e" in
  let dir = scratch_dir () in
  let p0 = toy_pruner nl make space ~flop:e in
  let polls = ref 0 in
  let first =
    Durable.run campaign ~space ~seed ~n:toy_n
      ~skip:(fun ~flop_id ~cycle -> Replay.pruned p0 ~flop_id ~cycle)
      ~audit:(1.0, hooks_of_pruner p0) ~journal:dir
      ~should_stop:(fun () ->
        incr polls;
        (* Stop once the sentinel has fired at least once. *)
        Replay.quarantined p0 <> [] && !polls > 2)
      ()
  in
  check_bool "stopped early" false first.Durable.completed;
  check_bool "quarantine journaled before stop" true (Replay.quarantined p0 = [ 0 ]);
  let p1 = toy_pruner nl make space ~flop:e in
  let resumed =
    Durable.run campaign ~space ~seed ~n:toy_n
      ~skip:(fun ~flop_id ~cycle -> Replay.pruned p1 ~flop_id ~cycle)
      ~audit:(1.0, hooks_of_pruner p1) ~journal:dir ~resume:true ()
  in
  check_bool "resumed completes" true resumed.Durable.completed;
  check_bool "quarantine replayed into the fresh pruner" true (Replay.quarantined p1 = [ 0 ]);
  check_stats "resumed equals unpruned" clean.Durable.stats resumed.Durable.stats;
  rm_rf dir

(* The audit sentinel through every kernel's attempt unit. One MATE
   claiming every AVR flop always benign is unsound: audit 1.0 injects
   pruned faults until the first non-benign one quarantines it, and from
   then on nothing is pruned. Every fault ends up counted by its real
   verdict — latent and SDC exactly as an unpruned run, benign split
   between benign and skipped (audited and confirmed) — and every audit
   is either a confirmation or a violation. A delta-batched window plans
   all its faults before any of its violations quarantine, so the whole
   first window (here the whole run) is audited. *)
let test_audit_every_kernel () =
  let nl, make, _ = avr_makers () in
  let n = 150 and seed = 26 in
  let clean =
    let space, campaign = build (avr_makers ()) in
    Campaign.run_sample campaign ~space ~rng:(Prng.create seed) ~n ()
  in
  List.iter
    (fun kernel ->
      let label = Campaign.kernel_name kernel in
      let space, campaign = build (avr_makers ()) in
      let claims =
        Array.map (fun (f : Netlist.flop) -> (f.Netlist.flop_id, [ Term.always_true ])) nl.Netlist.flops
      in
      let set = Mateset.build (Array.to_list claims) in
      let trace = System.record (make ()) ~cycles:total_cycles in
      let p = Replay.pruner set (Replay.triggers set trace) ~space () in
      let r =
        Durable.run campaign ~space ~seed ~n ~kernel
          ~skip:(fun ~flop_id ~cycle -> Replay.pruned p ~flop_id ~cycle)
          ~audit:(1.0, hooks_of_pruner p) ()
      in
      let st = r.Durable.stats in
      check_bool (label ^ ": completes") true r.Durable.completed;
      let audited = r.Durable.audit.Durable.audited in
      let violations = List.length r.Durable.audit.Durable.violations in
      check_bool (label ^ ": violation caught") true (violations > 0);
      check_bool (label ^ ": MATE quarantined") true (Replay.quarantined p = [ 0 ]);
      check_int (label ^ ": audits = confirmations + violations") audited
        (st.Campaign.skipped + violations);
      if kernel = Campaign.Delta_batched then check_int (label ^ ": whole window audited") n audited;
      check_int (label ^ ": latent = unpruned") clean.Campaign.latent st.Campaign.latent;
      check_int (label ^ ": sdc = unpruned") clean.Campaign.sdc st.Campaign.sdc;
      check_int (label ^ ": benign + skipped = unpruned benign") clean.Campaign.benign
        (st.Campaign.benign + st.Campaign.skipped))
    Campaign.[ Scalar; Delta_batched ]

(* Satellite fix: a skip/prune lookup for a flop outside the fault space
   is an explicit error path (logged once, counted), never a silent
   "not pruned" that hides a stale fault list. *)
let test_pruner_unknown_flop () =
  let nl, make, space, _ = toy_campaign () in
  let p = toy_pruner nl make space ~flop:(flop_named nl "a") in
  check_int "starts clean" 0 (Replay.unknown_count p);
  check_bool "unknown flop injects" false (Replay.pruned p ~flop_id:9999 ~cycle:0);
  check_bool "unknown flop masks nothing" true (Replay.masking p ~flop_id:9999 ~cycle:0 = []);
  check_int "counted" 2 (Replay.unknown_count p);
  check_bool "known flop still pruned" true
    (Replay.pruned p ~flop_id:(flop_named nl "a") ~cycle:0)

let suite =
  [
    Alcotest.test_case "journal round trip and rotation" `Quick test_journal_round_trip;
    Alcotest.test_case "journal torn tail truncation" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal sealed-segment corruption" `Quick test_journal_sealed_corruption;
    Alcotest.test_case "fsck counts what a resume reconstructs" `Quick
      test_fsck_counts_what_resume_reconstructs;
    QCheck_alcotest.to_alcotest prop_replay_semantics;
    QCheck_alcotest.to_alcotest prop_header_mutation;
    Alcotest.test_case "journal header: shards=-1 is an error" `Quick test_header_negative_shards;
    Alcotest.test_case "durable matches run_sample" `Slow test_durable_matches_run_sample;
    Alcotest.test_case "kill/resume avr scalar" `Slow test_kill_resume_avr_scalar;
    Alcotest.test_case "kill/resume avr batched" `Slow test_kill_resume_avr_batched;
    Alcotest.test_case "kill/resume msp scalar" `Slow test_kill_resume_msp_scalar;
    Alcotest.test_case "kill/resume msp batched" `Slow test_kill_resume_msp_batched;
    Alcotest.test_case "resume mismatch refused" `Quick test_resume_mismatch;
    Alcotest.test_case "resume of a batched-flagged journal" `Slow test_resume_batched_header;
    Alcotest.test_case "supervisor retries and crash accounting" `Quick test_supervisor_retries;
    Alcotest.test_case "audit: sound MATE is invisible" `Quick test_audit_sound_mate;
    Alcotest.test_case "audit: unsound MATE quarantined" `Quick test_audit_quarantines_unsound_mate;
    Alcotest.test_case "audit: resume replays quarantine" `Quick test_audit_resume_replays_quarantine;
    Alcotest.test_case "resume of a --jobs 4 journal refused" `Quick
      test_resume_legacy_shards_refused;
    Alcotest.test_case "audit: real verdicts on every kernel" `Slow test_audit_every_kernel;
    Alcotest.test_case "pruner: unknown flop is an error path" `Quick test_pruner_unknown_flop;
    QCheck_alcotest.to_alcotest prop_journal_decoding_total;
  ]
