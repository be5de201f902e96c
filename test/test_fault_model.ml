(* First-class fault models: spec parsing, model-keyed fault spaces,
   SET cone expansion against an independent brute-force reachability,
   intermittent:1 degenerating exactly to SEU, scalar/delta verdict
   identity for every model on both cores, model-aware MATE lifting
   under --audit 1.0, and the journal/proto plumbing that pins the
   model (header field, per-record nibble, chunk descriptor, resume
   refusal). *)

open Helpers
module Fault_model = Pruning_fi.Fault_model
module Fault_space = Pruning_fi.Fault_space
module Campaign = Pruning_fi.Campaign
module Durable = Pruning_fi.Durable
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Oracle = Pruning_fi.Oracle
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Term = Pruning_mate.Term
module Crc = Pruning_util.Crc

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

(* --- spec parsing and the pinned id/param encoding ------------------- *)

let test_parse () =
  let ok spec m =
    match Fault_model.of_string spec with
    | Ok got -> check_bool (spec ^ " parses") true (got = m)
    | Error e -> Alcotest.fail (spec ^ " rejected: " ^ e)
  in
  ok "seu" Fault_model.Seu;
  ok "set" Fault_model.Set;
  ok "mbu:2" (Fault_model.Mbu 2);
  ok "mbu:17" (Fault_model.Mbu 17);
  ok "intermittent:1" (Fault_model.Intermittent 1);
  ok "intermittent:9" (Fault_model.Intermittent 9);
  List.iter
    (fun spec ->
      match Fault_model.of_string spec with
      | Ok _ -> Alcotest.fail (spec ^ " must be rejected")
      | Error _ -> ())
    [ "mbu"; "intermittent"; "mbu:0"; "mbu:-2"; "intermittent:0"; "mbu:x"; "flub"; "seu:3"; "" ];
  (* name round-trips through of_string. *)
  List.iter
    (fun m ->
      match Fault_model.of_string (Fault_model.name m) with
      | Ok got -> check_bool (Fault_model.name m ^ " round-trips") true (got = m)
      | Error e -> Alcotest.fail e)
    [ Fault_model.Seu; Fault_model.Set; Fault_model.Mbu 3; Fault_model.Intermittent 4 ];
  (* Wire/journal ids are pinned forever. *)
  check_int "seu id" 0 (Fault_model.id Fault_model.Seu);
  check_int "set id" 1 (Fault_model.id Fault_model.Set);
  check_int "mbu id" 2 (Fault_model.id (Fault_model.Mbu 2));
  check_int "intermittent id" 3 (Fault_model.id (Fault_model.Intermittent 5));
  check_int "intermittent param" 5 (Fault_model.param (Fault_model.Intermittent 5));
  List.iter
    (fun m ->
      match Fault_model.of_id_param (Fault_model.id m) (Fault_model.param m) with
      | Some got -> check_bool "id/param round-trips" true (got = m)
      | None -> Alcotest.fail "id/param round-trip lost the model")
    [ Fault_model.Seu; Fault_model.Set; Fault_model.Mbu 2; Fault_model.Intermittent 7 ];
  check_bool "unknown id" true (Fault_model.base_name_of_id 9 = None);
  check_bool "unknown id/param" true (Fault_model.of_id_param 9 0 = None)

(* --- model-keyed space shapes ---------------------------------------- *)

let test_space_shapes () =
  let nl = figure1_seq_netlist () in
  let cycles = 8 in
  let nf = Netlist.n_flops nl in
  check_int "five flops" 5 nf;
  let seu = Fault_space.full nl ~cycles in
  check_int "seu keys" nf (Fault_space.n_keys seu);
  check_int "seu size" (nf * cycles) (Fault_space.size seu);
  check_int "seu hold" 1 (Fault_space.hold seu);
  let set = Fault_space.full ~model:Fault_model.Set nl ~cycles in
  check_int "set keys" (Netlist.n_gates nl) (Fault_space.n_keys set);
  let mbu = Fault_space.full ~model:(Fault_model.Mbu 2) nl ~cycles in
  check_int "mbu keys" (nf - 1) (Fault_space.n_keys mbu);
  check_int "mbu expansion width" 2 (Array.length (Fault_space.expand mbu 1));
  let interm = Fault_space.full ~model:(Fault_model.Intermittent 3) nl ~cycles in
  check_int "intermittent keys" nf (Fault_space.n_keys interm);
  check_int "intermittent hold" 3 (Fault_space.hold interm);
  check_int "intermittent expansion" 1 (Array.length (Fault_space.expand interm 2));
  (* A cluster wider than the core is a spec error, not a crash later. *)
  (match Fault_space.full ~model:(Fault_model.Mbu (nf + 1)) nl ~cycles with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized mbu cluster must be rejected");
  (* figure1_seq's flops reload from primary inputs, so no gate cone
     reaches a flop D pin: every SET expansion is empty (nothing
     latches; trivially benign). *)
  for g = 0 to Netlist.n_gates nl - 1 do
    check_int "empty SET expansion" 0 (Array.length (Fault_space.expand set g))
  done

(* --- SET expansion vs brute-force forward reachability --------------- *)

(* Independent of Cone: mark wires forward-reachable from the gate's
   output through combinational gates only; the expansion must be
   exactly the flops whose D pin is marked. *)
let brute_set_members (nl : Netlist.t) gate_idx =
  let marked = Array.make (Netlist.n_wires nl) false in
  let rec mark w =
    if not marked.(w) then begin
      marked.(w) <- true;
      Array.iter (fun g -> mark nl.Netlist.gates.(g).Netlist.output) nl.Netlist.readers.(w)
    end
  in
  mark nl.Netlist.gates.(gate_idx).Netlist.output;
  let out = ref [] in
  Array.iter
    (fun (f : Netlist.flop) -> if marked.(f.Netlist.d) then out := f.Netlist.flop_id :: !out)
    nl.Netlist.flops;
  List.sort compare !out

let test_set_expansion_brute () =
  List.iter
    (fun (name, nl) ->
      let space = Fault_space.full ~model:Fault_model.Set nl ~cycles:10 in
      let nonempty = ref 0 in
      for g = 0 to Netlist.n_gates nl - 1 do
        let expanded = Array.to_list (Fault_space.expand space g) in
        if expanded <> [] then incr nonempty;
        check_bool
          (Printf.sprintf "%s: gate %d expansion" name g)
          true
          (expanded = brute_set_members nl g)
      done;
      (* Every netlist's logic feeds its own flops: the test must not
         pass vacuously on all-empty expansions. *)
      check_bool (name ^ ": some gate reaches a flop") true (!nonempty > 0))
    [
      ("counter", counter_netlist ());
      ("avr", System.avr_netlist ());
      ("msp430", System.msp_netlist ());
    ]

(* --- multi-flop one-cycle masking ground truth ----------------------- *)

let test_multi_benign () =
  let nl = figure1_seq_netlist () in
  let sim = Sim.create nl in
  Sim.eval sim;
  let fid name = (Netlist.find_flop nl name).Netlist.flop_id in
  (* All flops reset to 0: f = NAND(a, b) = 1 either way, so flipping
     [a] alone is invisible; h = INV(e) makes any set containing [e]
     visible. *)
  check_bool "a alone benign" true (Oracle.multi_benign sim ~flop_ids:[ fid "a" ]);
  check_bool "e alone visible" false (Oracle.multi_benign sim ~flop_ids:[ fid "e" ]);
  check_bool "a+e visible" false (Oracle.multi_benign sim ~flop_ids:[ fid "a"; fid "e" ]);
  (* c and d feed the same XOR: flipped together they cancel on g. *)
  check_bool "c+d cancel" true (Oracle.multi_benign sim ~flop_ids:[ fid "c"; fid "d" ])

(* --- verdict identity across engines and models ---------------------- *)

let avr_build ~model ~cycles =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
  let make_delta ~trace = System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib" in
  let make_delta_batch ~trace =
    System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib"
  in
  let space = Fault_space.full ~model nl ~cycles in
  let campaign () =
    Campaign.create ~make ~make_delta ~make_delta_batch ~total_cycles:cycles ()
  in
  (space, campaign)

let msp_build ~model ~cycles =
  let nl = System.msp_netlist () in
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  let make () = System.create_msp ~netlist:nl ~program "msp/fib" in
  let make_delta ~trace = System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib" in
  let space = Fault_space.full ~model nl ~cycles in
  let campaign () = Campaign.create ~make ~make_delta ~total_cycles:cycles () in
  (space, campaign)

(* intermittent:1 is SEU by definition: same draws (flop-keyed space),
   same verdicts, on the reference engine and on delta. *)
let test_intermittent_one_is_seu () =
  let cycles = 120 and n = 200 and seed = 9 in
  let seu_space, seu_campaign = avr_build ~model:Fault_model.Seu ~cycles in
  let i1_space, i1_campaign = avr_build ~model:(Fault_model.Intermittent 1) ~cycles in
  let seu =
    Campaign.run_sample (seu_campaign ()) ~space:seu_space ~rng:(Prng.create seed) ~n ()
  in
  let i1 = Campaign.run_sample (i1_campaign ()) ~space:i1_space ~rng:(Prng.create seed) ~n () in
  check_stats "intermittent:1 scalar = seu scalar" seu i1;
  let i1d =
    Campaign.run_sample_delta (i1_campaign ()) ~space:i1_space ~rng:(Prng.create seed) ~n ()
  in
  check_stats "intermittent:1 delta = seu scalar" seu i1d;
  (* And the two spaces draw the identical fault list. *)
  let c = seu_campaign () in
  let a = Campaign.draw_samples c ~space:seu_space ~rng:(Prng.create seed) ~n in
  let b = Campaign.draw_samples c ~space:i1_space ~rng:(Prng.create seed) ~n in
  check_bool "identical draws" true (a = b)

let check_engines label (space, campaign) ~n ~seed =
  let scalar = Campaign.run_sample (campaign ()) ~space ~rng:(Prng.create seed) ~n () in
  check_bool (label ^ ": something ran") true (scalar.Campaign.injections > 0);
  let delta = Campaign.run_sample_delta (campaign ()) ~space ~rng:(Prng.create seed) ~n () in
  check_stats (label ^ ": delta = scalar") scalar delta;
  (scalar, delta)

let test_avr_models_scalar_delta () =
  let cycles = 120 and n = 120 and seed = 5 in
  List.iter
    (fun model ->
      let label = "avr/" ^ Fault_model.name model in
      let b = avr_build ~model ~cycles in
      let scalar, _ = check_engines label b ~n ~seed in
      (* The wide engine carries every model in its lanes and must
         match bit-for-bit. *)
      let space, campaign = b in
      let delta_batched =
        Campaign.run_sample_delta_batched (campaign ()) ~space ~rng:(Prng.create seed) ~n ()
      in
      check_stats (label ^ ": delta-batched = scalar") scalar delta_batched)
    [ Fault_model.Set; Fault_model.Mbu 2; Fault_model.Intermittent 3 ]

let test_msp_models_scalar_delta () =
  let cycles = 100 and n = 60 and seed = 5 in
  List.iter
    (fun model ->
      let label = "msp/" ^ Fault_model.name model in
      ignore (check_engines label (msp_build ~model ~cycles) ~n ~seed))
    [ Fault_model.Set; Fault_model.Mbu 2; Fault_model.Intermittent 3 ]

(* --- model-aware MATE lifting under the audit sentinel --------------- *)

(* figure1_seq with undriven inputs (see test_durable): flipping [a] is
   invisible forever (f = NAND(a, 0) = 1), so an always-true MATE on [a]
   is sound; flipping [e] always inverts output h, so the same claim on
   [e] is a lie the sentinel must catch — under every model. *)
let toy_cycles = 8

let toy_campaign ~model () =
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
  let space = Fault_space.full ~model nl ~cycles:toy_cycles in
  let campaign = Campaign.create ~make ~total_cycles:toy_cycles () in
  (nl, make, space, campaign)

let flop_named (nl : Netlist.t) name = (Netlist.find_flop nl name).Netlist.flop_id

let toy_pruner make space ~flop =
  let set = Mateset.build [ (flop, [ Term.always_true ]) ] in
  let trace = System.record (make ()) ~cycles:toy_cycles in
  let triggers = Replay.triggers set trace in
  Replay.pruner set triggers ~space ()

let lifted_hooks space p =
  {
    Durable.masking =
      Fault_space.lift_masking space ~masking:(fun ~flop_id ~cycle ->
          Replay.masking p ~flop_id ~cycle);
    quarantine = Replay.quarantine p;
    describe = Replay.describe_mate p;
  }

let test_audit_sound_per_model () =
  List.iter
    (fun model ->
      let nl, make, space, campaign = toy_campaign ~model () in
      let p = toy_pruner make space ~flop:(flop_named nl "a") in
      let skip =
        Fault_space.lift_pruned space ~pruned:(fun ~flop_id ~cycle ->
            Replay.pruned p ~flop_id ~cycle)
      in
      let r =
        Durable.run campaign ~space ~seed:3 ~n:60 ~skip ~audit:(1.0, lifted_hooks space p) ()
      in
      let label = Fault_model.name model in
      check_bool (label ^ " completes") true r.Durable.completed;
      check_int (label ^ ": zero violations") 0 (List.length r.Durable.audit.Durable.violations);
      check_int (label ^ ": zero quarantines") 0
        (List.length r.Durable.audit.Durable.quarantined);
      check_int (label ^ ": every pruned fault audited") r.Durable.stats.Campaign.skipped
        r.Durable.audit.Durable.audited;
      (* The single-flop MATE may prune flop-keyed models; it must never
         prune a multi-flop cluster wholesale. *)
      match model with
      | Fault_model.Mbu _ | Fault_model.Set ->
        check_int (label ^ ": multi-flop faults never pruned") 0
          r.Durable.stats.Campaign.skipped
      | Fault_model.Seu | Fault_model.Intermittent _ ->
        check_bool (label ^ ": something pruned") true (r.Durable.stats.Campaign.skipped > 0))
    [
      Fault_model.Seu;
      Fault_model.Set;
      Fault_model.Mbu 2;
      Fault_model.Intermittent 1;
      Fault_model.Intermittent 3;
    ]

let test_audit_quarantines_unsound_per_model () =
  List.iter
    (fun model ->
      let nl, make, space, campaign = toy_campaign ~model () in
      let p = toy_pruner make space ~flop:(flop_named nl "e") in
      let skip =
        Fault_space.lift_pruned space ~pruned:(fun ~flop_id ~cycle ->
            Replay.pruned p ~flop_id ~cycle)
      in
      let r =
        Durable.run campaign ~space ~seed:3 ~n:60 ~skip ~audit:(1.0, lifted_hooks space p) ()
      in
      let label = Fault_model.name model in
      check_bool (label ^ " completes despite violations") true r.Durable.completed;
      check_bool (label ^ ": violation caught") true
        (List.length r.Durable.audit.Durable.violations >= 1);
      check_bool (label ^ ": offending MATE quarantined") true
        (Replay.quarantined p <> []))
    [ Fault_model.Seu; Fault_model.Intermittent 2 ]

(* --- journal pinning: header field, per-record model nibble ----------- *)

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
      (Printf.sprintf "pruning-fault-model-%d" !scratch_counter)
  in
  rm_rf d;
  d

let header ~model =
  {
    Journal.core = "toy";
    program = "p";
    cycles = 8;
    seed = 1;
    samples = 6;
    prune = false;
    audit = 0.;
    shards = 1;
    batched = false;
    epoch = 0;
    fault_model = model;
    prng = Prng.save (Prng.create 1);
    shard_prng = [| Prng.save (Prng.create 2) |];
  }

let craft_record ~model ~kind ~a ~b =
  let buf = Bytes.create 13 in
  Bytes.set buf 0 (Char.chr ((model lsl 4) lor kind));
  let put32 pos v =
    for k = 0 to 3 do
      Bytes.set buf (pos + k) (Char.chr ((v lsr (8 * k)) land 0xFF))
    done
  in
  put32 1 a;
  put32 5 b;
  put32 9 (Crc.bytes buf ~pos:0 ~len:9);
  Bytes.to_string buf

let test_journal_model_pinning () =
  let dir = scratch_dir () in
  let model = Fault_model.Mbu 2 in
  let w = Journal.create ~dir (header ~model) in
  Journal.append w (Journal.Outcome (0, Journal.Benign));
  Journal.append w (Journal.Outcome (1, Journal.Sdc 4));
  Journal.append w (Journal.Outcome (2, Journal.Skipped));
  Journal.close w;
  (* The header round-trips the model, and read_header needs no segments. *)
  check_bool "read_header model" true ((Journal.read_header ~dir).Journal.fault_model = model);
  let h, entries, torn = Journal.load ~dir in
  check_bool "load model" true (h.Journal.fault_model = model);
  check_int "entries" 3 (Array.length entries);
  check_int "no torn bytes" 0 torn;
  (* fsck attributes every record to the header's model, cleanly. *)
  let r = Journal.fsck ~dir in
  check_bool "clean" true (r.Journal.fsck_errors = []);
  (match r.Journal.fsck_models with
  | [ (id, counts) ] ->
    check_int "model id" (Fault_model.id model) id;
    check_int "benign under model" 1 counts.(0);
    check_int "sdc under model" 1 counts.(2);
    check_int "skipped under model" 1 counts.(3)
  | l -> Alcotest.fail (Printf.sprintf "expected one model row, got %d" (List.length l)));
  (* Foreign nibbles: an unknown model id and a header-disagreeing one
     are problems to report, never a crash. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "active.bin")
  in
  output_string oc (craft_record ~model:9 ~kind:0 ~a:3 ~b:0);
  output_string oc (craft_record ~model:0 ~kind:1 ~a:4 ~b:0);
  close_out oc;
  let r = Journal.fsck ~dir in
  (* Three rows: nibble 9 is both unknown and header-disagreeing, nibble
     0 disagrees with the pinned mbu:2. *)
  check_int "both foreign nibbles reported" 3 (List.length r.Journal.fsck_errors);
  check_bool "unknown id named" true
    (List.exists (fun (_, p) -> contains p "unknown fault-model id 9") r.Journal.fsck_errors);
  check_bool "disagreeing id named" true
    (List.exists (fun (_, p) -> contains p "header pins") r.Journal.fsck_errors);
  check_int "records still counted" 5 r.Journal.fsck_records;
  check_int "three model rows now" 3 (List.length r.Journal.fsck_models);
  rm_rf dir

(* Resuming a journal under a different model must refuse, naming the
   field (bin/campaign additionally maps this to its own exit code via
   read_header before any engine is built). *)
let test_resume_model_mismatch () =
  let dir = scratch_dir () in
  let _, _, space, campaign = toy_campaign ~model:Fault_model.Seu () in
  let r = Durable.run campaign ~space ~seed:3 ~n:20 ~ident:("toy", "p") ~journal:dir () in
  check_bool "complete" true r.Durable.completed;
  let _, _, space2, campaign2 = toy_campaign ~model:(Fault_model.Mbu 2) () in
  (match
     Durable.run campaign2 ~space:space2 ~seed:3 ~n:20 ~ident:("toy", "p") ~journal:dir
       ~resume:true ()
   with
  | exception Journal.Error msg -> check_bool "names fault_model" true (contains msg "fault_model")
  | _ -> Alcotest.fail "model-mismatched resume must raise");
  rm_rf dir

(* --- proto: the chunk descriptor pins model and parameter ------------ *)

let test_proto_chunk_model () =
  let chunk =
    { Proto.chunk_id = 5; lo = 1; hi = 9; model = 3; model_param = 7; purpose = Proto.Verify }
  in
  match Proto.decode (Proto.encode (Proto.Assign chunk)) with
  | Proto.Assign got ->
    check_int "chunk_id" chunk.Proto.chunk_id got.Proto.chunk_id;
    check_int "model" chunk.Proto.model got.Proto.model;
    check_int "model_param" chunk.Proto.model_param got.Proto.model_param;
    check_bool "purpose" true (got.Proto.purpose = Proto.Verify)
  | _ -> Alcotest.fail "Assign did not round-trip"

let suite =
  [
    Alcotest.test_case "spec parsing and pinned ids" `Quick test_parse;
    Alcotest.test_case "model-keyed space shapes" `Quick test_space_shapes;
    Alcotest.test_case "SET expansion = brute reachability" `Quick test_set_expansion_brute;
    Alcotest.test_case "multi-flop one-cycle masking oracle" `Quick test_multi_benign;
    Alcotest.test_case "intermittent:1 degenerates to seu" `Slow test_intermittent_one_is_seu;
    Alcotest.test_case "avr: scalar/delta/batched identity" `Slow test_avr_models_scalar_delta;
    Alcotest.test_case "msp: scalar/delta identity" `Slow test_msp_models_scalar_delta;
    Alcotest.test_case "audit 1.0 clean per model" `Quick test_audit_sound_per_model;
    Alcotest.test_case "audit quarantines unsound MATE" `Quick
      test_audit_quarantines_unsound_per_model;
    Alcotest.test_case "journal pins the model" `Quick test_journal_model_pinning;
    Alcotest.test_case "resume refuses a model mismatch" `Quick test_resume_model_mismatch;
    Alcotest.test_case "proto chunk carries the model" `Quick test_proto_chunk_model;
  ]
