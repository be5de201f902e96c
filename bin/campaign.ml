(* campaign: sampled end-to-end fault-injection campaign on a built-in
   core/program, with and without MATE-based fault-space pruning — the
   HAFI use case of the paper, emulated in the simulator.

   Long campaigns are survivable: --journal streams every verdict into a
   crash-safe CRC-checksummed journal, --resume picks a killed campaign
   up where the journal ends (bit-identical final stats), the
   supervisor's retries contain crashing experiments, and --audit
   cross-checks the MATE pruner by actually injecting a fraction
   of the "pruned" faults.

   Campaigns also distribute: `campaign serve` runs the fault-tolerant
   coordinator (sharding, leases, journal, dedup) and `campaign work
   HOST:PORT` runs any number of stateless workers against it; final
   statistics are bit-identical to a single-process run with the same
   seed no matter how many workers join, die, or straggle. *)

module Netlist = Pruning_netlist.Netlist
module System = Pruning_cpu.System
module Fi_campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module Fault_model = Pruning_fi.Fault_model
module Durable = Pruning_fi.Durable
module Journal = Pruning_fi.Journal
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module Supervisor = Pruning_fi.Supervisor
module Proto = Pruning_fi.Proto
module Chaos = Pruning_fi.Chaos
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Prng = Pruning_util.Prng
module Mono = Pruning_util.Mono
open Cmdliner

(* Runtime failures get distinct exit codes, documented in the man page.
   Every bad argument is a usage error instead: Cmdliner's exit 124. *)
let exit_journal = 17
let exit_service = 18
let exit_network = 19
let exit_poisoned = 20
let exit_budget = 21
let exit_model_mismatch = 23

let fail code fmt = Printf.ksprintf (fun s -> prerr_endline ("campaign: " ^ s); code) fmt

(* The cross-flag rules of one subcommand: the first rule that holds is
   reported as a usage error (exit 124); otherwise the command runs. *)
let usage_check rules k =
  match List.find_opt fst rules with
  | Some (_, msg) -> `Error (true, msg)
  | None -> k ()

(* ------------------------------------------------------------------ *)
(* Argument converters: every single-flag range check lives here, so a  *)
(* bad value is a usage error before any work starts.                   *)

let checked base ~expect ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let non_negative = checked Arg.int ~expect:"a non-negative integer" (fun n -> n >= 0)
let positive = checked Arg.int ~expect:"a positive integer" (fun n -> n > 0)
let fraction = checked Arg.float ~expect:"a fraction in [0, 1]" (fun p -> p >= 0. && p <= 1.)
let seconds = checked Arg.float ~expect:"positive seconds" (fun s -> s > 0.)
let seconds_or_off = checked Arg.float ~expect:"non-negative seconds" (fun s -> s >= 0.)
let port = checked Arg.int ~expect:"a port in [0, 65535]" (fun p -> p >= 0 && p <= 65535)

let lanes_conv =
  checked Arg.int
    ~expect:(Printf.sprintf "a lane count in [0, %d]" Fi_campaign.max_delta_lanes)
    (fun l -> l >= 0 && l <= Fi_campaign.max_delta_lanes)

(* Exact spellings only: Cmdliner's [enum] also takes unambiguous
   prefixes, so the retired [delta] would silently mean [delta-batched]. *)
let engine_conv =
  let engines = [ ("scalar", Fi_campaign.Scalar); ("delta-batched", Fi_campaign.Delta_batched) ] in
  let parse s =
    match List.assoc_opt s engines with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "invalid value '%s', expected 'scalar' or 'delta-batched'" s))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Fi_campaign.kernel_name k))

let hostport =
  let parse s =
    let bad () =
      Error
        (`Msg (Printf.sprintf "invalid value '%s', expected HOST:PORT with port in [1, 65535]" s))
    in
    match String.rindex_opt s ':' with
    | Some i when i > 0 -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some p when p >= 1 && p <= 65535 -> Ok (String.sub s 0 i, p)
      | _ -> bad ())
    | _ -> bad ()
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let fault_model_conv =
  Arg.conv'
    (Fault_model.of_string, fun ppf m -> Format.pp_print_string ppf (Fault_model.name m))

(* ------------------------------------------------------------------ *)
(* Shared campaign setup.                                               *)

(* Self-chaos: a deterministic infrastructure fault plan, armed by
   --chaos SEED. The plan is a pure function of the seed (and budget),
   so a chaotic run is replayable bit-for-bit. --chaos-profile process
   additionally arms whole-process kills/stalls and disk pressure —
   survivable only under serve --supervise. --chaos-profile liar turns a
   worker Byzantine: it deterministically corrupts a fraction of its
   verdicts before framing, so only quorum arbitration can catch it.
   [make_chaos ~profile ~seed ~budget i] is process [i]'s plan: forked
   fleet members get distinct streams (seed + i), since identical plans
   on every process would fault in lockstep. *)
let make_chaos ~profile ~seed ~budget i =
  let profile =
    match profile with
    | `Default -> Chaos.default_profile
    | `Process -> Chaos.process_profile
    | `Liar -> Chaos.liar_profile
  in
  Option.map
    (fun s -> Chaos.create ~profile:{ profile with Chaos.budget } ~seed:(s + i) ())
    seed

(* Resuming under a different fault model would silently change what
   every recorded verdict means; refuse it upfront with a distinct exit
   code (require_match would also catch it, but as a generic journal
   error after engines were built). An unreadable header falls through
   to the resume path, which reports the corruption properly. *)
let check_journal_model ~journal ~active ~model =
  match journal with
  | Some dir when active && Journal.exists ~dir -> (
    match Journal.read_header ~dir with
    | exception Journal.Error _ -> None
    | h when h.Journal.fault_model <> model ->
      Some
        (fail exit_model_mismatch
           "journal %s pins fault model %s but this invocation asked for %s; resume with \
            --fault-model %s"
           dir
           (Fault_model.name h.Journal.fault_model)
           (Fault_model.name model) (Fault_model.name h.Journal.fault_model))
    | _ -> None)
  | _ -> None

(* The deterministic MATE-pruner build shared by the local runner and
   every distributed worker: identical inputs, identical skip set. The
   MATEs are replayed over the campaign's own golden trace. *)
let build_pruner nl ~campaign ~space =
  Printf.printf "searching MATEs...\n%!";
  let report = Search.search_flops nl (Array.to_list nl.Netlist.flops) in
  print_endline (Search.summary report);
  let set = Mateset.of_report report in
  Printf.printf "replaying golden trace over %d MATEs...\n%!" (Mateset.size set);
  let triggers = Replay.triggers set (Fi_campaign.golden_trace campaign) in
  let pruner = Replay.pruner set triggers ~space () in
  let pruned = Replay.pruner_masked_count pruner in
  (* MATEs reason about single-flop faults; report against the SEU total
     (flops x cycles), not the model-keyed space size — for SET/MBU the
     two differ and the lifted skip predicate covers less than this. *)
  let seu_total = Array.length space.Fault_space.flops * space.Fault_space.cycles in
  Printf.printf "MATEs prune %d of %d single-flop faults (%.2f%%) before injection\n%!" pruned
    seu_total
    (Pruning_util.Stats.percentage pruned seu_total);
  pruner

type engines = {
  campaign : Fi_campaign.t;
  space : Fault_space.t;
  pruner : Replay.pruner option;
  skip : (flop_id:int -> cycle:int -> bool) option;
}

(* Campaign, fault space and pruner for one campaign identity (a journal
   header): the local runner and every distributed worker build them
   here, so both classify the identical fault list with the identical
   skip set. [Error] names what this build cannot run: a core/program
   outside {!System.catalogue} (a coordinator may name one), or a fault
   model the core cannot host (an MBU cluster wider than its flops). *)
let setup (id : Journal.header) ~kernel =
  match System.find ~core:id.core ~program:id.program with
  | None ->
    Error
      (Printf.sprintf "unknown core/program %S/%S (built-in: %s)" id.core id.program System.known)
  | Some (core, program) -> (
    let nl = core.System.build () in
    match Fault_space.full ~model:id.fault_model nl ~cycles:id.cycles with
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "--fault-model %s: %s" (Fault_model.name id.fault_model) msg)
    | space ->
      Printf.printf "%s/%s: fault space [%s] = %d keys x %d cycles = %d faults; sampling %d\n%!"
        id.core id.program (Fault_model.name id.fault_model) (Fault_space.n_keys space) id.cycles
        (Fault_space.size space) id.samples;
      let campaign =
        Fi_campaign.create
          ~make:(fun () -> program.System.make nl)
          ~make_delta_batch:(program.System.make_delta_batch nl)
          ~total_cycles:id.cycles ()
      in
      Printf.printf "checkpoint interval: %d cycles; engine: %s\n%!"
        (Fi_campaign.checkpoint_interval campaign)
        (Fi_campaign.kernel_name kernel);
      let pruner =
        if id.prune then Some (build_pruner nl ~campaign ~space) else None
      in
      (* The MATE pruner proves single-flop, single-cycle (SEU) faults
         benign; [lift_pruned] soundly lifts that claim to the model's
         expanded fault (or refuses to, for faults MATEs cannot cover). *)
      let skip =
        Option.map
          (fun p ->
            Fault_space.lift_pruned space ~pruned:(fun ~flop_id ~cycle ->
                Replay.pruned p ~flop_id ~cycle))
          pruner
      in
      Ok { campaign; space; pruner; skip })

(* Cooperative SIGINT/SIGTERM shutdown: the durable runner, coordinator
   and workers all poll the flag between experiments, journal/submit
   everything finished so far and return; we then report how to resume
   and exit with the conventional 128+signal code. *)
let stop_signal = Atomic.make 0

let install_signal_handlers () =
  let handle signum = Sys.Signal_handle (fun _ -> Atomic.set stop_signal signum) in
  (try Sys.set_signal Sys.sigint (handle Sys.sigint) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm (handle Sys.sigterm) with Invalid_argument _ -> ()

let stop_requested () = Atomic.get stop_signal <> 0
let stop_exit_code () = if Atomic.get stop_signal = Sys.sigterm then 143 else 130

let report_resumed ~recovered ~dropped_bytes =
  if recovered > 0 then
    Printf.printf "resumed: %d verdicts recovered from the journal%s\n" recovered
      (if dropped_bytes > 0 then Printf.sprintf " (%d torn trailing bytes truncated)" dropped_bytes
       else "")

(* A cooperative stop journaled everything finished: say how to resume. *)
let interrupted ~resume_with journal =
  Printf.printf "interrupted — progress is journaled%s\n"
    (match journal with
    | Some dir -> Printf.sprintf "; resume with %s --journal %s" resume_with dir
    | None -> " only in this process (no --journal given)");
  stop_exit_code ()

let report_unknown_flops pruner =
  match pruner with
  | Some p when Replay.unknown_count p > 0 ->
    Printf.printf
      "warning: %d prune lookups named flops outside the fault space (injected, not pruned)\n"
      (Replay.unknown_count p)
  | _ -> ()

let print_stats (stats : Fi_campaign.stats) elapsed =
  Printf.printf "ran %d injections (%d skipped as pruned, %d crashed) in %.1fs (%.1f injections/s)\n"
    stats.Fi_campaign.injections stats.Fi_campaign.skipped stats.Fi_campaign.crashed elapsed
    (float_of_int stats.Fi_campaign.injections /. max 1e-9 elapsed);
  Printf.printf "verdicts: %d benign, %d latent, %d SDC\n" stats.Fi_campaign.benign
    stats.Fi_campaign.latent stats.Fi_campaign.sdc

(* ------------------------------------------------------------------ *)
(* campaign [run]: the single-process engine.                           *)

let run (id : Journal.header) kernel lanes journal resume audit retries
    chaos =
  let chaos = chaos 0 in
  let durable = journal <> None || resume || audit > 0. || chaos <> None in
  usage_check
    [
      ( retries <> None && not durable,
        "--retries only applies to a supervised run (--journal, --resume, --audit or --chaos)" );
      ( audit > 0. && not id.prune,
        Printf.sprintf "--audit %g needs --prune: without pruning there is nothing to audit"
          audit );
      ( lanes > 0 && kernel <> Fi_campaign.Delta_batched,
        Printf.sprintf "--lanes only applies to --engine delta-batched (got %s)"
          (Fi_campaign.kernel_name kernel) );
      (resume && journal = None, "--resume needs --journal pointing at the journal to resume");
    ]
  @@ fun () ->
  match check_journal_model ~journal ~active:resume ~model:id.fault_model with
  | Some code -> `Ok code
  | None -> (
    match setup id ~kernel with
    | Error msg -> `Error (true, msg)
    | Ok { campaign; space; pruner; skip } ->
      let lanes = if lanes > 0 then Some lanes else None in
      let start = Mono.now () in
      if not durable then begin
        let rng = Prng.create id.seed in
        let n = id.samples in
        let stats =
          match kernel with
          | Fi_campaign.Scalar -> Fi_campaign.run_sample campaign ~space ~rng ~n ?skip ()
          | Fi_campaign.Delta_batched ->
            Fi_campaign.run_sample_delta_batched campaign ~space ~rng ~n ?skip ?lanes ()
        in
        print_stats stats (Mono.now () -. start);
        report_unknown_flops pruner;
        `Ok 0
      end
      else begin
        install_signal_handlers ();
        let audit_arg =
          match pruner with
          | Some p when audit > 0. ->
            Some
              ( audit,
                {
                  Durable.masking =
                    Fault_space.lift_masking space ~masking:(fun ~flop_id ~cycle ->
                        Replay.masking p ~flop_id ~cycle);
                  quarantine = Replay.quarantine p;
                  describe = Replay.describe_mate p;
                } )
          | _ -> None
        in
        match
          Durable.run campaign ~space ~seed:id.seed ~n:id.samples ~ident:(id.core, id.program)
            ?skip ?audit:audit_arg ~kernel ?lanes ?retries ?journal ~resume
            ~should_stop:stop_requested ?chaos ()
        with
        | exception Journal.Error msg -> `Ok (fail exit_journal "%s" msg)
        | result ->
          let elapsed = Mono.now () -. start in
          report_resumed ~recovered:result.Durable.recovered
            ~dropped_bytes:result.Durable.dropped_bytes;
          if result.Durable.retried > 0 then
            Printf.printf "supervisor: %d experiment retries on fresh systems\n"
              result.Durable.retried;
          print_stats result.Durable.stats elapsed;
          if audit > 0. then begin
            let a = result.Durable.audit in
            Printf.printf
              "audit: %d pruned faults injected, %d soundness violations, %d MATEs quarantined\n"
              a.Durable.audited
              (List.length a.Durable.violations)
              (List.length a.Durable.quarantined);
            List.iter
              (fun v ->
                Printf.printf
                  "  VIOLATION sample %d (flop %d, cycle %d): verdict %s, quarantined %s\n"
                  v.Durable.v_index v.Durable.v_flop_id v.Durable.v_cycle
                  (Format.asprintf "%a" Fi_campaign.pp_verdict v.Durable.v_verdict)
                  (String.concat ", "
                     (List.map
                        (fun m ->
                          match pruner with
                          | Some p -> Replay.describe_mate p m
                          | None -> string_of_int m)
                        v.Durable.v_mates)))
              a.Durable.violations
          end;
          report_unknown_flops pruner;
          `Ok (if result.Durable.completed then 0 else interrupted ~resume_with:"--resume" journal)
      end)

(* ------------------------------------------------------------------ *)
(* campaign serve: the distributed coordinator.                         *)

(* The supervisor's liveness probe joins under this reserved name; its
   Joined/Left chatter is filtered from the coordinator's event log. *)
let probe_name = "supervisor-probe"

(* Satellite of the self-healing service: the port file is written
   atomically (tempfile + rename), so a worker re-reading it mid-rewrite
   never sees an empty or half-written port — it sees the old port (one
   doomed connect, retried) or the new one. *)
let write_port_file f port =
  let tmp = f ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%d\n" port;
  close_out oc;
  Sys.rename tmp f

let read_port_file f =
  match open_in f with
  | exception Sys_error _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match int_of_string_opt (String.trim line) with
    | Some p when p >= 1 && p <= 65535 -> Some p
    | _ -> None)

(* One coordinator incarnation: bind, announce, serve, report. Shared by
   the plain `serve` path and every supervised re-spawn (where [resume]
   is recomputed per incarnation from the journal's existence). *)
let run_coordinator (header : Journal.header) ~port_file ~config ~journal ~resume ~verbose
    ~chaos =
  let listen = config.Coordinator.listen in
  match Coordinator.create ~config () with
  | exception Unix.Unix_error (e, _, _) ->
    fail exit_service "cannot listen on %s:%d: %s" listen config.Coordinator.port
      (Unix.error_message e)
  | coordinator -> (
    let bound = Coordinator.port coordinator in
    Printf.printf "%s/%s: serving %d samples (seed %d%s, model %s) on %s:%d\n%!"
      header.core header.program header.samples header.seed
      (if header.prune then ", pruned" else "")
      (Fault_model.name header.fault_model) listen bound;
    (match port_file with
    | None -> ()
    | Some f -> write_port_file f bound);
    install_signal_handlers ();
    let on_event e =
      match e with
      | Coordinator.Progress _ when not verbose -> ()
      | Coordinator.(Joined { worker } | Left { worker; _ }) when worker = probe_name -> ()
      | _ -> Format.printf "%a@.%!" Coordinator.pp_event e
    in
    let start = Mono.now () in
    match
      Coordinator.serve coordinator ~header ?journal ~resume ~should_stop:stop_requested
        ?chaos ~on_event ()
    with
    | exception Journal.Error msg -> fail exit_journal "%s" msg
    | r ->
      report_resumed ~recovered:r.Coordinator.recovered ~dropped_bytes:r.Coordinator.dropped_bytes;
      Printf.printf "workers: %d joined, %d chunk leases re-dispatched, %d duplicate verdicts\n"
        r.Coordinator.workers r.Coordinator.redispatched r.Coordinator.duplicates;
      if r.Coordinator.verified > 0 then
        Printf.printf "verify: %d chunks cross-validated on a second worker\n"
          r.Coordinator.verified;
      if r.Coordinator.blacklisted > 0 then
        Printf.printf "blacklist: %d misbehaving workers refused re-admission\n"
          r.Coordinator.blacklisted;
      if r.Coordinator.mismatches > 0 then
        Printf.printf
          "arbitration: %d verdict disputes, %d resolved by quorum (%d overturned), %d \
           unresolved\n"
          r.Coordinator.mismatches r.Coordinator.arb_resolved r.Coordinator.arb_overturned
          r.Coordinator.arb_unresolved;
      if r.Coordinator.suspects <> [] then
        Printf.printf "reputation: %d workers quarantined as suspects: %s\n"
          (List.length r.Coordinator.suspects)
          (String.concat ", "
             (List.map
                (fun (w, s) -> Printf.sprintf "%s (suspicion %d)" w s)
                r.Coordinator.suspects));
      print_stats r.Coordinator.stats (Mono.now () -. start);
      if r.Coordinator.arb_unresolved > 0 then begin
        Printf.eprintf
          "campaign: %d verdict disputes had no reachable quorum (stats above carry the first \
           verdict, unvalidated)\n%!"
          r.Coordinator.arb_unresolved;
        exit_network
      end
      else if r.Coordinator.poisoned <> [] then begin
        Printf.eprintf
          "campaign: %d chunks quarantined as poisoned (each killed %d distinct workers): %s\n%s%!"
          (List.length r.Coordinator.poisoned)
          config.Coordinator.poison_threshold
          (String.concat ", " (List.map string_of_int r.Coordinator.poisoned))
          (match journal with
          | Some dir ->
            Printf.sprintf "campaign: stats above exclude them; retry with serve --resume \
                            --journal %s\n" dir
          | None -> "campaign: stats above exclude them (no --journal given to retry from)\n");
        exit_poisoned
      end
      else if not r.Coordinator.completed then interrupted ~resume_with:"serve --resume" journal
      else 0)

(* ------------------------------------------------------------------ *)
(* campaign work: a stateless worker fleet member.                      *)

exception Unknown_identity of string

(* One worker process: engines are built lazily from the coordinator's
   Welcome header, so a worker needs no campaign flags at all. The
   header pins the fault model; the worker obeys it — a fleet never
   mixes models within one campaign. *)
let work_one ~host ~port ~name ~kernel ?retries ~max_reconnects
    ~recv_timeout ?readdress ~chaos () =
  let resolve h =
    match setup h ~kernel with
    | Error msg ->
      raise (Unknown_identity ("coordinator named a campaign this build cannot run: " ^ msg))
    | Ok { campaign; space; skip; _ } -> { Worker.campaign; space; skip; kernel }
  in
  match
    Worker.run ~host ~port ~resolve ?name ~recv_timeout ?retries ~max_reconnects ?readdress
      ~should_stop:stop_requested ?chaos ()
  with
  | exception Unknown_identity msg -> fail exit_service "%s" msg
  | report -> (
    Printf.printf "worker: %d chunks, %d verdicts submitted, %d crashes, %d retries, %d reconnects\n"
      report.Worker.chunks report.Worker.submitted report.Worker.crashes report.Worker.retried
      report.Worker.reconnects;
    match report.Worker.ended with
    | Worker.Campaign_done -> 0
    | Worker.Stopped -> stop_exit_code ()
    | Worker.Gave_up why -> fail exit_network "giving up: %s" why)

let work (host, port) name workers kernel retries max_reconnects recv_timeout
    chaos =
  usage_check
    [
      ( workers > 1 && name <> None,
        Printf.sprintf
          "--name and --workers %d are mutually exclusive: worker names must be unique" workers );
    ]
  @@ fun () ->
  install_signal_handlers ();
  let one i =
    work_one ~host ~port ~name ~kernel ?retries ~max_reconnects
      ~recv_timeout ~chaos:(chaos i) ()
  in
  if workers = 1 then `Ok (one 0)
  else begin
    (* A local fleet: fork first (no domains/threads exist yet), let
       every process run its own engine, and report the first
       failure. *)
    let pids =
      List.init workers (fun i ->
          match Unix.fork () with
          | 0 ->
            (* _exit skips at_exit, so flush the report lines explicitly. *)
            let code = try one i with _ -> exit_network in
            (try flush_all () with Sys_error _ -> ());
            Unix._exit code
          | pid -> pid)
    in
    (* Reap in completion order — waitpid(-1) — so a member dying
       early never sits as a zombie behind a straggling sibling.
       SIGTERM is forwarded to the whole fleet exactly once, and the
       first non-zero exit code is the one propagated. *)
    let remaining = ref (List.length pids) in
    let first_nonzero = ref 0 in
    let forwarded = ref false in
    let forward_stop () =
      if stop_requested () && not !forwarded then begin
        forwarded := true;
        List.iter (fun p -> try Unix.kill p Sys.sigterm with Unix.Unix_error _ -> ()) pids
      end
    in
    while !remaining > 0 do
      forward_stop ();
      match Unix.waitpid [] (-1) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> remaining := 0
      | _pid, status ->
        decr remaining;
        let code =
          match status with
          | Unix.WEXITED c -> c
          | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit_network
        in
        if code <> 0 && !first_nonzero = 0 then first_nonzero := code
    done;
    `Ok (if stop_requested () then stop_exit_code () else !first_nonzero)
  end

(* ------------------------------------------------------------------ *)
(* campaign serve: the coordinator, optionally self-healing.            *)

(* The supervisor's liveness probe: a full Hello/Welcome handshake with
   deadlines, so a wedged-but-alive coordinator (accepting but not
   serving) fails the probe just like a dead one. *)
let probe_coordinator ~host ~port =
  match
    let fd = Proto.connect host port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let deadline = Mono.now () +. 2. in
        Proto.send ~deadline fd
          (Proto.Hello { version = Proto.version; name = probe_name; epoch = -1 });
        Proto.recv ~deadline fd)
  with
  | Proto.Welcome _ -> true
  | _ -> false
  | exception _ -> false

(* One supervised fleet member: a plain worker whose address is the port
   file (re-read before every connect, so it follows a restarted
   coordinator onto a fresh ephemeral port) and whose reconnect budget
   is generous — the supervisor, not the worker, decides when to give
   up on the service. *)
let supervised_work ~host ~current_port ~index ~chaos =
  install_signal_handlers ();
  let rec await_port n =
    match current_port () with
    | Some p -> p
    | None when n > 0 && not (stop_requested ()) ->
      Unix.sleepf 0.1;
      await_port (n - 1)
    | None -> 0 (* let the reconnect loop and [readdress] take over *)
  in
  let port = await_port 100 in
  work_one ~host ~port
    ~name:(Some (Printf.sprintf "fleet-%d" (index + 1)))
    ~kernel:Fi_campaign.Scalar ~max_reconnects:1000
    ~recv_timeout:30.
    ~readdress:(fun () -> Option.map (fun p -> (host, p)) (current_port ()))
    ~chaos ()

let serve (id : Journal.header) config port_file journal resume verbose supervise sup_config
    fleet chaos =
  let { Coordinator.listen; port; lease; idle_timeout; _ } = config in
  usage_check
    [
      (resume && journal = None, "--resume needs --journal pointing at the journal to resume");
      ( idle_timeout > 0. && idle_timeout <= lease,
        Printf.sprintf
          "--idle-timeout (%g) must exceed --lease (%g): a lapsed lease keeps the connection, \
           the read deadline closes it"
          idle_timeout lease );
      ( fleet > 0 && not supervise,
        "--workers on serve needs --supervise (use 'campaign work' for an unsupervised fleet)" );
      ( supervise && journal = None,
        "--supervise needs --journal: a restarted coordinator re-enters through serve --resume" );
      ( supervise && port = 0 && port_file = None,
        "--supervise with --port 0 needs --port-file: a restarted coordinator rebinds, and \
         workers (and the liveness probe) find the new port there" );
    ]
  @@ fun () ->
  match check_journal_model ~journal ~active:(resume || supervise) ~model:id.fault_model with
  | Some code -> `Ok code
  | None ->
    (* A stale port file from a previous service would point fresh
       workers at a dead (or recycled) port; remove it before anyone can
       read it. The live value is rewritten atomically once the
       coordinator has bound. *)
    (match port_file with
    | Some f when Sys.file_exists f -> ( try Sys.remove f with Sys_error _ -> ())
    | _ -> ());
    let coordinator ~resume () =
      run_coordinator id ~port_file ~config ~journal ~resume ~verbose ~chaos:(chaos 0)
    in
    if not supervise then `Ok (coordinator ~resume ())
    else begin
      let journal_dir = Option.get journal in
      install_signal_handlers ();
      let spawn_child body () =
        match Unix.fork () with
        | 0 ->
          (* The child starts with a clean slate: a signal the parent
             absorbed before the fork must not look received here. *)
          Atomic.set stop_signal 0;
          let code =
            try body () with
            | Journal.Error msg -> fail exit_journal "%s" msg
            | _ -> exit_network
          in
          (* _exit skips at_exit, so flush the report lines explicitly. *)
          (try flush_all () with Sys_error _ -> ());
          Unix._exit code
        | pid -> pid
      in
      let current_port () =
        match port_file with
        | Some f -> read_port_file f
        | None -> if port > 0 then Some port else None
      in
      let specs =
        {
          Supervisor.name = "coordinator";
          critical = true;
          spawn =
            spawn_child (fun () ->
                (* Each incarnation decides for itself: a journal on disk
                   means a previous incarnation recorded something — come
                   back through --resume, which also bumps the epoch that
                   tells surviving workers to re-deliver. *)
                coordinator ~resume:(resume || Journal.exists ~dir:journal_dir) ());
        }
        :: List.init fleet (fun i ->
               {
                 Supervisor.name = Printf.sprintf "worker-%d" (i + 1);
                 critical = false;
                 spawn =
                   spawn_child (fun () ->
                       supervised_work ~host:listen ~current_port ~index:i
                         ~chaos:(chaos (i + 1)));
               })
      in
      let probe () =
        match current_port () with
        | None -> false
        | Some p -> probe_coordinator ~host:listen ~port:p
      in
      let on_event e = Format.printf "supervisor: %a@.%!" Supervisor.pp_event e in
      let r = Supervisor.run ~config:sup_config ~probe ~should_stop:stop_requested ~on_event specs in
      match r.Supervisor.outcome with
      | Supervisor.Completed code ->
        Printf.printf "supervisor: campaign complete (%d restarts, %d probe kills)\n"
          r.Supervisor.restarts r.Supervisor.probe_kills;
        `Ok code
      | Supervisor.Stopped -> `Ok (stop_exit_code ())
      | Supervisor.Exhausted { name; last_code } ->
        `Ok
          (fail exit_budget
             "restart budget exhausted on %s (last exit %d); the journal is intact — rerun with \
              --supervise or finish with serve --resume --journal %s"
             name last_code journal_dir)
    end

(* ------------------------------------------------------------------ *)
(* campaign fsck: offline journal integrity check.                      *)

let fsck_dir dir =
  let r = Journal.fsck ~dir in
  (match r.Journal.fsck_header with
  | Some h ->
    Printf.printf "header: %s/%s, %d cycles, %d samples, seed %d%s, model %s, epoch %d%s\n"
      h.Journal.core h.Journal.program h.Journal.cycles h.Journal.samples h.Journal.seed
      (if h.Journal.prune then ", pruned" else "")
      (Fault_model.name h.Journal.fault_model)
      h.Journal.epoch
      (match h.Journal.shards with
      | 0 -> " (distributed)"
      | 1 -> " (local)"
      | n -> Printf.sprintf " (%d shards)" n)
  | None -> Printf.printf "header: missing or unreadable\n");
  Printf.printf "segments: %d sealed%s\n" r.Journal.fsck_segments
    (match r.Journal.fsck_active with
    | Some n -> Printf.sprintf ", active with %d records" n
    | None -> ", no active segment");
  if r.Journal.fsck_torn_bytes > 0 then
    Printf.printf "torn tail: %d trailing bytes (resume will truncate them)\n"
      r.Journal.fsck_torn_bytes;
  let c = r.Journal.fsck_counts in
  Printf.printf "records: %d intact\n" r.Journal.fsck_records;
  Printf.printf "verdicts: %d benign, %d latent, %d SDC, %d skipped, %d crashed\n" c.(0) c.(1)
    c.(2) c.(3) c.(4);
  if c.(5) > 0 then Printf.printf "quarantined MATEs: %d\n" c.(5);
  if c.(6) > 0 then Printf.printf "poisoned chunks: %d\n" c.(6);
  if c.(7) > 0 then
    Printf.printf "arbitrated: %d disputes settled by quorum (%d overturned, %d ballots cast)\n"
      c.(7) r.Journal.fsck_overturned r.Journal.fsck_arb_ballots;
  (* Per-model verdict breakdown: redundant for a pure-SEU journal (the
     lines above already are that breakdown), informative the moment any
     record carries another — or an unknown — model nibble. *)
  (match r.Journal.fsck_models with
  | [] | [ (0, _) ] -> ()
  | models ->
    List.iter
      (fun (id, mc) ->
        let name =
          match Fault_model.base_name_of_id id with
          | Some n -> n
          | None -> Printf.sprintf "unknown-model-%d" id
        in
        Printf.printf
          "model %s: %d benign, %d latent, %d SDC, %d skipped, %d crashed\n" name mc.(0) mc.(1)
          mc.(2) mc.(3) mc.(4))
      models);
  (match r.Journal.fsck_header with
  | Some h -> Printf.printf "covered: %d of %d samples\n" r.Journal.fsck_covered h.Journal.samples
  | None -> Printf.printf "covered: %d distinct sample indices\n" r.Journal.fsck_covered);
  if r.Journal.fsck_errors = [] then begin
    print_string "clean: a resume will accept this journal\n";
    0
  end
  else begin
    List.iter
      (fun (file, problem) -> Printf.eprintf "campaign: %s: %s\n" file problem)
      r.Journal.fsck_errors;
    Printf.eprintf "campaign: %d problem%s found\n%!"
      (List.length r.Journal.fsck_errors)
      (if List.length r.Journal.fsck_errors = 1 then "" else "s");
    exit_journal
  end

(* ------------------------------------------------------------------ *)
(* CLI.                                                                 *)

(* The campaign identity flags, shared by run and serve, as the header a
   coordinator pins: engine-free, it fixes the exact fault list every
   worker derives. shards=0 marks the journal as distributed, so local
   --resume refuses it and vice versa ({!Durable} writes its own
   one-shard header from the same fields). The core and program come
   from {!System.catalogue}, and a pair it lacks is a usage error: no
   worker could run it. *)
let identity =
  let enum_of names = Arg.enum (List.map (fun n -> (n, n)) names) in
  let cores = List.map (fun c -> c.System.core_name) System.catalogue in
  let programs =
    List.sort_uniq String.compare
      (List.concat_map (fun c -> List.map fst c.System.programs) System.catalogue)
  in
  let core =
    Arg.(
      value & opt (enum_of cores) "avr"
      & info [ "core" ] ~doc:("Built-in core: " ^ String.concat " or " cores ^ "."))
  in
  let program =
    Arg.(
      value & opt (enum_of programs) "fib"
      & info [ "program" ] ~doc:("Built-in program of the core: " ^ System.known ^ "."))
  in
  let cycles =
    Arg.(value & opt positive 500 & info [ "cycles" ] ~doc:"Campaign horizon in cycles.")
  in
  let samples =
    Arg.(value & opt non_negative 200 & info [ "samples" ] ~doc:"Number of sampled faults.")
  in
  let seed =
    Arg.(
      value & opt non_negative 42
      & info [ "seed" ] ~doc:"Sampling seed (recorded in journal headers as-is).")
  in
  let prune = Arg.(value & flag & info [ "prune" ] ~doc:"Prune the fault list with MATEs first.") in
  let model =
    Arg.(
      value & opt fault_model_conv Fault_model.Seu
      & info [ "fault-model" ] ~docv:"MODEL"
          ~doc:
            "Fault model to sample and classify: $(b,seu) (single-event upset: one flop flipped \
             for one cycle — the default and the classic HAFI model), $(b,set) (single-event \
             transient: a glitch on a gate output, expanded through the gate's combinational \
             output cone into the set of flops that would latch it that cycle), $(b,mbu:K) \
             (multi-bit upset: $(i,K) layout-adjacent flops flipped together in one cycle) or \
             $(b,intermittent:N) (intermittent stuck-at: one flop held at the flipped value for \
             $(i,N) consecutive cycles; $(b,intermittent:1) is exactly $(b,seu)). The model is \
             pinned in the journal header and on every distributed chunk; every engine supports \
             every model bit-identically.")
  in
  Term.(
    ret
      (const (fun core program cycles samples seed prune fault_model ->
           match System.find ~core ~program with
           | None ->
             `Error
               ( true,
                 Printf.sprintf "--program %s is not built for --core %s (built-in: %s)" program
                   core System.known )
           | Some _ ->
             `Ok
               {
                 Journal.core;
                 program;
                 cycles;
                 seed;
                 samples;
                 prune;
                 audit = 0.;
                 shards = 0;
                 batched = false;
                 epoch = 0;
                 fault_model;
                 prng = Prng.save (Prng.create seed);
                 shard_prng = [||];
               })
      $ core $ program $ cycles $ samples $ seed $ prune $ model))

let engine_arg =
  Arg.(
    value & opt engine_conv Fi_campaign.Scalar
    & info [ "engine" ] ~docv:"KERNEL"
        ~doc:
          "Classification kernel: $(b,scalar) (the reference: one fault at a time from the \
           nearest golden checkpoint) or $(b,delta-batched) (production: up to 63 in-flight \
           faults, each a sparse delta against one shared recorded golden run, swept over one \
           shared schedule). Both produce bit-identical verdicts.")

let lanes_arg =
  Arg.(
    value & opt lanes_conv 0
    & info [ "lanes" ] ~docv:"N"
        ~doc:
          "In-flight faults per pass for $(b,--engine delta-batched) (0 = the maximum, 63). \
           Only valid with that engine; verdicts are identical for every width.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Stream every verdict into a crash-safe CRC-checksummed journal at $(docv). A killed \
           campaign resumes from it with $(b,--resume) and finishes with bit-identical statistics.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume the campaign recorded in $(b,--journal): recorded verdicts are replayed, only \
           missing experiments run. The journal header must match this invocation.")

let audit =
  Arg.(
    value & opt fraction 0.
    & info [ "audit" ] ~docv:"P"
        ~doc:
          "MATE soundness sentinel: inject fraction $(docv) of the faults the pruner claims \
           benign and verify the verdict. A violation quarantines the offending MATE (its faults \
           are injected, not pruned, from then on) and is reported; the campaign never aborts. \
           Requires $(b,--prune).")

let retries =
  Arg.(
    value
    & opt (some non_negative) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Supervisor retries per failing experiment, each on a freshly built system, before it \
           is recorded as crashed (default 2). On $(b,run) it needs a supervised run: \
           $(b,--journal), $(b,--resume), $(b,--audit) or $(b,--chaos).")

let chaos_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Arm the deterministic self-chaos fault plan seeded with $(docv): injected frame \
           delays, truncations, bit corruptions, connection resets, short journal writes, \
           ENOSPC/EIO, fsync failures, torn renames, experiment crashes and stalls, duplicate \
           verdict frames. The plan is a pure function of the seed; the final statistics are \
           bit-identical to a chaos-free run (directly or after $(b,--resume)).")

let chaos_budget_arg =
  Arg.(
    value & opt non_negative 64
    & info [ "chaos-budget" ] ~docv:"N"
        ~doc:
          "Total faults the chaos plan may inject before going quiet (per process). A finite \
           budget guarantees the campaign eventually makes progress.")

let chaos_profile_arg =
  Arg.(
    value
    & opt (enum [ ("default", `Default); ("process", `Process); ("liar", `Liar) ]) `Default
    & info [ "chaos-profile" ] ~docv:"PROFILE"
        ~doc:
          "Which fault rates the $(b,--chaos) plan draws from: $(b,default) injects only \
           in-process faults every layer already absorbs; $(b,process) additionally arms \
           whole-process kills and stalls (mid-dispatch, mid-drain, mid-seal) and disk pressure \
           (transient ENOSPC, slow writes) — faults only a supervised service (serve \
           $(b,--supervise)) rides out; $(b,liar) (workers only) turns the worker Byzantine: a \
           deterministic fraction of its verdicts are corrupted before framing, so they pass \
           every CRC and only the coordinator's quorum arbitration (serve $(b,--verify-frac) + \
           $(b,--quorum)) catches, outvotes and quarantines it.")

(* [chaos i]: process [i]'s plan (see {!make_chaos}). *)
let chaos =
  Term.(
    const (fun profile seed budget -> make_chaos ~profile ~seed ~budget)
    $ chaos_profile_arg $ chaos_seed_arg $ chaos_budget_arg)

let man_exit_status =
  [
    `S Manpage.s_exit_status;
    `P "0 on success. Every bad argument exits 124 with a message naming the flag, before any \
        campaign work starts: a malformed or out-of-range value, a flag combination that cannot \
        work (--audit without --prune, --lanes with an engine other than delta-batched, \
        --resume without --journal, ...), or a --fault-model the core cannot host (an MBU \
        cluster wider than its flops). Runtime failures use distinct codes:";
    `P "17: journal error (corrupt, mismatched, or the disk failed mid-run — resumable); 18: the \
        service could not start (the coordinator could not bind its address, or a worker's \
        coordinator named a campaign this build cannot run); 19: network failure (a worker gave \
        up reconnecting) or an unresolved verdict dispute — workers disagreed and quorum \
        arbitration could not reach a majority (disputes a quorum does settle are journaled \
        and do not fail the campaign); 20: chunks quarantined as poisoned after repeatedly \
        killing workers (stats exclude them; resumable with --resume); 21: the supervisor's \
        restart budget was exhausted (a child kept dying faster than --restart-budget per \
        --restart-window allows) — the journal is intact, so rerunning with --supervise (or \
        serve --resume) finishes the campaign; 23: --fault-model contradicts the journal being \
        resumed (the header pins the model every recorded verdict was classified under — rerun \
        with the recorded model).";
    `P "130/143: interrupted by SIGINT/SIGTERM after a clean journal flush (resumable with \
        --resume).";
  ]

let run_term =
  Term.(
    ret
      (const run $ identity $ engine_arg $ lanes_arg $ journal $ resume $ audit $ retries
     $ chaos))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~man:man_exit_status
       ~doc:
         "single-process sampled fault-injection campaign with optional MATE pruning, crash-safe \
          journaling, supervised execution and MATE soundness auditing (the default subcommand)")
    run_term

let serve_cmd =
  let listen =
    Arg.(value & opt string "127.0.0.1" & info [ "listen" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt port 7447
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral port (printed).")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the actually bound port to $(docv) (useful with --port 0 in scripts).")
  in
  let chunk_size =
    Arg.(
      value & opt positive 256
      & info [ "chunk-size" ] ~docv:"N" ~doc:"Samples per chunk lease handed to a worker.")
  in
  let lease =
    Arg.(
      value & opt seconds 10.
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Worker silence tolerated before its chunks are re-dispatched to other workers. Any \
             frame (results or heartbeat) renews the lease.")
  in
  let idle_timeout =
    Arg.(
      value & opt seconds_or_off 30.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Read deadline per connection: a worker completely silent this long is disconnected \
             (its leases re-dispatch) instead of pinning a coordinator slot forever. Must exceed \
             $(b,--lease); 0 disables it.")
  in
  let poison_threshold =
    Arg.(
      value & opt non_negative 3
      & info [ "poison-threshold" ] ~docv:"N"
          ~doc:
            "Quarantine a chunk once $(docv) distinct workers die holding its lease and no \
             other: it is journaled, reported, excluded from the stats (exit 20) and never \
             re-dispatched — instead of killing the whole fleet worker by worker. A death \
             holding a batch of chunks charges none of them; each is then leased alone. 0 \
             disables quarantine.")
  in
  let blacklist_threshold =
    Arg.(
      value & opt non_negative 3
      & info [ "blacklist-threshold" ] ~docv:"N"
          ~doc:
            "Refuse further connections from a worker name after $(docv) protocol violations \
             (corrupt frames, out-of-protocol messages). 0 disables blacklisting.")
  in
  let verify_frac =
    Arg.(
      value & opt fraction 0.
      & info [ "verify-frac" ] ~docv:"R"
          ~doc:
            "Cross-validation sampling: re-dispatch a deterministic fraction $(docv) of completed \
             chunks to a second (different when possible) worker and compare verdicts. A \
             disagreement opens a quorum arbitration ($(b,--quorum)); only a dispute no quorum \
             can settle fails the campaign (exit 19).")
  in
  let quorum =
    Arg.(
      value & opt positive 3
      & info [ "quorum" ] ~docv:"K"
          ~doc:
            "Maximum arbitration ballots recruited per disputed chunk: on a verdict mismatch the \
             chunk is re-issued to up to $(docv) workers that are neither disputant, and each \
             disputed sample is settled by strict majority over both claims plus the ballots — \
             losers take a reputation hit ($(b,--suspect-threshold)). Tolerates any minority of \
             liars; must be at least 1.")
  in
  let suspect_threshold =
    Arg.(
      value & opt non_negative 5
      & info [ "suspect-threshold" ] ~docv:"N"
          ~doc:
            "Suspicion score at which a worker name is quarantined for the rest of the run: \
             arbitration losses score 3, corrupt frames 2, lease expiries 1. A quarantined \
             worker still computes but is excluded from arbitration voting and every chunk it \
             completes is cross-validated regardless of $(b,--verify-frac). 0 disables \
             reputation-based quarantine.")
  in
  let arb_patience =
    Arg.(
      value & opt seconds 30.
      & info [ "arb-patience" ] ~docv:"SECONDS"
          ~doc:
            "How long an arbitration may sit with no ballot progress (e.g. no eligible voter \
             connected) before its disputes are declared unresolved (exit 19) instead of \
             stalling the campaign forever. Should comfortably exceed $(b,--lease).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Also print per-frame progress events.")
  in
  let max_inflight =
    Arg.(
      value & opt non_negative 1024
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Backpressure bound on chunks simultaneously out on leases: requests past it are \
             answered Wait until verdicts drain. The same Wait is served while the journal \
             writer is degraded (disk pressure, ENOSPC retries). 0 disables the bound.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the coordinator (and, with $(b,--workers), a local fleet) as supervised child \
             processes: any child that dies — SIGKILL included — is restarted under capped \
             exponential backoff, the coordinator re-entering through $(b,--resume) with a \
             bumped epoch, with zero operator intervention and bit-identical final statistics. \
             Requires $(b,--journal); with $(b,--port 0) also $(b,--port-file). A liveness \
             probe (Hello/Welcome with deadlines) additionally catches a wedged-but-alive \
             coordinator and kills it into the same restart path.")
  in
  let restart_budget =
    Arg.(
      value & opt non_negative 5
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Restarts allowed per child within a sliding $(b,--restart-window): a child dying \
             faster than that exhausts its budget and the service escalates to exit 21 — \
             resumable, never a silent crash loop.")
  in
  let restart_window =
    Arg.(
      value & opt seconds 60.
      & info [ "restart-window" ] ~docv:"SECONDS"
          ~doc:"The sliding window $(b,--restart-budget) counts restarts in.")
  in
  let fleet =
    Arg.(
      value & opt non_negative 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Fork $(docv) supervised local workers alongside the coordinator (scalar engine, \
             named fleet-1..fleet-N, following the port file across coordinator restarts). \
             Requires $(b,--supervise); 0 means workers join externally via $(b,campaign work).")
  in
  let config =
    Term.(
      const
        (fun listen port chunk_size lease idle_timeout poison_threshold blacklist_threshold
             verify_frac max_inflight quorum suspect_threshold arb_patience ->
          {
            Coordinator.default_config with
            Coordinator.listen;
            port;
            chunk_size;
            lease;
            idle_timeout;
            poison_threshold;
            blacklist_threshold;
            verify_frac;
            max_inflight;
            quorum;
            suspect_threshold;
            arb_patience;
          })
      $ listen $ port $ chunk_size $ lease $ idle_timeout $ poison_threshold
      $ blacklist_threshold $ verify_frac $ max_inflight $ quorum $ suspect_threshold
      $ arb_patience)
  in
  let sup_config =
    Term.(
      const (fun max_restarts window ->
          { Supervisor.default_config with Supervisor.max_restarts; window; probe_interval = 2.0 })
      $ restart_budget $ restart_window)
  in
  Cmd.v
    (Cmd.info "serve" ~man:man_exit_status
       ~doc:
         "distributed-campaign coordinator: owns the fault-space sharding, the verdict journal \
          and the chunk-lease table; workers connect with $(b,campaign work). Survives worker \
          crashes, stragglers, misbehaving clients and its own restart (--journal + --resume) — \
          or, with $(b,--supervise), restarts itself: a supervisor process respawns the dead \
          coordinator into $(b,--resume) under a restart budget, surviving workers rejoin the \
          new epoch and re-deliver in-flight verdicts; final statistics are bit-identical to \
          $(b,campaign run) with the same seed.")
    Term.(
      ret
        (const serve $ identity $ config $ port_file $ journal $ resume $ verbose $ supervise
       $ sup_config $ fleet $ chaos))

let work_cmd =
  let hostport =
    Arg.(
      required
      & pos 0 (some hostport) None
      & info [] ~docv:"HOST:PORT" ~doc:"The coordinator to work for.")
  in
  let worker_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Worker name in coordinator logs (default worker-PID; requires --workers 1).")
  in
  let workers =
    Arg.(
      value & opt positive 1
      & info [ "workers" ] ~docv:"N" ~doc:"Fork $(docv) local worker processes.")
  in
  let max_reconnects =
    Arg.(
      value & opt non_negative 8
      & info [ "max-reconnects" ] ~docv:"N"
          ~doc:
            "Consecutive connection failures tolerated (with capped exponential backoff) before \
             the worker gives up; the counter resets after every successful handshake.")
  in
  let recv_timeout =
    Arg.(
      value & opt seconds 30.
      & info [ "recv-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Read deadline on every frame expected from the coordinator: a coordinator silent \
             this long mid-reply counts as a lost session and the worker backs off and \
             reconnects instead of hanging.")
  in
  Cmd.v
    (Cmd.info "work" ~man:man_exit_status
       ~doc:
         "stateless campaign worker: connects to a $(b,campaign serve) coordinator, derives the \
          campaign (engine, fault list, pruner) from the pinned identity it is sent, and streams \
          verdicts back until the campaign completes. Safe to kill at any time — at most the \
          current chunk is re-dispatched.")
    Term.(
      ret
        (const work $ hostport $ worker_name $ workers $ engine_arg $ retries $ max_reconnects
       $ recv_timeout $ chaos))

let fsck_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL_DIR" ~doc:"The journal directory to scan.")
  in
  Cmd.v
    (Cmd.info "fsck" ~man:man_exit_status
       ~doc:
         "offline read-only integrity check of a verdict journal: validates the header and every \
          record CRC-32, reports seal state, torn trailing bytes, per-kind verdict counts and \
          sample coverage without modifying anything. Exit 0 means a resume will accept the \
          journal; exit 17 lists what is damaged.")
    Term.(const fsck_dir $ dir)

let cmd =
  Cmd.group ~default:run_term
    (Cmd.info "campaign" ~man:man_exit_status
       ~doc:
         "sampled fault-injection campaign with optional MATE pruning, crash-safe journaling, \
          supervised execution, MATE soundness auditing and distributed coordinator/worker \
          operation")
    [ run_cmd; serve_cmd; work_cmd; fsck_cmd ]

let () = exit (Cmd.eval' cmd)
