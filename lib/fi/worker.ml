module Prng = Pruning_util.Prng
module Backoff = Pruning_util.Backoff
module Mono = Pruning_util.Mono

type engine = {
  campaign : Campaign.t;
  space : Fault_space.t;
  skip : (flop_id:int -> cycle:int -> bool) option;
  kernel : Campaign.kernel;
}

type ended =
  | Campaign_done
  | Stopped
  | Gave_up of string

type report = {
  ended : ended;
  chunks : int;
  submitted : int;
  crashes : int;
  retried : int;
  reconnects : int;
  redelivered : int;
  epochs : int;
  suspicion : int;
}

(* Cooperative shutdown mid-chunk: flush what we have, close the session,
   report [Stopped]. *)
exception Stop

let window = Executor.batch_window ~lanes:Campaign.max_delta_lanes

(* Results frames kept for re-delivery after a coordinator failover. *)
let replay_frames = 32

(* A Byzantine verdict rewrite ({!Chaos.Lie}): deterministic in the
   drawn key, always different from the truth, applied before the frame
   is built — so the frame's CRC covers the lie and nothing on the wire
   can catch it. Benign flips to a fault verdict; every fault verdict
   flips to Benign, the most damaging lie (it hides real faults). *)
let lie k (o : Journal.outcome) : Journal.outcome =
  match o with
  | Journal.Benign -> if k land 1 = 0 then Journal.Latent else Journal.Sdc (1 + (k land 0xFF))
  | _ -> Journal.Benign

let run ~host ~port ~resolve ?name ?(heartbeat = 1.) ?(recv_timeout = 30.) ?(retries = 2)
    ?(retry_backoff = Backoff.retry_policy) ?(reconnect_backoff = Backoff.default_policy)
    ?(max_reconnects = 8) ?(results_per_frame = 64) ?readdress
    ?(should_stop = fun () -> false) ?chaos ?fault () =
  if heartbeat <= 0. then invalid_arg "Worker.run: heartbeat must be positive";
  if recv_timeout <= 0. then invalid_arg "Worker.run: recv_timeout must be positive";
  if retries < 0 then invalid_arg "Worker.run: retries must be non-negative";
  if max_reconnects < 0 then invalid_arg "Worker.run: max_reconnects must be non-negative";
  if results_per_frame < 1 then invalid_arg "Worker.run: results_per_frame must be positive";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
  in
  (* Jitter sources are seeded from the worker name: schedules differ
     across a fleet (no reconnect stampede) yet are stable per worker. *)
  let rbo = Backoff.create ~policy:reconnect_backoff (Prng.create (Hashtbl.hash (name, "rc"))) in
  let ebo = Backoff.create ~policy:retry_backoff (Prng.create (Hashtbl.hash (name, "xp"))) in
  let chunks = ref 0 in
  let submitted = ref 0 in
  let crashes = ref 0 in
  let reconnects = ref 0 in
  let failures = ref 0 in
  let redelivered = ref 0 in
  let epochs = ref 0 in
  (* The coordinator generation we last handshook with; -1 = never. *)
  let last_epoch = ref (-1) in
  (* Bounded buffer of the most recent Results frames sent: after a
     coordinator failover (epoch change) they are re-delivered wholesale.
     Verdicts the dead coordinator journaled deduplicate; verdicts it
     lost (accepted but not yet flushed, or in flight when it died) are
     recovered without re-running the experiments. *)
  let replay : Proto.msg Queue.t = Queue.create () in
  let remember msg =
    Queue.push msg replay;
    if Queue.length replay > replay_frames then ignore (Queue.pop replay)
  in
  (* One engine per distinct campaign identity, cached across
     reconnects; the fault list is re-derived from the header's pinned
     master PRNG state — the same list every worker and the
     single-process engines compute. Chunks of it are classified by one
     supervised executor, kept with the engine so its scalar worker (or
     the campaign's cached delta-batched worker) survives across chunks. *)
  let cache : (Journal.header * engine * Executor.t) option ref = ref None in
  (* Failed experiment attempts of executors dropped from the cache. *)
  let past_failures = ref 0 in
  let retried () =
    !past_failures + match !cache with Some (_, _, x) -> Executor.failures x | None -> 0
  in
  let resolve_cached header =
    match !cache with
    (* Modulo the epoch: a failed-over coordinator serves the same
       campaign under a new generation — no engine rebuild. *)
    | Some (h, e, x) when Journal.same_campaign h header -> (e, x)
    | _ ->
      past_failures := retried ();
      let e = resolve header in
      if Campaign.total_cycles e.campaign <> header.Journal.cycles then
        invalid_arg "Worker.run: resolve built an engine with the wrong cycle horizon";
      let samples =
        Campaign.draw_samples e.campaign ~space:e.space
          ~rng:(Prng.restore header.Journal.prng)
          ~n:header.Journal.samples
      in
      let x =
        Executor.create e.campaign ~space:e.space ~samples ~kernel:e.kernel ~window ~retries
          ~backoff:ebo ?chaos ~should_stop ()
      in
      cache := Some (header, e, x);
      (e, x)
  in
  (* A lease must match the campaign identity resolved from Welcome and
     lie inside its fault list. *)
  let check_chunk engine n { Proto.chunk_id; lo; hi; model; model_param; purpose = _ } =
    let own = engine.space.Fault_space.model in
    if model <> Fault_model.id own || model_param <> Fault_model.param own then
      raise
        (Proto.Error
           (Printf.sprintf "chunk %d pins fault model %d:%d but the campaign is %s"
              chunk_id model model_param (Fault_model.name own)));
    if lo < 0 || hi < lo || hi >= n then
      raise
        (Proto.Error (Printf.sprintf "chunk %d spans [%d, %d], outside [0, %d)" chunk_id lo hi n))
  in
  (* ---------------------------------------------------------------- *)
  (* One batch of leased chunks, classified as one range list and
     streamed back chunk by chunk as the verdicts appear. *)
  let run_batch fd engine executor (batch : Proto.chunk array) =
    let last_sent = ref (Mono.now ()) in
    let tell msg =
      Proto.send ?chaos fd msg;
      last_sent := Mono.now ()
    in
    (* The executor emits in range order, so the batch's chunks complete
       one after another: [cur] is the one being emitted. *)
    let cur = ref 0 in
    let acc = ref [] in
    let acc_n = ref 0 in
    let flush () =
      if !acc_n > 0 then begin
        let chunk_id = batch.(!cur).Proto.chunk_id in
        let msg = Proto.Results { chunk_id; results = Array.of_list (List.rev !acc) } in
        tell msg;
        remember msg;
        (* Duplicate-verdict replay: deliver the frame twice and let the
           coordinator's dedup swallow the echo. *)
        (match Option.map (fun c -> Chaos.draw c Chaos.Exec) chaos with
        | Some Chaos.Duplicate -> tell msg
        | _ -> ());
        submitted := !submitted + !acc_n;
        acc := [];
        acc_n := 0
      end
    in
    (* Every verdict of a window is pushed, sliced into its chunks'
       frames, then the session proves it is alive; a chunk's last
       verdict closes it. *)
    let push (idx, outcome) =
      if outcome = Journal.Crashed then incr crashes;
      (* Byzantine chaos: one Verdict-site draw per verdict reported.
         A [Lie] rewrites the outcome before it is accumulated — every
         downstream byte (frame, CRC, replay buffer) carries the lie. *)
      let outcome =
        match Option.map (fun c -> Chaos.draw c Chaos.Verdict) chaos with
        | Some (Chaos.Lie k) -> lie k outcome
        | _ -> outcome
      in
      acc := (idx, outcome) :: !acc;
      incr acc_n;
      if !acc_n >= results_per_frame then flush ();
      if idx = batch.(!cur).Proto.hi then begin
        flush ();
        tell (Proto.Chunk_done { chunk_id = batch.(!cur).Proto.chunk_id });
        incr chunks;
        incr cur
      end
      else if Mono.now () -. !last_sent > heartbeat then
        if !acc_n > 0 then flush () else tell Proto.Heartbeat
    in
    let plan _ ~flop_id ~cycle =
      match engine.skip with
      | Some f when f ~flop_id ~cycle -> Executor.Skip
      | _ -> Executor.Inject
    in
    let chunk_of index =
      let c = Array.find_opt (fun c -> c.Proto.lo <= index && index <= c.Proto.hi) batch in
      (Option.get c).Proto.chunk_id
    in
    let completed =
      Executor.run executor
        ~ranges:(Array.to_list (Array.map (fun c -> (c.Proto.lo, c.Proto.hi)) batch))
        ~plan ~emit:(Array.iter push)
        ?fault:(Option.map (fun f ~index -> f ~chunk_id:(chunk_of index) ~index) fault)
        ()
    in
    flush ();
    if not completed then raise Stop
  in
  (* ---------------------------------------------------------------- *)
  (* One session: handshake, then pull work until Done/Stop/error.     *)
  (* Mirror of the coordinator's write_timeout on our read side: a
     coordinator that stops talking mid-reply (half-dead, slow-loris)
     raises [Proto.Error] here, which the outer loop treats as a lost
     session — backoff and reconnect instead of hanging forever. *)
  let recv fd = Proto.recv ~deadline:(Mono.now () +. recv_timeout) ?chaos fd in
  let suspicion = ref 0 in
  let session fd =
    Proto.send ?chaos fd (Proto.Hello { version = Proto.version; name; epoch = !last_epoch });
    match recv fd with
    | Proto.Welcome { header; suspicion = susp } ->
      (* Our own standing as the coordinator sees it: a worker past the
         quarantine threshold keeps working (its chunks are simply
         always cross-validated) but the score is surfaced in the
         report for operators. *)
      suspicion := susp;
      let engine, executor = resolve_cached header in
      let ep = header.Journal.epoch in
      if ep <> !last_epoch then begin
        incr epochs;
        if !last_epoch >= 0 then begin
          (* A different generation answered: the coordinator we lost is
             gone, its lease state with it. Drop ours (any in-flight
             chunk will be re-assigned) and re-deliver the buffered
             Results frames — first-verdict-wins dedup makes this safe,
             and it saves the new coordinator re-running whatever the
             old one died holding. *)
          Queue.iter (fun msg -> Proto.send ?chaos fd msg) replay;
          redelivered := !redelivered + Queue.length replay
        end;
        last_epoch := ep
      end;
      (* Handshake complete: the coordinator is reachable and sane, so
         reconnect accounting starts afresh. *)
      failures := 0;
      Backoff.reset rbo;
      (* Lease chunks until another of the same size would overflow the
         window (a scalar worker holds one), or the coordinator has no
         more to give right now; then classify them as one batch. *)
      let rec loop held faults =
        if held = [] && should_stop () then raise Stop;
        Proto.send ?chaos fd Proto.Request;
        match recv fd with
        | Proto.Assign chunk ->
          check_chunk engine header.Journal.samples chunk;
          let size = chunk.Proto.hi - chunk.Proto.lo + 1 in
          let faults = faults + size in
          if engine.kernel = Campaign.Scalar || faults + size > window then work (chunk :: held)
          else loop (chunk :: held) faults
        | Proto.Wait | Proto.Done when held <> [] -> work held
        | Proto.Wait ->
          Unix.sleepf 0.1;
          loop [] 0
        | Proto.Done -> Campaign_done
        | Proto.Heartbeat -> loop held faults
        | _ -> raise (Proto.Error "unexpected message from coordinator")
      and work held =
        run_batch fd engine executor (Array.of_list (List.rev held));
        loop [] 0
      in
      loop [] 0
    | _ -> raise (Proto.Error "expected Welcome")
  in
  let result = ref None in
  let cur_host = ref host and cur_port = ref port in
  (* A supervised coordinator may come back on a different ephemeral
     port: re-read the advertised address (the port file) before every
     connection attempt. A readdress failure (file mid-rewrite, not yet
     written by the restarting coordinator) just keeps the old address
     for this attempt. *)
  let refresh_address () =
    match readdress with
    | None -> ()
    | Some f -> (
      match (try f () with _ -> None) with
      | Some (h, p) ->
        cur_host := h;
        cur_port := p
      | None -> ())
  in
  while !result = None do
    if should_stop () then result := Some Stopped
    else begin
      refresh_address ();
      match Proto.connect !cur_host !cur_port with
      | exception Unix.Unix_error (e, _, _) ->
        incr failures;
        if !failures > max_reconnects then
          result := Some (Gave_up ("cannot reach coordinator: " ^ Unix.error_message e))
        else Unix.sleepf (Backoff.next rbo)
      | fd -> (
        let close () = try Unix.close fd with Unix.Unix_error _ -> () in
        match session fd with
        | ended ->
          close ();
          result := Some ended
        | exception Stop ->
          close ();
          result := Some Stopped
        | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) ->
          (* Lost session: any chunk in flight is abandoned here and
             re-dispatched by the coordinator's lease machinery; our
             already-submitted verdicts deduplicate over there. *)
          close ();
          incr reconnects;
          incr failures;
          if !failures > max_reconnects then result := Some (Gave_up "connection lost")
          else Unix.sleepf (Backoff.next rbo))
    end
  done;
  {
    ended = Option.get !result;
    chunks = !chunks;
    submitted = !submitted;
    crashes = !crashes;
    retried = retried ();
    reconnects = !reconnects;
    redelivered = !redelivered;
    epochs = !epochs;
    suspicion = !suspicion;
  }
