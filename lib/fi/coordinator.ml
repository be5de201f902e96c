module Mono = Pruning_util.Mono
module Prng = Pruning_util.Prng

type config = {
  listen : string;
  port : int;
  chunk_size : int;
  lease : float;
  write_timeout : float;
  tick : float;
  drain : float;
  idle_timeout : float;
  poison_threshold : int;
  blacklist_threshold : int;
  verify_frac : float;
  max_inflight : int;
  quorum : int;
  suspect_threshold : int;
  arb_patience : float;
}

let default_config =
  {
    listen = "127.0.0.1";
    port = 0;
    chunk_size = 256;
    lease = 10.;
    write_timeout = 5.;
    tick = 0.05;
    drain = 5.;
    idle_timeout = 30.;
    poison_threshold = 3;
    blacklist_threshold = 3;
    verify_frac = 0.;
    max_inflight = 1024;
    quorum = 3;
    suspect_threshold = 5;
    arb_patience = 30.;
  }

type event =
  | Joined of { worker : string }
  | Left of { worker : string; reason : string }
  | Assigned of { worker : string; chunk : Proto.chunk }
  | Redispatched of { worker : string; chunk_id : int; reason : string }
  | Progress of { done_ : int; total : int }
  | Duplicate of { worker : string; index : int }
  | Mismatch of { worker : string; index : int }
  | Quarantined of { chunk_id : int; deaths : int }
  | Blacklisted of { worker : string; strikes : int }
  | Verified of { chunk_id : int; worker : string }
  | Rejoined of { worker : string; stale_epoch : int; epoch : int }
  | Arbitrating of { chunk_id : int; index : int; challenger : string }
  | Arbitrated of {
      chunk_id : int;
      index : int;
      outcome : Journal.outcome;
      overturned : bool;
      voters : string list;
      losers : string list;
    }
  | Arbitration_failed of { chunk_id : int; index : int; reason : string }
  | Suspected of { worker : string; score : int }
  | Completed

let outcome_name = function
  | Journal.Benign -> "benign"
  | Journal.Latent -> "latent"
  | Journal.Sdc c -> Printf.sprintf "sdc@%d" c
  | Journal.Skipped -> "skipped"
  | Journal.Crashed -> "crashed"

let pp_event ppf = function
  | Joined { worker } -> Format.fprintf ppf "worker %s joined" worker
  | Left { worker; reason } -> Format.fprintf ppf "worker %s left (%s)" worker reason
  | Assigned { worker; chunk } ->
    Format.fprintf ppf "chunk %d [%d..%d] -> %s" chunk.Proto.chunk_id chunk.Proto.lo
      chunk.Proto.hi worker
  | Redispatched { worker; chunk_id; reason } ->
    Format.fprintf ppf "chunk %d requeued from %s (%s)" chunk_id worker reason
  | Progress { done_; total } -> Format.fprintf ppf "%d/%d verdicts" done_ total
  | Duplicate { worker; index } ->
    Format.fprintf ppf "duplicate verdict for sample %d from %s (deduplicated)" index worker
  | Mismatch { worker; index } ->
    Format.fprintf ppf "VERDICT MISMATCH on sample %d from %s" index worker
  | Quarantined { chunk_id; deaths } ->
    Format.fprintf ppf "chunk %d POISONED (killed %d distinct workers), quarantined" chunk_id
      deaths
  | Blacklisted { worker; strikes } ->
    Format.fprintf ppf "worker %s blacklisted after %d corrupt frames" worker strikes
  | Verified { chunk_id; worker } ->
    Format.fprintf ppf "chunk %d cross-validated by %s" chunk_id worker
  | Rejoined { worker; stale_epoch; epoch } ->
    Format.fprintf ppf "worker %s rejoined from epoch %d into epoch %d" worker stale_epoch epoch
  | Arbitrating { chunk_id; index; challenger } ->
    Format.fprintf ppf "verdict dispute on sample %d (chunk %d) raised by %s: arbitrating" index
      chunk_id challenger
  | Arbitrated { chunk_id; index; outcome; overturned; voters; losers } ->
    Format.fprintf ppf "sample %d (chunk %d) arbitrated to %s by quorum [%s]: first verdict %s%s"
      index chunk_id (outcome_name outcome)
      (String.concat ", " voters)
      (if overturned then "OVERTURNED" else "upheld")
      (match losers with
      | [] -> ""
      | l -> Printf.sprintf "; outvoted: %s" (String.concat ", " l))
  | Arbitration_failed { chunk_id; index; reason } ->
    Format.fprintf ppf "verdict dispute on sample %d (chunk %d) UNRESOLVED: %s" index chunk_id
      reason
  | Suspected { worker; score } ->
    Format.fprintf ppf "worker %s quarantined as suspect (suspicion %d)" worker score
  | Completed -> Format.fprintf ppf "campaign complete"

type result = {
  stats : Campaign.stats;
  completed : bool;
  recovered : int;
  dropped_bytes : int;
  duplicates : int;
  mismatches : int;
  redispatched : int;
  workers : int;
  poisoned : int list;
  blacklisted : int;
  verified : int;
  rejoined : int;
  epoch : int;
  arb_resolved : int;
  arb_overturned : int;
  arb_unresolved : int;
  suspects : (string * int) list;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  mutable served : bool;
}

let rec restart f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let create ?(config = default_config) () =
  if config.chunk_size < 1 then invalid_arg "Coordinator.create: chunk_size must be positive";
  if config.lease <= 0. then invalid_arg "Coordinator.create: lease must be positive";
  if config.drain < 0. then invalid_arg "Coordinator.create: drain must be non-negative";
  if config.poison_threshold < 0 then
    invalid_arg "Coordinator.create: poison_threshold must be non-negative";
  if config.blacklist_threshold < 0 then
    invalid_arg "Coordinator.create: blacklist_threshold must be non-negative";
  if config.verify_frac < 0. || config.verify_frac > 1. then
    invalid_arg "Coordinator.create: verify_frac must be in [0, 1]";
  if config.max_inflight < 0 then
    invalid_arg "Coordinator.create: max_inflight must be non-negative";
  if config.quorum < 1 then invalid_arg "Coordinator.create: quorum must be at least 1";
  if config.suspect_threshold < 0 then
    invalid_arg "Coordinator.create: suspect_threshold must be non-negative";
  if config.arb_patience <= 0. then
    invalid_arg "Coordinator.create: arb_patience must be positive";
  (* A worker death must surface as a socket error on our side, not kill
     the coordinator process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.listen, config.port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  { config; listen_fd = fd; served = false }

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> 0

(* ------------------------------------------------------------------ *)
(* Per-connection state.                                               *)

type conn = {
  fd : Unix.file_descr;
  dec : Proto.decoder;
  mutable name : string;  (* peer address until Hello names it *)
  mutable greeted : bool;
  mutable last_seen : float;  (* Mono.now of the last complete message *)
  mutable leases : int list;  (* chunk ids this connection holds *)
  mutable vleases : int list;  (* chunk ids held for cross-validation *)
  mutable aleases : int list;  (* chunk ids held as arbitration ballots *)
}

type chunk_state =
  | Pending
  | Leased
  | Complete
  | Poisoned  (* quarantined: killed too many workers, never re-dispatched *)

(* One open arbitration per disputed chunk. [disputes] carries the
   contested samples with both claims and their claimants; [ballots] the
   completed full-chunk re-runs by voters (neither disputant may vote);
   [voter] the one ballot currently out on a lease — voting is
   sequential so the cheapest sufficient quorum is used. [since] is the
   last time the arbitration made progress; {!config.arb_patience} past
   it with no ballot in flight, the dispute is declared unresolvable. *)
type arb = {
  achunk : int;
  mutable disputes :
    (int * Journal.outcome * string * Journal.outcome * string) list;
      (* sample, recorded verdict, its origin, claimed verdict, claimant *)
  mutable ballots : (string * (int, Journal.outcome) Hashtbl.t) list;
  mutable voter : (string * (int, Journal.outcome) Hashtbl.t) option;
  mutable since : float;
}

let serve t ~header ?journal ?(resume = false) ?records_per_segment ?chaos
    ?(should_stop = fun () -> false) ?(on_event = fun _ -> ()) () =
  if t.served then invalid_arg "Coordinator.serve: already served";
  t.served <- true;
  if header.Journal.audit <> 0. then
    invalid_arg "Coordinator.serve: the audit sentinel is single-process only (audit must be 0)";
  if resume && journal = None then invalid_arg "Coordinator.serve: resume requires a journal";
  let cfg = t.config in
  let n = header.Journal.samples in
  let outcomes : Journal.outcome option array = Array.make n None in
  let n_done = ref 0 in
  let recovered = ref 0 in
  let dropped_bytes = ref 0 in
  let duplicates = ref 0 in
  let mismatches = ref 0 in
  let redispatched = ref 0 in
  let workers = Hashtbl.create 16 in
  (* Poisoning: per-chunk distinct worker names that died (connection
     gone, not merely a lapsed lease) while holding it. *)
  let deaths : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let poisoned = ref [] in
  let poisoned_holes = ref 0 in
  (* Blacklisting: per-name corrupt-frame/protocol-violation strikes. *)
  let strikes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let refused : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let verified = ref 0 in
  let rejoined = ref 0 in
  (* Quorum arbitration: one open [arb] per disputed chunk, plus the
     set of ever-disputed chunks (a disputed chunk never counts as
     cleanly cross-validated) and per-sample origins so arbitration
     losses can be attributed to the worker whose verdict they were. *)
  let arbs : (int, arb) Hashtbl.t = Hashtbl.create 4 in
  let disputed : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let origins = Array.make n "" in
  let arb_resolved = ref 0 in
  let arb_overturned = ref 0 in
  let arb_unresolved = ref 0 in
  let reputation = Reputation.create () in
  let suspects : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let draining = ref false in
  let writer, header =
    match journal with
    | None -> (None, header)
    | Some dir when resume ->
      let h, entries, dropped, w = Journal.resume ?records_per_segment ?chaos ~dir () in
      Journal.require_match ~what:dir h header;
      recovered := Journal.replay outcomes entries;
      n_done := !recovered;
      dropped_bytes := dropped;
      (* Every resume is a new coordinator generation: bump the epoch,
         persist it, and announce it in Welcome — workers that survived
         the previous coordinator use the change to drop stale leases
         and re-deliver their in-flight verdicts. *)
      let h = { h with Journal.epoch = h.Journal.epoch + 1 } in
      Journal.update_header ~dir h;
      (Some w, h)
    | Some dir -> (Some (Journal.create ?records_per_segment ?chaos ~dir header), header)
  in
  (* ---------------------------------------------------------------- *)
  (* Chunk table. Coverage of the outcome range is the ground truth;   *)
  (* the state array only caches whether a chunk is queued, out on a   *)
  (* lease, or retired.                                                *)
  let n_chunks = (n + cfg.chunk_size - 1) / cfg.chunk_size in
  let chunk_lo c = c * cfg.chunk_size in
  let chunk_hi c = min (n - 1) (((c + 1) * cfg.chunk_size) - 1) in
  let covered c =
    let ok = ref true in
    for i = chunk_lo c to chunk_hi c do
      if outcomes.(i) = None then ok := false
    done;
    !ok
  in
  let state = Array.make n_chunks Pending in
  let pending = Queue.create () in
  for c = 0 to n_chunks - 1 do
    if covered c then state.(c) <- Complete else Queue.push c pending
  done;
  (* [pending] may hold stale ids (requeued chunks completed meanwhile by
     a straggler's duplicates); [pop_chunk] re-validates on the way out. *)
  let rec pop_chunk () =
    match Queue.pop pending with
    | exception Queue.Empty -> None
    | c when state.(c) <> Pending -> pop_chunk ()
    | c when covered c ->
      state.(c) <- Complete;
      pop_chunk ()
    | c -> Some c
  in
  (* ---------------------------------------------------------------- *)
  (* Cross-validation. Whether a chunk gets re-issued for verification *)
  (* is a deterministic per-chunk draw from the campaign seed, so the  *)
  (* verified subset is reproducible across runs and restarts.         *)
  let vpending = ref [] in
  let vorigin : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let verify_outstanding = ref 0 in
  let should_verify c =
    cfg.verify_frac > 0.
    && Prng.float (Prng.create (header.Journal.seed lxor ((c + 1) * 0x9E3779B9))) < cfg.verify_frac
  in
  (* [force] bypasses the sampling draw: chunks completed by a
     quarantined (suspect) worker are always cross-validated. *)
  let schedule_verify ?(force = false) ~origin c =
    if (force || should_verify c) && not (Hashtbl.mem vorigin c) then begin
      Hashtbl.replace vorigin c origin;
      vpending := !vpending @ [ c ];
      incr verify_outstanding
    end
  in
  let quarantine ~deaths:d c =
    state.(c) <- Poisoned;
    poisoned := c :: !poisoned;
    for i = chunk_lo c to chunk_hi c do
      if outcomes.(i) = None then incr poisoned_holes
    done;
    (match writer with
    | Some w -> Journal.append w (Journal.Poisoned c)
    | None -> ());
    on_event (Quarantined { chunk_id = c; deaths = d })
  in
  (* Release a connection's chunk claims. [death] distinguishes a dead
     connection from a merely lapsed lease: only deaths count toward
     poisoning, and only once per distinct worker name — a flaky worker
     that reconnects and dies on the same chunk again is one data point,
     not an accumulating vote. *)
  let release ~death ~reason conn =
    List.iter
      (fun c ->
        if state.(c) = Leased then
          if covered c then state.(c) <- Complete
          else begin
            let killers =
              if not death then Option.value ~default:[] (Hashtbl.find_opt deaths c)
              else begin
                let prev = Option.value ~default:[] (Hashtbl.find_opt deaths c) in
                let cur = if List.mem conn.name prev then prev else conn.name :: prev in
                Hashtbl.replace deaths c cur;
                cur
              end
            in
            if death && cfg.poison_threshold > 0 && List.length killers >= cfg.poison_threshold
            then quarantine ~deaths:(List.length killers) c
            else begin
              state.(c) <- Pending;
              Queue.push c pending;
              incr redispatched;
              on_event (Redispatched { worker = conn.name; chunk_id = c; reason })
            end
          end)
      conn.leases;
    conn.leases <- [];
    List.iter (fun c -> vpending := c :: !vpending) conn.vleases;
    conn.vleases <- [];
    (* An in-flight arbitration ballot is simply discarded: the next
       eligible Request recruits a replacement voter. *)
    List.iter
      (fun c ->
        match Hashtbl.find_opt arbs c with
        | Some ({ voter = Some (vname, _); _ } as a) when vname = conn.name ->
          a.voter <- None;
          a.since <- Mono.now ()
        | _ -> ())
      conn.aleases;
    conn.aleases <- []
  in
  (* ---------------------------------------------------------------- *)
  (* Connections.                                                      *)
  let conns : conn list ref = ref [] in
  let drop ?(death = false) ~reason conn =
    if List.memq conn !conns then begin
      conns := List.filter (fun c -> not (c == conn)) !conns;
      release ~death ~reason conn;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      on_event (Left { worker = conn.name; reason })
    end
  in
  (* One strike per dropped-for-misbehavior connection, keyed by the
     announced worker name (the peer address until Hello): enough
     strikes and the name's next Hello is refused. *)
  let strike conn =
    if cfg.blacklist_threshold > 0 then
      Hashtbl.replace strikes conn.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt strikes conn.name))
  in
  (* Reputation: accumulate suspicion per worker name; crossing the
     threshold quarantines the name — excluded from arbitration voting,
     its completed chunks always cross-validated. Quarantine is never
     lifted within a service run. *)
  let suspected name = Hashtbl.mem suspects name in
  let repute name ev =
    if name <> "" then begin
      let s = Reputation.record reputation ~name ev in
      if
        cfg.suspect_threshold > 0
        && s >= cfg.suspect_threshold
        && not (Hashtbl.mem suspects name)
      then begin
        Hashtbl.replace suspects name ();
        on_event (Suspected { worker = name; score = s })
      end
    end
  in
  let send conn msg =
    try Proto.send ~deadline:(Mono.now () +. cfg.write_timeout) ?chaos conn.fd msg with
    | Proto.Error reason -> drop ~death:true ~reason conn
    | Unix.Unix_error (e, _, _) -> drop ~death:true ~reason:(Unix.error_message e) conn
  in
  (* Pick a verification chunk for this connection, preferring one whose
     original verdicts came from a different worker — re-running on the
     same worker only checks repeatability, not the worker. With a lone
     connection the origin is accepted rather than stalling the drain. *)
  let pop_verify conn =
    let alone = match !conns with [] | [ _ ] -> true | _ -> false in
    let rec go acc = function
      | [] -> None
      | c :: rest when alone || Hashtbl.find_opt vorigin c <> Some conn.name ->
        vpending := List.rev_append acc rest;
        Some c
      | c :: rest -> go (c :: acc) rest
    in
    go [] !vpending
  in
  let record ~origin i o =
    outcomes.(i) <- Some o;
    origins.(i) <- origin;
    incr n_done;
    let c = i / cfg.chunk_size in
    if state.(c) = Poisoned then begin
      (* A straggler is filling a quarantined range after all. *)
      decr poisoned_holes;
      if covered c then begin
        state.(c) <- Complete;
        poisoned := List.filter (fun p -> p <> c) !poisoned
      end
    end;
    (* The cross-validation draw happens the moment the chunk is covered,
       not at the worker's [Chunk_done] claim: [n_done] reaches [n] on
       the last verdict, so deferring the draw would leave a gap where
       [finished] holds and completion is declared with the verification
       pass silently skipped (and a worker dying between its last
       results frame and [Chunk_done] would dodge the check entirely). *)
    if state.(c) <> Poisoned && covered c then
      schedule_verify ~force:(suspected origin) ~origin c;
    match writer with
    | Some w -> Journal.append w (Journal.Outcome (i, o))
    | None -> ()
  in
  (* ---------------------------------------------------------------- *)
  (* Quorum arbitration.                                               *)
  (* A verdict mismatch opens (or extends) the chunk's arbitration:    *)
  (* the chunk is re-issued to voters — workers that are neither the   *)
  (* recorded verdict's origin nor the challenger — one ballot at a    *)
  (* time, until every disputed sample has a strict majority among     *)
  (* {both claims} ∪ {ballots}, or [quorum] ballots have been spent.   *)
  let open_dispute conn ~chunk_id ~index ~recorded ~claimed =
    incr mismatches;
    on_event (Mismatch { worker = conn.name; index });
    Hashtbl.replace disputed chunk_id ();
    if !draining then begin
      (* Completion was already declared; no voters can be recruited.
         Keep the recorded verdict, surface the violation (exit 19
         upstairs), and drop the late dissenter. *)
      incr arb_unresolved;
      on_event
        (Arbitration_failed
           { chunk_id; index; reason = "mismatch after completion (no voters reachable)" });
      raise (Proto.Error (Printf.sprintf "determinism violation on sample %d" index))
    end
    else begin
      (* Arbitration supersedes a verification pass: the ballots re-run
         the chunk anyway, so a challenging verifier's lease is settled
         here rather than left outstanding (it can never count as a
         clean [Verified] — the chunk is in [disputed] for good). *)
      if List.mem chunk_id conn.vleases then begin
        conn.vleases <- List.filter (fun c -> c <> chunk_id) conn.vleases;
        decr verify_outstanding
      end;
      let a =
        match Hashtbl.find_opt arbs chunk_id with
        | Some a -> a
        | None ->
          let a =
            { achunk = chunk_id; disputes = []; ballots = []; voter = None; since = Mono.now () }
          in
          Hashtbl.replace arbs chunk_id a;
          a
      in
      if not (List.exists (fun (j, _, _, _, _) -> j = index) a.disputes) then begin
        a.disputes <- (index, recorded, origins.(index), claimed, conn.name) :: a.disputes;
        a.since <- Mono.now ();
        on_event (Arbitrating { chunk_id; index; challenger = conn.name })
      end
    end
  in
  (* An arbitration this connection may vote on: not a disputant, not
     already voted, not quarantined as a suspect, no ballot in flight. *)
  let pop_arb conn =
    if suspected conn.name then None
    else
      Hashtbl.fold
        (fun _ a acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if
              a.voter = None
              && (not (List.mem_assoc conn.name a.ballots))
              && not
                   (List.exists
                      (fun (_, _, rorigin, _, claimant) ->
                        rorigin = conn.name || claimant = conn.name)
                      a.disputes)
            then Some a
            else acc)
        arbs None
  in
  let try_resolve a =
    let n_ballots = List.length a.ballots in
    let tally votes =
      let counts = Hashtbl.create 4 in
      List.iter
        (fun (o, _) ->
          Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
        votes;
      Hashtbl.fold (fun o k acc -> (o, k) :: acc) counts []
    in
    let decided = ref [] in
    let undecided = ref [] in
    List.iter
      (fun ((index, recorded, rorigin, claimed, claimant) as d) ->
        (* Electorate for this sample: both disputant claims plus every
           completed ballot's verdict (the recorded origin may be ""
           after a journal recovery — it still casts its claim, it just
           cannot be blamed). A strict majority of at least 3 cast votes
           decides. *)
        let votes =
          (recorded, rorigin) :: (claimed, claimant)
          :: List.filter_map
               (fun (vname, tbl) -> Option.map (fun o -> (o, vname)) (Hashtbl.find_opt tbl index))
               a.ballots
        in
        let total = List.length votes in
        match List.find_opt (fun (_, k) -> 2 * k > total) (tally votes) with
        | Some (winner, _) when total >= 3 -> decided := (d, winner, votes) :: !decided
        | _ -> undecided := d :: !undecided)
      a.disputes;
    (* Settle when every dispute has a majority, or the quorum budget is
       spent (whatever remains undecided is declared unresolved). *)
    if !undecided = [] || n_ballots >= cfg.quorum then begin
      let voters = List.rev_map fst a.ballots in
      List.iter
        (fun ((index, recorded, _rorigin, claimed, _claimant), winner, votes) ->
          let overturned = winner <> recorded in
          if overturned then outcomes.(index) <- Some winner;
          incr arb_resolved;
          if overturned then incr arb_overturned;
          (match writer with
          | Some w ->
            Journal.append w
              (Journal.Arbitrated
                 {
                   index;
                   outcome = winner;
                   loser = (if overturned then recorded else claimed);
                   voters = n_ballots;
                   overturned;
                 })
          | None -> ());
          (* Everyone whose verdict lost the vote — disputant or voter —
             takes an arbitration-loss suspicion hit. *)
          let losers =
            List.filter_map
              (fun (o, who) -> if o <> winner && who <> "" then Some who else None)
              votes
          in
          List.iter (fun who -> repute who Reputation.Arbitration_loss) losers;
          on_event
            (Arbitrated { chunk_id = a.achunk; index; outcome = winner; overturned; voters; losers }))
        !decided;
      List.iter
        (fun (index, _, _, _, _) ->
          incr arb_unresolved;
          on_event
            (Arbitration_failed
               {
                 chunk_id = a.achunk;
                 index;
                 reason = Printf.sprintf "no majority after %d ballots" n_ballots;
               }))
        !undecided;
      Hashtbl.remove arbs a.achunk
    end
  in
  (* The service is over when every sample has a verdict or lies in a
     quarantined chunk, no cross-validation is still outstanding, and
     every opened arbitration has been settled one way or the other. *)
  let finished () =
    !n_done + !poisoned_holes >= n && !verify_outstanding <= 0 && Hashtbl.length arbs = 0
  in
  (* Whole-process chaos: the coordinator SIGKILLs itself mid-dispatch
     or mid-drain. Only a supervisor makes this survivable — which is
     the point: these sites exist to prove it is. *)
  let chaos_proc site =
    match Option.map (fun c -> Chaos.draw c site) chaos with
    | Some Chaos.Kill -> Chaos.kill_self ()
    | Some (Chaos.Stall s) -> Unix.sleepf s
    | _ -> ()
  in
  let inflight () = Array.fold_left (fun a s -> if s = Leased then a + 1 else a) 0 state in
  (* Graceful degradation, consulted per Request: while the journal
     writer is degraded (disk pressure, ENOSPC retries, injected stalls)
     or too many chunks are already out on leases, answer [Wait] instead
     of leasing more — backpressure instead of ballooning in-flight
     state the struggling journal cannot keep up with. Never during the
     finished/drain phase, where the only correct answer is [Done]. *)
  let degraded () =
    (not (finished ()))
    && ((match writer with Some w -> Journal.stalled w | None -> false)
       || (cfg.max_inflight > 0 && inflight () >= cfg.max_inflight))
  in
  (* Fatal per-connection protocol violations are raised as [Proto.Error]
     and only drop the offending connection, never the campaign. *)
  let handle conn msg =
    conn.last_seen <- Mono.now ();
    match msg with
    | Proto.Hello { version; name; epoch } ->
      if version <> Proto.version then
        raise (Proto.Error (Printf.sprintf "protocol version %d, expected %d" version Proto.version));
      conn.name <- name;
      (match Hashtbl.find_opt strikes name with
      | Some k when cfg.blacklist_threshold > 0 && k >= cfg.blacklist_threshold ->
        if not (Hashtbl.mem refused name) then begin
          Hashtbl.replace refused name ();
          on_event (Blacklisted { worker = name; strikes = k })
        end;
        raise (Proto.Error "blacklisted for repeated corrupt frames")
      | _ -> ());
      conn.greeted <- true;
      Hashtbl.replace workers name ();
      (* A worker announcing a different (non-fresh) epoch survived a
         coordinator it lost: it is about to re-deliver its in-flight
         verdicts, which first-verdict-wins dedup absorbs. *)
      if epoch >= 0 && epoch <> header.Journal.epoch then begin
        incr rejoined;
        on_event (Rejoined { worker = name; stale_epoch = epoch; epoch = header.Journal.epoch })
      end;
      on_event (Joined { worker = name });
      send conn (Proto.Welcome { header; suspicion = Reputation.score reputation name })
    | _ when not conn.greeted -> raise (Proto.Error "first message must be Hello")
    | Proto.Request ->
      if degraded () then send conn Proto.Wait
      else begin
        let mk purpose c =
          {
            Proto.chunk_id = c;
            lo = chunk_lo c;
            hi = chunk_hi c;
            model = Fault_model.id header.Journal.fault_model;
            model_param = Fault_model.param header.Journal.fault_model;
            purpose;
          }
        in
        let assign chunk =
          on_event (Assigned { worker = conn.name; chunk });
          chaos_proc Chaos.Dispatch;
          send conn (Proto.Assign chunk)
        in
        (* Assignment priority: fresh data, then arbitration ballots
           (disputes block completion, so they are on the critical
           path), then cross-validation re-runs. *)
        match pop_chunk () with
        | Some c ->
          state.(c) <- Leased;
          conn.leases <- c :: conn.leases;
          assign (mk Proto.Data c)
        | None -> (
          match pop_arb conn with
          | Some a ->
            a.voter <- Some (conn.name, Hashtbl.create 16);
            a.since <- Mono.now ();
            conn.aleases <- a.achunk :: conn.aleases;
            assign (mk Proto.Arbitrate a.achunk)
          | None -> (
            match pop_verify conn with
            | Some c ->
              conn.vleases <- c :: conn.vleases;
              assign (mk Proto.Verify c)
            | None -> send conn (if finished () then Proto.Done else Proto.Wait)))
      end
    | Proto.Results { chunk_id; results } ->
      if chunk_id < 0 || chunk_id >= n_chunks then
        raise (Proto.Error (Printf.sprintf "results for unknown chunk %d" chunk_id));
      if List.mem chunk_id conn.aleases then begin
        (* An arbitration ballot: verdicts accumulate privately until
           the voter's Chunk_done and never touch the outcome table.
           Frames for an arbitration meanwhile abandoned (patience
           lapsed) or re-assigned are ignored. *)
        match Hashtbl.find_opt arbs chunk_id with
        | Some ({ voter = Some (vname, tbl); _ } as a) when vname = conn.name ->
          Array.iter
            (fun (i, o) ->
              if i < 0 || i >= n then
                raise (Proto.Error (Printf.sprintf "result for sample %d outside [0, %d)" i n));
              Hashtbl.replace tbl i o)
            results;
          a.since <- Mono.now ()
        | _ -> ()
      end
      else begin
        (* A disputed chunk's remaining (agreeing) verdicts are part of
           the settled verification pass, not straggler duplicates. *)
        let verifying = List.mem chunk_id conn.vleases || Hashtbl.mem disputed chunk_id in
        Array.iter
          (fun (i, o) ->
            if i < 0 || i >= n then
              raise (Proto.Error (Printf.sprintf "result for sample %d outside [0, %d)" i n));
            match outcomes.(i) with
            | None -> record ~origin:conn.name i o
            | Some prev when prev = o ->
              (* A verification pass or a re-dispatched chunk's second
                 delivery: verdicts are deterministic, so equal is the
                 only legal outcome — dropped, not double-counted. *)
              if not verifying then begin
                incr duplicates;
                on_event (Duplicate { worker = conn.name; index = i })
              end
            | Some prev ->
              (* Disagreement is no longer fail-stop: route the claim
                 into quorum arbitration and keep the connection — the
                 dissenter may be the honest one. *)
              open_dispute conn ~chunk_id ~index:i ~recorded:prev ~claimed:o)
          results;
        on_event (Progress { done_ = !n_done; total = n })
      end
    | Proto.Chunk_done { chunk_id } ->
      if chunk_id < 0 || chunk_id >= n_chunks then
        raise (Proto.Error (Printf.sprintf "done for unknown chunk %d" chunk_id));
      if List.mem chunk_id conn.aleases then begin
        conn.aleases <- List.filter (fun c -> c <> chunk_id) conn.aleases;
        match Hashtbl.find_opt arbs chunk_id with
        | Some ({ voter = Some (vname, tbl); _ } as a) when vname = conn.name ->
          a.voter <- None;
          a.ballots <- (vname, tbl) :: a.ballots;
          a.since <- Mono.now ();
          try_resolve a
        | _ -> ()
      end
      else if List.mem chunk_id conn.vleases then begin
        conn.vleases <- List.filter (fun c -> c <> chunk_id) conn.vleases;
        decr verify_outstanding;
        (* A chunk whose verification surfaced a dispute is settled by
           arbitration, not counted as cleanly cross-validated. *)
        if not (Hashtbl.mem disputed chunk_id) then begin
          incr verified;
          on_event (Verified { chunk_id; worker = conn.name })
        end
      end
      else begin
        conn.leases <- List.filter (fun c -> c <> chunk_id) conn.leases;
        if covered chunk_id then begin
          (* Verification (if drawn) was already scheduled when the last
             verdict landed — [Chunk_done] only retires the lease. *)
          if state.(chunk_id) <> Poisoned then state.(chunk_id) <- Complete
        end
        else if state.(chunk_id) = Leased then begin
          (* The worker claims completion but the range has holes (lost
             frames?): requeue rather than trust the claim. *)
          state.(chunk_id) <- Pending;
          Queue.push chunk_id pending;
          incr redispatched;
          on_event (Redispatched { worker = conn.name; chunk_id; reason = "incomplete chunk" })
        end
      end
    | Proto.Heartbeat -> ()
    | Proto.Welcome _ | Proto.Assign _ | Proto.Wait | Proto.Done ->
      raise (Proto.Error "coordinator-only message from a worker")
  in
  let accept () =
    match restart (fun () -> Unix.accept t.listen_fd) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | fd, peer ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      let name =
        match peer with
        | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX s -> s
      in
      conns :=
        { fd; dec = Proto.decoder (); name; greeted = false; last_seen = Mono.now ();
          leases = []; vleases = []; aleases = [] }
        :: !conns
  in
  let read_buf = Bytes.create 65536 in
  let pump conn =
    match restart (fun () -> Unix.read conn.fd read_buf 0 (Bytes.length read_buf)) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> drop ~death:true ~reason:(Unix.error_message e) conn
    | 0 -> drop ~death:true ~reason:"disconnected" conn
    | k -> (
      Proto.feed conn.dec read_buf k;
      try
        let quit = ref false in
        while not !quit do
          match Proto.next_frame conn.dec with
          | None -> quit := true
          | Some payload ->
            handle conn (Proto.decode payload);
            (* One read may carry a whole batch of verdicts: a stop
               request takes effect at the next frame, not the next
               tick. (The drain answers every frame, stop or not.) *)
            if (not !draining) && should_stop () then quit := true
        done
      with Proto.Error reason ->
        (* Misbehavior (corrupt frame, protocol violation), not a death:
           strike the name, feed its reputation, drop the connection. *)
        strike conn;
        repute conn.name Reputation.Corrupt_frame;
        drop ~reason conn)
  in
  let expire_leases () =
    let now = Mono.now () in
    List.iter
      (fun conn ->
        (* A connection silent past the read deadline is gone (a live
           worker requests, streams or heartbeats well inside it): close
           it rather than carrying a dead peer forever. Short of that,
           keep the connection — a straggler may still deliver (its late
           results deduplicate); only its claim on the chunks lapses. *)
        if cfg.idle_timeout > 0. && now -. conn.last_seen > cfg.idle_timeout then
          drop ~death:true ~reason:"read deadline: peer silent past idle-timeout" conn
        else if
          (conn.leases <> [] || conn.vleases <> [] || conn.aleases <> [])
          && now -. conn.last_seen > cfg.lease
        then begin
          release ~death:false ~reason:"lease expired" conn;
          repute conn.name Reputation.Lease_expiry
        end)
      !conns;
    (* Arbitration liveness: a dispute that has made no progress for a
       whole patience window (no eligible voter exists, or voters keep
       dying) is declared unresolvable — the recorded verdict stands,
       the campaign completes, and the caller exits 19. *)
    let stale =
      Hashtbl.fold
        (fun _ a acc -> if now -. a.since > cfg.arb_patience then a :: acc else acc)
        arbs []
    in
    List.iter
      (fun a ->
        List.iter
          (fun (index, _, _, _, _) ->
            incr arb_unresolved;
            on_event
              (Arbitration_failed
                 {
                   chunk_id = a.achunk;
                   index;
                   reason =
                     Printf.sprintf "no quorum reachable within %.1fs patience" cfg.arb_patience;
                 }))
          a.disputes;
        Hashtbl.remove arbs a.achunk)
      stale
  in
  (* ---------------------------------------------------------------- *)
  (* Event loop.                                                       *)
  let select_tick () =
    let fds = t.listen_fd :: List.map (fun c -> c.fd) !conns in
    let readable, _, _ =
      match restart (fun () -> Unix.select fds [] [] cfg.tick) with
      | r -> r
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
    in
    if List.memq t.listen_fd readable then accept ();
    (* [!conns] is a snapshot: [drop] inside [pump] only rebinds the ref,
       and [drop]/[pump] are harmless on already-dropped connections. *)
    List.iter (fun conn -> if List.memq conn.fd readable then pump conn) !conns
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Journal.close writer;
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  while (not (finished ())) && not (should_stop ()) do
    select_tick ();
    expire_leases ()
  done;
  let completed = !n_done >= n in
  (* Mismatches surfacing after this point (straggler re-deliveries
     during drain) cannot recruit voters any more: they are counted as
     unresolved instead of opening an arbitration nobody can settle. *)
  draining := true;
  if finished () then begin
    if completed then on_event Completed;
    (* Keep answering Requests (each now gets Done) until every worker
       reads its Done and hangs up, or the drain window lapses. Slamming
       the sockets shut here instead would race a worker's in-flight
       Request: the RST discards the buffered Done and the worker sees a
       lost session instead of a finished campaign. An interrupted
       campaign skips the drain: no Done is ever sent for an incomplete
       run, and workers fall back to their reconnect loop (the
       coordinator may be resumed). *)
    let deadline = Mono.now () +. cfg.drain in
    while !conns <> [] && Mono.now () < deadline do
      chaos_proc Chaos.Drain;
      select_tick ()
    done
  end;
  List.iter (fun conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) !conns;
  conns := [];
  {
    stats = Journal.stats outcomes;
    completed;
    recovered = !recovered;
    dropped_bytes = !dropped_bytes;
    duplicates = !duplicates;
    mismatches = !mismatches;
    redispatched = !redispatched;
    workers = Hashtbl.length workers;
    poisoned = List.sort compare !poisoned;
    blacklisted = Hashtbl.length refused;
    verified = !verified;
    rejoined = !rejoined;
    epoch = header.Journal.epoch;
    arb_resolved = !arb_resolved;
    arb_overturned = !arb_overturned;
    arb_unresolved = !arb_unresolved;
    suspects =
      Hashtbl.fold (fun name () acc -> (name, Reputation.score reputation name) :: acc) suspects []
      |> List.sort compare;
  }
