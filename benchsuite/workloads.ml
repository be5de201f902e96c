(* The four named workloads, and one repetition of each: netlist to
   verdict table, driven through the libraries' public functions only.
   Every repetition starts from the netlist build with a fresh campaign,
   so no verdict memo or golden recording carries over between reps.

   Why these four (README.md has the full argument):
   - avr-fib-seu: injection-bound baseline, memo-heavy (73 % latent);
     the MATE and service layers are idle.
   - msp430-fib-prune: the paper's own pipeline; the MATE search takes
     most of the time, and MSP430 retires faults differently.
   - avr-fib-set: the engine layer through the multi-flop fallback path,
     the workload where a SET-capable batched engine must show its gain.
   - avr-fib-loopback: avr-fib-seu's exact fault list through the
     distributed service, so the difference between the two is the
     service. *)

module Netlist = Pruning_netlist.Netlist
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Avr_core = Pruning_cpu.Avr_core
module Msp_core = Pruning_cpu.Msp_core
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module Fault_model = Pruning_fi.Fault_model
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Prng = Pruning_util.Prng
module Mono = Pruning_util.Mono

type core =
  | Avr
  | Msp430

type shape =
  | Local  (** draw, then classify with the production engine in this process *)
  | Pruned  (** MATE search and replay, then a pruned local campaign *)
  | Loopback  (** [Coordinator.serve] plus one [Worker.run] over 127.0.0.1 *)

type t = {
  name : string;
  core : core;
  model : Fault_model.t;
  shape : shape;
  cycles : int;
  samples : int;
  params : Search.params;
  pinned : (int * int * int * int) option;
      (** seed-7 (benign, latent, sdc, skipped) at full size *)
}

(* The service's CLI defaults, plus the cross-validation draw under test. *)
let chunk_size = Coordinator.default_config.Coordinator.chunk_size
let verify_frac = 0.05

(* Horizons. msp430-fib-prune keeps the paper's fib trace length (8500
   cycles): its MATE search and replay are what the paper measures. The
   injection-bound workloads run 2000 cycles, the horizon of the
   engine rows in EXPERIMENTS.md. Per-fault cost has a heavy tail (about
   1 % of SET faults take over half the injection time; SEU is milder),
   so at 8500 cycles a rep is one 5-10 s draw whose cost swings with the
   seed, and a 20 s run holds two or three of them. At 2000 cycles a rep
   takes 2-3 s, and the median over the eight or so reps of a run damps
   both unlucky draws and bursts of host noise. *)
let all ~smoke =
  let params =
    if smoke then { Search.default_params with Search.max_candidates = 50; max_situations = 2 }
    else Search.default_params
  in
  let w name core model shape ~cycles ~samples pinned =
    {
      name;
      core;
      model;
      shape;
      cycles = (if smoke then 300 else cycles);
      samples = (if smoke then min samples 600 else samples);
      params;
      pinned = (if smoke then None else pinned);
    }
  in
  let seu_pinned = Some (5427, 73430, 21143, 0) in
  [
    w "avr-fib-seu" Avr Fault_model.Seu Local ~cycles:2000 ~samples:100_000 seu_pinned;
    w "msp430-fib-prune" Msp430 Fault_model.Seu Pruned ~cycles:8500 ~samples:60_000
      (Some (26431, 8355, 18774, 6440));
    w "avr-fib-set" Avr Fault_model.Set Local ~cycles:2000 ~samples:8000
      (Some (518, 2117, 5365, 0));
    w "avr-fib-loopback" Avr Fault_model.Seu Loopback ~cycles:2000 ~samples:100_000 seu_pinned;
  ]

(* ------------------------------------------------------------------ *)
(* Measurements of one repetition.                                     *)

type rep = {
  stats : Campaign.stats;
  failed : int;  (** crashed + unresolved disputes + samples in poisoned chunks *)
  wall_s : float;  (** netlist to verdict table *)
  setup_s : float;
  inject_s : float;  (** the injection phase ([Coordinator.serve] for loopback) *)
  first : (int * int * int) option;
      (** production verdicts (benign, latent, sdc) of the draw's first
          [check_k] faults, unpruned, when asked for *)
  layers : (string * string * float) list;  (** (name, unit, value), traced reps only *)
  checks : (bool * string) list;
}

let inj_per_s r = float_of_int r.stats.Campaign.injections /. max 1e-9 r.inject_s

let timed f =
  let t0 = Mono.now () in
  let r = f () in
  (r, Mono.now () -. t0)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let counts verdicts =
  let b = ref 0 and l = ref 0 and s = ref 0 in
  Array.iter
    (function
      | Campaign.Benign -> incr b
      | Campaign.Latent -> incr l
      | Campaign.Sdc _ -> incr s)
    verdicts;
  (!b, !l, !s)

let tuple (s : Campaign.stats) = (s.Campaign.benign, s.Campaign.latent, s.Campaign.sdc, s.Campaign.skipped)
let show (b, l, s, k) = Printf.sprintf "%d/%d/%d skipped %d" b l s k

let rf_prefix = function
  | Avr -> Avr_core.rf_prefix
  | Msp430 -> Msp_core.rf_prefix

let netlist = function
  | Avr -> System.avr_netlist ()
  | Msp430 -> System.msp_netlist ()

(* The scalar, delta and batched-delta system makers over one netlist. *)
let makers core nl =
  match core with
  | Avr ->
    let program = Avr_asm.assemble Programs.avr_fib in
    ( (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
      (fun ~trace -> System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib"),
      fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" )
  | Msp430 ->
    let program = Msp_asm.assemble Programs.msp_fib in
    ( (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
      (fun ~trace -> System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib"),
      fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" )

(* The pruned workload draws from the paper's "FF w/o RF" set. *)
let space w nl =
  match w.shape with
  | Pruned -> Fault_space.without_prefix ~model:w.model nl ~prefix:(rf_prefix w.core) ~cycles:w.cycles
  | Local | Loopback -> Fault_space.full ~model:w.model nl ~cycles:w.cycles

(* How many leading faults of a draw the differential check classifies. *)
let check_k w =
  match w.model with
  | Fault_model.Seu -> min 500 w.samples
  | _ -> min 50 w.samples

(* The first [k] faults of the seed's draw, classified on a fresh
   campaign by an engine independent of the production one: the
   single-fault delta kernel for SEU (verdict-identical to the scalar
   oracle and fast enough at 8500 cycles), the scalar oracle itself for
   other models, whose production path already is the delta kernel. *)
let reference w ~seed ~k =
  let nl = netlist w.core in
  let make, make_delta, _ = makers w.core nl in
  let space = space w nl and rng = Prng.create seed in
  let s =
    match w.model with
    | Fault_model.Seu ->
      Campaign.run_sample_delta
        (Campaign.create ~make ~make_delta ~total_cycles:w.cycles ())
        ~space ~rng ~n:k ()
    | _ -> Campaign.run_sample (Campaign.create ~make ~total_cycles:w.cycles ()) ~space ~rng ~n:k ()
  in
  (s.Campaign.benign, s.Campaign.latent, s.Campaign.sdc)

(* ------------------------------------------------------------------ *)
(* Set-up: netlist build, golden run with checkpoints, golden recording *)
(* and the production engine — everything before the first fault.      *)

type engine = {
  nl : Netlist.t;
  campaign : Campaign.t;
  trace : Trace.t;
  setup_layers : (string * string * float) list;
}

let setup w =
  let nl, netlist_s = Span.time "netlist" (fun () -> netlist w.core) in
  let make, make_delta, make_delta_batch = makers w.core nl in
  let campaign, golden_s =
    Span.time "sim.golden" (fun () ->
        Campaign.create ~make ~make_delta ~make_delta_batch ~total_cycles:w.cycles ())
  in
  let trace, record_s = Span.time "sim.record" (fun () -> Campaign.golden_trace campaign) in
  let (), engine_s =
    Span.time "engine.build" (fun () -> ignore (Campaign.inject_delta_batch campaign ~faults:[||] ()))
  in
  let setup_layers =
    [
      ("netlist.build_s", "s", netlist_s);
      ("sim.golden_s", "s", golden_s);
      ("sim.record_s", "s", record_s);
      ("sim.record_cycles_per_s", "1/s", float_of_int w.cycles /. max 1e-9 record_s);
      ("engine.build_s", "s", engine_s);
    ]
  in
  ({ nl; campaign; trace; setup_layers }, netlist_s +. golden_s +. record_s +. engine_s)

(* A set-up on its own, for runs whose reps are too long to give three
   set-up samples. *)
let setup_only w = snd (setup w)

(* ------------------------------------------------------------------ *)
(* Local and pruned campaigns.                                         *)

(* The MATE phase of msp430-fib-prune: seeded search over the "FF w/o
   RF" flops, MATE set, trigger replay over the golden trace, pruner.
   Its layer metrics are computed on demand, outside the timed rep. *)
let mate_phase w e ~space =
  let flops = Netlist.flops_excluding e.nl ~prefix:(rf_prefix w.core) in
  let report, search_s =
    Span.time "mate.search" (fun () ->
        Search.search_flops ~params:w.params ~traces:[ e.trace ] e.nl flops)
  in
  let set, mateset_s = Span.time "mate.mateset" (fun () -> Mateset.of_report report) in
  let triggers, triggers_s = Span.time "mate.triggers" (fun () -> Replay.triggers set e.trace) in
  let pruner, pruner_s = Span.time "mate.pruner" (fun () -> Replay.pruner set triggers ~space ()) in
  let layers () =
    let masked = Replay.pruner_masked_count pruner in
    let wire_s =
      sorted_floats (List.map (fun fr -> fr.Search.result.Search.time_s) report.Search.flop_results)
    in
    let candidates = Search.total_candidates report in
    [
      ("mate_s", "s", search_s +. mateset_s +. triggers_s +. pruner_s);
      ("pruned_pct", "%", 100. *. float_of_int masked /. float_of_int (Fault_space.size space));
      ("search.s", "s", search_s);
      ("search.unmaskable", "count", float_of_int (Search.n_unmaskable report));
      ("search.candidates", "count", float_of_int candidates);
      ("search.candidates_per_s", "1/s", float_of_int candidates /. max 1e-9 search_s);
      ("search.mates", "count", float_of_int (Search.total_mates report));
      ("search.cone_avg", "gates", Search.avg_cone report);
      ("search.cone_median", "gates", Search.median_cone report);
      ("search.wire_s.p50", "s", percentile wire_s 0.5);
      ("search.wire_s.p90", "s", percentile wire_s 0.9);
      ("search.wire_s.max", "s", percentile wire_s 1.0);
      ("replay.mateset_s", "s", mateset_s);
      ("replay.triggers_s", "s", triggers_s);
      ("replay.pruner_s", "s", pruner_s);
      ("replay.effective_mates", "count", float_of_int (List.length (Replay.effective_indices triggers)));
      ("replay.masked_faults", "count", float_of_int masked);
    ]
  in
  (pruner, layers)

(* What one local rep measured, before any metric is derived from it. *)
type local = {
  e : engine;
  space : Fault_space.t;
  setup_s : float;
  mate_layers : unit -> (string * string * float) list;
  skip : (flop_id:int -> cycle:int -> bool) option;
  l_stats : Campaign.stats;
  l_inject_s : float;
  gc_minor : float;
  gc_major : float;
}

(* The timed rep classifies its draw with [run_sample_delta_batched], the
   library's own path for every fault model. That call cannot report
   retirement, so the traced observations are made after the rep, on the
   same draw: the draw and the skip filter timed on their own, and, for
   SEU, the kept faults classified again by [inject_delta_batch
   ~on_benign_retire] on a fresh engine (a warm verdict memo would retire
   some of them before they re-converge). *)
let local_rep w ~seed ~traced ~check_k =
  let m, wall_s =
    Span.time "rep" (fun () ->
        let e, setup_s = setup w in
        let space = space w e.nl in
        let pruner, mate_layers =
          match w.shape with
          | Pruned ->
            let pruner, layers = mate_phase w e ~space in
            (Some pruner, layers)
          | Local | Loopback -> (None, fun () -> [])
        in
        let skip = Option.map (fun p ~flop_id ~cycle -> Replay.pruned p ~flop_id ~cycle) pruner in
        let g0 = Gc.quick_stat () in
        let l_stats, l_inject_s =
          Span.time "fi.inject" (fun () ->
              Campaign.run_sample_delta_batched e.campaign ~space ~rng:(Prng.create seed) ~n:w.samples
                ?skip ())
        in
        let g1 = Gc.quick_stat () in
        {
          e;
          space;
          setup_s;
          mate_layers;
          skip;
          l_stats;
          l_inject_s;
          gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
          gc_major = g1.Gc.major_words -. g0.Gc.major_words;
        })
  in
  let stats = m.l_stats in
  (* Everything below runs outside the rep and is not traced. *)
  let tracing = !Span.enabled in
  Span.enabled := false;
  let faults, draw_s =
    timed (fun () -> Campaign.draw_samples m.e.campaign ~space:m.space ~rng:(Prng.create seed) ~n:w.samples)
  in
  let (skipped, kept), skip_s =
    timed (fun () ->
        List.partition
          (fun (flop_id, cycle) ->
            match m.skip with
            | Some f -> f ~flop_id ~cycle
            | None -> false)
          (Array.to_list faults))
  in
  (* Paper soundness, end to end: every fault the MATEs pruned is benign
     when injected anyway, so pruned benign + skipped equals the
     unpruned benign count and latent/SDC are unchanged. *)
  let soundness =
    if w.shape <> Pruned then []
    else begin
      let b, l, s = counts (Campaign.inject_delta_batch m.e.campaign ~faults:(Array.of_list skipped) ()) in
      [
        ( l = 0 && s = 0 && b = stats.Campaign.skipped,
          Printf.sprintf "%s: all %d pruned faults inject as benign (got %d/%d/%d)" w.name
            stats.Campaign.skipped b l s );
      ]
    end
  in
  let retirement, retire_checks =
    if not (traced && w.model = Fault_model.Seu) then ([], [])
    else begin
      let kept = Array.of_list kept in
      let fresh, _ = setup w in
      let lifetimes = ref [] in
      let verdicts =
        Campaign.inject_delta_batch fresh.campaign
          ~on_benign_retire:(fun ~index ~cycle -> lifetimes := float_of_int (cycle - snd kept.(index)) :: !lifetimes)
          ~faults:kept ()
      in
      let b, l, s = counts verdicts in
      let lifetimes = sorted_floats !lifetimes in
      ( [
          ("campaign.early_benign", "count", float_of_int (Array.length lifetimes));
          ("campaign.early_benign_cycles.p50", "cycles", percentile lifetimes 0.5);
          ("campaign.early_benign_cycles.p90", "cycles", percentile lifetimes 0.9);
        ],
        [
          ( (b, l, s) = (stats.Campaign.benign, stats.Campaign.latent, stats.Campaign.sdc),
            Printf.sprintf "%s: the draw split and classified by inject_delta_batch gives the rep's %d/%d/%d"
              w.name b l s );
        ] )
    end
  in
  let layers =
    if not traced then []
    else
      m.e.setup_layers @ m.mate_layers ()
      @ [
          ("campaign.draw_s", "s", draw_s);
          ("campaign.inject_s", "s", m.l_inject_s);
          ("campaign.gc_minor_mw", "Mwords", m.gc_minor /. 1e6);
          ("campaign.gc_major_mw", "Mwords", m.gc_major /. 1e6);
        ]
      @ retirement
      @
      if w.shape = Pruned then
        [ ("campaign.skipped", "count", float_of_int stats.Campaign.skipped); ("campaign.skip_s", "s", skip_s) ]
      else []
  in
  let first =
    if check_k = 0 then None
    else
      let s =
        Campaign.run_sample_delta_batched m.e.campaign ~space:m.space ~rng:(Prng.create seed) ~n:check_k ()
      in
      Some (s.Campaign.benign, s.Campaign.latent, s.Campaign.sdc)
  in
  Span.enabled := tracing;
  {
    stats;
    failed = stats.Campaign.crashed;
    wall_s;
    setup_s = m.setup_s;
    inject_s = m.l_inject_s;
    first;
    layers;
    checks = soundness @ retire_checks;
  }

(* ------------------------------------------------------------------ *)
(* Loopback: the same fault list through the distributed service.      *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let header w ~seed =
  {
    Journal.core = (match w.core with Avr -> "avr" | Msp430 -> "msp430");
    program = "fib";
    cycles = w.cycles;
    seed;
    samples = w.samples;
    prune = false;
    audit = 0.;
    shards = 0;
    batched = true;
    epoch = 0;
    fault_model = w.model;
    prng = Prng.save (Prng.create seed);
    shard_prng = [||];
  }

(* What the coordinator's event stream tells about one serve call. *)
type timeline = {
  mutable first_verdict : float;
  mutable data_done : float;
  mutable completed : float;
  mutable assigned : (Proto.purpose * float) list;
}

type served = {
  result : Coordinator.result;
  report : Worker.report;
  serve : float * float;  (** [Coordinator.serve]'s own start and stop *)
  worker : float * float;  (** [Worker.run]'s start and stop *)
  tl : timeline;
  resolve_s : float;  (** seconds inside the worker's [resolve] *)
  journal : string;
}

(* One [Coordinator.serve] on its own domain with a journal under [tmp],
   one in-process worker on this domain over 127.0.0.1. *)
let serve_once w ~seed ~tmp ~frac e =
  let engine =
    { Worker.campaign = e.campaign; space = space w e.nl; skip = None; kernel = Campaign.Delta_batched }
  in
  let config = { Coordinator.default_config with Coordinator.verify_frac = frac; quorum = 3 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let tl = { first_verdict = nan; data_done = nan; completed = nan; assigned = [] } in
  let on_event = function
    | Coordinator.Progress { done_; total } ->
      let now = Mono.now () in
      if Float.is_nan tl.first_verdict then tl.first_verdict <- now;
      if done_ >= total && Float.is_nan tl.data_done then tl.data_done <- now
    | Coordinator.Assigned { chunk; _ } -> tl.assigned <- (chunk.Proto.purpose, Mono.now ()) :: tl.assigned
    | Coordinator.Completed -> tl.completed <- Mono.now ()
    | _ -> ()
  in
  let journal = Filename.concat tmp "journal" in
  (* [Pruning_util.Crc]'s table is a lazy value, and OCaml 5 raises
     [CamlinternalLazy.Undefined] when two domains force one at once:
     serve's journal header and this worker's first frame would race.
     Force it here, before serve's domain exists. This works around an
     open library defect, recorded under "Known library defects" in
     README.md; drop it once the table is built eagerly. *)
  ignore (Pruning_util.Crc.string "");
  (* Set if the worker fails, so serve returns instead of waiting for it. *)
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        let s0 = Mono.now () in
        let r =
          Coordinator.serve coord ~header:(header w ~seed) ~journal
            ~should_stop:(fun () -> Atomic.get stop)
            ~on_event ()
        in
        (r, s0, Mono.now ()))
  in
  let resolve_s = ref 0. in
  let resolve _ =
    let t0 = Mono.now () in
    let r = engine in
    resolve_s := Mono.now () -. t0;
    r
  in
  let w0 = Mono.now () in
  let report =
    match Worker.run ~host:"127.0.0.1" ~port ~resolve ~name:"bench-worker" () with
    | r -> r
    | exception ex ->
      Atomic.set stop true;
      ignore (Domain.join server);
      raise ex
  in
  let w1 = Mono.now () in
  let result, s0, s1 = Domain.join server in
  { result; report; serve = (s0, s1); worker = (w0, w1); tl; resolve_s = !resolve_s; journal }

let failed_samples w (r : Coordinator.result) =
  let poisoned =
    List.fold_left
      (fun acc c -> acc + (min (w.samples - 1) (((c + 1) * chunk_size) - 1) - (c * chunk_size) + 1))
      0 r.Coordinator.poisoned
  in
  r.Coordinator.stats.Campaign.crashed + r.Coordinator.arb_unresolved + poisoned

(* The served verdicts of sample indices [0, k), read back from the
   journal (an arbitrated verdict overrides the first one recorded). *)
let served_prefix journal ~k =
  let _, entries, _ = Journal.load ~dir:journal in
  let out = Array.make k None in
  Array.iter
    (function
      | Journal.Outcome (i, o) when i < k && out.(i) = None -> out.(i) <- Some o
      | Journal.Arbitrated { index; outcome; _ } when index < k -> out.(index) <- Some outcome
      | _ -> ())
    entries;
  Array.fold_left
    (fun (b, l, s) -> function
      | Some Journal.Benign -> (b + 1, l, s)
      | Some Journal.Latent -> (b, l + 1, s)
      | Some (Journal.Sdc _) -> (b, l, s + 1)
      | _ -> (b, l, s))
    (0, 0, 0) out

(* The same fault list replayed locally in chunk-size slices on a cold
   campaign: what the worker does, minus the service. *)
let chunked_replay w ~seed =
  let e, _ = setup w in
  let faults = Campaign.draw_samples e.campaign ~space:(space w e.nl) ~rng:(Prng.create seed) ~n:w.samples in
  let t0 = Mono.now () in
  let b = ref 0 and l = ref 0 and s = ref 0 in
  let lo = ref 0 in
  while !lo < w.samples do
    let len = min chunk_size (w.samples - !lo) in
    let vb, vl, vs = counts (Campaign.inject_delta_batch e.campaign ~faults:(Array.sub faults !lo len) ()) in
    b := !b + vb;
    l := !l + vl;
    s := !s + vs;
    lo := !lo + len
  done;
  let dt = Mono.now () -. t0 in
  ((!b, !l, !s, 0), float_of_int w.samples /. max 1e-9 dt)

let loopback_rep w ~seed ~traced ~tmp ~check_k =
  let checks = ref [] in
  let check ok msg = checks := (ok, Printf.sprintf "%s: %s" w.name msg) :: !checks in
  let (e, setup_s, served), wall_s =
    Span.time "rep" (fun () ->
        let e, setup_s = setup w in
        let served, _ =
          Span.time "fi.serve" (fun () ->
              let served = serve_once w ~seed ~tmp ~frac:verify_frac e in
              let s0, s1 = served.serve and w0, w1 = served.worker and tl = served.tl in
              (* Serve's phases, from its own event stream. *)
              let data_done = if Float.is_nan tl.data_done then s1 else tl.data_done in
              let completed = if Float.is_nan tl.completed then s1 else tl.completed in
              Span.add ~name:"coord.data_pass" ~start:s0 ~stop:data_done ();
              Span.add ~name:"coord.verify_pass" ~start:data_done ~stop:completed ();
              Span.add ~name:"coord.drain" ~start:completed ~stop:s1 ();
              Span.add ~parent:(-1) ~track:2 ~name:"worker.run" ~start:w0 ~stop:w1 ();
              served)
        in
        (e, setup_s, served))
  in
  let { result; report; serve = s0, s1; tl; resolve_s; journal; _ } = served in
  let stats = result.Coordinator.stats in
  check result.Coordinator.completed "coordinator completed the campaign";
  check (report.Worker.ended = Worker.Campaign_done) "worker ended with Done";
  let first = if check_k = 0 then None else Some (served_prefix journal ~k:check_k) in
  let layers =
    if not traced then []
    else begin
      (* Everything below runs outside the rep and is not traced. *)
      Span.enabled := false;
      let fsck, fsck_s = timed (fun () -> Journal.fsck ~dir:journal) in
      let c = fsck.Journal.fsck_counts in
      check
        (fsck.Journal.fsck_errors = []
        && (c.(0), c.(1), c.(2)) = (stats.Campaign.benign, stats.Campaign.latent, stats.Campaign.sdc))
        "journal fsck is clean and its counts equal the verdict table";
      let bytes = dir_bytes journal in
      let chunked, chunked_rate = chunked_replay w ~seed in
      check (chunked = tuple stats)
        (Printf.sprintf "chunked replay %s equals the served table %s" (show chunked)
           (show (tuple stats)));
      (* The verify tax: the same campaign with cross-validation off, on
         a cold engine, in this same process. *)
      remove_tree journal;
      let e_off, _ = setup w in
      let off = serve_once w ~seed ~tmp ~frac:0. e_off in
      let o0, o1 = off.serve in
      let rate_on = float_of_int stats.Campaign.injections /. (s1 -. s0) in
      let rate_off = float_of_int off.result.Coordinator.stats.Campaign.injections /. (o1 -. o0) in
      let assigned p = List.length (List.filter (fun (q, _) -> q = p) tl.assigned) in
      let chunk_s =
        let times = List.rev_map snd tl.assigned in
        let rec gaps = function
          | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
          | _ -> []
        in
        sorted_floats (gaps times)
      in
      let nan_or x d = if Float.is_nan x then d else x in
      let data_done = nan_or tl.data_done s1 and completed = nan_or tl.completed s1 in
      let micro_dir = Filename.concat tmp "micro-journal" in
      let micro = Micro.run ~dir:micro_dir in
      remove_tree micro_dir;
      Span.enabled := true;
      e.setup_layers
      @ [
          ("campaign.chunked_inj_per_s", "inj/s", chunked_rate);
          ("coordinator.first_verdict_s", "s", nan_or tl.first_verdict s1 -. s0);
          ("coordinator.data_pass_s", "s", data_done -. s0);
          ("coordinator.verify_pass_s", "s", completed -. data_done);
          ("coordinator.drain_s", "s", s1 -. completed);
          ("coordinator.assigned.verify", "count", float_of_int (assigned Proto.Verify));
          ("coordinator.assigned.arbitrate", "count", float_of_int (assigned Proto.Arbitrate));
          ("coordinator.redispatched", "count", float_of_int result.Coordinator.redispatched);
          ("coordinator.duplicates", "count", float_of_int result.Coordinator.duplicates);
          ("coordinator.mismatches", "count", float_of_int result.Coordinator.mismatches);
          ("coordinator.verified", "count", float_of_int result.Coordinator.verified);
          ("coordinator.verify_tax_pct", "%", 100. *. (1. -. (rate_on /. rate_off)));
          ("worker.engine_build_s", "s", resolve_s);
          ("worker.chunks", "count", float_of_int report.Worker.chunks);
          ("worker.submitted", "count", float_of_int report.Worker.submitted);
          ("worker.reconnects", "count", float_of_int report.Worker.reconnects);
          ("worker.chunk_s.p50", "s", percentile chunk_s 0.5);
          ("worker.chunk_s.p90", "s", percentile chunk_s 0.9);
          ("journal.bytes", "B", float_of_int bytes);
          ("journal.bytes_per_verdict", "B", float_of_int bytes /. float_of_int w.samples);
          ("journal.segments", "count", float_of_int fsck.Journal.fsck_segments);
          ("journal.fsck_s", "s", fsck_s);
        ]
      @ micro
    end
  in
  remove_tree journal;
  {
    stats;
    failed = failed_samples w result;
    wall_s;
    setup_s;
    inject_s = s1 -. s0;
    first;
    layers;
    checks = !checks;
  }

(* ------------------------------------------------------------------ *)

(* One repetition on the draw of [seed]. With [check_k > 0] it also
   reports the production verdicts of the draw's first [check_k] faults
   (see {!reference}). *)
let run_rep w ~seed ~traced ~tmp ~check_k =
  match w.shape with
  | Local | Pruned -> local_rep w ~seed ~traced ~check_k
  | Loopback -> loopback_rep w ~seed ~traced ~tmp ~check_k
