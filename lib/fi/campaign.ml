module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Deltasim = Pruning_sim.Deltasim
module Deltabatch = Pruning_sim.Deltabatch
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Prng = Pruning_util.Prng

type verdict =
  | Benign
  | Latent
  | Sdc of int

(* The two classification engines a campaign runs on: the scalar
   reference and the production engine. They are verdict-bit-identical
   (SDC cycles included) and differ only in how they spend the machine.
   The single-fault delta loop ([inject_fault_delta]) is not a kernel:
   it is the differential tests' independent third implementation. *)
type kernel =
  | Scalar  (** one fault at a time, full netlist eval per cycle *)
  | Delta_batched  (** 63 faults per pass, one shared golden delta baseline *)

let kernel_name = function
  | Scalar -> "scalar"
  | Delta_batched -> "delta-batched"

(* A memo key is the exact architectural difference from the golden run at
   a checkpoint: (checkpoint index, differing flops with their faulty
   values, differing RAM cells with their faulty values), both in
   ascending index order. The simulator is deterministic, so equal state
   at an equal cycle implies an identical remainder of the run — the
   verdict can be replayed from the table instead of re-simulated.

   Every producer packs its key into one string through [pack_memo_key]:
   the table then holds one flat block per entry instead of a cons cell
   per differing cell, and the three engines still build byte-equal keys
   for equal differences. The encoding is LEB128 varints over the ints'
   unsigned bit patterns: the checkpoint, the flop count, each flop as
   [2 * index + faulty], then each RAM cell as address and value. Varints
   are prefix-free and the flop count splits the two lists, so the
   encoding is injective. *)
type memo_key = string

let varint_len n =
  let rec go n k = if n lsr 7 = 0 then k else go (n lsr 7) (k + 1) in
  go n 1

let put_varint b pos n =
  let rec go pos n =
    if n lsr 7 = 0 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (pos + 1) (n lsr 7)
    end
  in
  go pos n

let flop_code (i, v) = (i lsl 1) lor Bool.to_int v

let pack_memo_key ~cp flops ram =
  let len =
    List.fold_left
      (fun acc (a, x) -> acc + varint_len a + varint_len x)
      (List.fold_left
         (fun acc f -> acc + varint_len (flop_code f))
         (varint_len cp + varint_len (List.length flops))
         flops)
      ram
  in
  let b = Bytes.create len in
  let pos = put_varint b 0 cp in
  let pos = put_varint b pos (List.length flops) in
  let pos = List.fold_left (fun pos f -> put_varint b pos (flop_code f)) pos flops in
  ignore (List.fold_left (fun pos (a, x) -> put_varint b (put_varint b pos a) x) pos ram);
  Bytes.unsafe_to_string b

type worker = {
  w_sys : System.t;
  w_restores : (unit -> unit) array;
      (* w_restores.(i) rewinds w_sys to the start of cycle i*interval *)
}

type t = {
  make : unit -> System.t;
  make_delta : (trace:Trace.t -> System.delta) option;
  make_delta_batch : (trace:Trace.t -> System.delta_batch) option;
  mutable delta_worker : System.delta option;  (* built lazily on first delta run *)
  mutable delta_batch_workers : System.delta_batch array;
      (* one per domain of a batched call, entry 0 the calling domain's;
         grown on demand, emptied when a pass raises *)
  trace : Trace.t;
      (* the campaign's one per-cycle golden record, taken by the
         checkpointing run: row c holds cycle c's settled wires (its
         outputs, and its Q = the flop state at the top of cycle c) *)
  total_cycles : int;
  interval : int;  (* checkpoint spacing in cycles *)
  out_wires : int array;
  golden_ram : int array;  (** at horizon *)
  cp_ram : int array array;  (** golden RAM per checkpoint *)
  memo : (memo_key, verdict) Hashtbl.t;
      (* shared across workers: one domain's classified divergence state
         short-circuits every other domain's matching runs *)
  memo_lock : Mutex.t;
  primary : worker;  (** worker for the calling domain (not domain-safe) *)
}

let output_wires nl =
  List.concat_map
    (fun (p : Netlist.port) -> Array.to_list p.Netlist.port_wires)
    nl.Netlist.outputs
  |> Array.of_list

(* The campaign's one golden simulation: every [interval] cycles it
   snapshots the system and its RAM before the step, and every step
   records its settled wires into the trace. *)
let create ?checkpoint_interval ?make_delta ?make_delta_batch ~make ~total_cycles () =
  if total_cycles <= 0 then invalid_arg "Campaign.create: total_cycles must be positive";
  let interval =
    match checkpoint_interval with
    | Some k ->
      if k <= 0 then invalid_arg "Campaign.create: checkpoint_interval must be positive";
      k
    | None -> max 1 (total_cycles / 64)
  in
  let n_cp = 1 + ((total_cycles - 1) / interval) in
  let sys = make () in
  let sim = sys.System.sim in
  let nl = sys.System.netlist in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  let cp_ram = Array.make n_cp [||] in
  let restores = Array.make n_cp (fun () -> ()) in
  for cycle = 0 to total_cycles - 1 do
    if cycle mod interval = 0 then begin
      let i = cycle / interval in
      cp_ram.(i) <- Array.copy sys.System.ram;
      restores.(i) <- System.save_state sys
    end;
    Sim.step sim ~trace ()
  done;
  {
    make;
    make_delta;
    make_delta_batch;
    delta_worker = None;
    delta_batch_workers = [||];
    trace;
    total_cycles;
    interval;
    out_wires = output_wires nl;
    golden_ram = Array.copy sys.System.ram;
    cp_ram;
    memo = Hashtbl.create 256;
    memo_lock = Mutex.create ();
    primary = { w_sys = sys; w_restores = restores };
  }

let checkpoint_interval t = t.interval
let total_cycles t = t.total_cycles

(* A fresh worker for another domain: its own system plus its own
   checkpoint snapshots, rebuilt by replaying the golden run up to the
   last checkpoint (the prefix cost is paid once per worker and amortized
   over all its injections). *)
let fresh_worker t =
  let sys = t.make () in
  let sim = sys.System.sim in
  let n_cp = Array.length t.cp_ram in
  let restores = Array.make n_cp (fun () -> ()) in
  restores.(0) <- System.save_state sys;
  for cycle = 1 to (n_cp - 1) * t.interval do
    Sim.step sim ();
    if cycle mod t.interval = 0 then restores.(cycle / t.interval) <- System.save_state sys
  done;
  { w_sys = sys; w_restores = restores }

(* Row [cycle] holds the wires after that cycle's eval and before its
   latch: its output wires are the golden outputs of the cycle. *)
let outputs_match t sim cycle =
  let n = Array.length t.out_wires in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let w = t.out_wires.(!i) in
    if Sim.peek sim w <> Trace.get t.trace ~cycle w then ok := false;
    incr i
  done;
  !ok

(* Bound on tracked state differences: larger diffs (e.g. a derailed PC
   smearing state everywhere) almost never recur exactly, so memoizing
   them would only cost memory. *)
let max_memo_diff = 32
let max_memo_entries = 1 lsl 20

(* Architectural diff of the worker's current state against the golden
   state at checkpoint [cp]; [None] when more than [max_memo_diff] cells
   differ. [Some ([], [])] means the faulty run has re-converged. Eval
   leaves every Q wire alone, so the golden flop state at the top of the
   checkpoint's cycle is that cycle's trace row. *)
let state_diff t w ~cp =
  let sim = w.w_sys.System.sim in
  let flops = w.w_sys.System.netlist.Netlist.flops in
  let cycle = cp * t.interval in
  let gr = t.cp_ram.(cp) in
  let ram = w.w_sys.System.ram in
  let exception Too_big in
  try
    let count = ref 0 in
    let fd = ref [] in
    for i = Array.length flops - 1 downto 0 do
      let q = flops.(i).Netlist.q in
      let v = Sim.peek sim q in
      if v <> Trace.get t.trace ~cycle q then begin
        incr count;
        if !count > max_memo_diff then raise Too_big;
        fd := (i, v) :: !fd
      end
    done;
    let rd = ref [] in
    for a = Array.length ram - 1 downto 0 do
      if ram.(a) <> gr.(a) then begin
        incr count;
        if !count > max_memo_diff then raise Too_big;
        rd := (a, ram.(a)) :: !rd
      end
    done;
    Some (!fd, !rd)
  with Too_big -> None

(* The shared verdict memo, read at checkpoint boundaries and written
   once per experiment with every key it passed unanswered. Both take
   the key the caller already built. *)
let memo_find t key =
  Mutex.lock t.memo_lock;
  let hit = Hashtbl.find_opt t.memo key in
  Mutex.unlock t.memo_lock;
  hit

let memo_commit t keys verdict =
  if keys <> [] then begin
    Mutex.lock t.memo_lock;
    if Hashtbl.length t.memo < max_memo_entries then
      List.iter (fun key -> Hashtbl.replace t.memo key verdict) keys;
    Mutex.unlock t.memo_lock
  end

(* The campaign's golden record: the delta-family engines' baseline,
   immutable, so worker resets (crash recovery), durable runs and
   distributed chunk re-execution all reuse it. The scalar injector reads
   it too, for golden outputs, checkpoint flop states, the horizon flop
   state and held faults' per-cycle golden Q. *)
let golden_trace t = t.trace

(* Allocation-free horizon comparison: walk flops and RAM in place
   instead of materializing a flop array per injection. The golden flop
   state at the horizon is what the last cycle latched: the D wires of
   the last trace row. *)
let matches_golden_horizon t sys =
  let sim = sys.System.sim in
  let flops = sys.System.netlist.Netlist.flops in
  let ram = sys.System.ram in
  let last = t.total_cycles - 1 in
  let same = ref true in
  let i = ref 0 in
  let nf = Array.length flops in
  while !same && !i < nf do
    let f = flops.(!i) in
    if Sim.peek sim f.Netlist.q <> Trace.get t.trace ~cycle:last f.Netlist.d then same := false;
    incr i
  done;
  let a = ref 0 in
  let na = Array.length ram in
  while !same && !a < na do
    if ram.(!a) <> t.golden_ram.(!a) then same := false;
    incr a
  done;
  !same

(* The scalar oracle's one experiment. Flip every member flop at the
   injection cycle; for a hold window > 1, re-arm each member to the
   complement of its golden Q at the top of every window cycle
   (intermittent stuck-at semantics, golden values from the shared
   recorded trace). Rewind to the nearest checkpoint at or before the
   injection cycle and replay the fault-free prefix, then run on,
   watching the outputs. At every checkpoint boundary the architectural
   state is compared against the golden run to (a) return Benign as
   soon as the fault has been fully masked and (b) reuse or record a
   memoized verdict for the exact remaining divergence. Both wait for
   the last forced cycle: while forcing is still pending, equal state
   does not imply an equal remainder, and the memo table is shared
   across models. An SEU is the one-member, hold-1 case, for which that
   guard always holds. *)
let scalar_experiment t w ~members ~hold ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then invalid_arg "Campaign.inject: cycle out of range";
  (* A pulse nothing latches (empty SET cone): bit-exact golden run. *)
  if Array.length members = 0 then Benign
  else begin
    let window_end = min t.total_cycles (cycle + hold) in
    let sys = w.w_sys in
    let sim = sys.System.sim in
    let flops = sys.System.netlist.Netlist.flops in
    let cp = cycle / t.interval in
    w.w_restores.(cp) ();
    for _ = 1 to cycle - (cp * t.interval) do
      Sim.step sim ()
    done;
    Sim.eval sim;
    Array.iter (fun fid -> Sim.set_flop sim fid (not (Sim.get_flop sim fid))) members;
    let result = ref None in
    let pending = ref [] in
    let c = ref cycle in
    while !result = None && !c < t.total_cycles do
      if !c > cycle && !c < window_end then
        (* Re-arm: the state at the top of cycle !c is whatever the
           faulty machine latched, except the held flops are forced to
           the complement of their golden Q this cycle. *)
        Array.iter
          (fun fid ->
            Sim.set_flop sim fid (not (Trace.get t.trace ~cycle:!c flops.(fid).Netlist.q)))
          members;
      if !c mod t.interval = 0 && !c >= window_end - 1 then begin
        let i = !c / t.interval in
        match state_diff t w ~cp:i with
        | Some ([], []) -> result := Some Benign
        | Some (fd, rd) -> (
          let key = pack_memo_key ~cp:i fd rd in
          match memo_find t key with
          | Some v -> result := Some v
          | None -> pending := key :: !pending)
        | None -> ()
      end;
      if !result = None then begin
        Sim.eval sim;
        if not (outputs_match t sim !c) then result := Some (Sdc !c)
        else begin
          Sim.latch sim;
          incr c
        end
      end
    done;
    let verdict =
      match !result with
      | Some v -> v
      | None ->
        Sim.eval sim;
        if matches_golden_horizon t sys then Benign else Latent
    in
    memo_commit t !pending verdict;
    verdict
  end

let inject t ~flop_id ~cycle = scalar_experiment t t.primary ~members:[| flop_id |] ~hold:1 ~cycle
let primary_worker t = t.primary

let inject_fault t w ~space ~key ~cycle =
  scalar_experiment t w ~members:(Fault_space.expand space key)
    ~hold:(Fault_space.hold space) ~cycle

(* ------------------------------------------------------------------ *)
(* Delta injection: one fault at a time against the recorded golden
   trace, re-evaluating only the fault cone's active frontier. No
   checkpoint replay (attaching at the injection cycle is O(previous
   dirty set)). The dirty-set machinery retires re-converged faults at
   the earliest possible cycle, and at every checkpoint boundary the
   surviving divergence is read straight off the flip flags and device
   diffs to share the verdict memo with the other engines:
   a latent stuck bit costs one partial interval of sparse simulation
   plus a memo lookup instead of a run to the horizon. *)

let delta_worker t =
  match t.delta_worker with
  | Some d -> d
  | None ->
    let make_delta =
      match t.make_delta with
      | Some f -> f
      | None -> invalid_arg "Campaign: delta injection needs ~make_delta at Campaign.create"
    in
    let d = make_delta ~trace:t.trace in
    t.delta_worker <- Some d;
    d

(* The delta image of [state_diff]: a flipped Q flag is exactly a
   differing flop and a device diff entry exactly a differing RAM cell,
   so the scalar engine's memo keys fall out of the dirty set directly —
   same indices, same faulty values, same ascending order. *)
let delta_diff ds flops =
  let exception Too_big in
  try
    let count = ref 0 in
    let fd = ref [] in
    for i = Array.length flops - 1 downto 0 do
      let q = flops.(i).Netlist.q in
      if Deltasim.is_flipped ds q then begin
        incr count;
        if !count > max_memo_diff then raise Too_big;
        fd := (i, Deltasim.faulty ds q) :: !fd
      end
    done;
    let rd = List.concat_map snd (Deltasim.device_diffs ds) |> List.sort compare in
    if !count + List.length rd > max_memo_diff then raise Too_big;
    Some (!fd, rd)
  with Too_big -> None

(* The delta image of [scalar_experiment], an independent
   implementation of the same protocol. The member flips become the
   initial dirty set, and a hold window re-arms by re-flipping any
   member whose Q flip flag has cleared — [Deltasim.flip_flop] toggles
   the flag, so "flip if not flipped" is exactly "force to the
   complement of golden". Same observation order as the scalar loop:
   settle the cycle, consult the memo at a checkpoint boundary, check
   the outputs (SDC), then the clock edge. [converged] retires the
   experiment the instant the dirty set empties — the faulty machine is
   bit-exact golden, so by determinism the remainder is too. Memo and
   retirement wait for the last forced cycle, as in the scalar loop. *)
let delta_experiment t ~members ~hold ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then
    invalid_arg "Campaign.inject_delta: cycle out of range";
  if Array.length members = 0 then Benign
  else begin
    let window_end = min t.total_cycles (cycle + hold) in
    let ds = (delta_worker t).System.d_dsim in
    let flops = (Deltasim.netlist ds).Netlist.flops in
    Deltasim.attach ds ~cycle;
    Array.iter (fun fid -> Deltasim.flip_flop ds fid) members;
    let result = ref None in
    let pending = ref [] in
    let c = ref cycle in
    while !result = None && !c < t.total_cycles do
      if !c > cycle && !c < window_end then
        Array.iter
          (fun fid ->
            if not (Deltasim.is_flipped ds flops.(fid).Netlist.q) then Deltasim.flip_flop ds fid)
          members;
      Deltasim.propagate ds;
      (* Checkpoint boundary: checked after [propagate] — combinational
         settling leaves flops and RAM untouched, and the golden row
         must be current for [faulty] reads — and before the SDC check,
         preserving the scalar engine's priority between a memo hit and
         a same-cycle SDC. *)
      if !c mod t.interval = 0 && !c >= window_end - 1 && not (Deltasim.converged ds) then begin
        match delta_diff ds flops with
        | Some (fd, rd) -> (
          let key = pack_memo_key ~cp:(!c / t.interval) fd rd in
          match memo_find t key with
          | Some v -> result := Some v
          | None -> pending := key :: !pending)
        | None -> ()
      end;
      if !result = None then begin
        if Deltasim.output_diverged ds then result := Some (Sdc !c)
        else if !c >= window_end - 1 && Deltasim.converged ds then result := Some Benign
        else begin
          Deltasim.latch ds;
          incr c
        end
      end
    done;
    let verdict =
      match !result with
      | Some v -> v
      | None ->
        (* Horizon: the Q flip flags and device diffs are exact after the
           final latch — the same flop + RAM comparison as the scalar
           path, read off in O(divergence). *)
        if Deltasim.flops_diverged ds || not (Deltasim.devices_clean ds) then Latent else Benign
    in
    memo_commit t !pending verdict;
    verdict
  end

let inject_delta t ~flop_id ~cycle = delta_experiment t ~members:[| flop_id |] ~hold:1 ~cycle

let inject_fault_delta t ~space ~key ~cycle =
  delta_experiment t ~members:(Fault_space.expand space key)
    ~hold:(Fault_space.hold space) ~cycle

(* ------------------------------------------------------------------ *)
(* Batched delta injection: many in-flight faults per pass, each an
   independent sparse XOR-delta against the same recorded golden trace,
   swept over one shared levelized schedule (Deltabatch). A pass works a
   cycle-sorted fault queue with mid-pass lane refill and per-lane
   retirement, under the delta engine's semantics: no checkpoint replay
   (idle lanes are golden by construction, so the pass attaches at the
   head fault's exact cycle), per-lane earliest-cycle Benign retirement
   the instant a lane's dirty set empties, and memo keys read straight
   off the flip words and device diffs — identical to the scalar
   engine's. A lane carries any fault model: its fault's member flops
   are all flipped at the injection cycle, and a held fault re-arms its
   members each window cycle, exactly as [delta_experiment] does. *)

let max_delta_lanes = Deltabatch.n_lanes

let rec lsb_index v i = if v land 1 = 1 then i else lsb_index (v lsr 1) (i + 1)

let new_delta_batch_worker t =
  match t.make_delta_batch with
  | Some f -> f ~trace:t.trace
  | None ->
    invalid_arg "Campaign: batched delta injection needs ~make_delta_batch at Campaign.create"

(* A top-level function, not a closure: it runs once per injected SEU. *)
let seed_member ds ~lane ~force fid =
  if force then Deltabatch.force_flop_lanes ds fid ~mask:(1 lsl lane)
  else Deltabatch.flip_flop_lane ds fid ~lane

(* One pass over the horizon: attach at the head fault's cycle (every
   lane bit-exact golden), run forward filling free lanes with queued
   faults whose cycle has not passed, flipping each lane's member flops
   at its cycle, and retiring lanes per the scalar delta engine's
   observation order — memo at checkpoint boundaries, SDC on output
   divergence, Benign the instant the lane re-converges — with
   survivors classified at the horizon.

   The pass works the ascending prefix [queue.(0 .. len-1)] and compacts
   it in place: the faults it overtook are written back at a cursor that
   never passes the read cursor, then the untouched tail is blitted after
   them. Every overtaken fault was popped before every tail fault, so the
   new prefix is still ascending by (cycle, index) and the next pass
   attaches at its head's cycle. Returns the new prefix length.

   [members] lists each fault's member flops ([None]: every key is its
   own one flop). A fault held for [hold] > 1 cycles keeps its lane in
   [holding] until the last forced cycle of its window: at the top of
   every cycle after the injection, before [propagate], each holding
   lane's members are forced back to the complement of golden, and a
   holding lane takes no memo verdict and no Benign retirement — equal
   state does not imply an equal remainder while forcing is pending.
   It can still retire SDC. A single-cycle fault never holds. *)
let run_delta_batch_pass t ?on_benign_retire db ~lanes ~members ~hold faults verdicts queue len =
  let ds = db.System.db_dbsim in
  let flops = db.System.db_netlist.Netlist.flops in
  let n_flops = Array.length flops in
  let head_cycle = snd faults.(queue.(0)) in
  Deltabatch.attach ds ~cycle:head_cycle;
  let lane_fault = Array.make lanes (-1) in
  let lane_pending = Array.make lanes [] in
  let lane_window_end = Array.make lanes 0 in
  let active = ref 0 in
  let injected = ref 0 in
  let holding = ref 0 in
  let free = ref (List.init lanes Fun.id) in
  let next = ref 0 in  (* read cursor: the next queued fault *)
  let kept = ref 0 in  (* write cursor: overtaken faults so far *)
  let c = ref head_cycle in
  let retire lane verdict =
    verdicts.(lane_fault.(lane)) <- verdict;
    memo_commit t lane_pending.(lane) verdict;
    lane_pending.(lane) <- [];
    lane_fault.(lane) <- -1;
    let m = lnot (1 lsl lane) in
    active := !active land m;
    injected := !injected land m;
    holding := !holding land m;
    (* Wiping returns the lane to bit-exact golden at once, so nothing
       stale can leak back through the latch. *)
    Deltabatch.wipe_lane ds ~lane;
    free := lane :: !free
  in
  (* Per-lane architectural diff at a checkpoint boundary, built in one
     flop scan: a flipped Q bit is exactly a differing flop and a device
     diff entry exactly a differing RAM cell, so the scalar engine's
     memo keys fall out of the flip words directly — same indices, same
     faulty values, same ascending order. *)
  let counts = Array.make lanes 0 in
  let fd = Array.make lanes [] in
  let boundary_check () =
    let check = !injected land lnot !holding land Deltabatch.live_mask ds in
    if check <> 0 then begin
      Array.fill counts 0 lanes 0;
      Array.fill fd 0 lanes [];
      let over = ref 0 in
      for i = 0 to n_flops - 1 do
        let q = flops.(i).Netlist.q in
        let d = ref (Deltabatch.flip_word ds q land check land lnot !over) in
        if !d <> 0 then begin
          let fv = not (Deltabatch.golden ds q) in
          while !d <> 0 do
            let lane = lsb_index !d 0 in
            d := !d land (!d - 1);
            counts.(lane) <- counts.(lane) + 1;
            if counts.(lane) > max_memo_diff then over := !over lor (1 lsl lane)
            else fd.(lane) <- (i, fv) :: fd.(lane)
          done
        end
      done;
      let i_cp = !c / t.interval in
      for lane = 0 to lanes - 1 do
        if check land (1 lsl lane) <> 0 then begin
          let key =
            if !over land (1 lsl lane) <> 0 then None
            else begin
              let rd =
                List.concat_map snd (Deltabatch.device_diffs ds ~lane) |> List.sort compare
              in
              if counts.(lane) + List.length rd > max_memo_diff then None
              else Some (pack_memo_key ~cp:i_cp (List.rev fd.(lane)) rd)
            end
          in
          match key with
          | None -> ()
          | Some key -> (
            match memo_find t key with
            | Some v -> retire lane v
            | None -> lane_pending.(lane) <- key :: lane_pending.(lane))
        end
      done
    end
  in
  (* Flip, or force to the complement of golden, every member flop of
     the lane's fault. *)
  let seed_lane lane ~force =
    let idx = lane_fault.(lane) in
    match members with
    | None -> seed_member ds ~lane ~force (fst faults.(idx))
    | Some m ->
      let m = m.(idx) in
      for j = 0 to Array.length m - 1 do
        seed_member ds ~lane ~force m.(j)
      done
  in
  (* Re-arm every holding lane (all injected at an earlier cycle), then
     release the lanes whose window closes with this cycle. *)
  let rearm () =
    for lane = 0 to lanes - 1 do
      let bit = 1 lsl lane in
      if !holding land bit <> 0 then begin
        seed_lane lane ~force:true;
        if !c >= lane_window_end.(lane) - 1 then holding := !holding land lnot bit
      end
    done
  in
  (* Refill free lanes with queued faults still injectable at !c;
     overtaken faults go to the next pass. *)
  let rec refill () =
    match !free with
    | lane :: frest when !next < len ->
      let idx = queue.(!next) in
      incr next;
      if snd faults.(idx) < !c then begin
        queue.(!kept) <- idx;
        incr kept
      end
      else begin
        free := frest;
        lane_fault.(lane) <- idx;
        active := !active lor (1 lsl lane)
      end;
      refill ()
    | _ -> ()
  in
  (try
     while !c < t.total_cycles do
       refill ();
       if !active = 0 then raise Exit;
       if !holding <> 0 then rearm ();
       let to_inject = !active land lnot !injected in
       if to_inject <> 0 then
         for lane = 0 to lanes - 1 do
           if to_inject land (1 lsl lane) <> 0 then begin
             let fc = snd faults.(lane_fault.(lane)) in
             if fc = !c then begin
               seed_lane lane ~force:false;
               let window_end = min t.total_cycles (fc + hold) in
               lane_window_end.(lane) <- window_end;
               if fc < window_end - 1 then holding := !holding lor (1 lsl lane);
               injected := !injected lor (1 lsl lane)
             end
           end
         done;
       Deltabatch.propagate ds;
       (* Scalar delta observation order, per lane: boundary memo before
          the SDC check (preserving the memo-hit-vs-same-cycle-SDC
          priority), SDC before Benign, retirement before the latch. *)
       if !c mod t.interval = 0 && !injected <> 0 then boundary_check ();
       if !injected <> 0 then begin
         let sdc = Deltabatch.out_mask ds land !injected in
         if sdc <> 0 then
           for lane = 0 to lanes - 1 do
             if sdc land (1 lsl lane) <> 0 then retire lane (Sdc !c)
           done
       end;
       if !injected <> 0 then begin
         let conv = !injected land lnot !holding land lnot (Deltabatch.live_mask ds) in
         if conv <> 0 then
           for lane = 0 to lanes - 1 do
             if conv land (1 lsl lane) <> 0 then begin
               (match on_benign_retire with
               | Some f -> f ~index:lane_fault.(lane) ~cycle:!c
               | None -> ());
               retire lane Benign
             end
           done
       end;
       Deltabatch.latch ds;
       incr c
     done
   with Exit -> ());
  if !active <> 0 then begin
    (* Horizon: the Q flip words and device diffs are exact after the
       final latch — the same flop + RAM comparison as the scalar path,
       read off in O(divergence). *)
    let diverged = (Deltabatch.q_mask ds lor Deltabatch.devices_dirty_mask ds) land !active in
    for lane = 0 to lanes - 1 do
      if !active land (1 lsl lane) <> 0 then
        retire lane (if diverged land (1 lsl lane) <> 0 then Latent else Benign)
    done
  end;
  (* Unclassified faults for the next pass: those overtaken while every
     lane was busy, then the queue tail never popped. *)
  Array.blit queue !next queue !kept (len - !next);
  !kept + (len - !next)

(* [lanes], defaulted and checked against the pass width. *)
let lanes_in_range ~fn = function
  | None -> max_delta_lanes
  | Some l ->
    if l < 1 || l > max_delta_lanes then
      invalid_arg (Printf.sprintf "Campaign.%s: lanes must be in [1, %d]" fn max_delta_lanes);
    l

let inject_delta_batch t ?space ?lanes ?jobs ?on_benign_retire ~faults () =
  let lanes = lanes_in_range ~fn:"inject_delta_batch" lanes in
  let jobs =
    match jobs with
    | None -> Domain.recommended_domain_count ()
    | Some j ->
      if j < 1 then invalid_arg "Campaign.inject_delta_batch: jobs must be positive";
      j
  in
  Array.iter
    (fun (_, cycle) ->
      if cycle < 0 || cycle >= t.total_cycles then
        invalid_arg "Campaign.inject_delta_batch: cycle out of range")
    faults;
  let n = Array.length faults in
  let verdicts = Array.make n Benign in
  (* Each fault's member flops, expanded once before the first pass.
     The flop-keyed models need none: the key is the one member. *)
  let members =
    match space with
    | Some ({ Fault_space.model = Fault_model.Set | Fault_model.Mbu _; _ } as space) ->
      Some (Array.map (fun (key, _) -> Fault_space.expand space key) faults)
    | Some _ | None -> None
  in
  let hold = Option.fold ~none:1 ~some:Fault_space.hold space in
  (* Classify in injection-cycle order so each pass drains as many
     faults as possible before their cycles are overtaken. A pulse
     nothing latches (empty SET expansion) is Benign without a lane. *)
  let order =
    match members with
    | None -> Array.init n Fun.id
    | Some m -> Array.of_seq (Seq.filter (fun i -> Array.length m.(i) > 0) (Seq.init n Fun.id))
  in
  Array.sort
    (fun a b ->
      let ca = snd faults.(a) and cb = snd faults.(b) in
      if ca <> cb then compare ca cb else compare a b)
    order;
  let n_order = Array.length order in
  (* No domain gets less than one full pass of faults. *)
  let domains = max 1 (min jobs (n_order / lanes)) in
  let have = Array.length t.delta_batch_workers in
  if have < domains then
    t.delta_batch_workers <-
      Array.init domains (fun k ->
          if k < have then t.delta_batch_workers.(k) else new_delta_batch_worker t);
  let workers = t.delta_batch_workers in
  (* Domain k takes every [domains]-th fault of the cycle-sorted order
     from position k, so every share sees the same cycle mix, and drains
     it pass after pass on worker k. Each domain writes only its own
     faults' verdict slots and shares the mutex-guarded memo. Benign
     retirements are buffered per domain and delivered here, on the
     calling domain, once every helper has been joined. *)
  let retired = Array.make domains [] in
  let run k () =
    let on_benign_retire =
      Option.map
        (fun _ ~index ~cycle -> retired.(k) <- (index, cycle) :: retired.(k))
        on_benign_retire
    in
    let queue =
      Array.init ((n_order - k + domains - 1) / domains) (fun j -> order.(k + (j * domains)))
    in
    let len = ref (Array.length queue) in
    while !len > 0 do
      len :=
        run_delta_batch_pass t ?on_benign_retire workers.(k) ~lanes ~members ~hold faults verdicts
          queue !len
    done
  in
  let attempt f =
    match f () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let helpers =
    Array.init (domains - 1) (fun j -> attempt (fun () -> Domain.spawn (run (j + 1))))
  in
  let own = attempt (run 0) in
  let joined =
    Array.map (fun h -> Result.bind h (fun d -> attempt (fun () -> Domain.join d))) helpers
  in
  let first_error = List.find_map (function Ok () -> None | Error err -> Some err) in
  match first_error (own :: Array.to_list joined) with
  | Some (e, bt) ->
    (* An exception escaping a pass leaves its worker mid-run (lanes
       dirty): every domain's worker is dropped, to be rebuilt by the
       next call from the golden trace, which is immutable and survives. *)
    t.delta_batch_workers <- [||];
    Printexc.raise_with_backtrace e bt
  | None ->
    Option.iter
      (fun f ->
        Array.iter
          (fun r -> List.iter (fun (index, cycle) -> f ~index ~cycle) (List.rev r))
          retired)
      on_benign_retire;
    verdicts

type stats = {
  injections : int;
  benign : int;
  latent : int;
  sdc : int;
  skipped : int;
  crashed : int;
}

(* A run's stats from its verdicts; every fault not skipped was
   injected exactly once. *)
let stats_of ~n_skipped verdicts =
  let b = ref 0 and l = ref 0 and s = ref 0 in
  Array.iter
    (function
      | Benign -> incr b
      | Latent -> incr l
      | Sdc _ -> incr s)
    verdicts;
  { injections = !b + !l + !s; benign = !b; latent = !l; sdc = !s; skipped = n_skipped; crashed = 0 }

(* The one sample-draw everybody shares: every engine, the durable
   runner and the distributed worker derive their fault list through
   this exact loop, so equal seeds yield equal fault lists — the
   foundation of every bit-identical-statistics guarantee in the stack
   (a worker fleet and a single process must classify the very same
   faults). The draw is over the space's model keys; for [Seu] the key
   index runs over the flop array and maps to netlist flop ids, making
   the PRNG call sequence and the drawn pairs byte-identical to the
   historical flop-only draw. *)
let draw_samples t ~space ~rng ~n =
  if n < 0 then invalid_arg "Campaign.draw_samples: n must be non-negative";
  let n_keys = Fault_space.n_keys space in
  let cycle_bound = min space.Fault_space.cycles t.total_cycles in
  let samples = Array.make n (0, 0) in
  for i = 0 to n - 1 do
    let key = Fault_space.draw_key space (Prng.int rng n_keys) in
    let cycle = Prng.int rng cycle_bound in
    samples.(i) <- (key, cycle)
  done;
  samples

(* The one kernel -> injector dispatch: every sample driver below and
   the supervised executor classify through it, and every kernel runs
   every fault model. The scalar kernel runs on [worker ()]; the
   delta-batched kernel on the campaign's batched workers, one per
   domain, which [inject_delta_batch] discards itself when a pass
   raises. *)
let classify ?lanes t ~worker ~kernel ~space faults =
  match kernel with
  | Scalar ->
    let w = worker () in
    Array.map (fun (key, cycle) -> inject_fault t w ~space ~key ~cycle) faults
  | Delta_batched -> inject_delta_batch t ~space ?lanes ~faults ()

let no_skip ~flop_id:_ ~cycle:_ = false

(* The one sample driver behind every [run_sample*]. All samples are
   drawn up front with the single caller-provided generator and the
   pruned ones dropped: the fault list — and therefore the stats — is a
   function of the seed alone, whatever classifies it. *)
let run_faults t ~space ~rng ~n ~skip classify_faults =
  (* The kept faults, compacted in place over the draw. *)
  let kept = draw_samples t ~space ~rng ~n in
  let nf = ref 0 in
  Array.iter
    (fun ((flop_id, cycle) as f) ->
      if not (skip ~flop_id ~cycle) then begin
        kept.(!nf) <- f;
        incr nf
      end)
    kept;
  stats_of ~n_skipped:(n - !nf) (classify_faults (Array.sub kept 0 !nf))

let run_sample t ~space ~rng ~n ?(skip = no_skip) () =
  run_faults t ~space ~rng ~n ~skip
    (classify t ~worker:(fun () -> t.primary) ~kernel:Scalar ~space)

let run_sample_delta t ~space ~rng ~n ?(skip = no_skip) () =
  run_faults t ~space ~rng ~n ~skip
    (Array.map (fun (key, cycle) -> inject_fault_delta t ~space ~key ~cycle))

(* [lanes] is checked first, before any fault is drawn. *)
let run_sample_delta_batched t ~space ~rng ~n ?(skip = no_skip) ?lanes () =
  ignore (lanes_in_range ~fn:"run_sample_delta_batched" lanes);
  run_faults t ~space ~rng ~n ~skip
    (classify ?lanes t ~worker:(fun () -> t.primary) ~kernel:Delta_batched ~space)

let pp_verdict ppf = function
  | Benign -> Format.fprintf ppf "benign"
  | Latent -> Format.fprintf ppf "latent"
  | Sdc n -> Format.fprintf ppf "SDC@%d" n
