module Netlist = Pruning_netlist.Netlist
module Cell = Pruning_cell.Cell
module Lower = Pruning_cell.Lower

(* Batched activity-gated delta kernel: many in-flight faulty runs, each
   a sparse XOR-delta against the same recorded golden trace.

   From [Deltasim] it takes the dirty set and the levelized bucket
   sweep: only gates with a dirty input are re-evaluated, so per-cycle
   cost tracks the union of the fault cones' active frontiers, not the
   netlist. To that it adds lane packing: each wire carries one machine
   word whose bit [l]
   is set iff lane [l]'s faulty value differs from golden this cycle
   (there is no golden lane — the trace is the golden baseline — so all
   [Sys.int_size] lanes carry faults). A dirty gate is re-evaluated
   once per cycle through its Shannon-lowered formula over the packed
   faulty words, classifying every lane in one pass.

   Invariant (the dirty-set invariant, per lane): after every
   [propagate], bit [l] of [flip.(w)] is set iff lane [l]'s value of
   [w] differs from the golden trace row, and every wire with a nonzero
   flip word is in the dirty list. That makes every per-lane divergence
   question one word-OR scan of the dirty list ([flips_mask] and
   friends) with no per-lane bookkeeping on the [set_flip_word] hot
   path: when lane [l]'s bit is clear in every dirty wire and every
   device reports the lane clean, that lane's machine is bit-exact
   golden — determinism makes every later cycle golden too, so the lane
   retires Benign and [wipe_lane] frees it for the next fault without
   touching the other lanes. *)

let n_lanes = Sys.int_size

let splat b = if b then -1 else 0

type device = {
  db_name : string;
  db_comb : int -> unit;
      (* fixed-point phase: recompute the lanes in the given mask from
         their faulty ports and drive faulty values back *)
  db_clock : unit -> unit;  (* clock edge: advance all lanes one cycle *)
  db_seek : int -> unit;  (* rewind internal state to the start of a cycle *)
  db_dirty : unit -> int;  (* mask of lanes whose state differs from golden *)
  db_diffs : lane:int -> (int * int) list;  (* (address, faulty value), sorted *)
  db_reset : lane:int -> unit;  (* forget one lane's divergence *)
  db_watch : int array;  (* port wires (read and write) whose flip wakes the device *)
}

(* One gate flattened for the sweep: the cell's Shannon-lowered formula
   compiled over scratch pin slots, input wires, output wire, level. *)
type dgate = {
  dg_eval : int array -> int;
  dg_ins : int array;
  dg_out : int;
  dg_level : int;
}

type t = {
  nl : Netlist.t;
  trace : Trace.t;
  total : int;  (* trace cycles; faulty cycles run in [0, total) *)
  gates : dgate array;  (* indexed by gate id *)
  wire_readers : int array array;
  flop_readers : int array array;
  driver_gate : int array;  (* wire -> driving gate id, or -1 *)
  flop_q : int array;  (* flop id -> Q wire *)
  is_out : bool array;  (* wire is a primary output *)
  is_q : bool array;  (* wire is some flop's Q *)
  flip : int array;  (* per wire: bit l set iff lane l differs from golden *)
  in_list : bool array;  (* wire present in [dirty] *)
  dirty : int array;  (* wires with nonzero flip words (plus stale clears) *)
  mutable n_dirty : int;
  buckets : int array array;  (* scheduled gate ids, one bucket per level *)
  bucket_n : int array;
  scheduled : bool array;  (* per gate *)
  latch_flop : int array;  (* flops latching a flipped D this edge *)
  latch_word : int array;  (* the D flip word each of them latches *)
  mutable latch_n : int;
  scratch : int array;  (* packed faulty pin words for [dg_eval] *)
  mutable row : Bytes.t;  (* golden trace row of the current cycle *)
  mutable devices_rev : device list;
  mutable devices_ord : device list option;
  mutable drive_changed : bool;  (* a device changed a port flip this round *)
  mutable cyc : int;
}

let create nl trace =
  if Trace.n_wires trace <> Netlist.n_wires nl then
    invalid_arg "Deltabatch.create: trace width does not match netlist";
  if Trace.n_cycles trace = 0 then invalid_arg "Deltabatch.create: empty trace";
  let nw = Netlist.n_wires nl in
  let ng = Netlist.n_gates nl in
  let nf = Netlist.n_flops nl in
  (* The library has ~25 distinct cells; lower each (arity, table) once
     over identity pin slots and share the closure across instances. *)
  let lowered = Hashtbl.create 32 in
  let identity = Array.init (max Cell.max_arity 1) Fun.id in
  let compile (cell : Cell.t) =
    let key = (cell.Cell.arity, cell.Cell.table) in
    match Hashtbl.find_opt lowered key with
    | Some f -> f
    | None ->
      let f = Lower.compile (Lower.of_cell cell) ~inputs:identity in
      Hashtbl.add lowered key f;
      f
  in
  let gates =
    Array.map
      (fun (g : Netlist.gate) ->
        {
          dg_eval = compile g.Netlist.cell;
          dg_ins = g.Netlist.inputs;
          dg_out = g.Netlist.output;
          dg_level = nl.Netlist.level.(g.Netlist.gate_id);
        })
      nl.Netlist.gates
  in
  let max_level = Array.fold_left (fun acc g -> max acc g.dg_level) 0 gates in
  let per_level = Array.make (max_level + 1) 0 in
  Array.iter (fun g -> per_level.(g.dg_level) <- per_level.(g.dg_level) + 1) gates;
  let driver_gate =
    Array.map
      (function Netlist.Driver_gate g -> g | Netlist.Driver_input | Netlist.Driver_flop _ -> -1)
      nl.Netlist.driver
  in
  let is_q = Array.make nw false in
  let flop_q = Array.make nf 0 in
  Array.iter
    (fun (f : Netlist.flop) ->
      is_q.(f.Netlist.q) <- true;
      flop_q.(f.Netlist.flop_id) <- f.Netlist.q)
    nl.Netlist.flops;
  {
    nl;
    trace;
    total = Trace.n_cycles trace;
    gates;
    wire_readers = nl.Netlist.readers;
    flop_readers = nl.Netlist.flop_readers;
    driver_gate;
    flop_q;
    is_out = nl.Netlist.is_primary_output;
    is_q;
    flip = Array.make nw 0;
    in_list = Array.make nw false;
    dirty = Array.make nw 0;
    n_dirty = 0;
    buckets = Array.map (fun n -> Array.make (max n 1) 0) per_level;
    bucket_n = Array.make (max_level + 1) 0;
    scheduled = Array.make (max ng 1) false;
    latch_flop = Array.make (max nf 1) 0;
    latch_word = Array.make (max nf 1) 0;
    latch_n = 0;
    scratch = Array.make (max Cell.max_arity 1) 0;
    row = Trace.row_bytes trace ~cycle:0;
    devices_rev = [];
    devices_ord = None;
    drive_changed = false;
    cyc = 0;
  }


let devices t =
  match t.devices_ord with
  | Some ds -> ds
  | None ->
    let ds = List.rev t.devices_rev in
    t.devices_ord <- Some ds;
    ds

let add_device t d =
  t.devices_rev <- d :: t.devices_rev;
  t.devices_ord <- None

let golden t w = Char.code (Bytes.unsafe_get t.row (w lsr 3)) land (1 lsl (w land 7)) <> 0
let flip_word t w = t.flip.(w)
let faulty t w ~lane = (Array.unsafe_get t.flip w lsr lane) land 1 <> 0 <> golden t w

let schedule t gid =
  if not (Array.unsafe_get t.scheduled gid) then begin
    Array.unsafe_set t.scheduled gid true;
    let lvl = (Array.unsafe_get t.gates gid).dg_level in
    let n = Array.unsafe_get t.bucket_n lvl in
    (Array.unsafe_get t.buckets lvl).(n) <- gid;
    Array.unsafe_set t.bucket_n lvl (n + 1)
  end

(* Rewrite one wire's flip word, maintaining the dirty set and the
   schedule: readers re-evaluate on both edges (a lane going clean can
   clean the output's lane too). Deliberately no per-lane work here —
   this is the innermost write of the sweep; the per-lane divergence
   masks are recovered by scanning the dirty list on demand. *)
let set_flip_word t w nf =
  let old = Array.unsafe_get t.flip w in
  if old <> nf then begin
    Array.unsafe_set t.flip w nf;
    if nf <> 0 && not t.in_list.(w) then begin
      t.in_list.(w) <- true;
      t.dirty.(t.n_dirty) <- w;
      t.n_dirty <- t.n_dirty + 1
    end;
    let rs = t.wire_readers.(w) in
    for i = 0 to Array.length rs - 1 do
      schedule t (Array.unsafe_get rs i)
    done
  end

(* One word-parallel evaluation classifies every lane: lanes whose
   inputs are all clean see the golden pattern and produce the golden
   output, so their flip bit falls out zero for free. *)
let eval_gate t gid =
  let g = Array.unsafe_get t.gates gid in
  let ins = g.dg_ins in
  let scratch = t.scratch in
  for j = 0 to Array.length ins - 1 do
    let w = Array.unsafe_get ins j in
    Array.unsafe_set scratch j (splat (golden t w) lxor Array.unsafe_get t.flip w)
  done;
  let fout = g.dg_eval scratch in
  set_flip_word t g.dg_out (fout lxor splat (golden t g.dg_out))

(* Drain the schedule level by level. A gate's readers sit at strictly
   higher levels (Netlist invariant), so one pass settles all
   combinational fallout of the current flips. *)
let sweep t =
  let buckets = t.buckets in
  for lvl = 0 to Array.length buckets - 1 do
    let b = Array.unsafe_get buckets lvl in
    let n = Array.unsafe_get t.bucket_n lvl in
    Array.unsafe_set t.bucket_n lvl 0;
    for i = 0 to n - 1 do
      let gid = Array.unsafe_get b i in
      Array.unsafe_set t.scheduled gid false;
      eval_gate t gid
    done
  done

(* Lanes a device must recompute: those whose internal state diverges
   from golden plus those with a flip on any port wire (a stale flip on
   a write port can only be cleared by the device re-driving it). *)
let device_mask t d =
  let acc = ref (d.db_dirty ()) in
  let watch = d.db_watch in
  for i = 0 to Array.length watch - 1 do
    acc := !acc lor t.flip.(watch.(i))
  done;
  !acc

let max_device_rounds = 5

(* Called by device comb hooks: assert the faulty port word for the
   lanes in [mask], leaving the other lanes' flip bits untouched. *)
let drive_masked t w ~mask fword =
  let old = t.flip.(w) in
  let nf = (old land lnot mask) lor ((fword lxor splat (golden t w)) land mask) in
  if nf <> old then begin
    set_flip_word t w nf;
    t.drive_changed <- true
  end

(* Settle the current cycle: refresh stale flip words against this
   cycle's golden row, then run gates and devices to a fixed point —
   the delta image of [Sim.eval] for every lane at once. *)
let propagate t =
  t.row <- Trace.row_bytes t.trace ~cycle:t.cyc;
  (* Cycle start: every surviving flip word re-schedules its driver (so
     the word is recomputed against the new golden row) and its
     readers; wires that went fully clean leave the dirty set here. *)
  let j = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    let w = t.dirty.(i) in
    if t.flip.(w) <> 0 then begin
      t.dirty.(!j) <- w;
      incr j;
      let dg = t.driver_gate.(w) in
      if dg >= 0 then schedule t dg;
      let rs = t.wire_readers.(w) in
      for k = 0 to Array.length rs - 1 do
        schedule t rs.(k)
      done
    end
    else t.in_list.(w) <- false
  done;
  t.n_dirty <- !j;
  sweep t;
  if t.devices_rev <> [] then begin
    let running = ref true in
    let rounds = ref 0 in
    while !running do
      t.drive_changed <- false;
      List.iter
        (fun d ->
          let m = device_mask t d in
          if m <> 0 then d.db_comb m)
        (devices t);
      if t.drive_changed then begin
        incr rounds;
        if !rounds > max_device_rounds then
          failwith "Deltabatch.propagate: device inputs failed to stabilize";
        sweep t
      end
      else running := false
    done
  end

(* Clock edge. Golden latches D into Q, so each Q's flip word for the
   next cycle is exactly its D's flip word this cycle — no golden
   lookup crosses the row boundary. Devices clock unconditionally: a
   clean device's clock is O(1) golden replay. *)
let latch t =
  List.iter (fun d -> d.db_clock ()) (devices t);
  (* Phase A: snapshot the flops latching a flipped D before any word
     changes (a Q wire may itself be another flop's D). *)
  t.latch_n <- 0;
  for i = 0 to t.n_dirty - 1 do
    let w = t.dirty.(i) in
    let fw = t.flip.(w) in
    if fw <> 0 then begin
      let frs = t.flop_readers.(w) in
      for k = 0 to Array.length frs - 1 do
        t.latch_flop.(t.latch_n) <- frs.(k);
        t.latch_word.(t.latch_n) <- fw;
        t.latch_n <- t.latch_n + 1
      done
    end
  done;
  (* Phase B: clear every flipped Q; Phase C: install the captured D
     words. Gate-output words go stale here by design — the next
     [propagate] refreshes them against the new golden row. *)
  for i = 0 to t.n_dirty - 1 do
    let w = t.dirty.(i) in
    if t.flip.(w) <> 0 && t.is_q.(w) then set_flip_word t w 0
  done;
  for i = 0 to t.latch_n - 1 do
    let q = t.flop_q.(t.latch_flop.(i)) in
    set_flip_word t q t.latch_word.(i)
  done;
  t.cyc <- t.cyc + 1

(* Reset all delta state and position the kernel at the start of
   [cycle], ready for a fresh pass: every lane is bit-exact golden
   until the first [flip_flop_lane]/[drive_masked]. *)
let attach t ~cycle =
  if cycle < 0 || cycle >= t.total then invalid_arg "Deltabatch.attach: cycle out of range";
  for i = 0 to t.n_dirty - 1 do
    let w = t.dirty.(i) in
    t.flip.(w) <- 0;
    t.in_list.(w) <- false
  done;
  t.n_dirty <- 0;
  for lvl = 0 to Array.length t.buckets - 1 do
    let b = t.buckets.(lvl) in
    for i = 0 to t.bucket_n.(lvl) - 1 do
      t.scheduled.(b.(i)) <- false
    done;
    t.bucket_n.(lvl) <- 0
  done;
  t.drive_changed <- false;
  t.cyc <- cycle;
  t.row <- Trace.row_bytes t.trace ~cycle;
  List.iter (fun d -> d.db_seek cycle) (devices t)

let check_lane lane =
  if lane < 0 || lane >= n_lanes then invalid_arg "Deltabatch: lane out of range"

let flip_flop_lane t fid ~lane =
  if fid < 0 || fid >= Netlist.n_flops t.nl then
    invalid_arg "Deltabatch.flip_flop_lane: bad flop id";
  check_lane lane;
  let q = t.flop_q.(fid) in
  set_flip_word t q (t.flip.(q) lxor (1 lsl lane))

(* "Flip if not flipped": set the Q bit of every lane in [mask], so
   those lanes hold the complement of golden whatever they latched. *)
let force_flop_lanes t fid ~mask =
  if fid < 0 || fid >= Netlist.n_flops t.nl then
    invalid_arg "Deltabatch.force_flop_lanes: bad flop id";
  let q = t.flop_q.(fid) in
  set_flip_word t q (t.flip.(q) lor mask)

(* Return one lane to bit-exact golden: clear its bit from every dirty
   wire and forget its device divergence. Safe at any retirement point
   (all of them sit between [propagate] and [latch], or after the final
   latch): the lane's state is then exactly the golden trace, so no
   re-evaluation is needed, and nothing stale can leak back in through
   the latch. *)
let wipe_lane t ~lane =
  check_lane lane;
  let m = 1 lsl lane in
  for i = 0 to t.n_dirty - 1 do
    let w = t.dirty.(i) in
    let v = t.flip.(w) in
    if v land m <> 0 then set_flip_word t w (v land lnot m)
  done;
  List.iter (fun d -> d.db_reset ~lane) (devices t)

let devices_dirty_mask t = List.fold_left (fun acc d -> acc lor d.db_dirty ()) 0 (devices t)

(* The divergence masks are one word-OR scan of the dirty list (stale
   entries carry a zero flip word and contribute nothing). *)
let flips_mask t =
  let acc = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    acc := !acc lor Array.unsafe_get t.flip (Array.unsafe_get t.dirty i)
  done;
  !acc

let masked_mask t sel =
  let acc = ref 0 in
  for i = 0 to t.n_dirty - 1 do
    let w = Array.unsafe_get t.dirty i in
    if Array.unsafe_get sel w then acc := !acc lor Array.unsafe_get t.flip w
  done;
  !acc

let out_mask t = masked_mask t t.is_out
let q_mask t = masked_mask t t.is_q
let live_mask t = flips_mask t lor devices_dirty_mask t

let device_diffs t ~lane =
  check_lane lane;
  List.map (fun d -> (d.db_name, d.db_diffs ~lane)) (devices t)
