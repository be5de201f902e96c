module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Deltasim = Pruning_sim.Deltasim
module Deltabatch = Pruning_sim.Deltabatch
module Trace = Pruning_sim.Trace

type backing = int array

let read_port (port : Netlist.port) (read : Sim.reader) =
  let v = ref 0 in
  Array.iteri (fun i w -> if read w then v := !v lor (1 lsl i)) port.Netlist.port_wires;
  !v

let write_port (port : Netlist.port) (write : Sim.writer) value =
  Array.iteri (fun i w -> write w (value land (1 lsl i) <> 0)) port.Netlist.port_wires

let array_saver mem () =
  let copy = Array.copy mem in
  fun () -> Array.blit copy 0 mem 0 (Array.length mem)

let avr_rom nl ~program =
  let addr_port = Netlist.find_output_port nl "pmem_addr" in
  let instr_port = Netlist.find_input_port nl "instr" in
  Sim.pure_device "avr-rom" (fun read write ->
      let addr = read_port addr_port read in
      let word = if addr < Array.length program then program.(addr) else 0 (* NOP *) in
      write_port instr_port write word)

let avr_ram nl =
  let mem = Array.make 256 0 in
  let addr_port = Netlist.find_output_port nl "dmem_addr" in
  let rdata_port = Netlist.find_input_port nl "dmem_rdata" in
  let wdata_port = Netlist.find_output_port nl "dmem_wdata" in
  let wen_port = Netlist.find_output_port nl "dmem_wen" in
  let device =
    {
      Sim.dev_name = "avr-ram";
      dev_comb =
        (fun read write -> write_port rdata_port write mem.(read_port addr_port read land 0xFF));
      dev_clock =
        (fun read ->
          if read_port wen_port read = 1 then
            mem.(read_port addr_port read land 0xFF) <- read_port wdata_port read land 0xFF);
      dev_save = array_saver mem;
    }
  in
  (mem, device)

let avr_pins nl ~value =
  let io_port = Netlist.find_input_port nl "io_in" in
  Sim.pure_device "avr-pins" (fun _read write -> write_port io_port write value)

(* ------------------------------------------------------------------ *)
(* Delta devices for the activity-gated kernel.

   The golden device behaviour is already baked into the recorded
   trace, so a delta device only models the *difference* between the
   faulty device and the golden one. ROMs and constant pins are
   stateless: the faulty output is a pure function of the faulty
   address, so a plain recompute-and-drive suffices (and constant pins
   need no delta device at all — their faulty value can never differ).
   RAMs carry state: we keep the golden contents [gram] replayed from
   the trace's write stream (with periodic snapshots so [dd_seek] is
   cheap) plus a sparse [diff] table of addresses where the faulty
   contents diverge. A clean faulty run keeps [diff] empty and clocks
   in O(1). *)

let read_port_delta (port : Netlist.port) ds =
  let v = ref 0 in
  Array.iteri
    (fun i w -> if Deltasim.faulty ds w then v := !v lor (1 lsl i))
    port.Netlist.port_wires;
  !v

let write_port_delta (port : Netlist.port) ds value =
  Array.iteri
    (fun i w -> Deltasim.drive ds w (value land (1 lsl i) <> 0))
    port.Netlist.port_wires

let trace_port trace (port : Netlist.port) ~cycle =
  let v = ref 0 in
  Array.iteri
    (fun i w -> if Trace.get trace ~cycle w then v := !v lor (1 lsl i))
    port.Netlist.port_wires;
  !v

let avr_rom_delta ds nl ~program =
  let addr_port = Netlist.find_output_port nl "pmem_addr" in
  let instr_port = Netlist.find_input_port nl "instr" in
  {
    Deltasim.dd_name = "avr-rom";
    dd_comb =
      (fun () ->
        let addr = read_port_delta addr_port ds in
        let word = if addr < Array.length program then program.(addr) else 0 (* NOP *) in
        write_port_delta instr_port ds word);
    dd_clock = (fun () -> ());
    dd_seek = (fun _ -> ());
    dd_clean = (fun () -> true);
    dd_diffs = (fun () -> []);
    dd_watch = Array.append addr_port.Netlist.port_wires instr_port.Netlist.port_wires;
  }

(* Shared golden-replay RAM: [index] maps a port address to a cell,
   [mask] truncates write data, [init_image] is the power-on contents.
   Golden writes are prescanned from the trace once; snapshots every
   [snap_interval] cycles bound the replay cost of a mid-trace seek. *)
let delta_ram ds ~name ~trace ~index ~mask ~init_image ~addr_port ~rdata_port ~wdata_port
    ~wen_port =
  let size = Array.length init_image in
  let total = Trace.n_cycles trace in
  let g_wen = Array.make total false in
  let g_addr = Array.make total 0 in
  let g_data = Array.make total 0 in
  for c = 0 to total - 1 do
    g_wen.(c) <- trace_port trace wen_port ~cycle:c = 1;
    g_addr.(c) <- index (trace_port trace addr_port ~cycle:c);
    g_data.(c) <- trace_port trace wdata_port ~cycle:c land mask
  done;
  let snap_interval = 64 in
  let n_snaps = (total + snap_interval - 1) / snap_interval in
  let snaps = Array.make (max n_snaps 1) [||] in
  let state = Array.copy init_image in
  for c = 0 to total - 1 do
    if c mod snap_interval = 0 then snaps.(c / snap_interval) <- Array.copy state;
    if g_wen.(c) then state.(g_addr.(c)) <- g_data.(c)
  done;
  if snaps.(0) = [||] then snaps.(0) <- Array.copy init_image;
  let gram = Array.copy init_image in
  let diff : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let cur = ref 0 in
  let faulty_at a = match Hashtbl.find_opt diff a with Some v -> v | None -> gram.(a) in
  {
    Deltasim.dd_name = name;
    dd_comb =
      (fun () ->
        let a = index (read_port_delta addr_port ds) in
        write_port_delta rdata_port ds (faulty_at a));
    dd_clock =
      (fun () ->
        let c = !cur in
        if c < total then begin
          let fwen = read_port_delta wen_port ds = 1 in
          let faddr = index (read_port_delta addr_port ds) in
          let fdata = read_port_delta wdata_port ds land mask in
          let gwen = g_wen.(c) and gaddr = g_addr.(c) and gdata = g_data.(c) in
          if fwen || gwen then begin
            (* New faulty value at the golden write address, computed
               before any mutation (the faulty write may hit it too). *)
            let nf_gaddr =
              if gwen then if fwen && faddr = gaddr then fdata else faulty_at gaddr else 0
            in
            if gwen then gram.(gaddr) <- gdata;
            if fwen then
              if fdata = gram.(faddr) then Hashtbl.remove diff faddr
              else Hashtbl.replace diff faddr fdata;
            if gwen && ((not fwen) || faddr <> gaddr) then
              if nf_gaddr = gram.(gaddr) then Hashtbl.remove diff gaddr
              else Hashtbl.replace diff gaddr nf_gaddr
          end
        end;
        incr cur);
    dd_seek =
      (fun cycle ->
        Hashtbl.reset diff;
        let s = cycle / snap_interval in
        Array.blit snaps.(s) 0 gram 0 size;
        for c = s * snap_interval to cycle - 1 do
          if g_wen.(c) then gram.(g_addr.(c)) <- g_data.(c)
        done;
        cur := cycle);
    dd_clean = (fun () -> Hashtbl.length diff = 0);
    dd_diffs =
      (fun () -> Hashtbl.fold (fun a v acc -> (a, v) :: acc) diff [] |> List.sort compare);
    dd_watch =
      Array.concat
        [
          addr_port.Netlist.port_wires;
          rdata_port.Netlist.port_wires;
          wdata_port.Netlist.port_wires;
          wen_port.Netlist.port_wires;
        ];
  }

let avr_ram_delta ds nl ~trace =
  delta_ram ds ~name:"avr-ram" ~trace
    ~index:(fun a -> a land 0xFF)
    ~mask:0xFF ~init_image:(Array.make 256 0)
    ~addr_port:(Netlist.find_output_port nl "dmem_addr")
    ~rdata_port:(Netlist.find_input_port nl "dmem_rdata")
    ~wdata_port:(Netlist.find_output_port nl "dmem_wdata")
    ~wen_port:(Netlist.find_output_port nl "dmem_wen")

let msp_memory_delta ds nl ~trace ~words ~program =
  if Array.length program > words then invalid_arg "Memory.msp_memory_delta: program too large";
  let init_image = Array.make words 0 in
  Array.blit program 0 init_image 0 (Array.length program);
  delta_ram ds ~name:"msp-memory" ~trace
    ~index:(fun a -> a lsr 1 mod words)
    ~mask:0xFFFF ~init_image
    ~addr_port:(Netlist.find_output_port nl "mem_addr")
    ~rdata_port:(Netlist.find_input_port nl "mem_rdata")
    ~wdata_port:(Netlist.find_output_port nl "mem_wdata")
    ~wen_port:(Netlist.find_output_port nl "mem_wen")

(* ------------------------------------------------------------------ *)
(* Lane-masked delta devices for the batched activity-gated kernel.

   The many-lane form of the delta family above: the golden device
   behaviour is baked into the recorded trace (shared by every lane),
   and each lane models only its own difference from it. The golden
   RAM replay — prescanned write stream, periodic snapshots, the
   [gram] image — is paid once per clock for all lanes; divergence
   lives in per-lane sparse diff tables whose union is summarized in a
   dirty mask so a pass full of re-converged lanes clocks in O(1). *)

let rec lsb_index v i = if v land 1 = 1 then i else lsb_index (v lsr 1) (i + 1)

let read_port_delta_batch_lane (port : Netlist.port) db ~lane =
  let v = ref 0 in
  Array.iteri
    (fun i w -> if Deltabatch.faulty db w ~lane then v := !v lor (1 lsl i))
    port.Netlist.port_wires;
  !v

let golden_port (port : Netlist.port) db =
  let v = ref 0 in
  Array.iteri (fun i w -> if Deltabatch.golden db w then v := !v lor (1 lsl i)) port.Netlist.port_wires;
  !v

let port_flips (port : Netlist.port) db =
  Array.fold_left (fun acc w -> acc lor Deltabatch.flip_word db w) 0 port.Netlist.port_wires

(* Gather per-lane faulty port values into packed words and drive only
   the lanes in [mask] — the batch-delta transpose path. *)
let write_port_delta_batch (port : Netlist.port) db ~mask f =
  let wires = port.Netlist.port_wires in
  let width = Array.length wires in
  let words = Array.make width 0 in
  let m = ref mask in
  while !m <> 0 do
    let lane = lsb_index !m 0 in
    m := !m land (!m - 1);
    let v = f lane in
    for i = 0 to width - 1 do
      if (v lsr i) land 1 = 1 then words.(i) <- words.(i) lor (1 lsl lane)
    done
  done;
  Array.iteri (fun i w -> Deltabatch.drive_masked db w ~mask words.(i)) wires

let avr_rom_delta_batch db nl ~program =
  let addr_port = Netlist.find_output_port nl "pmem_addr" in
  let instr_port = Netlist.find_input_port nl "instr" in
  let fetch addr = if addr < Array.length program then program.(addr) else 0 (* NOP *) in
  {
    Deltabatch.db_name = "avr-rom";
    db_comb =
      (fun mask ->
        write_port_delta_batch instr_port db ~mask (fun lane ->
            fetch (read_port_delta_batch_lane addr_port db ~lane)));
    db_clock = (fun () -> ());
    db_seek = (fun _ -> ());
    db_dirty = (fun () -> 0);
    db_diffs = (fun ~lane:_ -> []);
    db_reset = (fun ~lane:_ -> ());
    db_watch = Array.append addr_port.Netlist.port_wires instr_port.Netlist.port_wires;
  }

(* The golden replay tables of a batch RAM: the prescanned write stream
   and an image every [snap_interval] cycles. They are immutable and a
   function of the trace, the device and its initial image, so every
   batch worker built over one trace — a campaign builds one per domain
   — shares one copy. The last tables built are kept for as long as
   their trace is alive, and are rebuilt if it has grown since. *)
type golden_ram = {
  g_wen : bool array;
  g_addr : int array;
  g_data : int array;
  snaps : int array array;
}

let snap_interval = 64

let last_golden_ram : (string * int array * (Trace.t, golden_ram) Ephemeron.K1.t) option Atomic.t =
  Atomic.make None

let golden_ram_tables ~name ~trace ~index ~vmask ~init_image ~addr_port ~wdata_port ~wen_port =
  let cached =
    match Atomic.get last_golden_ram with
    | Some (n, image, e) when n = name && image = init_image -> Ephemeron.K1.query e trace
    | _ -> None
  in
  let total = Trace.n_cycles trace in
  match cached with
  | Some g when Array.length g.g_wen = total -> g
  | Some _ | None ->
    let g_wen = Array.make total false in
    let g_addr = Array.make total 0 in
    let g_data = Array.make total 0 in
    for c = 0 to total - 1 do
      g_wen.(c) <- trace_port trace wen_port ~cycle:c = 1;
      g_addr.(c) <- index (trace_port trace addr_port ~cycle:c);
      g_data.(c) <- trace_port trace wdata_port ~cycle:c land vmask
    done;
    let n_snaps = (total + snap_interval - 1) / snap_interval in
    let snaps = Array.make (max n_snaps 1) [||] in
    let state = Array.copy init_image in
    for c = 0 to total - 1 do
      if c mod snap_interval = 0 then snaps.(c / snap_interval) <- Array.copy state;
      if g_wen.(c) then state.(g_addr.(c)) <- g_data.(c)
    done;
    if snaps.(0) = [||] then snaps.(0) <- Array.copy init_image;
    let g = { g_wen; g_addr; g_data; snaps } in
    Atomic.set last_golden_ram (Some (name, init_image, Ephemeron.K1.make trace g));
    g

(* Shared golden-replay RAM with per-lane diffs: the batch mirror of
   [delta_ram]. One golden write stream and one [gram] image serve all
   lanes; a lane participates in a clock edge only when its write
   ports are flipped or its diff table is non-empty while the golden
   run writes (the golden write may create or clear its divergence at
   the written address). Each participating lane follows exactly the
   scalar [delta_ram] update — faulty value at the golden write
   address computed before the golden write mutates [gram] — so the
   per-lane diff tables are bit-identical to the scalar engine's. *)
let delta_ram_batch db ~name ~trace ~index ~mask:vmask ~init_image ~addr_port ~rdata_port
    ~wdata_port ~wen_port =
  let size = Array.length init_image in
  let total = Trace.n_cycles trace in
  let { g_wen; g_addr; g_data; snaps } =
    golden_ram_tables ~name ~trace ~index ~vmask ~init_image ~addr_port ~wdata_port ~wen_port
  in
  let gram = Array.copy init_image in
  let diffs = Array.init Deltabatch.n_lanes (fun _ -> Hashtbl.create 8) in
  (* Reverse index of the per-lane diff tables: address -> mask of
     lanes holding a diff there. It is what lets the per-cycle hooks
     touch only the lanes an access can actually affect, instead of
     every dirty lane. *)
  let addr_lanes : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let dirty_mask = ref 0 in
  let cur = ref 0 in
  let faulty_at lane a =
    match Hashtbl.find_opt diffs.(lane) a with
    | Some v -> v
    | None -> gram.(a)
  in
  let lanes_at a = match Hashtbl.find_opt addr_lanes a with Some m -> m | None -> 0 in
  let diff_put lane a v =
    if not (Hashtbl.mem diffs.(lane) a) then Hashtbl.replace addr_lanes a (lanes_at a lor (1 lsl lane));
    Hashtbl.replace diffs.(lane) a v;
    dirty_mask := !dirty_mask lor (1 lsl lane)
  in
  let diff_drop lane a =
    if Hashtbl.mem diffs.(lane) a then begin
      Hashtbl.remove diffs.(lane) a;
      let m = lanes_at a land lnot (1 lsl lane) in
      if m = 0 then Hashtbl.remove addr_lanes a else Hashtbl.replace addr_lanes a m;
      if Hashtbl.length diffs.(lane) = 0 then dirty_mask := !dirty_mask land lnot (1 lsl lane)
    end
  in
  (* Per-lane scratch for the clock edge's two-phase update. *)
  let l_wen = Array.make Deltabatch.n_lanes false in
  let l_addr = Array.make Deltabatch.n_lanes 0 in
  let l_data = Array.make Deltabatch.n_lanes 0 in
  let l_nfg = Array.make Deltabatch.n_lanes 0 in
  {
    Deltabatch.db_name = name;
    db_comb =
      (fun mask ->
        (* A lane with clean address-port wires reads at the golden
           address; it can diverge on rdata only through a diff entry
           there. So the per-lane transpose is confined to lanes whose
           address really flipped ([hard]) or whose diff table covers
           the golden address ([hits]); every other masked lane reads
           golden data, and only those with stale rdata flips need a
           word-wide clear. *)
        let aflips = port_flips addr_port db in
        let hard = mask land aflips in
        let easy = mask land lnot aflips in
        let ga = index (golden_port addr_port db) in
        let hits = lanes_at ga land easy in
        let recompute = hard lor hits in
        if recompute <> 0 then
          write_port_delta_batch rdata_port db ~mask:recompute (fun lane ->
              if hard land (1 lsl lane) <> 0 then
                faulty_at lane (index (read_port_delta_batch_lane addr_port db ~lane))
              else faulty_at lane ga);
        let stale = easy land lnot hits land port_flips rdata_port db in
        if stale <> 0 then
          Array.iter
            (fun w ->
              Deltabatch.drive_masked db w ~mask:stale (if Deltabatch.golden db w then -1 else 0))
            rdata_port.Netlist.port_wires);
    db_clock =
      (fun () ->
        let c = !cur in
        if c < total then begin
          let gwen = g_wen.(c) and gaddr = g_addr.(c) and gdata = g_data.(c) in
          let pf =
            port_flips wen_port db lor port_flips addr_port db lor port_flips wdata_port db
          in
          if pf <> 0 then begin
            (* Phase 1: read every port-flipped lane's faulty write
               port and its pre-write faulty value at the golden write
               address. *)
            let m = ref pf in
            while !m <> 0 do
              let lane = lsb_index !m 0 in
              m := !m land (!m - 1);
              let fwen = read_port_delta_batch_lane wen_port db ~lane = 1 in
              let faddr = index (read_port_delta_batch_lane addr_port db ~lane) in
              let fdata = read_port_delta_batch_lane wdata_port db ~lane land vmask in
              l_wen.(lane) <- fwen;
              l_addr.(lane) <- faddr;
              l_data.(lane) <- fdata;
              l_nfg.(lane) <-
                (if gwen then if fwen && faddr = gaddr then fdata else faulty_at lane gaddr
                 else 0)
            done;
            (* Phase 2: the one shared golden write, then each lane's
               faulty write and diff update against the new [gram]. A
               clean-port dirty lane performs the identical write the
               golden machine does, so its only possible state change
               is a diff at the golden address being overwritten away. *)
            if gwen then begin
              gram.(gaddr) <- gdata;
              let m = ref (lanes_at gaddr land lnot pf) in
              while !m <> 0 do
                let lane = lsb_index !m 0 in
                m := !m land (!m - 1);
                diff_drop lane gaddr
              done
            end;
            let m = ref pf in
            while !m <> 0 do
              let lane = lsb_index !m 0 in
              m := !m land (!m - 1);
              if l_wen.(lane) then begin
                let faddr = l_addr.(lane) and fdata = l_data.(lane) in
                if fdata = gram.(faddr) then diff_drop lane faddr else diff_put lane faddr fdata
              end;
              if gwen && ((not l_wen.(lane)) || l_addr.(lane) <> gaddr) then
                if l_nfg.(lane) = gram.(gaddr) then diff_drop lane gaddr
                else diff_put lane gaddr l_nfg.(lane)
            done
          end
          else begin
            if gwen then begin
              gram.(gaddr) <- gdata;
              (* No lane has a flipped write port: every lane writes
                 [gdata] at [gaddr] exactly like golden, clearing any
                 diff at that address. *)
              let m = ref (lanes_at gaddr) in
              while !m <> 0 do
                let lane = lsb_index !m 0 in
                m := !m land (!m - 1);
                diff_drop lane gaddr
              done
            end
          end
        end;
        incr cur);
    db_seek =
      (fun cycle ->
        Array.iter Hashtbl.reset diffs;
        Hashtbl.reset addr_lanes;
        dirty_mask := 0;
        let s = cycle / snap_interval in
        Array.blit snaps.(s) 0 gram 0 size;
        for c = s * snap_interval to cycle - 1 do
          if g_wen.(c) then gram.(g_addr.(c)) <- g_data.(c)
        done;
        cur := cycle);
    db_dirty = (fun () -> !dirty_mask);
    db_diffs =
      (fun ~lane ->
        Hashtbl.fold (fun a v acc -> (a, v) :: acc) diffs.(lane) [] |> List.sort compare);
    db_reset =
      (fun ~lane ->
        Hashtbl.iter
          (fun a _ ->
            let m = lanes_at a land lnot (1 lsl lane) in
            if m = 0 then Hashtbl.remove addr_lanes a else Hashtbl.replace addr_lanes a m)
          diffs.(lane);
        Hashtbl.reset diffs.(lane);
        dirty_mask := !dirty_mask land lnot (1 lsl lane));
    db_watch =
      Array.concat
        [
          addr_port.Netlist.port_wires;
          rdata_port.Netlist.port_wires;
          wdata_port.Netlist.port_wires;
          wen_port.Netlist.port_wires;
        ];
  }

let avr_ram_delta_batch db nl ~trace =
  delta_ram_batch db ~name:"avr-ram" ~trace
    ~index:(fun a -> a land 0xFF)
    ~mask:0xFF ~init_image:(Array.make 256 0)
    ~addr_port:(Netlist.find_output_port nl "dmem_addr")
    ~rdata_port:(Netlist.find_input_port nl "dmem_rdata")
    ~wdata_port:(Netlist.find_output_port nl "dmem_wdata")
    ~wen_port:(Netlist.find_output_port nl "dmem_wen")

let msp_memory_delta_batch db nl ~trace ~words ~program =
  if Array.length program > words then
    invalid_arg "Memory.msp_memory_delta_batch: program too large";
  let init_image = Array.make words 0 in
  Array.blit program 0 init_image 0 (Array.length program);
  delta_ram_batch db ~name:"msp-memory" ~trace
    ~index:(fun a -> a lsr 1 mod words)
    ~mask:0xFFFF ~init_image
    ~addr_port:(Netlist.find_output_port nl "mem_addr")
    ~rdata_port:(Netlist.find_input_port nl "mem_rdata")
    ~wdata_port:(Netlist.find_output_port nl "mem_wdata")
    ~wen_port:(Netlist.find_output_port nl "mem_wen")

let msp_memory nl ~words ~program =
  if Array.length program > words then invalid_arg "Memory.msp_memory: program too large";
  let mem = Array.make words 0 in
  Array.blit program 0 mem 0 (Array.length program);
  let addr_port = Netlist.find_output_port nl "mem_addr" in
  let rdata_port = Netlist.find_input_port nl "mem_rdata" in
  let wdata_port = Netlist.find_output_port nl "mem_wdata" in
  let wen_port = Netlist.find_output_port nl "mem_wen" in
  let word_index read = read_port addr_port read lsr 1 mod words in
  let device =
    {
      Sim.dev_name = "msp-memory";
      dev_comb = (fun read write -> write_port rdata_port write mem.(word_index read));
      dev_clock =
        (fun read ->
          if read_port wen_port read = 1 then
            mem.(word_index read) <- read_port wdata_port read land 0xFFFF);
      dev_save = array_saver mem;
    }
  in
  (mem, device)
