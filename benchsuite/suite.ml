(* Named-workload benchmark of the whole pipeline, netlist to verdict
   table, with per-layer attribution from a traced run.

   Usage (from the repository root):
     dune exec --root . -- ./benchsuite/suite.exe
       [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out DIR]

   Without --workload every workload runs. Each workload runs in a child
   process of its own (this binary re-executed with --child), so GC state
   and heap peaks do not leak between workloads. The seed (default 7;
   11 is held out for claims) feeds only the sample draw.

   Untraced (--trace 0, the default): repetitions until --seconds have
   passed (required; BENCHMARK.json's run_seconds), each timed end to
   end on its own draw; the end-to-end metrics are the medians. Traced
   (--trace 1): one traced repetition of every workload, whatever
   --workload says, because the cross-workload and service metrics need
   all four; spans go to DIR/trace-NAME.json (Chrome trace-event format)
   and self times to DIR/selftime-NAME.txt.

   Every metric is printed as "workload metric value unit (median, min,
   max, IQR over R)" and written to DIR/results.json; the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}. Any failed correctness check makes the exit code 1. *)

module Mono = Pruning_util.Mono
module Campaign = Pruning_fi.Campaign

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;  (** required untraced *)
  trace : bool;
  smoke : bool;
  out : string;
  child : string option;
  benchmark_json : string option;
}

let usage () =
  prerr_endline
    "usage: suite.exe [--workload NAME] [--seed S] --seconds T [--trace 0|1] [--smoke] [--out DIR] \
     [--benchmark-json FILE]\n\
     (--seconds may be left out with --trace 1)";
  exit 2

let parse argv =
  let o =
    ref
      {
        workload = None;
        seed = 7;
        seconds = None;
        trace = false;
        smoke = false;
        out = ".benchsuite";
        child = None;
        benchmark_json = None;
      }
  in
  let int_of s = match int_of_string_opt s with Some n when n >= 0 -> n | _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o := { !o with workload = Some v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_of v }; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> o := { !o with seconds = Some s }
      | _ -> usage ());
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--trace" :: rest -> o := { !o with trace = true }; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | "--out" :: v :: rest -> o := { !o with out = v }; go rest
    | "--child" :: v :: rest -> o := { !o with child = Some v }; go rest
    | "--benchmark-json" :: v :: rest -> o := { !o with benchmark_json = Some v }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if (not !o.trace) && !o.seconds = None then usage ();
  !o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* ------------------------------------------------------------------ *)
(* Child: one workload in this process. Results go to stdout as lines  *)
(*   e2e NAME UNIT VALUE | layer NAME UNIT VALUE | stats B L S K        *)
(*   check ok|FAIL TEXT  | count ATTEMPTED FAILED                       *)

let emit kind name unit v = Printf.printf "%s %s %s %.17g\n%!" kind name unit v

let emit_e2e (r : Workloads.rep) =
  emit "e2e" "wall_s" "s" r.Workloads.wall_s;
  emit "e2e" "setup_s" "s" r.Workloads.setup_s;
  emit "e2e" "inj_per_s" "inj/s" (Workloads.inj_per_s r)

(* Children of each rep must account for its wall time: the rep's own
   self time (time in no named layer) stays under 5 %. *)
let rep_gap_pct () =
  let all = Span.recorded () in
  List.fold_left
    (fun acc (s : Span.span) ->
      if s.Span.name = "rep" then max acc (100. *. Span.self_time all s /. (s.Span.stop -. s.Span.start))
      else acc)
    0. all

let write_trace o (w : Workloads.t) =
  Span.write_chrome ~workload:w.Workloads.name
    (Filename.concat o.out (Printf.sprintf "trace-%s.json" w.Workloads.name));
  let oc = open_out (Filename.concat o.out (Printf.sprintf "selftime-%s.txt" w.Workloads.name)) in
  Printf.fprintf oc "%-20s %5s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, total, self) -> Printf.fprintf oc "%-20s %5d %12.6f %12.6f\n" name n total self)
    (Span.self_times ());
  close_out oc

(* Rep [r] of a run draws its faults with seed [seed + 100000 r]: every
   rep is a different fault list, so the median over a run's reps damps
   the cost of an unlucky draw instead of repeating it. Rep 0 uses the
   seed itself. *)
let sample_seed o r = o.seed + (100_000 * r)

let run_child o name =
  let w =
    match List.find_opt (fun w -> w.Workloads.name = name) (Workloads.all ~smoke:o.smoke) with
    | Some w -> w
    | None -> usage ()
  in
  let tmp = Filename.concat o.out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  let checks = ref [] in
  let check ok msg = checks := (ok, msg) :: !checks in
  let run ?(check_k = 0) ~traced r =
    (sample_seed o r, Workloads.run_rep w ~seed:(sample_seed o r) ~traced ~tmp ~check_k)
  in
  let check_k = Workloads.check_k w in
  let reps =
    if o.trace then begin
      (* The tracing overhead is measured on the workload that records
         the most per-fault observations (early retirements), against
         untraced reps of the same draw on both sides so warm-up does
         not bias it. *)
      let overhead = w.Workloads.name = "avr-fib-seu" in
      let before = if overhead then Some (snd (run ~traced:false 0)) else None in
      Span.enabled := true;
      let r = run ~check_k ~traced:true 0 in
      Span.enabled := false;
      let after = if overhead then Some (snd (run ~traced:false 0)) else None in
      write_trace o w;
      let gap = rep_gap_pct () in
      check (gap <= 5.)
        (Printf.sprintf "%s: rep children account for its wall time (gap %.2f%%)" name gap);
      List.iter (fun (m, unit, v) -> emit "layer" (name ^ "." ^ m) unit v) (snd r).Workloads.layers;
      (match (before, after) with
      | Some (u1 : Workloads.rep), Some (u2 : Workloads.rep) ->
        let untraced = (u1.Workloads.wall_s +. u2.Workloads.wall_s) /. 2. in
        emit "layer" "trace.overhead_pct" "%" (100. *. (((snd r).Workloads.wall_s /. untraced) -. 1.))
      | _ -> ());
      [ r ]
    end
    else begin
      let seconds = Option.get o.seconds in
      let t0 = Mono.now () in
      let rec loop acc =
        let n = List.length acc in
        let more =
          match acc with
          | (_, (last : Workloads.rep)) :: _ -> Mono.now () -. t0 +. last.Workloads.wall_s <= seconds
          | [] -> true
        in
        if more then loop (run ~check_k:(if n = 0 then check_k else 0) ~traced:false n :: acc)
        else List.rev acc
      in
      loop []
    end
  in
  List.iter (fun (_, r) -> emit_e2e r) reps;
  (* At least three set-up samples per run, so setup_s is a median even
     when a single rep fills the run. *)
  if not o.trace then
    for _ = List.length reps + 1 to 3 do
      emit "e2e" "setup_s" "s" (Workloads.setup_only w)
    done;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  emit "e2e" "heap_mb" "MiB" (float_of_int (top * (Sys.word_size / 8)) /. 1048576.);
  List.iter
    (fun (seed, (r : Workloads.rep)) ->
      let s = r.Workloads.stats in
      check
        (s.Campaign.injections = s.Campaign.benign + s.Campaign.latent + s.Campaign.sdc
        && s.Campaign.injections + s.Campaign.skipped + s.Campaign.crashed = w.Workloads.samples)
        (Printf.sprintf "%s: seed %d verdict table covers all %d samples" name seed w.Workloads.samples);
      (match w.Workloads.pinned with
      | Some p when seed = 7 ->
        check
          (Workloads.tuple s = p)
          (Printf.sprintf "%s: seed-7 verdicts %s match the pinned %s" name
             (Workloads.show (Workloads.tuple s))
             (Workloads.show p))
      | _ -> ());
      List.iter (fun (ok, m) -> check ok m) r.Workloads.checks)
    reps;
  (* Differential check, any seed: the first faults of rep 0's draw,
     classified again by an independent engine on a fresh campaign. *)
  let seed0, rep0 = List.hd reps in
  Option.iter
    (fun (b, l, s) ->
      let rb, rl, rs = Workloads.reference w ~seed:seed0 ~k:check_k in
      check
        ((b, l, s) = (rb, rl, rs))
        (Printf.sprintf "%s: first %d faults %d/%d/%d equal the reference engine's %d/%d/%d" name check_k b
           l s rb rl rs))
    rep0.Workloads.first;
  let b, l, s, k = Workloads.tuple rep0.Workloads.stats in
  Printf.printf "stats %d %d %d %d\n" b l s k;
  List.iter
    (fun (ok, m) -> Printf.printf "check %s %s\n" (if ok then "ok" else "FAIL") m)
    (List.rev !checks);
  Printf.printf "count %d %d\n%!"
    (List.length reps * w.Workloads.samples)
    (List.fold_left (fun acc (_, (r : Workloads.rep)) -> acc + r.Workloads.failed) 0 reps);
  Workloads.remove_tree tmp

(* ------------------------------------------------------------------ *)
(* Parent: run the children, aggregate, check, print.                  *)

type child = {
  wname : string;
  e2e : (string * (string * float list)) list;  (** name -> unit, values in order *)
  layers : (string * (string * float list)) list;
  stats : (int * int * int * int) option;
  checks : (bool * string) list;
  attempted : int;
  failed : int;
}

let add_value tbl name unit v =
  match List.assoc_opt name tbl with
  | Some (u, vs) -> (name, (u, vs @ [ v ])) :: List.remove_assoc name tbl
  | None -> tbl @ [ (name, (unit, [ v ])) ]

let spawn o (w : Workloads.t) =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; w.Workloads.name; "--seed"; string_of_int o.seed; "--out"; o.out ]
    @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%.17g" s ] | None -> [])
    @ (if o.trace then [ "--trace"; "1" ] else [])
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let c =
    ref { wname = w.Workloads.name; e2e = []; layers = []; stats = None; checks = []; attempted = 0; failed = 0 }
  in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' line with
       | [ "e2e"; name; unit; v ] -> c := { !c with e2e = add_value !c.e2e name unit (float_of_string v) }
       | [ "layer"; name; unit; v ] ->
         c := { !c with layers = add_value !c.layers name unit (float_of_string v) }
       | [ "stats"; b; l; s; k ] ->
         c := { !c with stats = Some (int_of_string b, int_of_string l, int_of_string s, int_of_string k) }
       | "check" :: verdict :: text ->
         c := { !c with checks = !c.checks @ [ (verdict = "ok", String.concat " " text) ] }
       | [ "count"; a; f ] -> c := { !c with attempted = int_of_string a; failed = int_of_string f }
       | _ -> prerr_endline line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let exited_ok = status = Unix.WEXITED 0 && !c.stats <> None in
  if exited_ok then !c
  else { !c with checks = !c.checks @ [ (false, w.Workloads.name ^ ": child process failed") ] }

let median = function
  | [] -> nan
  | vs ->
    let a = Array.of_list vs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The first-to-third quartile distance as Python's
   statistics.quantiles(values, n=4) computes it (exclusive method). *)
let iqr vs =
  let a = Array.of_list vs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then 0.
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    q 3 -. q 1

let summary vs =
  Printf.sprintf "(median %.6g, min %.6g, max %.6g, IQR %.3g over %d)" (median vs)
    (List.fold_left min infinity vs) (List.fold_left max neg_infinity vs) (iqr vs) (List.length vs)

(* Every "name" inside the BENCHMARK.json array [key]. The file is this
   benchmark's own and flat, so a scan suffices. *)
let json_names text key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i = if i + n > String.length text then None else if String.sub text i n = sub then Some i else go (i + 1) in
    go i
  in
  match find_from 0 (Printf.sprintf "%S" key) with
  | None -> []
  | Some start ->
    let stop = Option.value (find_from start "]") ~default:(String.length text) in
    let rec names i acc =
      match find_from i "\"name\"" with
      | Some j when j < stop ->
        let q1 = String.index_from text (j + 6) '"' in
        let q2 = String.index_from text (q1 + 1) '"' in
        names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    names start []

let json_metric (name, unit, v) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let write_results o children =
  let oc = open_out (Filename.concat o.out "results.json") in
  let series kind tbl =
    String.concat ",\n"
      (List.map
         (fun (name, (unit, vs)) ->
           Printf.sprintf
             "      %S: {\"kind\": %S, \"unit\": %S, \"median\": %.17g, \"iqr\": %.17g, \"values\": [%s]}"
             name kind unit (median vs) (iqr vs)
             (String.concat ", " (List.map (Printf.sprintf "%.17g") vs)))
         tbl)
  in
  Printf.fprintf oc "{\"seed\": %d, \"trace\": %b, \"smoke\": %b, \"workloads\": {\n" o.seed o.trace o.smoke;
  Printf.fprintf oc "%s\n}}\n"
    (String.concat ",\n"
       (List.map
          (fun c ->
            Printf.sprintf "  %S: {\"attempted\": %d, \"failed\": %d, \"metrics\": {\n%s\n  }}" c.wname
              c.attempted c.failed
              (String.concat ",\n"
                 (List.filter (( <> ) "") [ series "end_to_end" c.e2e; series "per_layer" c.layers ])))
          children));
  close_out oc

let run_parent o =
  let workloads = Workloads.all ~smoke:o.smoke in
  let chosen =
    match o.workload with
    | Some n when not (List.exists (fun w -> w.Workloads.name = n) workloads) ->
      Printf.eprintf "unknown workload %s (known: %s)\n" n
        (String.concat ", " (List.map (fun w -> w.Workloads.name) workloads));
      exit 2
    | Some n when not o.trace -> List.filter (fun w -> w.Workloads.name = n) workloads
    | _ -> workloads
  in
  mkdir_p o.out;
  let children = List.map (spawn o) chosen in
  let find n = List.find_opt (fun c -> c.wname = n) children in
  let cross = ref [] in
  (* Loopback classifies avr-fib-seu's exact fault list. *)
  (match (find "avr-fib-seu", find "avr-fib-loopback") with
  | Some { stats = Some a; _ }, Some { stats = Some b; _ } ->
    cross :=
      (a = b, Printf.sprintf "loopback verdicts %s equal avr-fib-seu's %s" (Workloads.show b) (Workloads.show a))
      :: !cross
  | _ -> ());
  let cross_layers =
    match (find "avr-fib-seu", find "avr-fib-loopback") with
    | Some seu, Some lb when o.trace -> (
      let rate c = Option.map (fun (_, vs) -> median vs) (List.assoc_opt "inj_per_s" c.e2e) in
      match (rate seu, rate lb) with
      | Some s, Some l -> [ ("dist.tax_pct", "%", 100. *. (1. -. (l /. s))) ]
      | _ -> [])
    | _ -> []
  in
  (* Report. *)
  List.iter
    (fun c ->
      List.iter
        (fun (name, (unit, vs)) ->
          Printf.printf "%s %s %.6g %s %s\n" c.wname name (median vs) unit (summary vs))
        (c.e2e @ c.layers))
    children;
  List.iter (fun (name, unit, v) -> Printf.printf "suite %s %.6g %s\n" name v unit) cross_layers;
  let e2e_metrics =
    List.concat_map
      (fun c ->
        List.map
          (fun (name, (unit, vs)) ->
            ((if List.length chosen = 1 then name else c.wname ^ "." ^ name), unit, median vs))
          c.e2e)
      children
  in
  let layer_metrics =
    List.concat_map (fun c -> List.map (fun (name, (unit, vs)) -> (name, unit, median vs)) c.layers) children
    @ cross_layers
  in
  (* Smoke: every metric BENCHMARK.json names must have been emitted. *)
  (match o.benchmark_json with
  | None -> ()
  | Some path ->
    let text = In_channel.with_open_bin path In_channel.input_all in
    let names l = List.map (fun (n, _, _) -> n) l in
    List.iter
      (fun n ->
        cross := (List.exists (fun w -> w.Workloads.name = n) workloads, "workload " ^ n ^ " is defined") :: !cross)
      (json_names text "workloads");
    List.iter
      (fun c ->
        List.iter
          (fun n -> cross := (List.mem_assoc n c.e2e, c.wname ^ " emits " ^ n) :: !cross)
          (json_names text "end_to_end"))
      children;
    List.iter
      (fun n -> cross := (List.mem n (names layer_metrics), "traced run emits " ^ n) :: !cross)
      (json_names text "per_layer"));
  let metrics = if o.trace then layer_metrics else e2e_metrics in
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v) then cross := (false, n ^ " is a finite number") :: !cross)
    metrics;
  let checks = List.concat_map (fun c -> c.checks) children @ List.rev !cross in
  List.iter (fun (ok, m) -> if not ok then Printf.printf "CHECK FAILED: %s\n" m) checks;
  let correct = List.for_all fst checks in
  Printf.printf "%d checks, %s\n" (List.length checks) (if correct then "all passed" else "FAILED");
  write_results o children;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (List.fold_left (fun acc c -> acc + c.attempted) 0 children)
    (List.fold_left (fun acc c -> acc + c.failed) 0 children)
    (String.concat ", " (List.map json_metric metrics));
  exit (if correct then 0 else 1)

let () =
  let o = parse Sys.argv in
  match o.child with
  | Some name -> run_child o name
  | None -> run_parent o
