(* In-memory spans for the traced run. Every span keeps its name, start,
   end, parent and track; nothing is written until [write_chrome] and
   [self_times] are called at exit, so recording costs one allocation per
   span. With tracing off, [time] still measures (the end-to-end metrics
   need the durations) but records nothing. *)

module Mono = Pruning_util.Mono

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] for a root *)
  track : int;  (** 1 = the suite's own thread of control; 2 = the loopback worker *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let fresh_id () =
  incr next_id;
  !next_id

let add ?(parent = !current) ?(track = 1) ~name ~start ~stop () =
  let id = fresh_id () in
  if !enabled then spans := { id; name; start; stop; parent; track } :: !spans

(* Run [f] as span [name] (a child of the innermost open span) and return
   its result with its duration in seconds. *)
let time name f =
  let parent = !current in
  let id = fresh_id () in
  if !enabled then current := id;
  let start = Mono.now () in
  let finish () =
    let stop = Mono.now () in
    if !enabled then begin
      current := parent;
      spans := { id; name; start; stop; parent; track = 1 } :: !spans
    end;
    stop -. start
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let recorded () = List.rev !spans

(* Chrome trace-event format (load in chrome://tracing or Perfetto):
   complete events, microsecond timestamps from the first span. *)
let write_chrome ~workload path =
  let all = recorded () in
  let t0 = List.fold_left (fun acc s -> min acc s.start) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "  {\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.1f, \
         \"dur\": %.1f, \"args\": {\"id\": %d, \"parent\": %d, \"workload\": %S}}%s\n"
        s.name workload s.track
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent workload
        (if i = List.length all - 1 then "" else ","))
    all;
  output_string oc "]}\n";
  close_out oc

(* Self time: a span's duration minus the part of it that its children on
   the same track cover (children of one span never overlap on one track,
   but clip and merge anyway so the table cannot go negative). *)
let self_time all s =
  let kids =
    List.filter_map
      (fun c ->
        if c.parent = s.id && c.track = s.track then
          Some (max s.start c.start, min s.stop c.stop)
        else None)
      all
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity) kids
  in
  (s.stop -. s.start) -. covered

(* Per span name, in first-seen order: (name, count, total, self). *)
let self_times () =
  let all = recorded () in
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n, total, self =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, total +. (s.stop -. s.start), self +. self_time all s))
    all;
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find tbl name in
      (name, n, total, self))
    !order
