type mate = {
  term : Term.t;
  flop_ids : int list;
}

type t = { mates : mate array }

let build pairs =
  let by_term : (Term.t, int list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (flop_id, terms) ->
      List.iter
        (fun term ->
          match Hashtbl.find_opt by_term term with
          | Some flops -> if not (List.mem flop_id !flops) then flops := flop_id :: !flops
          | None -> Hashtbl.add by_term term (ref [ flop_id ]))
        terms)
    pairs;
  let mates =
    Hashtbl.fold
      (fun term flops acc -> { term; flop_ids = List.sort compare !flops } :: acc)
      by_term []
  in
  (* Deterministic order: by term shape. *)
  { mates = Array.of_list (List.sort (fun a b -> Term.compare a.term b.term) mates) }

let of_report (report : Search.report) =
  build
    (List.filter_map
       (fun (fr : Search.flop_result) ->
         match fr.Search.result.Search.outcome with
         | Search.Unmaskable -> None
         | Search.Mates terms -> Some (fr.Search.flop.Pruning_netlist.Netlist.flop_id, terms))
       report.Search.flop_results)

let size t = Array.length t.mates

let describe nl t i =
  let m = t.mates.(i) in
  Printf.sprintf "MATE %s over %d flop(s)"
    (Term.to_string nl m.term)
    (List.length m.flop_ids)
