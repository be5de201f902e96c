let rank (set : Mateset.t) triggers ~space =
  let p = Replay.pruner set triggers ~space () in
  let cost i = Term.n_inputs set.Mateset.mates.(i).Mateset.term in
  let raw = Array.init (Mateset.size set) (Replay.masked_alone p) in
  let order = Array.init (Mateset.size set) Fun.id in
  Array.sort
    (fun a b ->
      match compare raw.(b) raw.(a) with
      | 0 -> compare (cost a) (cost b)
      | c -> c)
    order;
  let order = Array.to_list order in
  List.combine order (Replay.credits p order)
  |> List.sort (fun (a, ca) (b, cb) ->
         match compare cb ca with
         | 0 -> compare (cost a) (cost b)
         | c -> c)

let top ranking ~n =
  ranking
  |> List.filter (fun (_, credits) -> credits > 0)
  |> List.filteri (fun i _ -> i < n)
  |> List.map fst
