(* Worker reputation: per-name suspicion scores fed by observable
   misbehaviour.  Pure bookkeeping — no clocks, no I/O — so that the
   score of a worker is a function of the event sequence alone and the
   coordinator can replay or audit it deterministically. *)

type event = Arbitration_loss | Corrupt_frame | Lease_expiry

let weight = function
  | Arbitration_loss -> 3 (* voted against a quorum: strongest signal *)
  | Corrupt_frame -> 2 (* CRC/decode failure on its frames *)
  | Lease_expiry -> 1 (* slow or wedged, not necessarily malicious *)

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 8
let score (t : t) name = Option.value ~default:0 (Hashtbl.find_opt t name)

let record (t : t) ~name ev =
  let s = score t name + weight ev in
  Hashtbl.replace t name s;
  s

let of_events events =
  let t = create () in
  List.iter (fun (name, ev) -> ignore (record t ~name ev)) events;
  t

let scores (t : t) =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t []
  |> List.sort compare
