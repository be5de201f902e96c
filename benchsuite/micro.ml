(* Bechamel micro-benchmarks of the service's per-verdict costs: framing
   a 64-verdict Results message, decoding it, and one journal append
   (amortizing the segment seals a real campaign pays). *)

module Proto = Pruning_fi.Proto
module Journal = Pruning_fi.Journal
module Fault_model = Pruning_fi.Fault_model
module Prng = Pruning_util.Prng

let results_64 =
  Proto.Results
    {
      chunk_id = 7;
      results =
        Array.init 64 (fun i ->
            ( 1792 + i,
              match i mod 4 with
              | 0 -> Journal.Benign
              | 1 | 2 -> Journal.Latent
              | _ -> Journal.Sdc (100 * i) ));
    }

let header =
  {
    Journal.core = "avr";
    program = "fib";
    cycles = 8500;
    seed = 7;
    samples = max_int;
    prune = false;
    audit = 0.;
    shards = 0;
    batched = true;
    epoch = 0;
    fault_model = Fault_model.Seu;
    prng = Prng.save (Prng.create 7);
    shard_prng = [||];
  }

(* Nanoseconds per run, by OLS over bechamel's samples. *)
let estimate tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] (Test.make_grouped ~name:"micro" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  fun name ->
    let found =
      Hashtbl.fold
        (fun k r acc -> if String.ends_with ~suffix:name k then Some r else acc)
        results None
    in
    match Option.bind found Analyze.OLS.estimates with
    | Some (ns :: _) -> ns
    | _ -> nan

(* [dir] must not exist yet; the caller removes it afterwards. *)
let run ~dir =
  let payload = Proto.encode results_64 in
  let writer = Journal.create ~dir header in
  let next = ref 0 in
  let open Bechamel in
  let ns =
    estimate
      [
        Test.make ~name:"proto/encode-results-64" (Staged.stage (fun () -> Proto.encode results_64));
        Test.make ~name:"proto/decode-results-64" (Staged.stage (fun () -> Proto.decode payload));
        Test.make ~name:"journal/append"
          (Staged.stage (fun () ->
               incr next;
               Journal.append writer (Journal.Outcome (!next, Journal.Latent))));
      ]
  in
  Journal.close writer;
  [
    ( "proto.results_bytes_per_verdict",
      "B",
      float_of_int (String.length (Proto.encode_frame payload)) /. 64. );
    ("proto.encode_us", "us", ns "proto/encode-results-64" /. 1e3);
    ("proto.decode_us", "us", ns "proto/decode-results-64" /. 1e3);
    ("journal.append_us", "us", ns "journal/append" /. 1e3);
  ]
