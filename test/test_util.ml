open Helpers
module Stats = Pruning_util.Stats
module Table = Pruning_util.Table
module Mono = Pruning_util.Mono

let check_float = Alcotest.(check (float 1e-9))

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "mean_int" 2. (Stats.mean_int [ 1; 2; 3 ])

let test_stats_median () =
  check_float "odd" 3. (Stats.median [ 5.; 3.; 1. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  check_float "empty" 0. (Stats.median []);
  check_float "median_int" 2.5 (Stats.median_int [ 1; 2; 3; 4 ])

let test_stats_stddev () =
  check_float "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "pair" 1. (Stats.stddev [ 1.; 3. ]);
  check_float "singleton" 0. (Stats.stddev [ 7. ])

let test_percentage () =
  check_float "half" 50. (Stats.percentage 1 2);
  check_float "zero denominator" 0. (Stats.percentage 5 0)

let test_prng_determinism () =
  let a = Prng.create 7 in
  let b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_split_independent () =
  let rng = Prng.create 11 in
  let forked = Prng.split rng in
  let xs = List.init 20 (fun _ -> Prng.int rng 1000) in
  let ys = List.init 20 (fun _ -> Prng.int forked 1000) in
  check_bool "streams differ" true (xs <> ys)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 5 in
  let original = List.init 50 Fun.id in
  let shuffled = Prng.shuffle rng original in
  check_bool "same multiset" true (List.sort compare shuffled = original);
  check_bool "actually moved" true (shuffled <> original)

let test_prng_float_range () =
  let rng = Prng.create 23 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_pick () =
  let rng = Prng.create 9 in
  for _ = 1 to 50 do
    check_bool "member" true (List.mem (Prng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty list") (fun () ->
      ignore (Prng.pick rng ([] : int list)))

let test_prng_save_restore () =
  (* Exact round-trip: a restored sampler continues the stream the saved
     one would have produced, for any seed and any save point. *)
  let prop =
    QCheck.Test.make ~name:"prng save/restore resumes the exact stream" ~count:200
      QCheck.(pair small_nat (int_bound 50))
      (fun (seed, warmup) ->
        let rng = Prng.create seed in
        for _ = 1 to warmup do
          ignore (Prng.int rng 1000)
        done;
        let snap = Prng.save rng in
        let expected = List.init 20 (fun _ -> Prng.int rng 1_000_000) in
        let restored = Prng.restore snap in
        expected = List.init 20 (fun _ -> Prng.int restored 1_000_000))
  in
  QCheck.Test.check_exn prop;
  (* The serialized form is stable and self-describing. *)
  let rng = Prng.create 42 in
  let s = Prng.save rng in
  check_bool "tagged" true (String.length s = 27 && String.sub s 0 11 = "splitmix64:");
  check_string "idempotent" s (Prng.save (Prng.restore s));
  List.iter
    (fun bad ->
      match Prng.restore bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail ("restore must reject " ^ bad))
    [ ""; "splitmix64:"; "splitmix64:xyz"; "splitmix64:00112233445566778"; "mt19937:0011223344556677" ]

let test_crc32 () =
  (* The CRC-32 (IEEE) check value, and incremental = one-shot. *)
  let crc_check = Pruning_util.Crc.string "123456789" in
  check_int "check value" 0xCBF43926 crc_check;
  check_int "empty" 0 (Pruning_util.Crc.string "");
  let whole = Pruning_util.Crc.string "hello, world" in
  let part = Pruning_util.Crc.string "hello," in
  let b = Bytes.of_string "hello, world" in
  check_int "incremental" whole (Pruning_util.Crc.bytes ~crc:part b ~pos:6 ~len:6);
  check_bool "bit flip detected" true (whole <> Pruning_util.Crc.string "hello, worle")

(* Two domains framing their first message at once must not race on
   the CRC table. Each run is a fresh process (the crc_race helper), so
   the table is as cold as in a just-started coordinator + worker. *)
let test_crc_cold_domains () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "crc_race.exe" in
  for run = 1 to 10 do
    let pid = Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.failf "crc_race run %d failed" run
  done

let test_backoff_envelope () =
  (* Equal jitter: attempt k draws from [c/2, c) with c = min(cap,
     base*factor^k), so delays are bounded, grow towards the cap, and
     never collapse to zero (no same-instant retry storms). *)
  let module Backoff = Pruning_util.Backoff in
  let policy = { Backoff.base = 0.1; cap = 1.; factor = 2. } in
  let bo = Backoff.create ~policy (Prng.create 5) in
  List.iteri
    (fun k ceiling ->
      let d = Backoff.next bo in
      check_bool
        (Printf.sprintf "attempt %d in envelope" k)
        true
        (d >= (ceiling /. 2.) -. 1e-9 && d < ceiling);
      check_int "attempts counted" (k + 1) (Backoff.attempts bo))
    [ 0.1; 0.2; 0.4; 0.8; 1.0; 1.0; 1.0 ];
  Backoff.reset bo;
  check_int "reset clears attempts" 0 (Backoff.attempts bo);
  let d = Backoff.next bo in
  check_bool "reset restarts at base" true (d >= 0.05 -. 1e-9 && d < 0.1)

let test_backoff_deterministic () =
  let module Backoff = Pruning_util.Backoff in
  let draws seed =
    let bo = Backoff.create ~policy:Backoff.default_policy (Prng.create seed) in
    List.init 10 (fun _ -> Backoff.next bo)
  in
  check_bool "same rng, same schedule" true (draws 7 = draws 7);
  check_bool "different rng, different jitter" true (draws 7 <> draws 8);
  List.iter
    (fun policy ->
      match Backoff.create ~policy (Prng.create 1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid policy must be rejected")
    [
      { Backoff.base = 0.; cap = 1.; factor = 2. };
      { Backoff.base = 2.; cap = 1.; factor = 2. };
      { Backoff.base = 0.1; cap = 1.; factor = 0.5 };
    ]

let test_table_render () =
  let t = Table.create [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "") in
  check_int "line count" 5 (List.length lines);
  check_string "header" "name    n" (List.nth lines 0);
  check_string "row 1" "alpha   1" (List.nth lines 2);
  check_string "row 2" "b      22" (List.nth lines 4)

let test_table_padding_and_errors () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  check_bool "padded ok" true (String.length (Table.render t) > 0);
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2"; "3"; "4" ])

(* The monotonic clock never steps backwards and tracks real elapsed
   time well enough for lease/deadline arithmetic. *)
let test_mono_clock () =
  let t0 = Mono.now () in
  let prev = ref t0 in
  for _ = 1 to 1000 do
    let t = Mono.now () in
    check_bool "monotone non-decreasing" true (t >= !prev);
    prev := t
  done;
  Unix.sleepf 0.05;
  let dt = Mono.now () -. t0 in
  check_bool "advances with real time" true (dt >= 0.04);
  check_bool "stays in the right ballpark" true (dt < 10.)

let suite =
  [
    Alcotest.test_case "monotonic clock" `Quick test_mono_clock;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats median" `Quick test_stats_median;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats percentage" `Quick test_percentage;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "prng float" `Quick test_prng_float_range;
    Alcotest.test_case "prng pick" `Quick test_prng_pick;
    Alcotest.test_case "prng save/restore" `Quick test_prng_save_restore;
    Alcotest.test_case "crc32" `Quick test_crc32;
    Alcotest.test_case "crc32 on two cold domains" `Quick test_crc_cold_domains;
    Alcotest.test_case "backoff envelope and reset" `Quick test_backoff_envelope;
    Alcotest.test_case "backoff determinism and validation" `Quick test_backoff_deterministic;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table padding and errors" `Quick test_table_padding_and_errors;
  ]
