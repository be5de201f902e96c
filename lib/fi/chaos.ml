module Prng = Pruning_util.Prng

exception Injected of string

type action =
  | Pass
  | Delay of float
  | Corrupt_bit of int
  | Truncate of float
  | Reset
  | Slow_loris of float
  | Short_write of float
  | Io_error of Unix.error
  | Fsync_fail
  | Torn_rename
  | Crash
  | Stall of float
  | Duplicate
  | Kill
  | Disk_full
  | Lie of int

type site =
  | Send
  | Recv
  | Journal_write
  | Journal_fsync
  | Journal_rename
  | Exec
  | Dispatch
  | Drain
  | Seal
  | Disk
  | Verdict

let site_index = function
  | Send -> 0
  | Recv -> 1
  | Journal_write -> 2
  | Journal_fsync -> 3
  | Journal_rename -> 4
  | Exec -> 5
  | Dispatch -> 6
  | Drain -> 7
  | Seal -> 8
  | Disk -> 9
  | Verdict -> 10

let n_sites = 11

type profile = {
  net_delay : float;
  net_corrupt : float;
  net_truncate : float;
  net_reset : float;
  net_slow : float;
  max_delay : float;
  journal_short : float;
  journal_enospc : float;
  journal_eio : float;
  journal_fsync : float;
  journal_torn : float;
  exec_crash : float;
  exec_stall : float;
  exec_dup : float;
  exec_lie : float;
  proc_kill : float;
  proc_stall : float;
  disk_full : float;
  disk_stall : float;
  stall : float;
  budget : int;
}

(* Moderate rates everywhere: enough to exercise every recovery path in
   a short campaign without starving it of forward progress. *)
let default_profile =
  {
    net_delay = 0.02;
    net_corrupt = 0.01;
    net_truncate = 0.005;
    net_reset = 0.005;
    net_slow = 0.005;
    max_delay = 0.05;
    journal_short = 0.002;
    journal_enospc = 0.001;
    journal_eio = 0.001;
    journal_fsync = 0.002;
    journal_torn = 0.02;
    exec_crash = 0.02;
    exec_stall = 0.005;
    exec_dup = 0.02;
    (* Lies are off everywhere except {!liar_profile}: a lying worker
       violates the determinism contract on purpose, which only makes
       sense in a fleet with enough honest peers to outvote it. *)
    exec_lie = 0.;
    (* Whole-process kills and disk pressure are off by default: a plain
       [--chaos N] run must keep the documented exit-code contract
       (0 | 17 | 19 | 20). They only fire under {!process_profile},
       whose natural habitat is a supervised campaign. *)
    proc_kill = 0.;
    proc_stall = 0.;
    disk_full = 0.;
    disk_stall = 0.;
    stall = 0.3;
    budget = 64;
  }

let quiet_profile =
  {
    net_delay = 0.;
    net_corrupt = 0.;
    net_truncate = 0.;
    net_reset = 0.;
    net_slow = 0.;
    max_delay = 0.;
    journal_short = 0.;
    journal_enospc = 0.;
    journal_eio = 0.;
    journal_fsync = 0.;
    journal_torn = 0.;
    exec_crash = 0.;
    exec_stall = 0.;
    exec_dup = 0.;
    exec_lie = 0.;
    proc_kill = 0.;
    proc_stall = 0.;
    disk_full = 0.;
    disk_stall = 0.;
    stall = 0.;
    budget = 0;
  }

(* Supervised-soak profile: everything the default profile injects, plus
   whole-process SIGKILLs at the coordinator's dispatch/drain/seal sites
   and transient disk pressure at the journal's disk site. Only safe
   under a supervisor — an unsupervised process dies un-resumed. *)
let process_profile =
  {
    default_profile with
    proc_kill = 0.01;
    proc_stall = 0.005;
    disk_full = 0.01;
    disk_stall = 0.01;
    (* The sticky injected disk faults are off here: a restarted
       coordinator re-arms the same seeded plan, so a deterministic
       early [Journal.Error] re-fires every incarnation and turns the
       run into a restart-budget exhaustion test instead of a failover
       soak. Kills, stalls, disk pressure and wire faults are the
       classes a supervisor can actually heal. *)
    journal_short = 0.;
    journal_enospc = 0.;
    journal_eio = 0.;
    journal_fsync = 0.;
    journal_torn = 0.;
  }

(* Byzantine-worker profile: the worker stays perfectly healthy on the
   wire and on time — it just lies. Roughly a quarter of its verdicts
   are deterministically corrupted before framing (so every CRC passes
   and nothing but cross-validation can catch it), until the budget
   runs dry. Meant for fleets with enough honest peers to outvote it:
   the soak invariant is bit-identical stats *despite* this worker. *)
let liar_profile = { quiet_profile with exec_lie = 0.25; budget = 64 }

type t = {
  profile : profile;
  streams : Prng.t array;
  mutable remaining : int;
  mutable injected : int;
}

(* Each site draws from its own PRNG stream, all derived from the one
   seed: the action sequence a given site sees is a pure function of
   (seed, profile, site, draw index), independent of how draws at other
   sites interleave with it. *)
let create ?(profile = default_profile) ~seed () =
  if profile.budget < 0 then invalid_arg "Chaos.create: budget must be non-negative";
  {
    profile;
    streams =
      Array.init n_sites (fun i ->
          Prng.split (Prng.create (seed + ((i + 1) * 0x9E3779B9))));
    remaining = profile.budget;
    injected = 0;
  }

let injected t = t.injected
let exhausted t = t.remaining <= 0

let draw t site =
  if t.remaining <= 0 then Pass
  else begin
    let p = t.profile in
    let g = t.streams.(site_index site) in
    let r = Prng.float g in
    let choose classes =
      let rec go acc = function
        | [] -> Pass
        | (prob, mk) :: rest ->
          let acc = acc +. prob in
          if r < acc then mk () else go acc rest
      in
      go 0. classes
    in
    let a =
      match site with
      | Send ->
        choose
          [
            (p.net_delay, fun () -> Delay (Prng.float g *. p.max_delay));
            (p.net_corrupt, fun () -> Corrupt_bit (Prng.int g 0x3FFFFFFF));
            (p.net_truncate, fun () -> Truncate (Prng.float g));
            (p.net_reset, fun () -> Reset);
            (p.net_slow, fun () -> Slow_loris (Prng.float g *. p.max_delay));
          ]
      | Recv ->
        choose
          [
            (p.net_delay, fun () -> Delay (Prng.float g *. p.max_delay));
            (p.net_reset, fun () -> Reset);
          ]
      | Journal_write ->
        choose
          [
            (p.journal_short, fun () -> Short_write (Prng.float g));
            (p.journal_enospc, fun () -> Io_error Unix.ENOSPC);
            (p.journal_eio, fun () -> Io_error Unix.EIO);
          ]
      | Journal_fsync -> choose [ (p.journal_fsync, fun () -> Fsync_fail) ]
      | Journal_rename -> choose [ (p.journal_torn, fun () -> Torn_rename) ]
      | Exec ->
        choose
          [
            (p.exec_crash, fun () -> Crash);
            (p.exec_stall, fun () -> Stall p.stall);
            (p.exec_dup, fun () -> Duplicate);
          ]
      | Dispatch | Drain | Seal ->
        choose
          [
            (p.proc_kill, fun () -> Kill);
            (p.proc_stall, fun () -> Stall p.stall);
          ]
      | Disk ->
        choose
          [
            (p.disk_full, fun () -> Disk_full);
            (p.disk_stall, fun () -> Stall p.stall);
          ]
      | Verdict -> choose [ (p.exec_lie, fun () -> Lie (Prng.int g 0x3FFFFFFF)) ]
    in
    (match a with
    | Pass -> ()
    | _ ->
      t.remaining <- t.remaining - 1;
      t.injected <- t.injected + 1);
    a
  end

(* ------------------------------------------------------------------ *)
(* Plans: materialized draw sequences, for determinism tests and logs.  *)

(* %h renders floats exactly, so two plans compare byte-identical iff
   every drawn parameter is bit-identical. *)
let action_to_string = function
  | Pass -> "pass"
  | Delay s -> Printf.sprintf "delay(%h)" s
  | Corrupt_bit k -> Printf.sprintf "corrupt-bit(%d)" k
  | Truncate f -> Printf.sprintf "truncate(%h)" f
  | Reset -> "reset"
  | Slow_loris s -> Printf.sprintf "slow-loris(%h)" s
  | Short_write f -> Printf.sprintf "short-write(%h)" f
  | Io_error e -> Printf.sprintf "io-error(%s)" (Unix.error_message e)
  | Fsync_fail -> "fsync-fail"
  | Torn_rename -> "torn-rename"
  | Crash -> "crash"
  | Stall s -> Printf.sprintf "stall(%h)" s
  | Duplicate -> "duplicate"
  | Kill -> "kill"
  | Disk_full -> "disk-full"
  | Lie k -> Printf.sprintf "lie(%d)" k

(* The action a [Kill] consultation point applies: SIGKILL to self — the
   most brutal crash available, no atexit, no flush, no unwind. *)
let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let plan ?profile ~seed site ~n =
  if n < 0 then invalid_arg "Chaos.plan: n must be non-negative";
  let t = create ?profile ~seed () in
  Array.init n (fun _ -> draw t site)

let plan_to_string actions =
  String.concat ";" (Array.to_list (Array.map action_to_string actions))
