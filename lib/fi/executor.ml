module Backoff = Pruning_util.Backoff

type plan =
  | Done
  | Skip
  | Inject

type t = {
  campaign : Campaign.t;
  space : Fault_space.t;
  samples : (int * int) array;
  kernel : Campaign.kernel;
  lanes : int option;
  window : int;
  retries : int;
  backoff : Backoff.t;
  chaos : Chaos.t option;
  should_stop : unit -> bool;
  (* The scalar kernel's private worker; [None] = build one on next use
     (initially, and after a crash left the old one mid-run). *)
  mutable worker : Campaign.worker option;
  mutable failures : int;
}

let create campaign ~space ~samples ~kernel ?lanes ~window ?(retries = 2) ~backoff ?chaos
    ?(should_stop = fun () -> false) () =
  if retries < 0 then invalid_arg "Executor.create: retries must be non-negative";
  if window < 1 then invalid_arg "Executor.create: window must be positive";
  {
    campaign;
    space;
    samples;
    kernel;
    lanes;
    window;
    retries;
    backoff;
    chaos;
    should_stop;
    worker = None;
    failures = 0;
  }

let failures t = t.failures

let outcome_of_verdict : Campaign.verdict -> Journal.outcome = function
  | Campaign.Benign -> Journal.Benign
  | Campaign.Latent -> Journal.Latent
  | Campaign.Sdc c -> Journal.Sdc c

let scalar_worker t =
  match t.worker with
  | Some w -> w
  | None ->
    let w = Campaign.fresh_worker t.campaign in
    t.worker <- Some w;
    w

(* One attempt's worth of experiments: a single fault on the scalar
   kernel, a whole window on the batched one. *)
let classify t faults =
  Campaign.classify ?lanes:t.lanes t.campaign
    ~worker:(fun () -> scalar_worker t)
    ~kernel:t.kernel ~space:t.space faults

(* Infrastructure chaos around one attempt. A [Crash] raises
   {!Chaos.Injected}, retried without consuming the retry budget: a
   finite chaos plan must never turn a healthy experiment into a
   [Crashed] verdict, or chaos runs would change the stats. *)
let exec_chaos t =
  match Option.map (fun c -> Chaos.draw c Chaos.Exec) t.chaos with
  | Some Chaos.Crash -> raise (Chaos.Injected "experiment crashed")
  | Some (Chaos.Stall s) -> Unix.sleepf s
  | _ -> ()

(* Supervised classification of one window's injected faults: [None]
   once the retry budget is spent. *)
let attempt t ~fault ~first faults =
  Backoff.reset t.backoff;
  let rec go k =
    match
      exec_chaos t;
      (match fault with
      | Some f -> f ~index:first ~attempt:k
      | None -> ());
      classify t faults
    with
    | verdicts -> Some verdicts
    | exception Chaos.Injected _ -> go k
    | exception _ ->
      (* Back off so a systemic failure (disk full, OOM-adjacent) is
         not hammered at full speed. *)
      (* The scalar worker may be mid-run: build a fresh one next time
         (Campaign.inject_delta_batch drops the batched workers itself). *)
      t.worker <- None;
      t.failures <- t.failures + 1;
      if k < t.retries then begin
        Unix.sleepf (Backoff.next t.backoff);
        go (k + 1)
      end
      else None
  in
  go 0

(* Sixty-four full passes for every domain the batched kernel splits a
   call across (see {!Campaign.inject_delta_batch}). A pass sweeps from
   its first fault's cycle to the horizon however few faults it holds,
   so a window must be deep enough that its later passes still start
   full: at sixteen passes, AVR fib's cycle-steps per fault were nearly
   four times those of one call over the whole list; at sixty-four they
   are under a third above it, and doubling again saves only 8 %
   (EXPERIMENTS § Lane-saturating windows). *)
let batch_window ~lanes = 64 * lanes * Domain.recommended_domain_count ()

let run t ~ranges ~plan ~emit ?fault () =
  let window = if t.kernel = Campaign.Delta_batched then t.window else 1 in
  let idx = Array.make window 0 in
  (* Move the next [window] indices of [ranges] into [idx]; returns how
     many were taken and the ranges left over. *)
  let rec take m = function
    | (lo, hi) :: rest when m < window ->
      let k = min (hi - lo + 1) (window - m) in
      for j = 0 to k - 1 do
        idx.(m + j) <- lo + j
      done;
      if lo + k > hi then take (m + k) rest else (m + k, (lo + k, hi) :: rest)
    | ranges -> (m, ranges)
  in
  let rec go ranges =
    if ranges = [] then true
    else if t.should_stop () then false
    else begin
      let m, rest = take 0 ranges in
      let plans =
        Array.init m (fun j ->
            let flop_id, cycle = t.samples.(idx.(j)) in
            plan idx.(j) ~flop_id ~cycle)
      in
      let injected = ref [] in
      for j = m - 1 downto 0 do
        if plans.(j) = Inject then injected := idx.(j) :: !injected
      done;
      (* One supervised attempt loop per window; its outcomes are emitted
         together, in index order, only once the window is classified. *)
      let verdicts =
        match !injected with
        | [] -> Some [||]
        | first :: _ as injected ->
          attempt t ~fault ~first (Array.of_list (List.map (fun i -> t.samples.(i)) injected))
      in
      (* [verdicts] is in index order of the window's [Inject] plans. *)
      let next = ref 0 in
      Array.iteri
        (fun j p ->
          match p with
          | Done -> ()
          | Skip -> emit idx.(j) Journal.Skipped
          | Inject ->
            let o =
              match verdicts with
              | Some v -> outcome_of_verdict v.(!next)
              | None -> Journal.Crashed
            in
            incr next;
            emit idx.(j) o)
        plans;
      go rest
    end
  in
  go (List.filter (fun (lo, hi) -> lo <= hi) ranges)
