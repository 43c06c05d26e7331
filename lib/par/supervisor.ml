(* Supervised batch execution.

   The pool's contract ("a task never misbehaves") is inverted here:
   every task settles to its own outcome, failures are retried on a
   seeded deterministic backoff schedule and finally quarantined, and a
   deadline overrun writes the worker domain off as wedged — it is
   abandoned (domains cannot be killed), a replacement is spawned, and
   its late result is discarded via per-attempt claim tokens. *)

module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl

type 'a outcome = Done of 'a | Failed of exn | Timed_out

type 'a report = { outcome : 'a outcome; attempts : int; quarantined : bool }

let value r = match r.outcome with Done v -> Some v | _ -> None

type policy = {
  deadline_ns : int option;
  max_attempts : int;
  backoff_base_ns : int;
  backoff_factor : float;
  backoff_max_ns : int;
  jitter : float;
  seed : int;
  max_replacements : int;
}

let policy ?deadline_ns ?(max_attempts = 3) ?(backoff_base_ns = 1_000_000)
    ?(backoff_factor = 2.0) ?(backoff_max_ns = 1_000_000_000) ?(jitter = 0.5)
    ?(seed = 0) ?(max_replacements = 4) () =
  {
    deadline_ns = Option.map (max 1) deadline_ns;
    max_attempts = max 1 max_attempts;
    backoff_base_ns = max 0 backoff_base_ns;
    backoff_factor = (if backoff_factor < 1.0 then 1.0 else backoff_factor);
    backoff_max_ns = max 0 backoff_max_ns;
    jitter = (if jitter < 0. then 0. else if jitter > 1. then 1. else jitter);
    seed;
    max_replacements = max 0 max_replacements;
  }

(* Pure: the wait before [attempt] of [task] depends on nothing but the
   policy — reruns and different job counts reproduce the schedule
   exactly. The jitter RNG is reseeded per decision (like
   [Harness_chaos.decide]) so concurrency cannot reorder draws. *)
let backoff_ns p ~task ~attempt =
  if attempt <= 1 then 0
  else begin
    let nominal =
      Float.min
        (float_of_int p.backoff_base_ns
        *. (p.backoff_factor ** float_of_int (attempt - 2)))
        (float_of_int p.backoff_max_ns)
    in
    if p.jitter = 0. then int_of_float nominal
    else begin
      let st = Random.State.make [| 0x5afe; p.seed; task; attempt |] in
      let factor =
        1.0 -. p.jitter +. Random.State.float st (2.0 *. p.jitter)
      in
      int_of_float (nominal *. factor)
    end
  end

(* ---------- process-wide supervision totals ---------- *)

type totals = {
  supervised : int;
  retries : int;
  timeouts : int;
  quarantined : int;
  replaced : int;
  degraded : int;
  chaos_injected : int;
}

let g_supervised = Atomic.make 0
let g_retries = Atomic.make 0
let g_timeouts = Atomic.make 0
let g_quarantined = Atomic.make 0
let g_replaced = Atomic.make 0
let g_degraded = Atomic.make 0
let g_chaos = Atomic.make 0

let totals () =
  {
    supervised = Atomic.get g_supervised;
    retries = Atomic.get g_retries;
    timeouts = Atomic.get g_timeouts;
    quarantined = Atomic.get g_quarantined;
    replaced = Atomic.get g_replaced;
    degraded = Atomic.get g_degraded;
    chaos_injected = Atomic.get g_chaos;
  }

let reset_totals () =
  List.iter
    (fun a -> Atomic.set a 0)
    [
      g_supervised; g_retries; g_timeouts; g_quarantined; g_replaced;
      g_degraded; g_chaos;
    ]

let metrics_snapshot () =
  let t = totals () in
  [
    ("pool.chaos.injected", Metrics.Counter t.chaos_injected);
    ("pool.degraded", Metrics.Counter t.degraded);
    ("pool.quarantine", Metrics.Counter t.quarantined);
    ("pool.retry", Metrics.Counter t.retries);
    ("pool.supervised", Metrics.Counter t.supervised);
    ("pool.timeout", Metrics.Counter t.timeouts);
    ("pool.worker.replaced", Metrics.Counter t.replaced);
  ]

(* ---------- batch state ---------- *)

type status =
  | Pending of { not_before : int; attempt : int }
  | Running of { claim : int; started : int; attempt : int; worker : int }
  | Settled

type retry_ev = {
  r_task : int;
  r_attempt : int;
  r_why : string;
  r_start : int;
  r_dur : int;
  r_backoff : int;
}

(* the attempt that settled a task, for the per-worker trace lanes;
   worker 0 is the monitor (the caller's domain) *)
type lane = { l_worker : int; l_start : int; l_end : int }

type wrec = {
  w_id : int;
  mutable w_dom : unit Domain.t option;
  mutable w_abandoned : bool;
  mutable w_exited : bool;
}

type ('a, 'b) batch = {
  m : Mutex.t;
  changed : Condition.t;
  arr : 'a array;
  f : int -> 'a -> 'b;
  pol : policy;
  chaos : Harness_chaos.t option;
  lat : Harness_chaos.latch;
  status : status array;
  reports : 'b report option array;
  lanes : lane option array;
  t_start : int;
  mutable settled : int;
  mutable n_pending : int;
  mutable claim_ctr : int;
  mutable worker_ctr : int;
  mutable workers : wrec list;
  (* batch telemetry, folded into the globals and the ambient sink once,
     on the monitor, after the batch *)
  mutable b_retries : int;
  mutable b_timeouts : int;
  mutable b_quarantined : int;
  mutable b_replaced : int;
  mutable b_degraded : bool;
  mutable b_chaos : int;
  mutable retry_log : retry_ev list;  (* newest first *)
}

let why_of_exn = function
  | Harness_chaos.Killed _ -> "chaos-kill"
  | Harness_chaos.Wedged _ -> "chaos-wedge"
  | e -> Printexc.to_string e

(* smallest ready Pending index: claim order is deterministic-ish and,
   more importantly, starvation-free *)
let find_ready b now =
  let len = Array.length b.status in
  let rec go i =
    if i >= len then None
    else
      match b.status.(i) with
      | Pending { not_before; attempt } when not_before <= now ->
          Some (i, attempt)
      | _ -> go (i + 1)
  in
  if b.n_pending = 0 then None else go 0

let settle b i rep ~worker ~t0 ~t1 =
  b.status.(i) <- Settled;
  b.reports.(i) <- Some rep;
  b.lanes.(i) <- Some { l_worker = worker; l_start = t0; l_end = t1 };
  b.settled <- b.settled + 1;
  Condition.broadcast b.changed

(* one attempt, outside the lock: chaos decision, fault side, the task *)
let execute b i attempt =
  let act =
    match b.chaos with
    | None -> Harness_chaos.Pass
    | Some c -> Harness_chaos.decide c ~task:i ~attempt
  in
  let wedge_cap_ns =
    match b.chaos with Some c -> c.Harness_chaos.wedge_cap_ns | None -> 0
  in
  let t0 = Clock.now_ns () in
  let res =
    try
      Harness_chaos.run_action b.lat act ~task:i ~attempt ~wedge_cap_ns;
      Ok (b.f i b.arr.(i))
    with e -> Error e
  in
  (act, res, t0, Clock.now_ns ())

(* with the lock held: settle, retry or discard (stale claim) *)
let dispose b i ~claim ~attempt act res t0 t1 =
  if act <> Harness_chaos.Pass then b.b_chaos <- b.b_chaos + 1;
  match b.status.(i) with
  | Running { claim = c; worker; _ } when c = claim -> (
      match res with
      | Ok v ->
          settle b i ~worker ~t0 ~t1
            { outcome = Done v; attempts = attempt; quarantined = false }
      | Error e ->
          let why = why_of_exn e in
          if attempt >= b.pol.max_attempts then begin
            b.b_quarantined <- b.b_quarantined + 1;
            b.retry_log <-
              {
                r_task = i; r_attempt = attempt; r_why = why; r_start = t0;
                r_dur = t1 - t0; r_backoff = 0;
              }
              :: b.retry_log;
            settle b i ~worker ~t0 ~t1
              { outcome = Failed e; attempts = attempt; quarantined = true }
          end
          else begin
            let bo = backoff_ns b.pol ~task:i ~attempt:(attempt + 1) in
            b.status.(i) <-
              Pending { not_before = t1 + bo; attempt = attempt + 1 };
            b.n_pending <- b.n_pending + 1;
            b.b_retries <- b.b_retries + 1;
            b.retry_log <-
              {
                r_task = i; r_attempt = attempt; r_why = why; r_start = t0;
                r_dur = t1 - t0; r_backoff = bo;
              }
              :: b.retry_log;
            Condition.broadcast b.changed
          end)
  | _ -> ()  (* the monitor timed this attempt out; result discarded *)

let claim b i attempt ~worker now =
  b.claim_ctr <- b.claim_ctr + 1;
  let c = b.claim_ctr in
  b.status.(i) <- Running { claim = c; started = now; attempt; worker };
  b.n_pending <- b.n_pending - 1;
  c

let worker_loop b w =
  Mutex.lock b.m;
  let len = Array.length b.arr in
  let rec loop () =
    if b.settled >= len || w.w_abandoned then ()
    else begin
      let now = Clock.now_ns () in
      match find_ready b now with
      | Some (i, attempt) ->
          let c = claim b i attempt ~worker:w.w_id now in
          Mutex.unlock b.m;
          let act, res, t0, t1 = execute b i attempt in
          Mutex.lock b.m;
          dispose b i ~claim:c ~attempt act res t0 t1;
          loop ()
      | None ->
          if b.n_pending = 0 then begin
            (* everything is running or settled: sleep until a settle,
               a retry or a monitor reschedule changes that *)
            Condition.wait b.changed b.m;
            loop ()
          end
          else begin
            (* a retry is parked in the future; nap in short slices
               (Condition has no timed wait) *)
            Mutex.unlock b.m;
            Unix.sleepf 0.001;
            Mutex.lock b.m;
            loop ()
          end
    end
  in
  loop ();
  w.w_exited <- true;
  Mutex.unlock b.m

let spawn_worker b =
  b.worker_ctr <- b.worker_ctr + 1;
  let w =
    { w_id = b.worker_ctr; w_dom = None; w_abandoned = false; w_exited = false }
  in
  b.workers <- w :: b.workers;
  w.w_dom <- Some (Domain.spawn (fun () -> worker_loop b w));
  w

(* deadline scan: time out overrun attempts, write their workers off,
   replace or degrade. Called with the lock held. *)
let scan_deadlines b d now =
  Array.iteri
    (fun i st ->
      match st with
      | Running { claim = _; started; attempt; worker }
        when now - started > d ->
          b.b_timeouts <- b.b_timeouts + 1;
          (match List.find_opt (fun w -> w.w_id = worker) b.workers with
          | Some w when not w.w_abandoned ->
              w.w_abandoned <- true;
              if b.b_replaced < b.pol.max_replacements then begin
                b.b_replaced <- b.b_replaced + 1;
                ignore (spawn_worker b)
              end
              else b.b_degraded <- true
          | _ -> ());
          b.retry_log <-
            {
              r_task = i; r_attempt = attempt; r_why = "timeout";
              r_start = started; r_dur = now - started; r_backoff = 0;
            }
            :: b.retry_log;
          if attempt >= b.pol.max_attempts then begin
            b.b_quarantined <- b.b_quarantined + 1;
            settle b i ~worker ~t0:started ~t1:now
              { outcome = Timed_out; attempts = attempt; quarantined = true }
          end
          else begin
            let bo = backoff_ns b.pol ~task:i ~attempt:(attempt + 1) in
            b.status.(i) <- Pending { not_before = now + bo; attempt = attempt + 1 };
            b.n_pending <- b.n_pending + 1;
            b.b_retries <- b.b_retries + 1
          end;
          Condition.broadcast b.changed
      | _ -> ())
    b.status

let monitor b ~jobs =
  Mutex.lock b.m;
  for _ = 1 to jobs do
    ignore (spawn_worker b)
  done;
  let len = Array.length b.arr in
  let rec watch () =
    if b.settled < len then begin
      match b.pol.deadline_ns with
      | None ->
          (* nothing to poll for: wake on settles only *)
          Condition.wait b.changed b.m;
          watch ()
      | Some d ->
          scan_deadlines b d (Clock.now_ns ());
          (* limp-home mode: no more replacements, so the monitor itself
             chews through the remaining work, single-file (deadlines
             cannot be enforced on our own attempt — progress over
             preemption) *)
          if b.b_degraded then begin
            match find_ready b (Clock.now_ns ()) with
            | Some (i, attempt) ->
                let c = claim b i attempt ~worker:0 (Clock.now_ns ()) in
                Mutex.unlock b.m;
                let act, res, t0, t1 = execute b i attempt in
                Mutex.lock b.m;
                dispose b i ~claim:c ~attempt act res t0 t1
            | None -> ()
          end;
          if b.settled < len then begin
            Mutex.unlock b.m;
            Unix.sleepf 0.002;
            Mutex.lock b.m
          end;
          watch ()
    end
  in
  watch ();
  Mutex.unlock b.m;
  (* free any wedged chaos attempts so abandoned domains can unwind *)
  Harness_chaos.release b.lat;
  List.iter
    (fun w ->
      if not w.w_abandoned then Option.iter Domain.join w.w_dom
      else begin
        (* an abandoned worker is joined only if it already unwound; a
           genuinely hung one is leaked by design — that is the cost of
           preemption-free domains *)
        Mutex.lock b.m;
        let ex = w.w_exited in
        Mutex.unlock b.m;
        if ex then Option.iter Domain.join w.w_dom
      end)
    b.workers

(* jobs:1 with no deadline needs no domains at all: retries and chaos
   run inline in the caller *)
let run_inline b =
  let len = Array.length b.arr in
  for i = 0 to len - 1 do
    let rec attempt_from attempt =
      let act, res, t0, t1 = execute b i attempt in
      if act <> Harness_chaos.Pass then b.b_chaos <- b.b_chaos + 1;
      match res with
      | Ok v ->
          b.reports.(i) <-
            Some { outcome = Done v; attempts = attempt; quarantined = false }
      | Error e ->
          let why = why_of_exn e in
          if attempt >= b.pol.max_attempts then begin
            b.b_quarantined <- b.b_quarantined + 1;
            b.retry_log <-
              {
                r_task = i; r_attempt = attempt; r_why = why; r_start = t0;
                r_dur = t1 - t0; r_backoff = 0;
              }
              :: b.retry_log;
            b.reports.(i) <-
              Some { outcome = Failed e; attempts = attempt; quarantined = true }
          end
          else begin
            let bo = backoff_ns b.pol ~task:i ~attempt:(attempt + 1) in
            b.b_retries <- b.b_retries + 1;
            b.retry_log <-
              {
                r_task = i; r_attempt = attempt; r_why = why; r_start = t0;
                r_dur = t1 - t0; r_backoff = bo;
              }
              :: b.retry_log;
            if bo > 0 then Unix.sleepf (float_of_int bo /. 1e9);
            attempt_from (attempt + 1)
          end
    in
    attempt_from 1
  done;
  Harness_chaos.release b.lat

let flush_telemetry b =
  let len = Array.length b.arr in
  Atomic.fetch_and_add g_supervised len |> ignore;
  Atomic.fetch_and_add g_retries b.b_retries |> ignore;
  Atomic.fetch_and_add g_timeouts b.b_timeouts |> ignore;
  Atomic.fetch_and_add g_quarantined b.b_quarantined |> ignore;
  Atomic.fetch_and_add g_replaced b.b_replaced |> ignore;
  if b.b_degraded then Atomic.incr g_degraded;
  Atomic.fetch_and_add g_chaos b.b_chaos |> ignore;
  match Sink.ambient () with
  | None -> ()
  | Some s ->
      let m = s.Sink.metrics in
      Metrics.add (Metrics.counter m "pool.supervised") len;
      let nonzero name v = if v > 0 then Metrics.add (Metrics.counter m name) v in
      nonzero "pool.retry" b.b_retries;
      nonzero "pool.timeout" b.b_timeouts;
      nonzero "pool.quarantine" b.b_quarantined;
      nonzero "pool.worker.replaced" b.b_replaced;
      nonzero "pool.degraded" (if b.b_degraded then 1 else 0);
      nonzero "pool.chaos.injected" b.b_chaos;
      List.iter
        (fun ev ->
          let root =
            {
              Span.name = "pool.retry";
              start_ns = ev.r_start;
              dur_ns = ev.r_dur;
              attrs =
                [
                  ("task", J.Int ev.r_task);
                  ("attempt", J.Int ev.r_attempt);
                  ("why", J.String ev.r_why);
                  ("backoff_ns", J.Int ev.r_backoff);
                ];
              children = [];
            }
          in
          Span.add_root s.Sink.spans root;
          Sink.emit s (Export.Span_tree root))
        (List.rev b.retry_log);
      (* one [pool.batch] tree per worker that settled a task, its
         settling attempts as [pool.task] children in start order — the
         per-domain lanes of the Chrome-trace export. An inline batch
         settles nothing through the table, so it draws no lanes. *)
      let t_end = Clock.now_ns () in
      List.iter
        (fun w ->
          let tasks =
            List.filter_map
              (fun i ->
                match b.lanes.(i) with
                | Some l when l.l_worker = w -> Some (i, l)
                | _ -> None)
              (List.init len Fun.id)
            |> List.sort (fun (_, a) (_, c) -> compare a.l_start c.l_start)
          in
          if tasks <> [] then begin
            let root =
              {
                Span.name = "pool.batch";
                start_ns = b.t_start;
                dur_ns = t_end - b.t_start;
                attrs =
                  [ ("domain", J.Int w); ("tasks", J.Int (List.length tasks)) ];
                children =
                  List.map
                    (fun (i, l) ->
                      {
                        Span.name = "pool.task";
                        start_ns = l.l_start;
                        dur_ns = l.l_end - l.l_start;
                        attrs =
                          [
                            ("idx", J.Int i);
                            ( "attempt",
                              J.Int (Option.get b.reports.(i)).attempts );
                          ];
                        children = [];
                      })
                    tasks;
              }
            in
            Span.add_root s.Sink.spans root;
            Sink.emit s (Export.Span_tree root)
          end)
        (0 :: List.rev_map (fun w -> w.w_id) b.workers)

let map ?(policy = policy ()) ?chaos ?(jobs = 1) ~f arr =
  let len = Array.length arr in
  if len = 0 then [||]
  else begin
    let chaos =
      match chaos with
      | Some c when Harness_chaos.enabled c -> Some c
      | _ -> None
    in
    let b =
      {
        m = Mutex.create ();
        changed = Condition.create ();
        arr;
        f;
        pol = policy;
        chaos;
        lat = Harness_chaos.latch ();
        status = Array.init len (fun _ -> Pending { not_before = 0; attempt = 1 });
        reports = Array.make len None;
        lanes = Array.make len None;
        t_start = Clock.now_ns ();
        settled = 0;
        n_pending = len;
        claim_ctr = 0;
        worker_ctr = 0;
        workers = [];
        b_retries = 0;
        b_timeouts = 0;
        b_quarantined = 0;
        b_replaced = 0;
        b_degraded = false;
        b_chaos = 0;
        retry_log = [];
      }
    in
    let jobs = max 1 (min jobs 64) in
    if jobs = 1 && policy.deadline_ns = None then run_inline b
    else monitor b ~jobs:(min jobs len);
    flush_telemetry b;
    Array.map Option.get b.reports
  end
