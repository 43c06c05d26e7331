(* The domain pool, the supervisor and the deterministic-merge contract
   of the sweep pipeline.

   The contract under test: [Qe_par.Supervisor] is index-deterministic
   (results land by input slot; read through [values], errors surface
   by smallest failing index), settles every task to its own outcome,
   puts the caller to work when there is no deadline and draws one
   trace lane per worker; and
   [Campaign.sweep]/[chaos_sweep] return the same records, the same
   metric totals and the same trace at any [jobs] — including under fault
   plans, a livelock watchdog, harness chaos and a checkpoint resume.

   Records embed [Color.t] values whose mint ids are fresh per
   [World.make], and [wall_ns] is a clock reading, so cross-sweep
   comparisons go through id-free normal forms (names, rendered
   outcomes, counts), never (=) on raw records. *)

module Families = Qe_graph.Families
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Watchdog = Qe_fault.Watchdog
module Campaign = Qe_elect.Campaign
module Supervisor = Qe_par.Supervisor

let elect = Qe_elect.Elect.protocol

(* ---------- the plain-map contract: values, resolve_jobs ---------- *)

exception Boom of int

(* one attempt per task: what selftest and frontier run under *)
let one_attempt = Supervisor.policy ~max_attempts:1 ()

let test_values_error_smallest_index () =
  (try
     ignore
       (Supervisor.values
          (Supervisor.map ~policy:one_attempt ~jobs:4
             ~f:(fun i () -> if i mod 3 = 1 then raise (Boom i) else i)
             (Array.make 50 ())));
     Alcotest.fail "expected Boom"
   with Boom i -> Alcotest.(check int) "smallest failing index" 1 i);
  Alcotest.(check (array int))
    "next batch succeeds" (Array.init 10 Fun.id)
    (Supervisor.values
       (Supervisor.map ~policy:one_attempt ~jobs:4
          ~f:(fun i () -> i)
          (Array.make 10 ())))

let test_resolve_jobs_and_empty () =
  Alcotest.(check bool) "-j 0 resolves to >= 1" true
    (Supervisor.resolve_jobs 0 >= 1);
  Alcotest.(check int) "negative clamps to 1" 1 (Supervisor.resolve_jobs (-3));
  Alcotest.(check int) "empty map" 0
    (Array.length (Supervisor.map ~jobs:4 ~f:(fun i _ -> i) [||]))

let test_edge_cases () =
  let before = Supervisor.totals () in
  ignore (Supervisor.map ~jobs:8 ~f:(fun i _ -> i) ([||] : unit array));
  Alcotest.(check bool) "empty input supervises nothing" true
    (before = Supervisor.totals ());
  Alcotest.(check (array int))
    "3 items at jobs:8" [| 0; 10; 20 |]
    (Supervisor.values
       (Supervisor.map ~policy:one_attempt ~jobs:8
          ~f:(fun i _ -> i * 10)
          (Array.make 3 ())))

(* ---------- differential determinism: sweep ---------- *)

let small_zoo () =
  List.filter
    (fun i ->
      List.mem i.Campaign.name
        [ "C5/adjacent"; "path4/asym"; "star3/leaves"; "K4/pair" ])
    (Campaign.zoo ())

let two_strategies =
  [ ("random", Engine.Random_fair 0); ("synchronous", Engine.Synchronous) ]

(* id-free normal form of a record: everything except [wall_ns] (a clock
   reading) and the token ids buried in [outcome]/[prediction] *)
let norm (r : Campaign.record) =
  ( ( r.Campaign.inst.Campaign.name,
      r.Campaign.protocol_name,
      r.Campaign.strategy_name,
      r.Campaign.seed ),
    ( Engine.outcome_to_string r.Campaign.outcome,
      r.Campaign.elected,
      r.Campaign.expected_elected,
      r.Campaign.conforms,
      r.Campaign.gcd ),
    ( r.Campaign.agents,
      r.Campaign.nodes,
      r.Campaign.edges,
      r.Campaign.moves,
      r.Campaign.accesses,
      r.Campaign.turns ) )

(* a fresh sweep's full records; a quarantined task would silently
   shrink the matrix, so it fails the test instead *)
let records_of (rows, summary) =
  Alcotest.(check (list (pair int string)))
    "nothing quarantined" [] summary.Campaign.h_quarantined;
  List.filter_map (fun r -> r.Campaign.s_record) rows

(* the CLI's --metrics-port wiring: [sweep ~live] folding every task's
   snapshot into a mutex-guarded merge. Latency histograms are wall
   clock, so the returned total drops them. *)
let live_sweep ?seeds ?jobs instances =
  let acc = ref [] and m = Mutex.create () in
  let push snap =
    Mutex.lock m;
    acc := Qe_obs.Metrics.merge !acc snap;
    Mutex.unlock m
  in
  let records =
    records_of
      (Campaign.sweep ?seeds ~strategies:two_strategies ?jobs ~live:push
         ~expected:Campaign.elect_expected elect instances)
  in
  ( records,
    List.filter (fun (name, _) -> not (Qe_obs.Metrics.is_latency name)) !acc )

(* one live sweep per instance: per-instance snapshots and their merge *)
let live_per_instance ?seeds ?jobs instances =
  let per =
    List.map
      (fun i ->
        let records, snap = live_sweep ?seeds ?jobs [ i ] in
        (records, (i.Campaign.name, snap)))
      instances
  in
  ( List.concat_map fst per,
    List.map snd per,
    List.fold_left
      (fun acc (_, (_, s)) -> Qe_obs.Metrics.merge acc s)
      [] per )

let sweep_at ~seeds jobs =
  Campaign.sweep ~seeds ~strategies:two_strategies ~jobs
    ~expected:Campaign.elect_expected elect (small_zoo ())
  |> records_of |> List.map norm

let prop_sweep_jobs_invariant =
  QCheck.Test.make ~name:"sweep is bit-identical at -j 1/2/4/8" ~count:6
    QCheck.(pair (int_bound 1_000) (oneofl [ 2; 4; 8 ]))
    (fun (seed, jobs) ->
      let seeds = [ seed; seed + 1 ] in
      sweep_at ~seeds 1 = sweep_at ~seeds jobs)

(* The hammer: records AND observed snapshots across j1/j2/j8 in one
   go, on instances of different sizes. *)
let test_determinism_hammer () =
  let go jobs =
    let records, per_instance, total =
      live_per_instance ~seeds:[ 0; 1; 2 ] ~jobs (small_zoo ())
    in
    let strip snap =
      List.filter
        (fun (name, _) ->
          not
            (String.starts_with ~prefix:"cache." name
            || String.starts_with ~prefix:"pool." name))
        snap
    in
    ( List.map norm records,
      List.map (fun (k, s) -> (k, strip s)) per_instance,
      strip total )
  in
  let r1 = go 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "j%d = j1 (records + snapshots)" jobs)
        true
        (go jobs = r1))
    [ 2; 8 ]

let test_observed_sweep_jobs_invariant () =
  let go jobs = live_per_instance ~seeds:[ 0; 1 ] ~jobs (small_zoo ()) in
  let r1, p1, t1 = go 1 in
  let r4, p4, t4 = go 4 in
  Alcotest.(check bool) "same records" true (List.map norm r1 = List.map norm r4);
  (* snapshots are pure names-and-numbers data: (=) is exact — except the
     cache.* counters, which depend on what the process-wide artifact
     cache already holds from earlier runs (the first sweep warms it for
     the second), so jobs-invariance is asserted modulo them *)
  let strip snap =
    List.filter
      (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
      snap
  in
  let strip_all l = List.map (fun (k, s) -> (k, strip s)) l in
  Alcotest.(check bool)
    "same per-instance snapshots" true
    (strip_all p1 = strip_all p4);
  Alcotest.(check bool) "same merged total" true (strip t1 = strip t4);
  Alcotest.(check bool) "total is non-trivial" true (t1 <> []);
  (* a single sweep over the whole matrix merges to the same total *)
  let _, whole = live_sweep ~seeds:[ 0; 1 ] ~jobs:4 (small_zoo ()) in
  Alcotest.(check bool) "one sweep = per-instance merge" true
    (strip whole = strip t1)

(* ---------- differential determinism: chaos (fault plans) ---------- *)

let cnorm (r : Campaign.chaos_record) =
  ( ( r.Campaign.c_inst.Campaign.name,
      r.Campaign.c_strategy,
      r.Campaign.c_plan_kind,
      r.Campaign.c_plan.Qe_fault.Plan.seed ),
    ( Campaign.outcome_label r.Campaign.c_outcome,
      List.map (fun (k, n) -> (Qe_fault.Kind.name k, n)) r.Campaign.c_faults,
      r.Campaign.c_leaders,
      List.length r.Campaign.c_violations,
      r.Campaign.c_turns ) )

let chaos_at ?watchdog ?(proto = elect) ?(instances = small_zoo ()) ~seeds jobs
    =
  (* a fresh sink per sweep: c_metrics is the merge of the per-task
     sinks at every -j — the equality below is the whole point *)
  let obs = Qe_obs.Sink.create () in
  fst
    (Campaign.chaos_sweep ~seeds ~strategies:two_strategies ?watchdog ~obs
       ~jobs ~expected:Campaign.elect_expected proto instances)

let test_chaos_sweep_jobs_invariant () =
  let r1 = chaos_at ~seeds:2 1 in
  let r4 = chaos_at ~seeds:2 4 in
  Alcotest.(check bool) "same records" true
    (List.map cnorm r1.Campaign.c_records
    = List.map cnorm r4.Campaign.c_records);
  Alcotest.(check int) "same runs" r1.Campaign.c_runs r4.Campaign.c_runs;
  Alcotest.(check int) "same faults fired" r1.Campaign.c_faults_fired
    r4.Campaign.c_faults_fired;
  Alcotest.(check bool) "same outcome histogram" true
    (r1.Campaign.c_outcomes = r4.Campaign.c_outcomes);
  Alcotest.(check bool) "some faults fired" true
    (r1.Campaign.c_faults_fired > 0);
  Alcotest.(check bool) "diffed metrics = merged metrics" true
    (r1.Campaign.c_metrics = r4.Campaign.c_metrics);
  Alcotest.(check bool) "metrics non-trivial" true
    (r1.Campaign.c_metrics <> [])

(* Walks forever without posting: board-progress-free, so every run ends
   in the livelock watchdog. A Timeout in one pool domain must leave the
   other tasks (and the aggregate) untouched. *)
let forever_mover =
  {
    Protocol.name = "forever-mover";
    quantitative = false;
    main =
      (fun _ctx ->
        let rec go (obs : Protocol.observation) =
          go (Script.move (List.hd (Lazy.force obs.ports)))
        in
        go (Script.observe ()));
  }

let test_chaos_livelock_watchdog_jobs_invariant () =
  let instances =
    List.filter
      (fun i -> List.mem i.Campaign.name [ "C5/adjacent"; "path4/asym" ])
      (Campaign.zoo ())
  in
  let wd = Watchdog.make ~livelock_window:64 () in
  let r1 = chaos_at ~watchdog:wd ~proto:forever_mover ~instances ~seeds:2 1 in
  let r4 = chaos_at ~watchdog:wd ~proto:forever_mover ~instances ~seeds:2 4 in
  Alcotest.(check bool) "same records under watchdog" true
    (List.map cnorm r1.Campaign.c_records
    = List.map cnorm r4.Campaign.c_records);
  (* every run timed out, and none of them poisoned the rest: the
     parallel sweep still aggregated every task *)
  Alcotest.(check int) "all runs completed" r1.Campaign.c_runs
    (List.length r4.Campaign.c_records);
  List.iter
    (fun (r : Campaign.chaos_record) ->
      match r.Campaign.c_outcome with
      | Engine.Timeout Watchdog.Livelock -> ()
      | o ->
          Alcotest.failf "%s/%s: expected livelock timeout, got %s"
            r.Campaign.c_inst.Campaign.name r.Campaign.c_strategy
            (Engine.outcome_to_string o))
    r4.Campaign.c_records

(* A streamed chaos trace is the same at -j 1 and -j 4: every non-span
   line in the same order (span trees carry wall-clock times and the
   batch's per-worker lanes), and the closing merged snapshot equal
   modulo wall-clock latency. Lines go through the JSONL codec, as a
   trace file would. *)
let test_chaos_trace_jobs_invariant () =
  let trace jobs =
    let lines = ref [] in
    let obs =
      Qe_obs.Sink.create
        ~on_line:(fun l ->
          lines := Qe_obs.Jsonl.to_string (Qe_obs.Export.to_json l) :: !lines)
        ()
    in
    ignore
      (Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies ~obs ~jobs
         ~expected:Campaign.elect_expected elect (small_zoo ()));
    List.rev_map
      (fun l ->
        match Qe_obs.Export.of_line l with
        | Ok line -> line
        | Error e -> Alcotest.failf "undecodable trace line: %s" e)
      !lines
    |> List.filter (function Qe_obs.Export.Span_tree _ -> false | _ -> true)
  in
  let split t =
    match List.rev t with
    | Qe_obs.Export.Metric_snapshot snap :: rest -> (List.rev rest, snap)
    | _ -> Alcotest.fail "trace does not end in a merged snapshot"
  in
  let lines1, snap1 = split (trace 1) in
  let lines4, snap4 = split (trace 4) in
  Alcotest.(check int) "same line count" (List.length lines1)
    (List.length lines4);
  Alcotest.(check bool) "same non-span lines, same order" true
    (lines1 = lines4);
  Alcotest.(check bool) "no per-run snapshots in the stream" true
    (List.for_all
       (function Qe_obs.Export.Metric_snapshot _ -> false | _ -> true)
       lines1);
  let strip =
    List.filter (fun (name, _) -> not (Qe_obs.Metrics.is_latency name))
  in
  Alcotest.(check bool) "merged snapshot equal modulo latency" true
    (strip snap1 = strip snap4);
  Alcotest.(check bool) "merged snapshot non-trivial" true (strip snap1 <> [])

(* ---------- campaign CSV + conformance rate (golden) ---------- *)

let csv_golden_header =
  "instance,family,protocol,strategy,seed,nodes,edges,agents,gcd,\
   expected_elected,elected,conforms,moves,accesses,turns,wall_ns"

let test_csv_golden () =
  Alcotest.(check string) "header schema" csv_golden_header Campaign.csv_header;
  let inst =
    List.find (fun i -> i.Campaign.name = "C5/adjacent") (Campaign.zoo ())
  in
  let r =
    Campaign.run_one
      ~strategy:("round-robin", Engine.Round_robin)
      ~seed:3 ~expected_elected:true inst elect
  in
  let cols = String.split_on_char ',' (Campaign.csv_row r) in
  Alcotest.(check int) "column count" 16 (List.length cols);
  let col n = List.nth cols n in
  Alcotest.(check string) "instance" "C5/adjacent" (col 0);
  Alcotest.(check string) "family" inst.Campaign.family (col 1);
  Alcotest.(check string) "protocol" r.Campaign.protocol_name (col 2);
  Alcotest.(check string) "strategy" "round-robin" (col 3);
  Alcotest.(check string) "seed" "3" (col 4);
  Alcotest.(check string) "nodes" (string_of_int r.Campaign.nodes) (col 5);
  Alcotest.(check string) "edges" (string_of_int r.Campaign.edges) (col 6);
  Alcotest.(check string) "agents" (string_of_int r.Campaign.agents) (col 7);
  Alcotest.(check string) "gcd" (string_of_int r.Campaign.gcd) (col 8);
  Alcotest.(check string) "expected_elected"
    (string_of_bool r.Campaign.expected_elected)
    (col 9);
  Alcotest.(check string) "elected" (string_of_bool r.Campaign.elected) (col 10);
  Alcotest.(check string) "conforms" (string_of_bool r.Campaign.conforms)
    (col 11);
  Alcotest.(check string) "moves" (string_of_int r.Campaign.moves) (col 12);
  Alcotest.(check string) "accesses" (string_of_int r.Campaign.accesses)
    (col 13);
  Alcotest.(check string) "turns" (string_of_int r.Campaign.turns) (col 14);
  Alcotest.(check string) "wall_ns last" (string_of_int r.Campaign.wall_ns)
    (col 15)

let test_conformance_rate () =
  let records =
    records_of
      (Campaign.sweep ~seeds:[ 0 ] ~strategies:two_strategies
         ~expected:Campaign.elect_expected elect (small_zoo ()))
  in
  let ok, total = Campaign.conformance_rate records in
  Alcotest.(check int) "total counts every record" (List.length records) total;
  Alcotest.(check int) "ok counts the conforming ones"
    (List.length (List.filter (fun r -> r.Campaign.conforms) records))
    ok;
  Alcotest.(check int) "the small zoo conforms fully" total ok;
  Alcotest.(check (pair int int)) "empty list" (0, 0)
    (Campaign.conformance_rate [])

(* ---------- soak (CI only: QELECT_SOAK=1) ---------- *)

(* 500 fault-plan seeds at -j 4 on a small instance pair: zero
   certification-consistency violations, and the sweep's merged
   [fault.injected.*] counters must equal the per-record fault totals.
   Gated behind an env var — ~4k chaos runs is CI soak material, not an
   editor-loop test. *)
let test_soak () =
  match Sys.getenv_opt "QELECT_SOAK" with
  | None | Some "" | Some "0" ->
      print_endline "soak skipped (set QELECT_SOAK=1 to run)"
  | Some _ ->
      let instances =
        List.filter
          (fun i -> List.mem i.Campaign.name [ "C5/adjacent"; "K4/pair" ])
          (Campaign.zoo ())
      in
      let obs = Qe_obs.Sink.create () in
      let report, _ =
        Campaign.chaos_sweep ~seeds:500 ~strategies:two_strategies ~obs
          ~jobs:4 ~expected:Campaign.elect_expected elect instances
      in
      Alcotest.(check int) "matrix size" (500 * 2 * 2 * 2)
        report.Campaign.c_runs;
      (match report.Campaign.c_violating with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "soak: %d violating runs (first: %s/%s/%s seed %d)"
            (List.length report.Campaign.c_violating)
            v.Campaign.c_inst.Campaign.name v.Campaign.c_strategy
            v.Campaign.c_plan_kind v.Campaign.c_plan.Qe_fault.Plan.seed);
      let counter name =
        match Qe_obs.Metrics.find report.Campaign.c_metrics name with
        | Some (Qe_obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      Alcotest.(check int) "fault.injected = summed record faults"
        report.Campaign.c_faults_fired (counter "fault.injected");
      List.iter
        (fun (k, n) ->
          Alcotest.(check int)
            ("fault.injected." ^ Qe_fault.Kind.name k)
            n
            (counter ("fault.injected." ^ Qe_fault.Kind.name k)))
        report.Campaign.c_by_kind;
      Alcotest.(check bool) "faults actually fired" true
        (report.Campaign.c_faults_fired > 0)

(* ---------- supervisor ---------- *)

module HChaos = Qe_par.Harness_chaos

let fast_policy ?deadline_ns ?(max_attempts = 3) () =
  (* microsecond backoffs: retries should not slow the suite down *)
  Supervisor.policy ?deadline_ns ~max_attempts ~backoff_base_ns:1_000
    ~backoff_max_ns:50_000 ()

let test_supervisor_basic () =
  List.iter
    (fun jobs ->
      let reports =
        Supervisor.map ~policy:(fast_policy ()) ~jobs
          ~f:(fun i x ->
            assert (i = x);
            x * x)
          (Array.init 50 Fun.id)
      in
      Array.iteri
        (fun i rep ->
          Alcotest.(check (option int)) "value in slot order" (Some (i * i))
            (Supervisor.value rep);
          Alcotest.(check int) "one attempt" 1 rep.Supervisor.attempts;
          Alcotest.(check bool) "not quarantined" false
            rep.Supervisor.quarantined)
        reports)
    [ 1; 4 ];
  Alcotest.(check int) "empty batch" 0
    (Array.length (Supervisor.map ~f:(fun _ x -> x) ([||] : int array)))

let test_backoff_deterministic () =
  let p = Supervisor.policy ~seed:3 () in
  for task = 0 to 5 do
    for attempt = 2 to 6 do
      let b1 = Supervisor.backoff_ns p ~task ~attempt in
      let b2 = Supervisor.backoff_ns p ~task ~attempt in
      Alcotest.(check int) "pure function of (seed, task, attempt)" b1 b2;
      let nominal =
        Float.min
          (float_of_int p.Supervisor.backoff_base_ns
          *. (p.Supervisor.backoff_factor ** float_of_int (attempt - 2)))
          (float_of_int p.Supervisor.backoff_max_ns)
      in
      let lo = nominal *. (1. -. p.Supervisor.jitter) in
      let hi = nominal *. (1. +. p.Supervisor.jitter) in
      Alcotest.(check bool) "within the jitter envelope" true
        (float_of_int b1 >= lo -. 1. && float_of_int b1 <= hi +. 1.)
    done
  done;
  Alcotest.(check int) "no wait before the first attempt" 0
    (Supervisor.backoff_ns p ~task:0 ~attempt:1);
  (* different seeds shift the schedule; same seed reproduces it *)
  let q = Supervisor.policy ~seed:4 () in
  Alcotest.(check bool) "seed moves the jitter" true
    (List.exists
       (fun t ->
         Supervisor.backoff_ns p ~task:t ~attempt:3
         <> Supervisor.backoff_ns q ~task:t ~attempt:3)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_supervisor_retry_and_quarantine () =
  Supervisor.reset_totals ();
  (* task 2 fails twice then succeeds; task 5 never succeeds; the batch
     must settle every slot and never raise *)
  let tries = Array.init 8 (fun _ -> Atomic.make 0) in
  let sink = Qe_obs.Sink.create () in
  let reports =
    Qe_obs.Sink.with_ambient sink (fun () ->
        Supervisor.map ~policy:(fast_policy ()) ~jobs:3
          ~f:(fun i x ->
            let a = 1 + Atomic.fetch_and_add tries.(i) 1 in
            if i = 2 && a < 3 then failwith "transient";
            if i = 5 then failwith "poisoned";
            x * 10)
          (Array.init 8 Fun.id))
  in
  Array.iteri
    (fun i rep ->
      match i with
      | 2 ->
          Alcotest.(check (option int)) "transient task recovers" (Some 20)
            (Supervisor.value rep);
          Alcotest.(check int) "after three attempts" 3 rep.Supervisor.attempts
      | 5 -> (
          Alcotest.(check bool) "poisoned task quarantined" true
            rep.Supervisor.quarantined;
          match rep.Supervisor.outcome with
          | Supervisor.Failed (Failure msg) when msg = "poisoned" -> ()
          | _ -> Alcotest.fail "expected the last Failure to be reported")
      | _ ->
          Alcotest.(check (option int)) "bystanders unaffected" (Some (i * 10))
            (Supervisor.value rep))
    reports;
  let t = Supervisor.totals () in
  Alcotest.(check int) "retries counted" 4 t.Supervisor.retries;
  (* 2 for task 2, 2 for task 5 *)
  Alcotest.(check int) "one quarantine" 1 t.Supervisor.quarantined;
  Alcotest.(check int) "all tasks supervised" 8 t.Supervisor.supervised;
  (* ambient telemetry: counters + one pool.retry span per retried or
     quarantined attempt, carrying (task, attempt, why, backoff_ns) *)
  let snap = Qe_obs.Metrics.snapshot sink.Qe_obs.Sink.metrics in
  (match Qe_obs.Metrics.find snap "pool.retry" with
  | Some (Qe_obs.Metrics.Counter n) ->
      Alcotest.(check int) "ambient pool.retry" 4 n
  | _ -> Alcotest.fail "pool.retry missing from ambient sink");
  (match Qe_obs.Metrics.find snap "pool.quarantine" with
  | Some (Qe_obs.Metrics.Counter n) ->
      Alcotest.(check int) "ambient pool.quarantine" 1 n
  | _ -> Alcotest.fail "pool.quarantine missing from ambient sink");
  let retry_spans =
    List.filter
      (fun c -> c.Qe_obs.Span.name = "pool.retry")
      (Qe_obs.Span.roots sink.Qe_obs.Sink.spans)
  in
  Alcotest.(check int) "one span per failed attempt" 5
    (List.length retry_spans);
  List.iter
    (fun s ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("span attr " ^ k) true
            (List.mem_assoc k s.Qe_obs.Span.attrs))
        [ "task"; "attempt"; "why"; "backoff_ns" ])
    retry_spans;
  (* the supervisor registry is a ready-made scrape source *)
  match Qe_obs.Metrics.find (Supervisor.metrics_snapshot ()) "pool.quarantine" with
  | Some (Qe_obs.Metrics.Counter n) ->
      Alcotest.(check int) "metrics_snapshot quarantine" 1 n
  | _ -> Alcotest.fail "pool.quarantine missing from metrics_snapshot"

(* The supervisor's trace lanes: one [pool.batch] root per worker that
   settled a task, with [pool.task] children covering every index once;
   an inline (-j 1) batch draws none. *)
let test_supervisor_lanes () =
  let lanes jobs =
    let sink = Qe_obs.Sink.create () in
    let reports =
      Qe_obs.Sink.with_ambient sink (fun () ->
          Supervisor.map ~policy:(fast_policy ()) ~jobs
            ~f:(fun i x ->
              Unix.sleepf 0.001;
              i + x)
            (Array.init 24 Fun.id))
    in
    Array.iteri
      (fun i rep ->
        Alcotest.(check (option int)) "results unaffected" (Some (2 * i))
          (Supervisor.value rep))
      reports;
    List.filter
      (fun c -> c.Qe_obs.Span.name = "pool.batch")
      (Qe_obs.Span.roots sink.Qe_obs.Sink.spans)
  in
  let int_attr k (c : Qe_obs.Span.closed) =
    match List.assoc_opt k c.Qe_obs.Span.attrs with
    | Some (Qe_obs.Jsonl.Int d) -> d
    | _ -> Alcotest.failf "span %s lacks int attr %s" c.Qe_obs.Span.name k
  in
  let batches = lanes 3 in
  Alcotest.(check bool) "one to three worker lanes" true
    (batches <> [] && List.length batches <= 3);
  let domains = List.sort compare (List.map (int_attr "domain") batches) in
  Alcotest.(check (list int)) "lanes carry distinct domain ids"
    (List.sort_uniq compare domains)
    domains;
  List.iter
    (fun d ->
      Alcotest.(check bool) "domain is a worker id" true (d >= 1 && d <= 3))
    domains;
  let tasks =
    List.concat_map
      (fun c ->
        let children =
          List.filter
            (fun ch -> ch.Qe_obs.Span.name = "pool.task")
            c.Qe_obs.Span.children
        in
        Alcotest.(check int) "tasks attr = children" (int_attr "tasks" c)
          (List.length children);
        children)
      batches
  in
  Alcotest.(check (list int)) "every index exactly once"
    (List.init 24 Fun.id)
    (List.sort compare (List.map (int_attr "idx") tasks));
  List.iter
    (fun t ->
      Alcotest.(check int) "settled on attempt 1" 1 (int_attr "attempt" t))
    tasks;
  Alcotest.(check int) "no lanes inline at -j 1" 0 (List.length (lanes 1))

(* Without a deadline the caller is one of the [jobs] workers; under a
   deadline it only monitors. *)
let test_supervisor_caller_works () =
  let caller = (Domain.self () :> int) in
  let ran_on policy =
    Supervisor.values
      (Supervisor.map ~policy ~jobs:2
         ~f:(fun _ () ->
           Unix.sleepf 0.01;
           (Domain.self () :> int))
         (Array.make 4 ()))
  in
  Alcotest.(check bool) "the caller ran a task" true
    (Array.mem caller (ran_on (fast_policy ())));
  Alcotest.(check bool) "a monitoring caller runs none" false
    (Array.mem caller (ran_on (fast_policy ~deadline_ns:10_000_000_000 ())))

let test_harness_chaos_decide () =
  let c = HChaos.make ~kill_rate:0.1 ~delay_rate:0.1 ~seed:5 () in
  (* pure: any domain, any order, same verdicts *)
  for task = 0 to 40 do
    for attempt = 1 to 3 do
      Alcotest.(check bool) "decide is pure" true
        (HChaos.decide c ~task ~attempt = HChaos.decide c ~task ~attempt)
    done
  done;
  (* per-kind draws are independent: enabling delays must not move the
     kills (each kind has its own position in the per-decision stream) *)
  let kills_of plan =
    List.filter
      (fun t -> HChaos.decide plan ~task:t ~attempt:1 = HChaos.Kill)
      (List.init 200 Fun.id)
  in
  let kill_only = HChaos.make ~kill_rate:0.1 ~seed:5 () in
  Alcotest.(check (list int)) "kills independent of other kinds"
    (kills_of kill_only) (kills_of c);
  Alcotest.(check bool) "some kills at 10%" true (kills_of c <> []);
  Alcotest.(check bool) "none disabled" false (HChaos.enabled HChaos.none)

let test_supervisor_harness_chaos () =
  Supervisor.reset_totals ();
  (* heavy kills: every task must still complete, on exactly the attempt
     the (pure) plan predicts, at any job count, with identical results *)
  let plan = HChaos.make ~kill_rate:0.6 ~seed:1 () in
  let expected_attempts t =
    let rec go a =
      if HChaos.decide plan ~task:t ~attempt:a = HChaos.Kill then go (a + 1)
      else a
    in
    go 1
  in
  let run jobs =
    Supervisor.map
      ~policy:(fast_policy ~max_attempts:12 ())
      ~chaos:plan ~jobs
      ~f:(fun i x -> i + x)
      (Array.init 20 (fun i -> 100 * i))
  in
  let r1 = run 1 and r4 = run 4 in
  Array.iteri
    (fun i rep ->
      Alcotest.(check (option int)) "completed despite kills"
        (Some (i + (100 * i)))
        (Supervisor.value rep);
      Alcotest.(check int) "attempts = the plan's prediction"
        (expected_attempts i) rep.Supervisor.attempts;
      Alcotest.(check bool) "same report at -j 4" true
        (Supervisor.value rep = Supervisor.value r4.(i)
        && rep.Supervisor.attempts = r4.(i).Supervisor.attempts))
    r1;
  let kills =
    List.fold_left
      (fun acc t -> acc + expected_attempts t - 1)
      0
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "the plan actually killed attempts" true (kills > 0);
  let t = Supervisor.totals () in
  Alcotest.(check int) "every kill counted, both runs" (2 * kills)
    t.Supervisor.chaos_injected;
  (* a plan that kills attempts 1 and 2 quarantines at max_attempts 2
     but the rest of the batch still completes *)
  let reports =
    Supervisor.map
      ~policy:(fast_policy ~max_attempts:2 ())
      ~chaos:(HChaos.make ~kill_rate:0.5 ~seed:2 ()) ~jobs:4
      ~f:(fun i _ -> i)
      (Array.make 40 ())
  in
  let quarantined =
    Array.to_list reports
    |> List.filter (fun (r : _ Supervisor.report) -> r.Supervisor.quarantined)
    |> List.length
  in
  Alcotest.(check bool) "0.5^2 kills some tasks at 2 attempts" true
    (quarantined > 0);
  Array.iteri
    (fun i (rep : _ Supervisor.report) ->
      if not rep.Supervisor.quarantined then
        Alcotest.(check (option int)) "survivors all settled" (Some i)
          (Supervisor.value rep))
    reports

let test_supervisor_deadline_and_replacement () =
  Supervisor.reset_totals ();
  (* task 0's first attempt sleeps far past the deadline: the monitor
     must time it out, write the worker off, replace it, and the retry
     (fresh per-attempt budget) must succeed even though the task's
     cumulative wall time exceeds the deadline *)
  let tries = Atomic.make 0 in
  let policy = fast_policy ~deadline_ns:80_000_000 () in
  let sink = Qe_obs.Sink.create () in
  let reports =
    Qe_obs.Sink.with_ambient sink (fun () ->
        Supervisor.map ~policy ~jobs:2
          ~f:(fun i x ->
            if i = 0 && 1 + Atomic.fetch_and_add tries 1 = 1 then
              Unix.sleepf 0.5 (* wedged: > deadline, < test patience *);
            if i = 0 then
              Unix.sleepf 0.05 (* attempt 2: most of a fresh budget *);
            x + 1)
          (Array.init 6 Fun.id))
  in
  Array.iteri
    (fun i rep ->
      Alcotest.(check (option int)) "all settled" (Some (i + 1))
        (Supervisor.value rep))
    reports;
  Alcotest.(check int) "wedged task retried once" 2
    reports.(0).Supervisor.attempts;
  let t = Supervisor.totals () in
  Alcotest.(check int) "one timeout" 1 t.Supervisor.timeouts;
  Alcotest.(check int) "one worker replaced" 1 t.Supervisor.replaced;
  Alcotest.(check int) "no quarantine" 0 t.Supervisor.quarantined;
  (* the timeout's span carries the backoff its retry was scheduled at *)
  match
    List.filter
      (fun c -> c.Qe_obs.Span.name = "pool.retry")
      (Qe_obs.Span.roots sink.Qe_obs.Sink.spans)
  with
  | [ span ] ->
      Alcotest.(check (option string)) "why" (Some "timeout")
        (match List.assoc_opt "why" span.Qe_obs.Span.attrs with
        | Some (Qe_obs.Jsonl.String w) -> Some w
        | _ -> None);
      Alcotest.(check (option int)) "backoff_ns of the scheduled retry"
        (Some (Supervisor.backoff_ns policy ~task:0 ~attempt:2))
        (match List.assoc_opt "backoff_ns" span.Qe_obs.Span.attrs with
        | Some (Qe_obs.Jsonl.Int b) -> Some b
        | _ -> None)
  | spans ->
      Alcotest.failf "expected one pool.retry span, got %d" (List.length spans)

let test_supervisor_timeout_quarantine () =
  Supervisor.reset_totals ();
  (* a task that wedges on every attempt exhausts max_attempts as
     Timed_out; the other tasks are unaffected *)
  let reports =
    Supervisor.map
      ~policy:(fast_policy ~deadline_ns:50_000_000 ~max_attempts:2 ())
      ~jobs:2
      ~f:(fun i x ->
        if i = 3 then Unix.sleepf 0.4;
        x * 2)
      (Array.init 5 Fun.id)
  in
  (match reports.(3).Supervisor.outcome with
  | Supervisor.Timed_out ->
      Alcotest.(check bool) "quarantined" true reports.(3).Supervisor.quarantined
  | _ -> Alcotest.fail "expected Timed_out for the wedged task");
  Array.iteri
    (fun i rep ->
      if i <> 3 then
        Alcotest.(check (option int)) "bystanders complete" (Some (i * 2))
          (Supervisor.value rep))
    reports;
  let t = Supervisor.totals () in
  Alcotest.(check int) "both attempts timed out" 2 t.Supervisor.timeouts;
  Alcotest.(check int) "quarantined once" 1 t.Supervisor.quarantined

(* The S3 regression: a retried task must face a fresh engine watchdog,
   not the previous attempt's spent budget. Attempt 1 burns more wall
   time than the whole watchdog allows and dies; attempt 2 then runs the
   engine under that watchdog and must elect, which can only happen if
   the wall budget starts counting at Engine.run, not at first try. *)
let test_watchdog_fresh_per_attempt () =
  let watchdog = Watchdog.make ~wall_ns:100_000_000 () in
  let tries = Atomic.make 0 in
  let reports =
    Supervisor.map ~policy:(fast_policy ()) ~jobs:2
      ~f:(fun _ () ->
        if 1 + Atomic.fetch_and_add tries 1 = 1 then begin
          Unix.sleepf 0.15;
          failwith "attempt 1 spends more than the watchdog's wall budget"
        end;
        let world = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
        let r =
          Engine.run ~strategy:Engine.Round_robin ~seed:0 ~watchdog world elect
        in
        r.Engine.outcome)
      [| () |]
  in
  Alcotest.(check int) "second attempt" 2 reports.(0).Supervisor.attempts;
  match Supervisor.value reports.(0) with
  | Some (Engine.Elected _) -> ()
  | Some o ->
      Alcotest.failf "expected Elected on the fresh budget, got %s"
        (Campaign.outcome_label o)
  | None -> Alcotest.fail "retried task did not settle"

(* ---------- hardened campaign: supervision + checkpoint ---------- *)

let rows_minus_wall rows =
  List.map
    (fun r ->
      match String.rindex_opt r.Campaign.s_csv ',' with
      | Some i -> String.sub r.Campaign.s_csv 0 i
      | None -> r.Campaign.s_csv)
    rows

(* the calm baseline is a -j 1 sweep with no harness chaos; supervised
   -j 4 runs, with and without injected task kills, must match it *)
let test_sweep_hardened_matches_sweep () =
  let records =
    records_of
      (Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies ~jobs:1
         ~expected:Campaign.elect_expected elect (small_zoo ()))
  in
  let plain =
    List.map
      (fun r ->
        let row = Campaign.csv_row r in
        String.sub row 0 (String.rindex row ','))
      records
  in
  List.iter
    (fun (jobs, chaos) ->
      let rows, summary =
        Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies
          ~jobs ?harness_chaos:chaos
          ~supervise:(fast_policy ~max_attempts:5 ())
          ~expected:Campaign.elect_expected elect (small_zoo ())
      in
      Alcotest.(check (list string))
        (Printf.sprintf "rows = sweep rows at -j %d" jobs)
        plain (rows_minus_wall rows);
      Alcotest.(check int) "nothing replayed" 0 summary.Campaign.h_replayed;
      Alcotest.(check (list (pair int string))) "nothing quarantined" []
        summary.Campaign.h_quarantined)
    [
      (1, None);
      (4, None);
      (4, Some (HChaos.make ~kill_rate:0.2 ~seed:11 ()));
    ]

let test_sweep_checkpoint_resume () =
  let ckpt = Filename.temp_file "qelect_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let run ?(resume = false) ?(jobs = 2) () =
        Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies
          ~jobs ~checkpoint:ckpt ~resume ~expected:Campaign.elect_expected
          elect (small_zoo ())
      in
      let rows1, _ = run () in
      (* full journal: a resume replays everything byte-for-byte,
         wall_ns included, and runs nothing *)
      let rows2, summary2 = run ~resume:true ~jobs:4 () in
      Alcotest.(check (list string)) "full resume is a pure replay"
        (List.map (fun r -> r.Campaign.s_csv) rows1)
        (List.map (fun r -> r.Campaign.s_csv) rows2);
      Alcotest.(check int) "everything replayed"
        (List.length rows1) summary2.Campaign.h_replayed;
      Alcotest.(check bool) "rows flagged as replayed" true
        (List.for_all (fun r -> r.Campaign.s_record = None) rows2);
      (* simulate a kill -9: keep the header and the first 7 records,
         leave a torn line at the tail — the loader must use the 7 and
         rerun the rest, reproducing the same records *)
      let lines =
        In_channel.with_open_text ckpt In_channel.input_lines
      in
      Out_channel.with_open_text ckpt (fun oc ->
          List.iteri
            (fun n l -> if n < 8 then Out_channel.output_string oc (l ^ "\n"))
            lines;
          Out_channel.output_string oc "{\"i\":9,\"ro");
      let rows3, summary3 = run ~resume:true ~jobs:4 () in
      Alcotest.(check int) "seven tasks replayed" 7
        summary3.Campaign.h_replayed;
      Alcotest.(check (list string)) "torn-tail resume reproduces the sweep"
        (rows_minus_wall rows1) (rows_minus_wall rows3);
      (* a journal from a different matrix is refused *)
      Alcotest.check_raises "meta mismatch refuses"
        (Failure "meta")
        (fun () ->
          try
            ignore
              (Campaign.sweep ~seeds:[ 0; 1; 2 ]
                 ~strategies:two_strategies ~checkpoint:ckpt ~resume:true
                 ~expected:Campaign.elect_expected elect (small_zoo ()))
          with Failure _ -> raise (Failure "meta")))

(* A journal line that parses but does not decode — a sweep entry with
   no payload, a chaos entry naming an unknown fault kind — is treated
   as not journaled: its task re-runs, and the resumed output equals an
   uninterrupted run. Journals written at -j 1 list tasks in index
   order, so line k + 1 is task k. *)
let test_journal_undecodable_lines () =
  let ckpt = Filename.temp_file "qelect_test" ".ckpt" in
  let rewrite ~keep ~extra =
    let lines = In_channel.with_open_text ckpt In_channel.input_lines in
    Out_channel.with_open_text ckpt (fun oc ->
        List.iteri
          (fun n l -> if keep n then Out_channel.output_string oc (l ^ "\n"))
          lines;
        Out_channel.output_string oc (extra ^ "\n"))
  in
  (* keep the header and tasks 1..6; task 0 only has the bad line *)
  let keep n = n = 0 || (n >= 2 && n <= 7) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let sweep ?(resume = false) () =
        Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies ~jobs:1
          ~checkpoint:ckpt ~resume ~expected:Campaign.elect_expected elect
          (small_zoo ())
      in
      let rows1, _ = sweep () in
      rewrite ~keep ~extra:{|{"i":0}|};
      let rows2, summary2 = sweep ~resume:true () in
      Alcotest.(check int) "payload-less entry not replayed" 6
        summary2.Campaign.h_replayed;
      Alcotest.(check (list string)) "sweep equals the uninterrupted run"
        (rows_minus_wall rows1) (rows_minus_wall rows2);
      Alcotest.(check bool) "task 0 re-ran" true
        ((List.hd rows2).Campaign.s_record <> None);
      let chaos ?(resume = false) () =
        Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies ~jobs:1
          ~checkpoint:ckpt ~resume ~expected:Campaign.elect_expected elect
          (small_zoo ())
      in
      let full, _ = chaos () in
      rewrite ~keep
        ~extra:
          ({|{"i":0,"outcome":"elected","faults":[["bogus",1]],|}
          ^ {|"leaders":1,"turns":9}|});
      let resumed, summary = chaos ~resume:true () in
      Alcotest.(check int) "unknown fault kind not replayed" 6
        summary.Campaign.h_replayed;
      Alcotest.(check int) "same runs" full.Campaign.c_runs
        resumed.Campaign.c_runs;
      Alcotest.(check (list (pair string int))) "same outcomes"
        full.Campaign.c_outcomes resumed.Campaign.c_outcomes;
      Alcotest.(check int) "same faults" full.Campaign.c_faults_fired
        resumed.Campaign.c_faults_fired;
      Alcotest.(check bool) "same by-kind" true
        (full.Campaign.c_by_kind = resumed.Campaign.c_by_kind);
      Alcotest.(check int) "same zero-fault count"
        full.Campaign.c_zero_fault_runs resumed.Campaign.c_zero_fault_runs)

let test_chaos_hardened_matches_chaos () =
  let plain, _ =
    Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies ~jobs:1
      ~expected:Campaign.elect_expected elect (small_zoo ())
  in
  let hardened, summary =
    Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies ~jobs:4
      ~harness_chaos:(HChaos.make ~kill_rate:0.2 ~seed:11 ())
      ~supervise:(fast_policy ~max_attempts:5 ())
      ~expected:Campaign.elect_expected elect (small_zoo ())
  in
  Alcotest.(check int) "same run count" plain.Campaign.c_runs
    hardened.Campaign.c_runs;
  Alcotest.(check int) "same faults fired" plain.Campaign.c_faults_fired
    hardened.Campaign.c_faults_fired;
  Alcotest.(check (list (pair string int))) "same outcome table"
    plain.Campaign.c_outcomes hardened.Campaign.c_outcomes;
  Alcotest.(check int) "same zero-fault count"
    plain.Campaign.c_zero_fault_runs hardened.Campaign.c_zero_fault_runs;
  Alcotest.(check int) "no violations either way" 0
    (List.length hardened.Campaign.c_violating);
  Alcotest.(check int) "nothing quarantined" 0
    (List.length summary.Campaign.h_quarantined);
  (* checkpointed chaos: a partial journal resumes to the same report *)
  let ckpt = Filename.temp_file "qelect_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let full, _ =
        Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies
          ~jobs:2 ~checkpoint:ckpt ~expected:Campaign.elect_expected elect
          (small_zoo ())
      in
      let lines = In_channel.with_open_text ckpt In_channel.input_lines in
      Out_channel.with_open_text ckpt (fun oc ->
          List.iteri
            (fun n l -> if n < 11 then Out_channel.output_string oc (l ^ "\n"))
            lines);
      let resumed, summary =
        Campaign.chaos_sweep ~seeds:2 ~strategies:two_strategies
          ~jobs:4 ~checkpoint:ckpt ~resume:true
          ~expected:Campaign.elect_expected elect (small_zoo ())
      in
      Alcotest.(check int) "ten replayed" 10 summary.Campaign.h_replayed;
      Alcotest.(check int) "same runs" full.Campaign.c_runs
        resumed.Campaign.c_runs;
      Alcotest.(check (list (pair string int))) "same outcomes resumed"
        full.Campaign.c_outcomes resumed.Campaign.c_outcomes;
      Alcotest.(check int) "same faults resumed" full.Campaign.c_faults_fired
        resumed.Campaign.c_faults_fired;
      Alcotest.(check bool) "by-kind identical" true
        (full.Campaign.c_by_kind = resumed.Campaign.c_by_kind))

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "error by smallest index" `Quick
            test_values_error_smallest_index;
          Alcotest.test_case "clamp + run" `Quick test_resolve_jobs_and_empty;
          Alcotest.test_case "edge cases (empty, len < jobs)" `Quick
            test_edge_cases;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_sweep_jobs_invariant;
          Alcotest.test_case "hammer j1/j2/j8 (records + snapshots)" `Quick
            test_determinism_hammer;
          Alcotest.test_case "observed_sweep" `Quick
            test_observed_sweep_jobs_invariant;
          Alcotest.test_case "chaos_sweep (fault plans)" `Quick
            test_chaos_sweep_jobs_invariant;
          Alcotest.test_case "chaos_sweep (livelock watchdog)" `Quick
            test_chaos_livelock_watchdog_jobs_invariant;
          Alcotest.test_case "chaos trace at -j 1 = -j 4" `Quick
            test_chaos_trace_jobs_invariant;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "map basic" `Quick test_supervisor_basic;
          Alcotest.test_case "backoff deterministic" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "retry, quarantine + telemetry" `Quick
            test_supervisor_retry_and_quarantine;
          Alcotest.test_case "batch lanes" `Quick test_supervisor_lanes;
          Alcotest.test_case "caller works without a deadline" `Quick
            test_supervisor_caller_works;
          Alcotest.test_case "harness chaos decide" `Quick
            test_harness_chaos_decide;
          Alcotest.test_case "survives harness chaos" `Quick
            test_supervisor_harness_chaos;
          Alcotest.test_case "deadline + worker replacement" `Quick
            test_supervisor_deadline_and_replacement;
          Alcotest.test_case "timeout quarantine" `Quick
            test_supervisor_timeout_quarantine;
          Alcotest.test_case "fresh watchdog per attempt" `Quick
            test_watchdog_fresh_per_attempt;
        ] );
      ( "hardened",
        [
          Alcotest.test_case "sweep_hardened = sweep" `Quick
            test_sweep_hardened_matches_sweep;
          Alcotest.test_case "checkpoint resume" `Quick
            test_sweep_checkpoint_resume;
          Alcotest.test_case "undecodable journal lines re-run" `Quick
            test_journal_undecodable_lines;
          Alcotest.test_case "chaos hardened + resume" `Quick
            test_chaos_hardened_matches_chaos;
        ] );
      ( "campaign-csv",
        [
          Alcotest.test_case "golden schema" `Quick test_csv_golden;
          Alcotest.test_case "conformance rate" `Quick test_conformance_rate;
        ] );
      ("soak", [ Alcotest.test_case "500-seed chaos -j 4" `Slow test_soak ]);
    ]
