(* Fault injection, watchdogs and the chaos campaign.

   The contract under test: a fault plan is deterministic and budgeted;
   a plan with all rates zero is observationally invisible; every fired
   fault is an engine event and a metric; watchdogs turn wedged runs
   into structured [Timeout]s; and the chaos sweep's safety invariants
   hold on a small matrix. *)

module Families = Qe_graph.Families
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Plan = Qe_fault.Plan
module Kind = Qe_fault.Kind
module Watchdog = Qe_fault.Watchdog
module Campaign = Qe_elect.Campaign

let elect = Qe_elect.Elect.protocol

(* Walks forever without ever posting: board-progress-free by
   construction, so the livelock watchdog must catch it. *)
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

let run_events ?faults world proto =
  let events = ref [] in
  let on_event e =
    events := Format.asprintf "%a" Engine.pp_event e :: !events
  in
  let r = Engine.run ~seed:7 ~on_event ?faults world proto in
  (r, List.rev !events)

(* ---------- plans and determinism ---------- *)

let test_plan_validation () =
  (* out-of-range inputs are clamped, not rejected: a plan is always
     well-formed *)
  let p = Plan.make ~sign_loss:1.5 ~crash_restart:(-0.5) ~budget:(-3)
      ~wake_delay:(-2) ~seed:0 () in
  Alcotest.(check (float 0.)) "rate clamped to 1" 1.0
    (Plan.rate p Kind.Sign_loss);
  Alcotest.(check (float 0.)) "rate clamped to 0" 0.0
    (Plan.rate p Kind.Crash_restart);
  Alcotest.(check int) "budget clamped" 0 p.Plan.budget;
  Alcotest.(check int) "delay clamped" 0 p.Plan.wake_delay;
  Alcotest.(check bool) "none is disabled" false (Plan.enabled Plan.none);
  Alcotest.(check bool) "zero-budget plan is disabled" false (Plan.enabled p);
  Alcotest.(check bool) "chaos is enabled" true
    (Plan.enabled (Plan.chaos ~seed:0))

let test_fault_determinism () =
  let go () =
    let w = World.make (Families.cycle 6) ~black:[ 0; 1 ] in
    let r, evs = run_events ~faults:(Plan.chaos ~seed:3) w elect in
    (Engine.outcome_to_string r.Engine.outcome, r.Engine.faults_injected, evs)
  in
  let o1, f1, e1 = go () in
  let o2, f2, e2 = go () in
  Alcotest.(check string) "same outcome" o1 o2;
  Alcotest.(check bool) "same faults" true (f1 = f2);
  Alcotest.(check bool) "same event trace" true (e1 = e2)

let test_budget_honored () =
  let w = World.make (Families.cycle 8) ~black:[ 0; 4 ] in
  let plan =
    Plan.make ~crash_restart:0.5 ~turn_stutter:0.5 ~budget:3 ~seed:1 ()
  in
  (* a huge-rate plan with a tiny budget: the fault-free suffix must let
     the run finish, and at most [budget] faults may fire *)
  let r = Engine.run ~seed:0 ~faults:plan w elect in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.Engine.faults_injected
  in
  Alcotest.(check bool) "within budget" true (total <= 3);
  Alcotest.(check bool) "run still completed" true
    (match r.Engine.outcome with
    | Engine.Step_limit | Engine.Timeout _ -> false
    | _ -> true)

(* A zero-rate plan must be observationally identical to no plan at all:
   same outcome, same verdicts, same event stream, same totals. *)
let prop_zero_rate_plan_invisible =
  QCheck.Test.make ~name:"zero-rate plan is observationally invisible"
    ~count:30
    QCheck.(pair (int_bound 1_000) (int_range 4 9))
    (fun (seed, n) ->
      let mk () = World.make (Families.cycle n) ~black:[ 0; n / 2 ] in
      (* each World.make mints fresh color tokens, so compare runs by
         name and rendered verdict, not by token identity *)
      let named r =
        List.map
          (fun (c, v) ->
            (Qe_color.Color.name c, Protocol.verdict_to_string v))
          r.Engine.verdicts
      in
      let plain, plain_evs = run_events (mk ()) elect in
      let armed, armed_evs =
        run_events ~faults:(Plan.make ~seed ()) (mk ()) elect
      in
      Engine.outcome_to_string plain.Engine.outcome
      = Engine.outcome_to_string armed.Engine.outcome
      && named plain = named armed
      && plain.Engine.total_moves = armed.Engine.total_moves
      && plain.Engine.scheduler_turns = armed.Engine.scheduler_turns
      && armed.Engine.faults_injected = []
      && plain_evs = armed_evs)

(* ---------- fault kinds on the wire ---------- *)

let test_faults_are_events_and_metrics () =
  let w = World.make (Families.cycle 6) ~black:[ 0; 1 ] in
  let buf = Buffer.create 4096 in
  let sink =
    Qe_obs.Sink.create
      ~on_line:(fun l ->
        Buffer.add_string buf (Qe_obs.Jsonl.to_string (Qe_obs.Export.to_json l));
        Buffer.add_char buf '\n')
      ()
  in
  let plan = Plan.chaos ~seed:3 in
  let r = Engine.run ~seed:7 ~obs:sink ~faults:plan w elect in
  let fired =
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.Engine.faults_injected
  in
  Alcotest.(check bool) "some fault fired" true (fired > 0);
  (* every fired fault is a fault.injected.<kind> counter *)
  let snap = Qe_obs.Metrics.snapshot sink.Qe_obs.Sink.metrics in
  let counter name =
    match Qe_obs.Metrics.find snap name with
    | Some (Qe_obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "fault.injected total" fired
    (counter "fault.injected");
  List.iter
    (fun (k, n) ->
      Alcotest.(check int)
        ("fault.injected." ^ Kind.name k)
        n
        (counter ("fault.injected." ^ Kind.name k)))
    r.Engine.faults_injected;
  (* and the trace is valid v2 JSONL carrying fault events + plan meta *)
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s ->
           match Qe_obs.Export.of_line s with
           | Ok l -> l
           | Error e -> Alcotest.failf "trace line rejected: %s" e)
  in
  let fault_event_names =
    [ "crashed"; "sign-lost"; "sign-dup"; "wake-delayed"; "stuttered" ]
  in
  let fault_events =
    List.filter
      (function
        | Qe_obs.Export.Event e ->
            List.mem e.Qe_obs.Export.name fault_event_names
        | _ -> false)
      lines
  in
  Alcotest.(check int) "one trace event per fired fault" fired
    (List.length fault_events);
  let has_plan_meta =
    List.exists
      (function
        | Qe_obs.Export.Meta { attrs; _ } ->
            List.mem_assoc "fault_plan" attrs
            && List.mem_assoc "fault_seed" attrs
        | _ -> false)
      lines
  in
  Alcotest.(check bool) "meta records the plan" true has_plan_meta

let test_crash_only_terminates () =
  (* the fault budget guarantees a fault-free suffix: crash-restart on a
     solvable Cayley instance must still produce a terminating run *)
  List.iter
    (fun seed ->
      let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
      let r =
        Engine.run ~seed ~faults:(Plan.crash_only ~seed)
          ~watchdog:Campaign.default_chaos_watchdog w elect
      in
      match r.Engine.outcome with
      | Engine.Step_limit | Engine.Timeout _ ->
          Alcotest.failf "seed %d: crash-only run stuck (%s)" seed
            (Engine.outcome_to_string r.Engine.outcome)
      | _ -> ())
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* ---------- watchdogs ---------- *)

let test_watchdog_turn_budget () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let r =
    Engine.run ~watchdog:(Watchdog.make ~turn_budget:100 ()) w forever_mover
  in
  Alcotest.(check bool) "timeout turn-budget" true
    (r.Engine.outcome = Engine.Timeout Watchdog.Turn_budget);
  Alcotest.(check bool) "stopped promptly" true (r.Engine.scheduler_turns <= 101)

let test_watchdog_livelock () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let r =
    Engine.run
      ~watchdog:(Watchdog.make ~livelock_window:64 ())
      w forever_mover
  in
  Alcotest.(check bool) "timeout livelock" true
    (r.Engine.outcome = Engine.Timeout Watchdog.Livelock)

let test_watchdog_wall_clock () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let r = Engine.run ~watchdog:(Watchdog.make ~wall_ns:0 ()) w forever_mover in
  Alcotest.(check bool) "timeout wall-clock" true
    (r.Engine.outcome = Engine.Timeout Watchdog.Wall_clock)

let test_watchdog_distinct_from_step_limit () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let r = Engine.run ~max_turns:50 w forever_mover in
  Alcotest.(check bool) "bare cap is Step_limit" true
    (r.Engine.outcome = Engine.Step_limit);
  (* the progressing protocol is untouched by a generous watchdog *)
  let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
  let r = Engine.run ~watchdog:Campaign.default_chaos_watchdog w elect in
  Alcotest.(check bool) "healthy run unaffected" true
    (match r.Engine.outcome with Engine.Elected _ -> true | _ -> false)

let test_watchdog_validation () =
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Watchdog.make: negative turn_budget") (fun () ->
      ignore (Watchdog.make ~turn_budget:(-1) ()))

(* ---------- chaos campaign (small matrix) ---------- *)

let test_chaos_sweep_small () =
  let instances =
    List.filter
      (fun i ->
        List.mem i.Campaign.name
          [ "C5/adjacent"; "path4/asym"; "star3/leaves"; "K4/pair" ])
      (Campaign.zoo ())
  in
  let report, _ =
    Campaign.chaos_sweep ~seeds:3
      ~strategies:
        [ ("random", Engine.Random_fair 0); ("round-robin", Engine.Round_robin) ]
      ~expected:Campaign.elect_expected elect instances
  in
  Alcotest.(check int) "matrix size" (3 * 4 * 2 * 2) report.Campaign.c_runs;
  Alcotest.(check int) "no violations" 0
    (List.length report.Campaign.c_violating);
  Alcotest.(check bool) "faults fired" true (report.Campaign.c_faults_fired > 0);
  let sum l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  Alcotest.(check int) "by-kind totals agree" report.Campaign.c_faults_fired
    (sum report.Campaign.c_by_kind);
  Alcotest.(check int) "outcome counts cover all runs"
    report.Campaign.c_runs
    (sum report.Campaign.c_outcomes)

(* ---------- lenient trace reading ---------- *)

let with_temp_file content f =
  let path = Filename.temp_file "qelect-fault" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc content);
      f path)

let record_trace () =
  let buf = Buffer.create 4096 in
  let sink =
    Qe_obs.Sink.create
      ~on_line:(fun l ->
        Buffer.add_string buf (Qe_obs.Jsonl.to_string (Qe_obs.Export.to_json l));
        Buffer.add_char buf '\n')
      ()
  in
  let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
  ignore (Engine.run ~seed:0 ~obs:sink w elect);
  Buffer.contents buf

let test_lenient_read_clean () =
  with_temp_file (record_trace ()) (fun path ->
      let strict =
        match Qe_obs.Export.read_file path with
        | Ok ls -> ls
        | Error e -> Alcotest.failf "strict read failed: %s" e
      in
      let lenient, cut = Qe_obs.Export.read_file_lenient path in
      Alcotest.(check bool) "no cut on clean file" true (cut = None);
      Alcotest.(check int) "same lines" (List.length strict)
        (List.length lenient))

let test_lenient_read_truncated () =
  let full = record_trace () in
  (* cut mid-line, as a SIGKILL during a write would *)
  let cut_at = String.length full - String.length full / 3 in
  let truncated = String.sub full 0 cut_at in
  with_temp_file truncated (fun path ->
      (match Qe_obs.Export.read_file path with
      | Ok _ -> Alcotest.fail "strict read accepted a truncated trace"
      | Error _ -> ());
      let lines, cut = Qe_obs.Export.read_file_lenient path in
      (match cut with
      | None -> Alcotest.fail "lenient read missed the cut"
      | Some (lineno, _) ->
          Alcotest.(check bool) "cut is at the last line" true
            (lineno = List.length lines + 1));
      Alcotest.(check bool) "valid prefix recovered" true
        (List.length lines > 0);
      (* the prefix is intact: meta first, then events *)
      match lines with
      | Qe_obs.Export.Meta _ :: _ -> ()
      | _ -> Alcotest.fail "prefix lost the meta header")

let test_lenient_read_garbage_tail () =
  let full = record_trace () in
  with_temp_file
    (full ^ "{\"kind\":\"martian\"}\n{\"kind\":\"event\"}\n")
    (fun path ->
      let lines, cut = Qe_obs.Export.read_file_lenient path in
      Alcotest.(check bool) "stops at first bad line" true (cut <> None);
      Alcotest.(check bool) "keeps the good prefix" true
        (List.length lines > 0))

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "budget" `Quick test_budget_honored;
          QCheck_alcotest.to_alcotest prop_zero_rate_plan_invisible;
        ] );
      ( "injection",
        [
          Alcotest.test_case "events + metrics + trace v2" `Quick
            test_faults_are_events_and_metrics;
          Alcotest.test_case "crash-only terminates" `Quick
            test_crash_only_terminates;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "turn budget" `Quick test_watchdog_turn_budget;
          Alcotest.test_case "livelock" `Quick test_watchdog_livelock;
          Alcotest.test_case "wall clock" `Quick test_watchdog_wall_clock;
          Alcotest.test_case "distinct from step limit" `Quick
            test_watchdog_distinct_from_step_limit;
          Alcotest.test_case "validation" `Quick test_watchdog_validation;
        ] );
      ( "chaos",
        [ Alcotest.test_case "small matrix" `Quick test_chaos_sweep_small ] );
      ( "lenient-trace",
        [
          Alcotest.test_case "clean file" `Quick test_lenient_read_clean;
          Alcotest.test_case "truncated tail" `Quick
            test_lenient_read_truncated;
          Alcotest.test_case "garbage tail" `Quick
            test_lenient_read_garbage_tail;
        ] );
    ]
