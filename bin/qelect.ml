(* qelect — command-line front end.

   Subcommands:
     run      execute a protocol on an instance
     report   summarize a recorded trace file (see run --trace-out)
     analyze  class structure, gcd, predictions, Cayley recognition
     zoo      list the built-in instance suite
     dot      emit Graphviz for an instance

   Instances are either a zoo name (see `qelect zoo`) or built from
   --graph SPEC --agents LIST, e.g.
     qelect run --graph cycle:8 --agents 0,4 --protocol elect *)

module Graph = Qe_graph.Graph
module Families = Qe_graph.Families
module Bicolored = Qe_graph.Bicolored
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Color = Qe_color.Color
module Campaign = Qe_elect.Campaign
module Oracle = Qe_elect.Oracle
module Canon = Qe_symmetry.Canon
module Cdigraph = Qe_symmetry.Cdigraph
module Metrics = Qe_obs.Metrics
module Spec = Qe_group.Spec
open Cmdliner

(* Malformed instance input ([Spec.Error], or a builder's [Invalid_argument]
   or [Sys_error]) becomes [Failure], which every command that builds an
   instance reports as one [qelect:] line and exit 124. *)
let instance_input f =
  try f () with Spec.Error msg | Invalid_argument msg | Sys_error msg -> failwith msg

(* Returns the validated placement, the agents as given, and a name. *)
let resolve_instance ?file ~instance ~graph ~agents () =
  instance_input @@ fun () ->
  let g, black, name =
    match (file, instance, graph) with
    | Some path, _, _ ->
        let inst = Qe_graph.Serial.load ~path in
        let black =
          match (agents, inst.Qe_graph.Serial.black) with
          | Some l, _ -> Spec.agents l
          | None, (_ :: _ as b) -> b
          | None, [] -> failwith (path ^ ": file declares no agents; pass --agents")
        in
        (inst.Qe_graph.Serial.graph, black, path)
    | None, Some name, _ -> (
        match
          List.find_opt
            (fun i -> i.Campaign.name = name)
            (Campaign.zoo () @ Campaign.cayley_zoo ())
        with
        | Some i -> (i.Campaign.graph, i.Campaign.black, i.Campaign.name)
        | None -> failwith (name ^ ": not in the zoo (see `qelect zoo`)"))
    | None, None, Some spec -> (
        let g = Spec.graph spec in
        match agents with
        | Some l -> (g, Spec.agents l, spec)
        | None -> failwith "--agents required with --graph")
    | None, None, None ->
        failwith "need --instance NAME, --graph SPEC --agents LIST, or --file PATH"
  in
  (Bicolored.make g ~black, black, name)

(* The entry of [table] named [key], or a failure that lists the names. *)
let pick what table key =
  match List.assoc_opt key table with
  | Some v -> v
  | None ->
      failwith
        (Printf.sprintf "%s: unknown %s (%s)" key what
           (String.concat ", " (List.map fst table)))

let protocols =
  [
    ("elect", Qe_elect.Elect.protocol);
    ("elect-cayley", Qe_elect.Elect_cayley.protocol);
    ("quantitative", Qe_elect.Quantitative.protocol);
    ("petersen-adhoc", Qe_elect.Petersen_adhoc.protocol);
    ("anonymous", Qe_elect.Anonymous_demo.protocol);
    ("gathering", Qe_elect.Gathering.protocol);
    ("mark-race", Qe_elect.Mark_race.protocol);
  ]

let strategies =
  [
    ("random", fun seed -> Engine.Random_fair seed);
    ("round-robin", fun _ -> Engine.Round_robin);
    ("lifo", fun _ -> Engine.Lifo);
    ("fifo-mailbox", fun _ -> Engine.Fifo_mailbox);
    ("synchronous", fun _ -> Engine.Synchronous);
  ]

let outcome_str = Engine.outcome_to_string

(* Distinct non-zero exit codes per failure mode, so scripts can branch
   on the outcome without parsing stdout (documented in `--help`). *)
let exit_deadlock = 4
let exit_stuck = 5 (* step limit or watchdog timeout *)
let exit_inconsistent = 6
let exit_chaos_violation = 7
let exit_quarantined = 8
let exit_kernel_defect = 9 (* selftest found a kernel defect *)

let outcome_exit_code = ref 0

let note_outcome o =
  outcome_exit_code :=
    match o with
    | Engine.Elected _ | Engine.Declared_unsolvable -> 0
    | Engine.Deadlock -> exit_deadlock
    | Engine.Step_limit | Engine.Timeout _ -> exit_stuck
    | Engine.Inconsistent _ -> exit_inconsistent

let fault_plans =
  [
    ("chaos", fun seed -> Qe_fault.Plan.chaos ~seed);
    ("crash-only", fun seed -> Qe_fault.Plan.crash_only ~seed);
  ]

(* ---------- run ---------- *)

let run_cmd file instance graph agents protocol strategy seed verbose
    trace trace_out stats faults fault_seed =
  try
    let b, black, name = resolve_instance ?file ~instance ~graph ~agents () in
    let g = Bicolored.graph b in
    let proto = pick "protocol" protocols protocol in
    let strat = pick "strategy" strategies strategy seed in
    let world = World.make g ~black in
    let events = ref 0 in
    let on_event e =
      if trace then begin
        incr events;
        if !events <= 500 then
          Format.printf "  [%4d] %a@." !events Engine.pp_event e
        else if !events = 501 then
          print_endline "  [trace truncated after 500 events]"
      end
    in
    let oc = Option.map open_out trace_out in
    let sink =
      if stats || oc <> None then
        Some
          (Qe_obs.Sink.create
             ?on_line:(Option.map (fun oc l -> Qe_obs.Export.write oc l) oc)
             (* traced runs also record the cache's hit instants, which
                the Chrome exporter renders as markers *)
             ~cache_events:(oc <> None) ())
      else None
    in
    let plan =
      Option.map (fun name -> pick "fault plan" fault_plans name fault_seed) faults
    in
    let exec () =
      Engine.run ~strategy:strat ~seed ~on_event ?obs:sink ?faults:plan world
        proto
    in
    let r =
      (* ambient too, so refine/canon work triggered by the run (none for
         the stock protocols today, but extensions may) is captured *)
      match sink with
      | None -> exec ()
      | Some s -> Qe_obs.Sink.with_ambient s exec
    in
    Option.iter close_out oc;
    Printf.printf "%s on %s (n=%d, m=%d, r=%d, %s scheduler, seed %d)\n"
      protocol name (Graph.n g) (Graph.m g) (List.length black) strategy seed;
    (match plan with
    | Some p ->
        Printf.printf "faults armed: %s\n" (Qe_fault.Plan.summary p);
        Printf.printf "faults fired: %s\n"
          (if r.Engine.faults_injected = [] then "none"
           else
             String.concat ", "
               (List.map
                  (fun (k, n) ->
                    Printf.sprintf "%s x%d" (Qe_fault.Kind.name k) n)
                  r.Engine.faults_injected))
    | None -> ());
    Printf.printf "outcome: %s\n" (outcome_str r.Engine.outcome);
    note_outcome r.Engine.outcome;
    Printf.printf "moves: %d, whiteboard accesses: %d, scheduler turns: %d\n"
      r.Engine.total_moves r.Engine.total_accesses r.Engine.scheduler_turns;
    if verbose then begin
      print_endline "verdicts:";
      List.iter
        (fun (c, v) ->
          Printf.printf "  %-10s %s\n" (Color.name c)
            (Qe_runtime.Protocol.verdict_to_string v))
        r.Engine.verdicts;
      print_endline "per-agent stats (moves/posts/erases/reads/turns):";
      List.iter
        (fun (c, (s : Engine.agent_stats)) ->
          Printf.printf "  %-10s %d/%d/%d/%d/%d\n" (Color.name c) s.moves
            s.posts s.erases s.reads s.turns)
        r.Engine.per_agent
    end;
    (match sink with
    | Some s when stats ->
        print_endline "";
        print_endline "metrics:";
        print_string
          (Qe_obs.Metrics.render
             (Qe_obs.Metrics.snapshot s.Qe_obs.Sink.metrics));
        let roots = Qe_obs.Span.roots s.Qe_obs.Sink.spans in
        if roots <> [] then begin
          print_endline "spans:";
          List.iter (fun c -> print_string (Qe_obs.Span.flame c)) roots
        end
    | _ -> ());
    (match trace_out with
    | Some path -> Printf.printf "trace written to %s\n" path
    | None -> ());
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- report ---------- *)

(* latency quantiles, pretty-printed from a histogram sample *)
let pp_quantile s p =
  match Qe_obs.Metrics.quantile s p with
  | Some v -> Format.asprintf "%a" Qe_obs.Clock.pp_ns (int_of_float v)
  | None -> "-"

let print_latency_quantiles out snap =
  let lat =
    List.filter
      (fun (name, s) ->
        match s with
        | Qe_obs.Metrics.Hist { count; _ } ->
            Qe_obs.Metrics.is_latency name && count > 0
        | _ -> false)
      snap
  in
  if lat <> [] then begin
    Printf.fprintf out "latency quantiles:\n";
    List.iter
      (fun (name, s) ->
        match s with
        | Qe_obs.Metrics.Hist { count; _ } ->
            Printf.fprintf out "  %-32s p50=%-9s p90=%-9s p99=%-9s (n=%d)\n"
              name (pp_quantile s 0.5) (pp_quantile s 0.9) (pp_quantile s 0.99)
              count
        | _ -> ())
      lat
  end

let report_cmd path strict chrome =
  try
    let lines =
      if strict then
        match Qe_obs.Export.read_file path with
        | Ok ls -> ls
        | Error msg -> failwith (path ^ ": " ^ msg)
      else
        (* tolerate a truncated tail (a run killed mid-write): report
           everything up to the cut and warn on stderr *)
        let lines, cut = Qe_obs.Export.read_file_lenient path in
        (match cut with
        | Some (lineno, msg) ->
            Printf.eprintf
              "warning: %s: trace truncated at line %d (%s); reporting %d \
               valid lines (use --strict to fail instead)\n"
              path lineno msg (List.length lines)
        | None -> ());
        lines
    in
    if lines = [] then failwith (path ^ ": empty trace");
    let attr_str name attrs =
      Option.bind (List.assoc_opt name attrs) Qe_obs.Jsonl.to_str
    in
    let counter_total snap name =
      match Qe_obs.Metrics.find snap name with
      | Some (Qe_obs.Metrics.Counter n) -> n
      | _ -> 0
    in
    (* last metrics line wins: per-run snapshots are cumulative for their
       sink, and a multi-run file uses one sink throughout *)
    let last_snapshot =
      List.fold_left
        (fun acc l ->
          match l with Qe_obs.Export.Metric_snapshot s -> Some s | _ -> acc)
        None lines
    in
    let n_events = ref 0 in
    let by_name = Hashtbl.create 8 in
    let by_agent = Hashtbl.create 8 in
    let tags = Hashtbl.create 16 in
    List.iter
      (function
        | Qe_obs.Export.Meta { producer; attrs } ->
            Printf.printf "run: %s (%s)\n" producer
              (String.concat ", "
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf "%s=%s" k
                        (match v with
                        | Qe_obs.Jsonl.String s -> s
                        | v -> Qe_obs.Jsonl.to_string v))
                    attrs))
        | Qe_obs.Export.Event e ->
            incr n_events;
            Hashtbl.replace by_name e.Qe_obs.Export.name
              (1
              + Option.value ~default:0
                  (Hashtbl.find_opt by_name e.Qe_obs.Export.name));
            (match attr_str "agent" e.Qe_obs.Export.attrs with
            | Some a ->
                Hashtbl.replace by_agent a
                  (1 + Option.value ~default:0 (Hashtbl.find_opt by_agent a))
            | None -> ());
            if e.Qe_obs.Export.name = "posted" then (
              match attr_str "tag" e.Qe_obs.Export.attrs with
              | Some tag ->
                  let p = Qe_runtime.Trace.tag_prefix tag in
                  Hashtbl.replace tags p
                    (1 + Option.value ~default:0 (Hashtbl.find_opt tags p))
              | None -> ())
        | Qe_obs.Export.Span_tree _ | Qe_obs.Export.Metric_snapshot _ -> ())
      lines;
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (ka, a) (kb, b) ->
             if a <> b then compare b a else compare ka kb)
    in
    if !n_events > 0 then begin
      Printf.printf "events: %d (%s)\n" !n_events
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%d %s" v k)
              (sorted by_name)));
      if Hashtbl.length by_agent > 0 then
        Printf.printf "events by agent: %s\n"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (sorted by_agent)));
      if Hashtbl.length tags > 0 then
        Printf.printf "posts by tag: %s\n"
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (sorted tags)))
    end;
    List.iter
      (function
        | Qe_obs.Export.Span_tree c ->
            print_endline "spans:";
            print_string (Qe_obs.Span.flame c)
        | _ -> ())
      lines;
    (match last_snapshot with
    | Some snap ->
        print_endline "metrics:";
        print_string (Qe_obs.Metrics.render snap);
        print_latency_quantiles stdout snap;
        let moves = counter_total snap "engine.moves" in
        let accesses =
          counter_total snap "engine.posts"
          + counter_total snap "engine.erases"
          + counter_total snap "engine.reads"
        in
        let turns = counter_total snap "engine.turns" in
        Printf.printf
          "moves: %d, whiteboard accesses: %d, scheduler turns: %d\n" moves
          accesses turns
    | None -> ());
    (match chrome with
    | Some out ->
        Qe_obs.Chrome.write_file out lines;
        Printf.printf
          "chrome trace written to %s (load it in ui.perfetto.dev or \
           chrome://tracing)\n"
          out
    | None -> ());
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- analyze ---------- *)

let analyze_cmd file instance graph agents =
  try
    let b, black, name = resolve_instance ?file ~instance ~graph ~agents () in
    let g = Bicolored.graph b in
    Printf.printf "instance %s: n=%d, m=%d, agents at {%s}\n" name (Graph.n g)
      (Graph.m g)
      (String.concat "," (List.map string_of_int black));
    (* the cached entry Oracle's predictions below read too *)
    let t = Qe_symmetry.Artifact_cache.classes b in
    print_string (Format.asprintf "%a" Qe_symmetry.Classes.pp t);
    Printf.printf "gcd of class sizes: %d\n"
      (Qe_symmetry.Classes.gcd_sizes t);
    Printf.printf "Theorem 3.1: ELECT will %s\n"
      (match Oracle.elect_prediction b with
      | `Elects -> "elect a leader"
      | `Reports_failure -> "report failure");
    (if Graph.n g <= 24 then
       match Qe_symmetry.Cayley_detect.recognize g with
       | Qe_symmetry.Cayley_detect.Cayley r ->
           Printf.printf
             "Cayley graph: yes (|S| = %d, recovered group %s); \
              placement-preserving translation in some regular subgroup: \
              %b\n"
             (List.length r.Qe_symmetry.Cayley_detect.generators)
             (Option.value ~default:"unrecognized"
                (Qe_group.Group.identify r.Qe_symmetry.Cayley_detect.group))
             (Oracle.translation_impossible b)
       | Qe_symmetry.Cayley_detect.Not_cayley ->
           print_endline "Cayley graph: no"
       | Qe_symmetry.Cayley_detect.Unknown msg ->
           Printf.printf "Cayley recognition: %s\n" msg);
    Printf.printf "overall prediction: %s\n"
      (Format.asprintf "%a" Oracle.pp_prediction (Oracle.predict b));
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- zoo ---------- *)

let zoo_cmd () =
  Printf.printf "%-22s %-10s %-7s %-4s %-4s %s\n" "name" "family" "cayley"
    "n" "m" "agents";
  List.iter
    (fun i ->
      Printf.printf "%-22s %-10s %-7b %-4d %-4d {%s}\n" i.Campaign.name
        i.Campaign.family i.Campaign.cayley
        (Graph.n i.Campaign.graph)
        (Graph.m i.Campaign.graph)
        (String.concat "," (List.map string_of_int i.Campaign.black)))
    (Campaign.zoo () @ Campaign.cayley_zoo ());
  `Ok ()

(* ---------- dot ---------- *)

let dot_cmd file instance graph agents =
  try
    let b, _, _ = resolve_instance ?file ~instance ~graph ~agents () in
    print_string (Qe_graph.Dot.bicolored b);
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- save ---------- *)

let save_cmd instance graph agents out =
  try
    let b, black, name = resolve_instance ~instance ~graph ~agents () in
    Qe_graph.Serial.save ~path:out ~black (Bicolored.graph b);
    Printf.printf "saved %s to %s\n" name out;
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- sweep (CSV) ---------- *)

module Cache = Qe_symmetry.Artifact_cache

(* print to [out] so sweep (CSV on stdout) can route stats to stderr *)
let print_cache_stats out =
  let rows = Cache.stats () in
  List.iter
    (fun (r : Cache.stat) ->
      if r.Cache.hits + r.Cache.misses > 0 then begin
        Printf.fprintf out "# cache: %-18s hits=%-7d misses=%-5d waits=%d\n"
          r.Cache.kind r.Cache.hits r.Cache.misses r.Cache.single_flight_waits;
        match r.Cache.l1_latency with
        | Qe_obs.Metrics.Hist { count; _ } as s when count > 0 ->
            Printf.fprintf out
              "# cache: %-18s hit latency p50=%-9s p90=%-9s p99=%-9s\n"
              r.Cache.kind (pp_quantile s 0.5) (pp_quantile s 0.9)
              (pp_quantile s 0.99)
        | _ -> ()
      end)
    rows;
  let hits = List.fold_left (fun a (r : Cache.stat) -> a + r.Cache.hits) 0 rows in
  let misses =
    List.fold_left (fun a (r : Cache.stat) -> a + r.Cache.misses) 0 rows
  in
  Printf.fprintf out "# cache: total hits=%d misses=%d hit-rate=%.1f%%\n" hits
    misses
    (100. *. Cache.hit_rate rows)

(* ---------- live exposition (--metrics-port) ---------- *)

(* Serve GET /metrics for the duration of [f]: completed-run snapshots
   accumulate (pushed from worker domains via the campaign's [live]
   hook) and every scrape merges the accumulator with the process-wide
   cache and supervisor registries. Sink-level [cache.*] counters are
   dropped from the accumulator — the cache registry is the authority
   for those and merging both would double-count — except the sink-only
   [cache.wait_latency] histogram. *)
let with_metrics_server port f =
  match port with
  | None -> f None
  | Some port ->
      let m = Mutex.create () in
      let acc = ref [] in
      let push snap =
        Mutex.lock m;
        (try acc := Qe_obs.Metrics.merge !acc snap with _ -> ());
        Mutex.unlock m
      in
      let campaign_source () =
        Mutex.lock m;
        let s = !acc in
        Mutex.unlock m;
        List.filter
          (fun (n, _) ->
            (not (String.starts_with ~prefix:"cache." n))
            || Qe_obs.Metrics.is_latency n)
          s
      in
      let srv =
        Qe_obs.Expose.start ~port
          ~sources:
            [
              campaign_source;
              Cache.metrics_snapshot;
              Qe_par.Supervisor.metrics_snapshot;
            ]
          ()
      in
      Printf.eprintf "# metrics: http://127.0.0.1:%d/metrics\n%!"
        (Qe_obs.Expose.port srv);
      Fun.protect
        ~finally:(fun () -> Qe_obs.Expose.stop srv)
        (fun () -> f (Some push))

(* --task-deadline/--task-retries/--harness-chaos -> supervision setup.
   Shared by sweep and chaos. The harness-chaos rates are fixed and
   documented: what varies (and what determinism is keyed on) is the
   seed. *)
let supervision_of_flags ~task_deadline_ms ~task_retries ~harness_chaos =
  let supervise =
    Qe_par.Supervisor.policy
      ?deadline_ns:
        (if task_deadline_ms > 0 then Some (task_deadline_ms * 1_000_000)
         else None)
      ~max_attempts:(max 1 task_retries) ()
  in
  let chaos =
    Option.map
      (fun seed ->
        Qe_par.Harness_chaos.make ~kill_rate:0.05 ~delay_rate:0.05
          ~delay_ns:2_000_000 ~seed ())
      harness_chaos
  in
  (supervise, chaos)

let report_supervision summary oc =
  let open Campaign in
  if summary.h_replayed > 0 then
    Printf.fprintf oc "# resumed: %d/%d tasks replayed from checkpoint\n"
      summary.h_replayed summary.h_tasks;
  if
    summary.h_retries > 0 || summary.h_timeouts > 0 || summary.h_replaced > 0
    || summary.h_degraded
  then
    Printf.fprintf oc
      "# supervisor: retries=%d timeouts=%d workers-replaced=%d degraded=%b\n"
      summary.h_retries summary.h_timeouts summary.h_replaced
      summary.h_degraded;
  if summary.h_quarantined <> [] then begin
    List.iter
      (fun (idx, label) ->
        Printf.fprintf oc "# quarantined: task %d (%s)\n" idx label)
      summary.h_quarantined;
    outcome_exit_code := exit_quarantined
  end

let sweep_cmd protocol seeds jobs no_cache stats metrics_port
    checkpoint resume task_deadline task_retries harness_chaos =
  try
    if no_cache then Cache.set_enabled false;
    Cache.reset_stats ();
    if resume && checkpoint = None then
      failwith "--resume needs --checkpoint FILE";
    let proto, expected =
      match protocol with
      | "elect" -> (Qe_elect.Elect.protocol, Campaign.elect_expected)
      | "elect-cayley" ->
          (Qe_elect.Elect_cayley.protocol, Campaign.elect_expected)
      | "quantitative" ->
          (Qe_elect.Quantitative.protocol, fun _ -> true)
      | other -> failwith (other ^ ": sweep supports elect, elect-cayley, quantitative")
    in
    let seeds = List.init (max 1 seeds) Fun.id in
    let jobs = Qe_par.Supervisor.resolve_jobs jobs in
    (* the resolved value goes to stderr, never into the CSV: the CSV
       byte stream is the determinism contract and must not depend on
       which -j produced it *)
    Printf.eprintf "# jobs: %d (cores: %d)\n" jobs
      (Domain.recommended_domain_count ());
    let supervise, hchaos =
      supervision_of_flags ~task_deadline_ms:task_deadline
        ~task_retries ~harness_chaos
    in
    with_metrics_server metrics_port (fun live ->
        let rows, summary =
          Campaign.sweep ~seeds ~jobs ?live ~supervise
            ?harness_chaos:hchaos ?checkpoint ~resume ~expected proto
            (Campaign.zoo ())
        in
        print_endline Campaign.csv_header;
        List.iter (fun row -> print_endline row.Campaign.s_csv) rows;
        let ok =
          List.length (List.filter (fun r -> r.Campaign.s_conforms) rows)
        in
        Printf.eprintf "# conformance: %d/%d\n" ok (List.length rows);
        report_supervision summary stderr);
    if stats then print_cache_stats stderr;
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- chaos ---------- *)

let chaos_cmd protocol seeds trace_out jobs no_cache stats
    metrics_port checkpoint resume task_deadline task_retries harness_chaos =
  try
    if no_cache then Cache.set_enabled false;
    Cache.reset_stats ();
    if resume && checkpoint = None then
      failwith "--resume needs --checkpoint FILE";
    if resume && trace_out <> None then
      failwith
        "--trace-out cannot be combined with --resume (the replayed runs \
         would be missing from the trace)";
    let proto =
      match protocol with
      | "elect" -> Qe_elect.Elect.protocol
      | "elect-cayley" -> Qe_elect.Elect_cayley.protocol
      | other -> failwith (other ^ ": chaos supports elect, elect-cayley")
    in
    let seeds = max 1 seeds in
    let jobs = Qe_par.Supervisor.resolve_jobs jobs in
    Printf.printf
      "chaos: %d seeds x %d instances x %d strategies x 2 plans (-j %d, %d \
       cores)\n\
       %!"
      seeds
      (List.length (Campaign.zoo ()))
      (List.length Campaign.strategies)
      jobs
      (Domain.recommended_domain_count ());
    let oc = Option.map open_out trace_out in
    let obs =
      Option.map
        (fun oc -> Qe_obs.Sink.create ~on_line:(Qe_obs.Export.write oc) ())
        oc
    in
    let supervise, hchaos =
      supervision_of_flags ~task_deadline_ms:task_deadline ~task_retries
        ~harness_chaos
    in
    let report =
      with_metrics_server metrics_port (fun live ->
          let report, summary =
            Campaign.chaos_sweep ~seeds ?obs ~jobs ?live ~supervise
              ?harness_chaos:hchaos ?checkpoint ~resume
              ~expected:Campaign.elect_expected proto (Campaign.zoo ())
          in
          report_supervision summary stdout;
          report)
    in
    Option.iter close_out oc;
    Printf.printf "runs: %d (%d with zero faults fired)\n"
      report.Campaign.c_runs report.Campaign.c_zero_fault_runs;
    Printf.printf "faults injected: %d\n" report.Campaign.c_faults_fired;
    List.iter
      (fun (k, n) ->
        Printf.printf "  %-14s %d\n" (Qe_fault.Kind.name k) n)
      report.Campaign.c_by_kind;
    print_endline "outcomes:";
    List.iter
      (fun (label, n) -> Printf.printf "  %-20s %d\n" label n)
      report.Campaign.c_outcomes;
    let viol = report.Campaign.c_violating in
    Printf.printf "safety violations: %d\n" (List.length viol);
    List.iter
      (fun (r : Campaign.chaos_record) ->
        List.iter
          (fun v ->
            Printf.printf "  %s/%s/%s seed %d: %s\n"
              r.Campaign.c_inst.Campaign.name r.Campaign.c_strategy
              r.Campaign.c_plan_kind r.Campaign.c_plan.Qe_fault.Plan.seed
              (Format.asprintf "%a" Campaign.pp_chaos_violation v))
          r.Campaign.c_violations)
      viol;
    (match trace_out with
    | Some path -> Printf.printf "chaos trace written to %s\n" path
    | None -> ());
    if stats then print_cache_stats stdout;
    if viol <> [] then outcome_exit_code := exit_chaos_violation;
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- selftest (canonical-kernel verification) ---------- *)

module Brute = Qe_symmetry.Brute

type st_item = { st_label : string; st_graph : Graph.t; st_black : int list }

let random_permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* Zoo + Cayley zoo + [random_count] seeded random bicolored instances.
   Everything about an instance is a pure function of its index, so the
   corpus is identical across -j and across runs. *)
let selftest_corpus ~random_count =
  let zoo =
    List.map
      (fun i ->
        {
          st_label = i.Campaign.name;
          st_graph = i.Campaign.graph;
          st_black = i.Campaign.black;
        })
      (Campaign.zoo () @ Campaign.cayley_zoo ())
  in
  let rand i =
    let st = Random.State.make [| 0x5e1f7e57; i |] in
    let n = 4 + Random.State.int st 9 (* 4..12 nodes *) in
    let extra = Random.State.int st n in
    let g =
      Families.random_connected ~seed:(7_000_000 + i) ~n ~extra_edges:extra
    in
    let nodes = random_permutation st n in
    let k = 1 + Random.State.int st (max 1 (n / 2)) in
    let black = List.sort compare (Array.to_list (Array.sub nodes 0 k)) in
    { st_label = Printf.sprintf "random-%04d" i; st_graph = g; st_black = black }
  in
  zoo @ List.init random_count rand

let is_zoo it = not (String.starts_with ~prefix:"random-" it.st_label)

(* test/data/canon_golden.txt, embedded at build time: one
   "name fingerprint" line per zoo instance. *)
let golden =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
          Some
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
      | None -> None)
    (String.split_on_char '\n' Canon_golden.text)

(* A random strictly increasing map on 0..k-1: it renames the palette
   without changing the colour order the kernel keys on. *)
let monotone_map st k =
  let m = Array.make k 0 in
  let v = ref (Random.State.int st 3) in
  for c = 0 to k - 1 do
    m.(c) <- !v;
    v := !v + 1 + Random.State.int st 3
  done;
  fun c -> m.(c)

(* An isomorphic copy of [d]: node u becomes [perm.(u)] and the arcs are
   listed in a fresh random order, so nothing of the old presentation
   survives. *)
let renumber st perm d =
  let asrc, adst, acol = Cdigraph.arcs_arrays d in
  let order = random_permutation st (Array.length asrc) in
  let node_colors = Array.make (Cdigraph.n d) 0 in
  Array.iteri
    (fun u c -> node_colors.(perm.(u)) <- c)
    (Cdigraph.node_colors_array d);
  Cdigraph.make_arrays ~n:(Cdigraph.n d) ~node_colors
    (Array.map (fun i -> perm.(asrc.(i))) order)
    (Array.map (fun i -> perm.(adst.(i))) order)
    (Array.map (fun i -> acol.(i)) order)

let recolor st d =
  let asrc, adst, acol = Cdigraph.arcs_arrays d in
  let colors = Cdigraph.node_colors_array d in
  let fn = monotone_map st (1 + Array.fold_left max 0 colors) in
  let fa = monotone_map st (1 + Array.fold_left max 0 acol) in
  Cdigraph.make_arrays ~n:(Cdigraph.n d) ~node_colors:(Array.map fn colors)
    (Array.copy asrc) (Array.copy adst) (Array.map fa acol)

(* [orbits'] describes the same partition as [orbits] renumbered by
   [perm] iff the representative map u's orbit -> perm u's orbit is
   well defined in both directions. *)
let same_partition_under perm orbits orbits' =
  let n = Array.length orbits in
  let fwd = Array.make n (-1) and bwd = Array.make n (-1) in
  let ok = ref true in
  for u = 0 to n - 1 do
    let a = orbits.(u) and b = orbits'.(perm.(u)) in
    if fwd.(a) = -1 then fwd.(a) <- b else if fwd.(a) <> b then ok := false;
    if bwd.(b) = -1 then bwd.(b) <- a else if bwd.(b) <> a then ok := false
  done;
  !ok

(* The first kernel check [d] fails, if any: invariance under a
   renumbering and a monotone recolouring drawn from [seed], then (when
   [brute]) agreement with the factorial-time Brute orbits. *)
let kernel_defect ~brute ~seed d =
  let st = Random.State.make [| 0x5e1f7e57; seed |] in
  match Canon.run d with
  | exception e -> Some ("kernel raised " ^ Printexc.to_string e)
  | r -> (
      let perm = random_permutation st (Cdigraph.n d) in
      match (Canon.run (renumber st perm d), Canon.run (recolor st d)) with
      | exception e -> Some ("kernel raised " ^ Printexc.to_string e)
      | renumbered, recolored ->
          if renumbered.Canon.certificate <> r.Canon.certificate then
            Some "certificate changes under renumbering"
          else if
            not (same_partition_under perm r.Canon.orbits renumbered.Canon.orbits)
          then Some "orbits change under renumbering"
          else if
            recolored.Canon.canonical_labeling <> r.Canon.canonical_labeling
            || recolored.Canon.orbits <> r.Canon.orbits
          then Some "labeling or orbits change under recolouring"
          else if brute && Brute.orbits d <> r.Canon.orbits then
            Some "orbits differ from Brute"
          else None)

(* Greedy structural minimizer for a defective instance: drop edges,
   then agents, as long as the instance still fails a kernel check. *)
let minimize_counterexample ~fails g black =
  let n = Graph.n g in
  let edges = ref (Graph.edges g) in
  let agents = ref black in
  let graph_of es = Graph.of_edges ~n es in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        if List.mem e !edges then
          let keep = List.filter (fun e' -> e' <> e) !edges in
          match graph_of keep with
          | exception _ -> ()
          | g' ->
              if fails g' !agents then begin
                edges := keep;
                changed := true
              end)
      !edges;
    List.iter
      (fun a ->
        if List.length !agents > 1 && List.mem a !agents then
          let keep = List.filter (fun a' -> a' <> a) !agents in
          if fails (graph_of !edges) keep then begin
            agents := keep;
            changed := true
          end)
      !agents
  done;
  (graph_of !edges, !agents)

(* Brute is factorial-time: every instance with n <= 7 up to
   --brute-cap, and a fixed handful with n = 8. *)
let brute_n8_cap = 8

let selftest_cmd random_count jobs brute_cap write_golden dump_path =
  try
    let items = Array.of_list (selftest_corpus ~random_count) in
    let zoo_count = Array.length items - random_count in
    let jobs = Qe_par.Supervisor.resolve_jobs jobs in
    Printf.printf "selftest: %d instances (%d zoo + %d random), -j %d\n%!"
      (Array.length items) zoo_count random_count jobs;
    let take k l = List.filteri (fun i _ -> i < k) l in
    let idx_with p =
      List.filter
        (fun i -> p (Graph.n items.(i).st_graph))
        (List.init (Array.length items) Fun.id)
    in
    let n7 = idx_with (fun n -> n <= 7) and n8 = idx_with (fun n -> n = 8) in
    let brute7 = take brute_cap n7 and brute8 = take brute_n8_cap n8 in
    let brute = Array.make (Array.length items) false in
    List.iter (fun i -> brute.(i) <- true) (brute7 @ brute8);
    Printf.printf "brute check: %d of %d instances with n <= 7%s\n"
      (List.length brute7) (List.length n7)
      (if List.length n7 > brute_cap then
         " (capped by --brute-cap; raise it to widen)"
       else "");
    Printf.printf "brute check: %d of %d instances with n = 8%s\n"
      (List.length brute8) (List.length n8)
      (if List.length n8 > brute_n8_cap then
         Printf.sprintf " (fixed cap of %d)" brute_n8_cap
       else "");
    let check i it =
      let b = Bicolored.make it.st_graph ~black:it.st_black in
      let sink = Qe_obs.Sink.create () in
      (* the fingerprint reruns the search kernel_defect just survived,
         so it cannot raise *)
      let fp, defect =
        match kernel_defect ~brute:brute.(i) ~seed:i (Cdigraph.of_bicolored b) with
        | Some _ as d -> ("", d)
        | None -> (
            let fp =
              Qe_obs.Sink.with_ambient sink (fun () -> Cache.fingerprint b)
            in
            if not (is_zoo it) then (fp, None)
            else
              match List.assoc_opt it.st_label golden with
              | Some g when String.equal g fp -> (fp, None)
              | Some _ -> (fp, Some "fingerprint differs from the golden corpus")
              | None -> (fp, Some "missing from the golden corpus"))
      in
      (fp, defect, Metrics.snapshot sink.Qe_obs.Sink.metrics)
    in
    let rows =
      Qe_par.Supervisor.(
        values (map ~policy:(policy ~max_attempts:1 ()) ~jobs ~f:check items))
    in
    let kernel_metrics =
      Array.fold_left (fun acc (_, _, snap) -> Metrics.merge acc snap) [] rows
    in
    print_endline "kernel:";
    print_string
      (Metrics.render
         (List.filter
            (fun (name, _) -> not (Metrics.is_latency name))
            kernel_metrics));
    print_latency_quantiles stdout kernel_metrics;
    (match write_golden with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Array.iteri
              (fun i it ->
                let fp, _, _ = rows.(i) in
                if is_zoo it then Printf.fprintf oc "%s %s\n" it.st_label fp)
              items);
        Printf.printf "golden corpus written to %s\n" path);
    let defects =
      List.filter_map
        (fun i ->
          let _, d, _ = rows.(i) in
          Option.map (fun why -> (i, why)) d)
        (List.init (Array.length items) Fun.id)
    in
    (match defects with
    | [] ->
        Printf.printf
          "selftest OK: %d instances, 0 defects (renumbering and recolouring \
           invariance, %d Brute orbit checks, %d golden fingerprints)\n"
          (Array.length items)
          (List.length brute7 + List.length brute8)
          zoo_count
    | (i, _) :: _ ->
        Printf.printf "selftest FAILED: %d defective instance(s)\n"
          (List.length defects);
        List.iter
          (fun (j, why) -> Printf.printf "  %s: %s\n" items.(j).st_label why)
          (take 10 defects);
        let it = items.(i) in
        let fails g black =
          match Bicolored.make g ~black with
          | exception _ -> false
          | b ->
              kernel_defect ~brute:brute.(i) ~seed:i (Cdigraph.of_bicolored b)
              <> None
        in
        (* a golden mismatch alone is not a property of sub-instances,
           so such an instance is dumped as it is *)
        let g', black' =
          if fails it.st_graph it.st_black then
            minimize_counterexample ~fails it.st_graph it.st_black
          else (it.st_graph, it.st_black)
        in
        Qe_graph.Serial.save ~path:dump_path ~black:black' g';
        Printf.printf
          "minimized counterexample (%s, %d nodes, %d edges, %d agents) \
           written to %s\n"
          it.st_label (Graph.n g') (Graph.m g') (List.length black') dump_path;
        outcome_exit_code := exit_kernel_defect);
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- frontier ---------- *)

module Classes = Qe_symmetry.Classes

type frontier_row = {
  fr_spec : string;
  fr_n : int;
  fr_m : int;
  fr_gen_ns : int;
  fr_classes_ns : int;
  fr_num_classes : int;
  fr_fast : bool;
  fr_predict : Oracle.prediction;
  fr_predict_ns : int;
  fr_warm_predict_ns : int;  (** the same predict again: a cache hit *)
  fr_witness : int option;
      (** cycle length of the Unsolvable exhibit, if the witness has one *)
  fr_slow : (bool * int) option;
      (** [--slow-check]: partitions agree?, slow-path ns *)
}

(* The full-search baseline stays affordable only on small rungs. *)
let slow_check_limit = 4096

(* Two class structures describe the same partition iff the class counts
   match and the induced class map is consistent on every node (equal
   counts + total cover make a consistent map a bijection). *)
let partitions_agree n a b =
  Classes.num_classes a = Classes.num_classes b
  &&
  let map = Array.make (Classes.num_classes a) (-1) in
  let ok = ref true in
  for u = 0 to n - 1 do
    let ca = Classes.class_of_node a u and cb = Classes.class_of_node b u in
    if map.(ca) = -1 then map.(ca) <- cb else if map.(ca) <> cb then ok := false
  done;
  !ok

let frontier_measure slow_check spec =
  let now = Qe_obs.Clock.now_ns in
  let t0 = now () in
  let g = (instance_input (fun () -> Spec.cayley spec)).Qe_group.Presentation.graph in
  let gen_ns = now () - t0 in
  let n = Graph.n g in
  let b = Bicolored.make g ~black:(List.init n Fun.id) in
  let t1 = now () in
  let cls = Classes.compute b in
  let classes_ns = now () - t1 in
  let t2 = now () in
  let predict = Oracle.predict b in
  let predict_ns = now () - t2 in
  let t3 = now () in
  ignore (Oracle.predict b : Oracle.prediction);
  let warm_predict_ns = now () - t3 in
  let witness =
    Option.bind
      (Qe_symmetry.Transitive.certified_regular g)
      Qe_symmetry.Transitive.uniform_cycle_length
  in
  let slow =
    if not slow_check then None
    else if n > slow_check_limit then None
    else begin
      let t4 = now () in
      let slow_cls = Classes.compute_slow b in
      let slow_ns = now () - t4 in
      Some (partitions_agree n cls slow_cls, slow_ns)
    end
  in
  {
    fr_spec = spec;
    fr_n = n;
    fr_m = Graph.m g;
    fr_gen_ns = gen_ns;
    fr_classes_ns = classes_ns;
    fr_num_classes = Classes.num_classes cls;
    fr_fast = Classes.used_fast_path cls;
    fr_predict = predict;
    fr_predict_ns = predict_ns;
    fr_warm_predict_ns = warm_predict_ns;
    fr_witness = witness;
    fr_slow = slow;
  }

let frontier_cmd specs jobs budget_mb slow_check =
  try
    if specs = [] then failwith "need at least one --spec (e.g. --spec circulant:100000:1+3+9)";
    let jobs = Qe_par.Supervisor.resolve_jobs jobs in
    let rows =
      Qe_par.Supervisor.(
        values
          (map ~policy:(policy ~max_attempts:1 ()) ~jobs
             ~f:(fun _ spec -> frontier_measure slow_check spec)
             (Array.of_list specs)))
    in
    let per_node ns n = float_of_int ns /. float_of_int (max 1 n) in
    Array.iter
      (fun r ->
        Printf.printf
          "%s: n=%d m=%d | generate %.1f ms (%.0f ns/node) | classes=%d \
           (%s) %.1f ms (%.0f ns/node) | predict=%s witness=%s %.1f ms \
           | warm-predict %.3f ms\n"
          r.fr_spec r.fr_n r.fr_m
          (float_of_int r.fr_gen_ns /. 1e6)
          (per_node r.fr_gen_ns r.fr_n)
          r.fr_num_classes
          (if r.fr_fast then "fast path" else "full search")
          (float_of_int r.fr_classes_ns /. 1e6)
          (per_node r.fr_classes_ns r.fr_n)
          (Format.asprintf "%a" Oracle.pp_prediction r.fr_predict)
          (match r.fr_witness with
          | Some l -> Printf.sprintf "order-%d" l
          | None -> "none")
          (float_of_int r.fr_predict_ns /. 1e6)
          (float_of_int r.fr_warm_predict_ns /. 1e6);
        match r.fr_slow with
        | None ->
            if slow_check && r.fr_n > slow_check_limit then
              Printf.printf
                "  slow-check skipped: n=%d exceeds the full-search limit \
                 (%d)\n"
                r.fr_n slow_check_limit
        | Some (agree, slow_ns) ->
            Printf.printf
              "  slow-check: partitions %s, full search %.1f ms (fast path \
               %.1fx faster)\n"
              (if agree then "agree" else "DISAGREE")
              (float_of_int slow_ns /. 1e6)
              (float_of_int slow_ns /. float_of_int (max 1 r.fr_classes_ns));
            if not agree then outcome_exit_code := 1)
      rows;
    let stat = Gc.quick_stat () in
    let word_mb = float_of_int (Sys.word_size / 8) /. (1024. *. 1024.) in
    let peak_mb = float_of_int stat.Gc.top_heap_words *. word_mb in
    Printf.printf "peak major heap: %.1f MB (top_heap_words=%d)\n" peak_mb
      stat.Gc.top_heap_words;
    (match budget_mb with
    | Some budget when peak_mb > float_of_int budget ->
        Printf.printf "HEAP BUDGET EXCEEDED: %.1f MB > %d MB\n" peak_mb budget;
        outcome_exit_code := 1
    | _ -> ());
    `Ok ()
  with Failure msg -> `Error (false, msg)

(* ---------- cmdliner plumbing ---------- *)

let file_arg =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~doc:"Instance file (qelect-instance format).")

let instance_arg =
  Arg.(value & opt (some string) None & info [ "instance"; "i" ] ~doc:"Zoo instance name.")

(* A --help list of spec forms, from [Spec]'s table. *)
let spec_forms forms =
  String.concat ", " (List.map (Printf.sprintf "$(b,%s)") forms)
  ^ " (a list takes ',' or '+')"

let graph_arg =
  let doc = "Graph spec, one of " ^ spec_forms Spec.forms ^ "." in
  Arg.(value & opt (some string) None & info [ "graph"; "g" ] ~doc ~docv:"SPEC")

let agents_arg =
  Arg.(value & opt (some string) None & info [ "agents"; "a" ] ~doc:"Comma-separated home-bases.")

let protocol_arg =
  Arg.(value & opt string "elect" & info [ "protocol"; "p" ] ~doc:"Protocol name.")

let strategy_arg =
  Arg.(value & opt string "random" & info [ "strategy"; "s" ] ~doc:"Scheduler strategy.")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler seed.")
let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-agent details.")
let trace_arg = Arg.(value & flag & info [ "trace"; "t" ] ~doc:"Print the event timeline (first 500 events).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write the full run telemetry (events, span tree, metrics) as \
           JSONL to $(docv)."
        ~docv:"FILE")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metrics table and span summary.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ]
        ~doc:
          "Arm a deterministic fault plan: $(b,chaos) (all fault kinds at \
           low rates) or $(b,crash-only) (agent crash-restart only)."
        ~docv:"PLAN")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ]
        ~doc:"Seed of the fault plan (independent of --seed).")

let run_term =
  Term.(
    ret
      (const run_cmd $ file_arg $ instance_arg $ graph_arg
     $ agents_arg $ protocol_arg $ strategy_arg $ seed_arg $ verbose_arg
     $ trace_arg $ trace_out_arg $ stats_arg $ faults_arg $ fault_seed_arg))

let report_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~doc:"Trace file (JSONL, see run --trace-out)." ~docv:"FILE")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail on a truncated or damaged trace instead of reporting the \
           valid prefix with a warning.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ]
        ~doc:
          "Also export the trace as Chrome trace-event JSON to $(docv) — \
           load it in ui.perfetto.dev or chrome://tracing. Span trees \
           become nested duration events, one lane per pool domain; cache \
           hits recorded by traced runs become instant markers."
        ~docv:"FILE")

let report_term =
  Term.(ret (const report_cmd $ report_file_arg $ strict_arg $ chrome_arg))

let analyze_term =
  Term.(
    ret
      (const analyze_cmd $ file_arg $ instance_arg $ graph_arg
     $ agents_arg))

let zoo_term = Term.(ret (const zoo_cmd $ const ()))
let dot_term =
  Term.(ret (const dot_cmd $ file_arg $ instance_arg $ graph_arg $ agents_arg))

let out_arg =
  Arg.(
    value
    & opt string "instance.qelect"
    & info [ "out"; "o" ] ~doc:"Output path.")

let seeds_arg =
  Arg.(value & opt int 2 & info [ "seeds" ] ~doc:"Number of seeds (0..k-1).")

let save_term =
  Term.(
    ret (const save_cmd $ instance_arg $ graph_arg $ agents_arg $ out_arg))

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Run on $(docv) domains; results are bit-identical at any value. \
           0 means auto-size for this machine."
        ~docv:"N")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the symmetry artifact cache: every run recomputes its \
           classes, certificates and oracle verdicts from scratch. Records \
           and metrics are bit-identical either way (modulo $(b,cache.*) \
           counters); this flag exists for benchmarking and differential \
           testing.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-kind artifact-cache statistics (hits, misses, \
           single-flight waits) and the pooled hit-rate after the sweep. \
           Written to stderr for $(b,sweep) so the CSV stream stays clean.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ]
        ~doc:
          "Serve live OpenMetrics on http://127.0.0.1:$(docv)/metrics for \
           the duration of the campaign (0 = kernel-assigned; the bound \
           port is printed to stderr). Scrapes merge completed-run \
           snapshots with the process-wide cache and supervisor \
           registries, including latency histograms with quantile summaries."
        ~docv:"PORT")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ]
        ~doc:
          "Journal every completed run to $(docv) (crash-safe JSONL: \
           temp-file+rename creation, append+flush per record, torn tails \
           tolerated). With $(b,--resume), replay the journal and execute \
           only the missing work — the final output is identical to an \
           uninterrupted run."
        ~docv:"FILE")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the $(b,--checkpoint) journal instead of starting \
           fresh. The journal must describe this exact campaign (protocol, \
           instances, strategies, seeds) or the command fails.")

let task_deadline_arg =
  Arg.(
    value & opt int 0
    & info [ "task-deadline" ]
        ~doc:
          "Per-task wall-clock deadline in milliseconds (0 = none). An \
           attempt that overruns is timed out and retried at once; \
           its worker domain is written off as wedged and replaced, \
           degrading to inline execution if replacements keep dying."
        ~docv:"MS")

let task_retries_arg =
  Arg.(
    value & opt int 3
    & info [ "task-retries" ]
        ~doc:
          "Attempts per task before it is quarantined (>= 1). A \
           quarantined task is reported and skipped; the campaign exits 8 \
           but completes all other work."
        ~docv:"N")

let harness_chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "harness-chaos" ]
        ~doc:
          "Inject seeded faults into the harness itself (5% task kills, \
           5% delays per attempt) to exercise the supervisor. Fault \
           placement is a pure function of ($(docv), task, attempt) — \
           deterministic at any -j."
        ~docv:"SEED")

let sweep_term =
  Term.(
    ret
      (const sweep_cmd $ protocol_arg $ seeds_arg $ jobs_arg
     $ no_cache_arg $ cache_stats_arg $ metrics_port_arg $ checkpoint_arg
     $ resume_arg $ task_deadline_arg $ task_retries_arg $ harness_chaos_arg))

let chaos_seeds_arg =
  Arg.(
    value & opt int 8
    & info [ "seeds" ] ~doc:"Number of fault-plan seeds (0..k-1).")

let chaos_trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write the telemetry of every chaos run as JSONL to $(docv). \
           Refused with $(b,--resume): the replayed runs would be missing."
        ~docv:"FILE")

let chaos_term =
  Term.(
    ret (const chaos_cmd $ protocol_arg $ chaos_seeds_arg
       $ chaos_trace_out_arg $ jobs_arg $ no_cache_arg $ cache_stats_arg
       $ metrics_port_arg $ checkpoint_arg $ resume_arg $ task_deadline_arg
       $ task_retries_arg $ harness_chaos_arg))

let selftest_random_arg =
  Arg.(
    value & opt int 1000
    & info [ "random" ]
        ~doc:
          "Number of seeded random bicolored instances (4-12 nodes) to \
           check on top of the full zoo."
        ~docv:"N")

let selftest_brute_cap_arg =
  Arg.(
    value & opt int 48
    & info [ "brute-cap" ]
        ~doc:
          "How many instances with <= 7 nodes get the factorial-time \
           $(b,Brute) orbit cross-check. Instances with 8 nodes have a \
           fixed cap of 8. Both applied caps are always printed."
        ~docv:"N")

let write_golden_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-golden" ]
        ~doc:
          "Write the zoo fingerprint corpus (name + canonical fingerprint \
           per line) to $(docv) — regenerates \
           test/data/canon_golden.txt."
        ~docv:"FILE")

let dump_arg =
  Arg.(
    value
    & opt string "canon-counterexample.qelect"
    & info [ "dump" ]
        ~doc:
          "Where to write the minimized counterexample instance when a \
           check fails."
        ~docv:"FILE")

let selftest_term =
  Term.(
    ret
      (const selftest_cmd $ selftest_random_arg $ jobs_arg
     $ selftest_brute_cap_arg $ write_golden_arg $ dump_arg))

let frontier_specs_arg =
  Arg.(
    value & opt_all string []
    & info [ "spec" ]
        ~doc:
          ("A Cayley-family spec (repeatable), one of "
          ^ spec_forms Spec.cayley_forms ^ ".")
        ~docv:"SPEC")

let budget_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-mb" ]
        ~doc:
          "Fail (exit 1) if the peak major heap exceeds $(docv) megabytes \
           — the memory-boundedness gate used by CI."
        ~docv:"MB")

let slow_check_arg =
  Arg.(
    value & flag
    & info [ "slow-check" ]
        ~doc:
          "On specs small enough for the full automorphism search, also \
           run it and verify the fast-path class partition matches \
           (exit 1 on disagreement).")

let frontier_term =
  Term.(
    ret
      (const frontier_cmd $ frontier_specs_arg $ jobs_arg
     $ budget_mb_arg $ slow_check_arg))

let run_exits =
  Cmd.Exit.info exit_deadlock ~doc:"The run ended in a deadlock."
  :: Cmd.Exit.info exit_stuck
       ~doc:
         "The run hit the step limit or a watchdog timeout without \
          completing."
  :: Cmd.Exit.info exit_inconsistent
       ~doc:
         "The run produced inconsistent verdicts (a protocol bug or \
          fault-induced divergence)."
  :: Cmd.Exit.defaults

let quarantine_exit =
  Cmd.Exit.info exit_quarantined
    ~doc:
      "At least one task exhausted its retry budget and was quarantined; \
       all other tasks completed."

let sweep_exits = quarantine_exit :: Cmd.Exit.defaults

let chaos_exits =
  Cmd.Exit.info exit_chaos_violation
    ~doc:"At least one chaos run violated a safety invariant."
  :: quarantine_exit :: Cmd.Exit.defaults

let selftest_exits =
  Cmd.Exit.info exit_kernel_defect
    ~doc:
      "The selftest found a kernel defect; a minimized counterexample was \
       dumped."
  :: Cmd.Exit.defaults

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~exits:run_exits
         ~doc:
           "Run an election protocol on an instance. Exits 0 when the run \
            completes (elected or reported unsolvable), 4 on deadlock, 5 \
            on step limit or watchdog timeout, 6 on inconsistent verdicts.")
      run_term;
    Cmd.v
      (Cmd.info "report"
         ~doc:"Summarize a recorded trace file (events, spans, metrics)")
      report_term;
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Class structure, gcd, predictions and Cayley recognition")
      analyze_term;
    Cmd.v (Cmd.info "zoo" ~doc:"List the built-in instance suite") zoo_term;
    Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz for an instance") dot_term;
    Cmd.v
      (Cmd.info "save" ~doc:"Write an instance to a qelect-instance file")
      save_term;
    Cmd.v
      (Cmd.info "sweep" ~exits:sweep_exits
         ~doc:
           "Run the full conformance matrix and print CSV records. Runs \
            under a supervised pool: failing tasks are retried at once and \
            finally quarantined (exit 8) instead of aborting \
            the sweep; $(b,--checkpoint)/$(b,--resume) make the campaign \
            survive kill -9 with bit-identical output.")
      sweep_term;
    Cmd.v
      (Cmd.info "chaos" ~exits:chaos_exits
         ~doc:
           "Run the fault-injection campaign: seeded fault plans x zoo x \
            scheduler matrix, asserting the safety invariants (never two \
            leaders; zero-fault runs conform to the oracle; crash-only \
            runs on solvable Cayley instances terminate). Exits 7 on any \
            violation.")
      chaos_term;
    Cmd.v
      (Cmd.info "selftest" ~exits:selftest_exits
         ~doc:
           "Verify the canonical-labeling kernel over the full instance zoo \
            plus seeded random bicolored digraphs: the certificate and \
            orbit partition must survive a seeded renumbering and a \
            monotone recolouring of every instance, the orbits must match \
            the factorial-time $(b,Brute) reference on instances with <= 8 \
            nodes, and the zoo fingerprints must match \
            test/data/canon_golden.txt. Exits 9 with a minimized \
            counterexample dump when any check fails.")
      selftest_term;
    Cmd.v
      (Cmd.info "frontier"
         ~doc:
           "Exercise the 10^5-node instance frontier: generate large \
            Cayley instances straight into CSR (presentation-backed, no \
            edge lists or per-node tables), compute classes and the \
            oracle prediction on the uniform all-black placement, and \
            report ns/node plus peak heap. $(b,--budget-mb) turns the \
            heap figure into a gate; $(b,--slow-check) differentially \
            verifies the transitivity fast path against the full \
            automorphism search on small specs.")
      frontier_term;
  ]

let () =
  let info =
    Cmd.info "qelect" ~version:"1.0.0"
      ~doc:"Qualitative leader election (Barriere-Flocchini-Fraigniaud-Santoro, SPAA 2003)"
  in
  let rc = Cmd.eval (Cmd.group info cmds) in
  exit (if rc = 0 then !outcome_exit_code else rc)
