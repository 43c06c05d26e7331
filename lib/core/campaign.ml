module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module F = Qe_graph.Families
module Engine = Qe_runtime.Engine
module World = Qe_runtime.World
module Protocol = Qe_runtime.Protocol

type instance = {
  name : string;
  family : string;
  cayley : bool;
  graph : Graph.t;
  black : int list;
}

let instance ~name ~family ~cayley graph ~black =
  { name; family; cayley; graph; black }

let bicolored i = Bicolored.make i.graph ~black:i.black

let zoo () =
  [
    (* paths and trees: rigid or reflection-symmetric *)
    instance ~name:"path4/end" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0 ];
    instance ~name:"path4/ends" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0; 3 ];
    instance ~name:"path4/asym" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0; 2 ];
    instance ~name:"path5/mid-pair" ~family:"path" ~cayley:false (F.path 5)
      ~black:[ 1; 2 ];
    instance ~name:"tree2/siblings" ~family:"tree" ~cayley:false
      (F.binary_tree 2) ~black:[ 1; 2 ];
    instance ~name:"tree2/root+leaves" ~family:"tree" ~cayley:false
      (F.binary_tree 2) ~black:[ 0; 3; 4 ];
    instance ~name:"star3/leaves" ~family:"star" ~cayley:false (F.star 3)
      ~black:[ 1; 2; 3 ];
    instance ~name:"star5/two-leaves" ~family:"star" ~cayley:false (F.star 5)
      ~black:[ 1; 2 ];
    instance ~name:"wheel6/rim3" ~family:"wheel" ~cayley:false (F.wheel 6)
      ~black:[ 0; 2; 4 ];
    instance ~name:"wheel5/hub+rim" ~family:"wheel" ~cayley:false (F.wheel 5)
      ~black:[ 5; 0 ];
    (* rings *)
    instance ~name:"C5/adjacent" ~family:"cycle" ~cayley:true (F.cycle 5)
      ~black:[ 0; 1 ];
    instance ~name:"C5/all" ~family:"cycle" ~cayley:true (F.cycle 5)
      ~black:[ 0; 1; 2; 3; 4 ];
    instance ~name:"C6/antipodal" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 3 ];
    instance ~name:"C6/adjacent" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 1 ];
    instance ~name:"C6/triangle" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 2; 4 ];
    instance ~name:"C7/spread" ~family:"cycle" ~cayley:true (F.cycle 7)
      ~black:[ 0; 1; 3 ];
    instance ~name:"C8/square" ~family:"cycle" ~cayley:true (F.cycle 8)
      ~black:[ 0; 2; 4; 6 ];
    instance ~name:"C10/near-pair" ~family:"cycle" ~cayley:true (F.cycle 10)
      ~black:[ 0; 2 ];
    instance ~name:"C12/break" ~family:"cycle" ~cayley:true (F.cycle 12)
      ~black:[ 0; 1; 5 ];
    instance ~name:"C12/two-blocks" ~family:"cycle" ~cayley:true (F.cycle 12)
      ~black:[ 0; 1; 2; 6; 7; 8 ];
    (* complete graphs *)
    instance ~name:"K2/both" ~family:"complete" ~cayley:true (F.complete 2)
      ~black:[ 0; 1 ];
    instance ~name:"K4/pair" ~family:"complete" ~cayley:true (F.complete 4)
      ~black:[ 0; 1 ];
    instance ~name:"K4/all" ~family:"complete" ~cayley:true (F.complete 4)
      ~black:[ 0; 1; 2; 3 ];
    instance ~name:"K5/triple" ~family:"complete" ~cayley:true (F.complete 5)
      ~black:[ 0; 1; 2 ];
    (* hypercubes *)
    instance ~name:"Q3/antipodal" ~family:"hypercube" ~cayley:true
      (F.hypercube 3) ~black:[ 0; 7 ];
    instance ~name:"Q3/adjacent" ~family:"hypercube" ~cayley:true
      (F.hypercube 3) ~black:[ 0; 1 ];
    instance ~name:"Q3/face" ~family:"hypercube" ~cayley:true (F.hypercube 3)
      ~black:[ 0; 3; 5; 6 ];
    instance ~name:"Q4/pair" ~family:"hypercube" ~cayley:true (F.hypercube 4)
      ~black:[ 0; 15 ];
    (* tori, circulants, bipartite *)
    instance ~name:"T33/pair" ~family:"torus" ~cayley:true (F.torus 3 3)
      ~black:[ 0; 4 ];
    instance ~name:"T34/diag" ~family:"torus" ~cayley:true (F.torus 3 4)
      ~black:[ 0; 5; 10 ];
    instance ~name:"circ10-13/pair" ~family:"circulant" ~cayley:true
      (F.circulant 10 [ 1; 3 ]) ~black:[ 0; 5 ];
    instance ~name:"K33/cross" ~family:"bipartite" ~cayley:true
      (F.complete_bipartite 3 3) ~black:[ 0; 3 ];
    instance ~name:"grid23/corners" ~family:"grid" ~cayley:false (F.grid 2 3)
      ~black:[ 0; 5 ];
    (* Petersen: the paper's counterexample *)
    instance ~name:"petersen/adjacent" ~family:"petersen" ~cayley:false
      (F.petersen ()) ~black:[ 0; 1 ];
    instance ~name:"petersen/triple" ~family:"petersen" ~cayley:false
      (F.petersen ()) ~black:[ 0; 1; 2 ];
    (* generalized Petersen cousins: more vertex-transitive specimens *)
    instance ~name:"moebius-kantor/adj" ~family:"gp" ~cayley:true
      (F.moebius_kantor ()) ~black:[ 0; 1 ];
    instance ~name:"dodecahedron/adj" ~family:"gp" ~cayley:false
      (F.dodecahedron ()) ~black:[ 0; 1 ];
    instance ~name:"desargues/adj" ~family:"gp" ~cayley:false
      (F.desargues ()) ~black:[ 0; 1 ];
    instance ~name:"octahedron/pair" ~family:"multipartite" ~cayley:true
      (F.complete_multipartite [ 2; 2; 2 ])
      ~black:[ 0; 2 ];
    (* deep Euclid chains: Fibonacci double stars force worst-case
       AGENT-REDUCE round counts; unequal multipartite parts drive
       NODE-REDUCE *)
    instance ~name:"dstar5-3/leaves" ~family:"doublestar" ~cayley:false
      (F.double_star 5 3)
      ~black:(List.init 8 (fun i -> 2 + i));
    instance ~name:"dstar8-5/leaves" ~family:"doublestar" ~cayley:false
      (F.double_star 8 5)
      ~black:(List.init 13 (fun i -> 2 + i));
    instance ~name:"K469/part1" ~family:"multipartite" ~cayley:false
      (F.complete_multipartite [ 4; 6; 9 ])
      ~black:[ 0; 1; 2; 3 ];
    instance ~name:"K468/part1" ~family:"multipartite" ~cayley:false
      (F.complete_multipartite [ 4; 6; 8 ])
      ~black:[ 0; 1; 2; 3 ];
    (* random connected graphs (rigid with overwhelming probability) *)
    instance ~name:"rand9/3" ~family:"random" ~cayley:false
      (F.random_connected ~seed:5 ~n:9 ~extra_edges:3)
      ~black:[ 0; 4; 7 ];
    instance ~name:"rand12/2" ~family:"random" ~cayley:false
      (F.random_connected ~seed:9 ~n:12 ~extra_edges:6)
      ~black:[ 1; 2 ];
  ]

let cayley_zoo () =
  List.filter (fun i -> i.cayley) (zoo ())
  @ [
      instance ~name:"C9/thirds" ~family:"cycle" ~cayley:true (F.cycle 9)
        ~black:[ 0; 3; 6 ];
      instance ~name:"C9/pair" ~family:"cycle" ~cayley:true (F.cycle 9)
        ~black:[ 0; 3 ];
      instance ~name:"Q2/all" ~family:"hypercube" ~cayley:true (F.hypercube 2)
        ~black:[ 0; 1; 2; 3 ];
      instance ~name:"Q2/edge" ~family:"hypercube" ~cayley:true
        (F.hypercube 2) ~black:[ 0; 1 ];
      instance ~name:"circ8-14/anti" ~family:"circulant" ~cayley:true
        (F.circulant 8 [ 1; 4 ]) ~black:[ 0; 4 ];
      instance ~name:"prism6/pair" ~family:"circulant" ~cayley:true
        (F.circulant 6 [ 2; 3 ]) ~black:[ 0; 3 ];
      instance ~name:"T33/single" ~family:"torus" ~cayley:true (F.torus 3 3)
        ~black:[ 0 ];
      instance ~name:"K5/pair" ~family:"complete" ~cayley:true (F.complete 5)
        ~black:[ 0; 1 ];
      instance ~name:"CCC3/pair" ~family:"ccc" ~cayley:true
        (F.cube_connected_cycles 3) ~black:[ 0; 13 ];
    ]

type record = {
  inst : instance;
  protocol_name : string;
  strategy_name : string;
  seed : int;
  outcome : Engine.outcome;
  elected : bool;
  expected_elected : bool;
  conforms : bool;
  gcd : int;
  prediction : Oracle.prediction;
  agents : int;
  nodes : int;
  edges : int;
  moves : int;
  accesses : int;
  turns : int;
  wall_ns : int;
}

let strategies =
  [
    ("round-robin", Engine.Round_robin);
    ("random", Engine.Random_fair 0);
    ("lifo", Engine.Lifo);
    ("fifo-mailbox", Engine.Fifo_mailbox);
    ("synchronous", Engine.Synchronous);
  ]

let run_one ?strategy ?obs ?(seed = 0) ~expected_elected inst proto =
  let strategy_name, strategy =
    match strategy with
    | Some (name, s) -> (
        ( name,
          match s with Engine.Random_fair _ -> Engine.Random_fair seed | s -> s ))
    | None -> ("random", Engine.Random_fair seed)
  in
  let world = World.make inst.graph ~black:inst.black in
  let result = Engine.run ~strategy ~seed ?obs world proto in
  let elected =
    match result.Engine.outcome with Engine.Elected _ -> true | _ -> false
  in
  let unsolvable = result.Engine.outcome = Engine.Declared_unsolvable in
  let conforms = if expected_elected then elected else unsolvable in
  let b = bicolored inst in
  {
    inst;
    protocol_name = proto.Protocol.name;
    strategy_name;
    seed;
    outcome = result.Engine.outcome;
    elected;
    expected_elected;
    conforms;
    gcd = Oracle.gcd_classes b;
    prediction = Oracle.predict b;
    agents = List.length inst.black;
    nodes = Graph.n inst.graph;
    edges = Graph.m inst.graph;
    moves = result.Engine.total_moves;
    accesses = result.Engine.total_accesses;
    turns = result.Engine.scheduler_turns;
    wall_ns = result.Engine.wall_time_ns;
  }

let elect_expected inst = Oracle.gcd_classes (bicolored inst) = 1

(* ---------- the sweep pipeline ----------

   Both sweeps below follow one recipe: build the full task matrix as an
   array in {e canonical order} (sweep: instance, strategy, seed; chaos:
   seed, instance, strategy, plan), settle it through [run_matrix] —
   supervised, optionally journaled — and read the results off in index
   order. Determinism needs nothing more: each task is self-contained
   (the engine derives its scheduling [Random.State] from the task's own
   seed, the fault injector from the plan's seed, and telemetry goes to
   a task-private sink), so no observable value depends on which domain
   ran a task or when. [jobs:1] (the default) runs the matrix on the
   caller with no domains at all; [jobs:0] means "ask the machine"
   ([Qe_par.Supervisor.resolve_jobs]). *)

(* Hoist the per-instance symmetry artifacts out of the per-seed loop:
   resolve the oracle verdicts (and, through them, the classes) once per
   distinct instance before farming the matrix out, so worker domains
   find warm entries instead of racing on the first lookups. With the
   cache disabled this is a no-op and every run recomputes as before.
   The prewarm runs with no ambient sink: metric deltas are recorded at
   compute time into the cache entry and replayed at each in-run lookup,
   so observed snapshots are placement-identical either way. *)
let prewarm instances =
  if Qe_symmetry.Artifact_cache.enabled () then
    List.iter
      (fun inst ->
        let b = bicolored inst in
        ignore (Oracle.gcd_classes b);
        ignore (Oracle.predict b))
      instances

(* Wall-clock latency histograms ([*_latency]) are real time, so they
   can never be part of the determinism contract: any snapshot that is
   compared across runs or job counts ([c_metrics]) has them stripped.
   They still flow to live scrape hooks, [qelect run] sinks and trace
   metric lines, where wall time is the point. *)
let strip_latency snap =
  List.filter (fun (name, _) -> not (Qe_obs.Metrics.is_latency name)) snap

(* [cache.*] counters say whether an artifact was a hit, a miss or a
   single-flight wait — which depends on task timing across domains and
   on what earlier sweeps left in the cache. Like latency they reach [live]
   untouched, but never a merged, determinism-checked snapshot. *)
let placement_free snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

let conformance_rate records =
  let total = List.length records in
  let ok = List.length (List.filter (fun r -> r.conforms) records) in
  (ok, total)

(* The sweep CSV schema. Golden-tested: the column order (wall_ns last)
   is consumed by external scripts, so changing it is a breaking change
   and must show up in a test diff. *)
let csv_header =
  "instance,family,protocol,strategy,seed,nodes,edges,agents,gcd,\
   expected_elected,elected,conforms,moves,accesses,turns,wall_ns"

let csv_row r =
  Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%d,%d,%b,%b,%b,%d,%d,%d,%d"
    r.inst.name r.inst.family r.protocol_name r.strategy_name r.seed r.nodes
    r.edges r.agents r.gcd r.expected_elected r.elected r.conforms r.moves
    r.accesses r.turns r.wall_ns

(* ---------- chaos campaigns ---------- *)

module FPlan = Qe_fault.Plan
module FKind = Qe_fault.Kind
module Watchdog = Qe_fault.Watchdog

type chaos_violation =
  | Two_leaders_certified of {
      outcome : Engine.outcome;
      verdicts : (Qe_color.Color.t * Protocol.verdict) list;
    }
      (** safety: the engine certified a success outcome ([Elected] /
          [Declared_unsolvable]) that contradicts the verdict set —
          e.g. claimed an election while two agents returned [Leader].
          Fault-induced divergence must always surface as
          [Inconsistent], never be silently accepted. *)
  | Zero_fault_divergence of Engine.outcome
      (** a run in which no fault fired must conform to the oracle *)
  | Crash_run_stuck of Engine.outcome
      (** a crash-only run on a solvable Cayley instance must terminate *)

let pp_chaos_violation ppf = function
  | Two_leaders_certified { outcome; verdicts } ->
      Format.fprintf ppf "certified %a with leaders {%s}" Engine.pp_outcome
        outcome
        (String.concat ", "
           (List.filter_map
              (fun (c, v) ->
                if v = Protocol.Leader then Some (Qe_color.Color.name c)
                else None)
              verdicts))
  | Zero_fault_divergence o ->
      Format.fprintf ppf "zero-fault run diverged from oracle: %a"
        Engine.pp_outcome o
  | Crash_run_stuck o ->
      Format.fprintf ppf "crash-only run did not terminate: %a"
        Engine.pp_outcome o

type chaos_record = {
  c_inst : instance;
  c_strategy : string;
  c_plan_kind : string;  (** "chaos" or "crash-only" *)
  c_plan : FPlan.t;
  c_outcome : Engine.outcome;
  c_faults : (FKind.t * int) list;
  c_leaders : int;
  c_violations : chaos_violation list;
  c_turns : int;
}

type chaos_report = {
  c_records : chaos_record list;
  c_runs : int;
  c_faults_fired : int;
  c_by_kind : (FKind.t * int) list;
  c_outcomes : (string * int) list;
      (** outcome label -> run count, most frequent first *)
  c_zero_fault_runs : int;
  c_violating : chaos_record list;  (** records with [c_violations <> []] *)
  c_metrics : Qe_obs.Metrics.snapshot;
      (** the sweep's merged engine/fault metrics ([[]] without [obs]) *)
  c_jobs : int;  (** resolved job count the sweep actually ran with *)
  c_cores : int;  (** [Domain.recommended_domain_count ()] at run time *)
}

let outcome_label = function
  | Engine.Elected _ -> "elected"
  | Engine.Declared_unsolvable -> "unsolvable"
  | Engine.Deadlock -> "deadlock"
  | Engine.Step_limit -> "step-limit"
  | Engine.Timeout r -> "timeout-" ^ Watchdog.reason_name r
  | Engine.Inconsistent _ -> "inconsistent"

let default_chaos_watchdog =
  Watchdog.make ~turn_budget:500_000 ~livelock_window:120_000 ()

let chaos_run ?obs ~strategy:(strategy_name, strategy) ~seed ~watchdog
    ~plan_kind ~plan ~expected_elected inst proto =
  let strategy =
    match strategy with
    | Engine.Random_fair _ -> Engine.Random_fair seed
    | s -> s
  in
  let world = World.make inst.graph ~black:inst.black in
  (* wake only the first agent: the rest sleep until a visitor's sign
     wakes them (the paper's wake-up model), which is what puts the
     delayed-wake injection point on the execution path *)
  let result =
    Engine.run ~strategy ~seed ?obs ~awake:[ 0 ] ~faults:plan ~watchdog
      world proto
  in
  let leaders =
    List.length
      (List.filter (fun (_, v) -> v = Protocol.Leader) result.Engine.verdicts)
  in
  let fired = result.Engine.faults_injected in
  let total_fired = List.fold_left (fun acc (_, n) -> acc + n) 0 fired in
  let terminated =
    match result.Engine.outcome with
    | Engine.Step_limit | Engine.Timeout _ -> false
    | _ -> true
  in
  let conforms =
    match result.Engine.outcome with
    | Engine.Elected _ -> expected_elected
    | Engine.Declared_unsolvable -> not expected_elected
    | _ -> false
  in
  let certified_ok =
    (* a "success" outcome must be consistent with the verdict set *)
    match result.Engine.outcome with
    | Engine.Elected _ -> leaders = 1
    | Engine.Declared_unsolvable -> leaders = 0
    | _ -> true
  in
  let violations =
    (if not certified_ok then
       [
         Two_leaders_certified
           {
             outcome = result.Engine.outcome;
             verdicts = result.Engine.verdicts;
           };
       ]
     else [])
    @ (if total_fired = 0 && not conforms then
         [ Zero_fault_divergence result.Engine.outcome ]
       else [])
    @
    if
      plan_kind = "crash-only" && inst.cayley && expected_elected
      && not terminated
    then [ Crash_run_stuck result.Engine.outcome ]
    else []
  in
  {
    c_inst = inst;
    c_strategy = strategy_name;
    c_plan_kind = plan_kind;
    c_plan = plan;
    c_outcome = result.Engine.outcome;
    c_faults = fired;
    c_leaders = leaders;
    c_violations = violations;
    c_turns = result.Engine.scheduler_turns;
  }

(* ---------- the matrix driver: supervision + checkpoint ---------- *)

module Supervisor = Qe_par.Supervisor
module J = Qe_obs.Jsonl
module Sink = Qe_obs.Sink
module Metrics = Qe_obs.Metrics
module Export = Qe_obs.Export

type hardened_summary = {
  h_tasks : int;
  h_replayed : int;
  h_ran : int;
  h_quarantined : (int * string) list;
  h_retries : int;
  h_timeouts : int;
  h_replaced : int;
  h_degraded : bool;
}

(* how one task of the matrix settled *)
type ('r, 'j) settled = Ran of 'r | Replayed of 'j | Quarantined

(* The one driver behind both sweeps. [run obs task] executes a task,
   [obs] being its private sink when the sweep is observed; [encode r]
   is the journal payload of a result ([None]: never journal it) and
   [decode] reads one back ([None]: the line is treated as not
   journaled, so its task re-runs). [meta] pins the exact task matrix in
   the journal header: resuming under different arguments must fail,
   not silently merge two different sweeps. Returns every task's
   settlement in canonical order, the merge of the fresh runs'
   placement-free snapshots, and the supervision summary. Callers
   {!prewarm} before laying out [tasks]: the layout evaluates [expected]
   per instance, which should hit the warm cache too. *)
let run_matrix ~jobs ~supervise ~harness_chaos ~checkpoint ~resume ~meta ~obs
    ~live ~label ~run ~encode ~decode tasks =
  let len = Array.length tasks in
  let replayed = Hashtbl.create 97 in
  let journal =
    match checkpoint with
    | None -> None
    | Some path when resume && Sys.file_exists path ->
        List.iter
          (fun (i, v) ->
            if i >= 0 && i < len then
              Option.iter (Hashtbl.replace replayed i) (decode v))
          (Checkpoint.load ~path ~meta);
        Some (Checkpoint.resume ~path ~meta)
    | Some path -> Some (Checkpoint.create ~path ~meta)
  in
  let todo =
    Array.of_list
      (List.filter
         (fun i -> not (Hashtbl.mem replayed i))
         (List.init len Fun.id))
  in
  let streaming =
    match obs with Some { Sink.on_line = Some _; _ } -> true | _ -> false
  in
  (* an observed task runs under a private sink, installed both as the
     engine's [~obs] and as the ambient sink so kernel and cache work
     inside the run lands with it. Its trace lines are buffered and
     replayed to [obs] in canonical order after the batch — minus the
     per-run snapshots, which are per-sink readings; one merged snapshot
     closes the trace instead, so `qelect report`'s last-wins totals
     cover the whole sweep *)
  let exec _ idx =
    let task = tasks.(idx) in
    let ((r, _, _) as out) =
      if Option.is_none obs && Option.is_none live then
        (run None task, [], [])
      else begin
        let lines = ref [] in
        let on_line =
          if streaming then Some (fun l -> lines := l :: !lines) else None
        in
        let sink = Sink.create ?on_line () in
        let r = Sink.with_ambient sink (fun () -> run (Some sink) task) in
        let snap = Metrics.snapshot sink.Sink.metrics in
        Option.iter (fun push -> push snap) live;
        (r, placement_free snap, List.rev !lines)
      end
    in
    (* journal at completion time: a kill -9 any time after this line
       loses nothing of the task *)
    Option.iter
      (fun j -> Option.iter (Checkpoint.append j idx) (encode r))
      journal;
    out
  in
  (* with a streaming [obs], the batch's own telemetry (retry spans and
     per-worker [pool.batch] lanes) is caught in a side sink and appended
     to the trace after the task lines; its [pool.*] metrics are
     scheduling facts, not sweep results, and are dropped *)
  let lanes = if streaming then Some (Sink.create ()) else None in
  let t0 = Supervisor.totals () in
  let reports =
    let go () =
      Supervisor.map ~policy:supervise ?chaos:harness_chaos ~jobs ~f:exec todo
    in
    match lanes with Some s -> Sink.with_ambient s go | None -> go ()
  in
  Option.iter Checkpoint.close journal;
  let t1 = Supervisor.totals () in
  (* [todo] is ascending, so [fresh] is in canonical order *)
  let fresh = List.filter_map Supervisor.value (Array.to_list reports) in
  let settled = Array.make len Quarantined in
  Hashtbl.iter (fun i j -> settled.(i) <- Replayed j) replayed;
  Array.iteri
    (fun k rep ->
      Option.iter (fun (r, _, _) -> settled.(todo.(k)) <- Ran r)
        (Supervisor.value rep))
    reports;
  let merged =
    List.fold_left (fun acc (_, snap, _) -> Metrics.merge acc snap) [] fresh
  in
  Option.iter
    (fun parent ->
      List.iter
        (fun (_, _, lines) ->
          List.iter
            (function
              | Export.Metric_snapshot _ -> () | l -> Sink.emit parent l)
            lines)
        fresh;
      Option.iter
        (fun s ->
          List.iter
            (fun root -> Sink.emit parent (Export.Span_tree root))
            (Qe_obs.Span.roots s.Sink.spans))
        lanes;
      (* the trace keeps latency: `qelect report` prints its quantiles,
         and traces are wall-clock anyway *)
      if merged <> [] then Sink.emit parent (Export.Metric_snapshot merged))
    obs;
  let quarantined =
    List.filter_map
      (fun i ->
        match settled.(i) with
        | Quarantined -> Some (i, label tasks.(i))
        | _ -> None)
      (List.init len Fun.id)
  in
  let n_replayed = Hashtbl.length replayed in
  ( settled,
    merged,
    {
      h_tasks = len;
      h_replayed = n_replayed;
      h_ran = len - n_replayed;
      h_quarantined = quarantined;
      h_retries = t1.Supervisor.retries - t0.Supervisor.retries;
      h_timeouts = t1.Supervisor.timeouts - t0.Supervisor.timeouts;
      h_replaced = t1.Supervisor.replaced - t0.Supervisor.replaced;
      h_degraded = t1.Supervisor.degraded > t0.Supervisor.degraded;
    } )

let matrix_meta ~mode ~proto ~seeds ~strategies ~len instances =
  [
    ("mode", J.String mode);
    ("protocol", J.String proto.Protocol.name);
    ("tasks", J.Int len);
    ("seeds", seeds);
    ("strategies", J.String (String.concat "," (List.map fst strategies)));
    ( "instances",
      J.String (String.concat "," (List.map (fun i -> i.name) instances)) );
  ]

(* ---------- the two sweeps ---------- *)

type sweep_row = {
  s_idx : int;
  s_csv : string;
  s_conforms : bool;
  s_record : record option;
}

let sweep ?(seeds = [ 0; 1 ]) ?(strategies = strategies) ?(jobs = 1) ?live
    ?(supervise = Supervisor.policy ()) ?harness_chaos ?checkpoint
    ?(resume = false) ~expected proto instances =
  prewarm instances;
  let tasks =
    List.concat_map
      (fun inst ->
        let expected_elected = expected inst in
        List.concat_map
          (fun strat ->
            List.map (fun seed -> (inst, strat, seed, expected_elected)) seeds)
          strategies)
      instances
    |> Array.of_list
  in
  let meta =
    matrix_meta ~mode:"sweep" ~proto
      ~seeds:(J.String (String.concat "," (List.map string_of_int seeds)))
      ~strategies ~len:(Array.length tasks) instances
  in
  let settled, _, summary =
    run_matrix ~jobs:(Supervisor.resolve_jobs jobs) ~supervise ~harness_chaos
      ~checkpoint ~resume ~meta ~obs:None ~live
      ~label:(fun (inst, (sname, _), seed, _) ->
        Printf.sprintf "%s/%s/seed%d" inst.name sname seed)
      ~run:(fun obs (inst, strategy, seed, expected_elected) ->
        run_one ~strategy ?obs ~seed ~expected_elected inst proto)
      ~encode:(fun r ->
        Some [ ("row", J.String (csv_row r)); ("conforms", J.Bool r.conforms) ])
      ~decode:(fun v ->
        match (J.member "row" v, J.member "conforms" v) with
        | Some (J.String csv), Some (J.Bool conforms) -> Some (csv, conforms)
        | _ -> None)
      tasks
  in
  let rows =
    List.filter_map Fun.id
      (List.mapi
         (fun s_idx -> function
           | Ran r ->
               Some
                 {
                   s_idx;
                   s_csv = csv_row r;
                   s_conforms = r.conforms;
                   s_record = Some r;
                 }
           | Replayed (s_csv, s_conforms) ->
               Some { s_idx; s_csv; s_conforms; s_record = None }
           | Quarantined -> None)
         (Array.to_list settled))
  in
  (rows, summary)

(* A chaos journal line, read back: its outcome label and fired faults.
   Every fault kind must be known — a line naming one this build does
   not know cannot be aggregated faithfully, so it does not decode. *)
let decode_chaos v =
  let fault = function
    | J.List [ J.String name; J.Int n ] ->
        List.find_opt (fun k -> FKind.name k = name) FKind.all
        |> Option.map (fun k -> (k, n))
    | _ -> None
  in
  match (J.member "outcome" v, J.member "faults" v) with
  | Some (J.String label), Some (J.List l) ->
      let faults = List.filter_map fault l in
      if List.length faults = List.length l then Some (label, faults) else None
  | _ -> None

let chaos_sweep ?(seeds = 8) ?(strategies = strategies)
    ?(watchdog = default_chaos_watchdog) ?obs ?(jobs = 1) ?live
    ?(supervise = Supervisor.policy ()) ?harness_chaos ?checkpoint
    ?(resume = false) ~expected proto instances =
  let jobs = Supervisor.resolve_jobs jobs in
  prewarm instances;
  let tasks =
    List.concat_map
      (fun seed ->
        let plans =
          [
            ("chaos", FPlan.chaos ~seed); ("crash-only", FPlan.crash_only ~seed);
          ]
        in
        List.concat_map
          (fun inst ->
            let expected_elected = expected inst in
            List.concat_map
              (fun strategy ->
                List.map
                  (fun (plan_kind, plan) ->
                    (seed, inst, expected_elected, strategy, plan_kind, plan))
                  plans)
              strategies)
          instances)
      (List.init seeds Fun.id)
    |> Array.of_list
  in
  let meta =
    matrix_meta ~mode:"chaos" ~proto ~seeds:(J.Int seeds) ~strategies
      ~len:(Array.length tasks) instances
  in
  let settled, merged, summary =
    run_matrix ~jobs ~supervise ~harness_chaos ~checkpoint ~resume ~meta ~obs
      ~live
      ~label:(fun (_, inst, _, (sname, _), plan_kind, _) ->
        Printf.sprintf "%s/%s/%s" inst.name sname plan_kind)
      ~run:(fun obs (seed, inst, expected_elected, strategy, plan_kind, plan) ->
        chaos_run ?obs ~strategy ~seed ~watchdog ~plan_kind ~plan
          ~expected_elected inst proto)
      ~encode:(fun r ->
        (* violating runs are deliberately not journaled: a resume must
           re-run them and re-surface the (typed) violations *)
        if r.c_violations <> [] then None
        else
          Some
            [
              ("outcome", J.String (outcome_label r.c_outcome));
              ( "faults",
                J.List
                  (List.map
                     (fun (k, n) -> J.List [ J.String (FKind.name k); J.Int n ])
                     r.c_faults) );
              ("leaders", J.Int r.c_leaders);
              ("turns", J.Int r.c_turns);
            ])
      ~decode:decode_chaos tasks
  in
  (* the merged view: one (label, faults) per settled task, in canonical
     matrix order, sourced from this run or from the journal — the
     aggregates below are computed over it so a resumed sweep prints
     exactly what the uninterrupted one would *)
  let settled = Array.to_list settled in
  let views =
    List.filter_map
      (function
        | Ran r -> Some (outcome_label r.c_outcome, r.c_faults)
        | Replayed v -> Some v
        | Quarantined -> None)
      settled
  in
  let records =
    List.filter_map (function Ran r -> Some r | _ -> None) settled
  in
  let by_kind =
    List.filter_map
      (fun k ->
        let n =
          List.fold_left
            (fun acc (_, faults) ->
              acc + Option.value ~default:0 (List.assoc_opt k faults))
            0 views
        in
        if n > 0 then Some (k, n) else None)
      FKind.all
  in
  let outcomes =
    List.fold_left
      (fun acc (l, _) ->
        let n = Option.value ~default:0 (List.assoc_opt l acc) in
        (l, n + 1) :: List.remove_assoc l acc)
      [] views
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  ( {
      c_records = records;
      c_runs = List.length views;
      c_faults_fired = List.fold_left (fun acc (_, n) -> acc + n) 0 by_kind;
      c_by_kind = by_kind;
      c_outcomes = outcomes;
      c_zero_fault_runs =
        List.length (List.filter (fun (_, faults) -> faults = []) views);
      c_violating = List.filter (fun r -> r.c_violations <> []) records;
      c_metrics = strip_latency merged;
      c_jobs = jobs;
      c_cores = Domain.recommended_domain_count ();
    },
    summary )
