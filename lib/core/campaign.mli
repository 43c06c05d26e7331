(** Experiment driver: the standard instance suite and the sweep
    pipeline used by the benches, the CLI and the integration tests.

    There are two sweeps — {!sweep} (conformance: ELECT elects iff the
    class gcd is 1) and {!chaos_sweep} (fault plans against the safety
    invariants) — and one way to run them: the task matrix is laid out
    in canonical order and settled on {!Qe_par.Supervisor} (per-task
    outcomes, deadline/retry/backoff, quarantine, worker replacement),
    optionally journaled to a crash-safe {!Checkpoint}, with
    observation ([live], [obs]) and harness faults as arguments of the
    same pipeline rather than separate entry points. *)

type instance = {
  name : string;
  family : string;  (** "cycle", "hypercube", ... *)
  cayley : bool;  (** is the topology a Cayley graph (ground truth) *)
  graph : Qe_graph.Graph.t;
  black : int list;
}

val instance :
  name:string -> family:string -> cayley:bool -> Qe_graph.Graph.t ->
  black:int list -> instance

val bicolored : instance -> Qe_graph.Bicolored.t

val zoo : unit -> instance list
(** The standard suite: rings, paths, trees, stars, wheels, complete
    graphs, hypercubes, tori, circulants, Petersen, random graphs — with
    symmetric and symmetry-breaking placements. All small enough for the
    exact oracles. *)

val cayley_zoo : unit -> instance list
(** The Cayley-only sweep used by the Theorem 4.1 experiment. *)

type record = {
  inst : instance;
  protocol_name : string;
  strategy_name : string;
  seed : int;
  outcome : Qe_runtime.Engine.outcome;
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
  wall_ns : int;  (** monotonic wall time of the run *)
}

val strategies : (string * Qe_runtime.Engine.strategy) list
(** The scheduler matrix: round-robin, random, lifo, fifo-mailbox,
    synchronous. *)

val run_one :
  ?strategy:string * Qe_runtime.Engine.strategy ->
  ?obs:Qe_obs.Sink.t ->
  ?seed:int ->
  expected_elected:bool ->
  instance ->
  Qe_runtime.Protocol.t ->
  record
(** One execution; [expected_elected] is the theory's prediction for this
    protocol on this instance. [obs] is forwarded to
    {!Qe_runtime.Engine.run}. *)

val elect_expected : instance -> bool
(** Theorem 3.1: ELECT elects iff the class gcd is 1. *)

val conformance_rate : record list -> int * int
(** (conforming runs, total runs). *)

val csv_header : string
(** The sweep CSV header used by [qelect sweep]; [wall_ns] is the last
    column. Golden-tested — treat the column order as a public schema. *)

val csv_row : record -> string
(** One CSV line per {!record}, matching {!csv_header}'s column order. *)

(** {1 Chaos campaigns}

    Fault-plan sweeps over the instance suite, asserting the safety
    invariants that must survive the adversary:

    - {b never two certified leaders} — the engine never reports
      [Elected] unless exactly one agent returned [Leader], and never
      [Declared_unsolvable] with any [Leader] verdict. Faults {e can}
      drive the protocol itself into divergent verdicts (an amnesiac
      crash-restart can mint a duplicate node identity and corrupt the
      maps) — the engine's obligation is to surface such runs as
      [Inconsistent], never to certify them as a success;
    - {b zero-fault transparency} — a run in which no fault actually
      fired must conform to the oracle exactly like a plain run;
    - {b crash termination} — crash-only plans on solvable Cayley
      instances must still terminate (crash-restart is amnesia, not
      death: the fault budget guarantees a fault-free suffix). *)

type chaos_violation =
  | Two_leaders_certified of {
      outcome : Qe_runtime.Engine.outcome;
      verdicts : (Qe_color.Color.t * Qe_runtime.Protocol.verdict) list;
    }
  | Zero_fault_divergence of Qe_runtime.Engine.outcome
  | Crash_run_stuck of Qe_runtime.Engine.outcome

val pp_chaos_violation : Format.formatter -> chaos_violation -> unit

type chaos_record = {
  c_inst : instance;
  c_strategy : string;
  c_plan_kind : string;  (** "chaos" or "crash-only" *)
  c_plan : Qe_fault.Plan.t;
  c_outcome : Qe_runtime.Engine.outcome;
  c_faults : (Qe_fault.Kind.t * int) list;
  c_leaders : int;  (** number of [Leader] verdicts *)
  c_violations : chaos_violation list;  (** [[]] = this run is clean *)
  c_turns : int;
}

type chaos_report = {
  c_records : chaos_record list;
  c_runs : int;
  c_faults_fired : int;
  c_by_kind : (Qe_fault.Kind.t * int) list;
  c_outcomes : (string * int) list;
      (** outcome label -> run count, most frequent first *)
  c_zero_fault_runs : int;
  c_violating : chaos_record list;  (** records with violations *)
  c_metrics : Qe_obs.Metrics.snapshot;
      (** merged engine/fault/kernel metrics over the sweep's fresh
          runs, in canonical order ([[]] when neither [obs] nor [live]
          was attached). The
          [fault.injected.*] counters here must equal the sums of the
          records' [c_faults] — the stress tests enforce it. *)
  c_jobs : int;
      (** the job count the sweep actually ran with ([jobs:0]
          resolved) — scaling numbers are meaningless without it *)
  c_cores : int;  (** [Domain.recommended_domain_count ()] at run time *)
}

val outcome_label : Qe_runtime.Engine.outcome -> string
(** Short stable label ("elected", "deadlock", "timeout-livelock", ...)
    for summary tables. *)

val default_chaos_watchdog : Qe_fault.Watchdog.t
(** turn budget 500k, livelock window 120k — generous for the zoo, tight
    enough to kill a wedged run. *)

(** {1 The sweep pipeline}

    Both entry points share every contract below.

    {b Supervision.} The matrix runs on {!Qe_par.Supervisor}: [jobs]
    (default 1) worker domains, [jobs:0] resolving to
    {!Qe_par.Pool.default_jobs} (the CLI's [-j 0]); [jobs:1] without a
    deadline runs inline in the caller, spawning nothing. [supervise]
    defaults to {!Qe_par.Supervisor.policy}[ ()]: 3 attempts, no
    deadline. A task that exhausts its attempts is {e quarantined}: it
    contributes nothing to the result and is listed in
    [h_quarantined] (callers should exit non-zero — see [qelect]'s exit
    code 8). [harness_chaos] injects faults into the {e runner} (tests
    and the resilience bench only).

    {b Checkpoint.} [checkpoint] names a journal: every settled task is
    appended to it as it completes. [resume] (default false) replays it
    first and runs only the missing indices; the journal's header must
    describe this exact matrix or the load fails loudly. A journal line
    whose payload does not decode is treated as not journaled, so its
    task re-runs.

    {b Determinism.} Results are {e bit-identical} at any [jobs], and
    whether the sweep ran once or was [kill -9]ed and resumed
    arbitrarily often (modulo [wall_ns], which is wall clock by
    definition): tasks are laid out in canonical order, every run
    derives its RNG from its own seed (never from scheduling), and
    results are collected by task index.

    {b Observation.} When [live] (or, for {!chaos_sweep}, [obs]) is
    given, every task runs under a private {!Qe_obs.Sink.t}, installed
    both as [Engine.run ~obs] and as the (domain-local) ambient sink,
    so engine counters {e and} any kernel/cache work triggered inside
    the run are captured together. [live] is the scrape hook: it is
    called with each task's snapshot — {e including} wall-clock
    [*_latency] histograms and [cache.*] counters — as soon as the task
    completes, from worker domains, concurrently: the callback must be
    domain-safe (fold into an accumulator under a mutex, as
    [qelect --metrics-port] does). Observation never changes a record.

    When the {!Qe_symmetry.Artifact_cache} is enabled (the default),
    every sweep first prewarms the per-instance oracle artifacts once,
    so the per-(strategy, seed) runs hit the cache instead of
    recomputing the symmetry stack — observably transparent: records
    and metric snapshots are identical with the cache disabled, modulo
    the [cache.*] counters. *)

type sweep_row = {
  s_idx : int;  (** position in the canonical task matrix *)
  s_csv : string;  (** {!csv_row} of the record *)
  s_conforms : bool;
  s_record : record option;
      (** the run's full record; [None] iff the row was replayed from
          the checkpoint *)
}

type hardened_summary = {
  h_tasks : int;  (** matrix size *)
  h_replayed : int;  (** tasks skipped thanks to the checkpoint *)
  h_ran : int;  (** tasks executed (and settled) this run *)
  h_quarantined : (int * string) list;
      (** tasks that exhausted their attempts: (index, label) — the
          label is "inst/strat/seedN" for {!sweep} and
          "inst/strat/plan" for {!chaos_sweep}. Quarantined tasks yield
          no result and are never journaled, so a later [resume]
          retries them. *)
  h_retries : int;
  h_timeouts : int;
  h_replaced : int;  (** worker domains written off and replaced *)
  h_degraded : bool;  (** the batch fell back to inline execution *)
}

val sweep :
  ?seeds:int list ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  ?supervise:Qe_par.Supervisor.policy ->
  ?harness_chaos:Qe_par.Harness_chaos.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  sweep_row list * hardened_summary
(** The conformance matrix: instances x strategies x seeds (default
    seeds [[0; 1]], default strategies {!strategies}). Rows come back
    in canonical matrix order, replayed and fresh interleaved; a
    quarantined task contributes no row. *)

val chaos_sweep :
  ?seeds:int ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?watchdog:Qe_fault.Watchdog.t ->
  ?obs:Qe_obs.Sink.t ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  ?supervise:Qe_par.Supervisor.policy ->
  ?harness_chaos:Qe_par.Harness_chaos.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  chaos_report * hardened_summary
(** The chaos matrix: for each seed in [0..seeds-1] (default 8), each
    instance, each strategy, run both {!Qe_fault.Plan.chaos} and
    {!Qe_fault.Plan.crash_only} with that seed under [watchdog], and
    check every safety invariant on every run. Fault decisions come
    from the plan's private seeded streams and the stock watchdogs are
    turn-based, so outcomes never depend on wall time or [jobs]; a
    [Timeout] in one task is an ordinary outcome and never disturbs
    the others.

    The report's aggregates ([c_runs], [c_by_kind], [c_outcomes], ...)
    are computed over the {e merged} view — journal replays plus fresh
    runs, in canonical order — so a resumed sweep prints the same
    summary as an uninterrupted one. [c_records] holds the fresh
    records only; runs with violations are never journaled (they
    re-run, and re-report, on resume), so [c_violating] is complete
    either way.

    [c_metrics] is the {!Qe_obs.Metrics.merge} of the fresh runs'
    snapshots in canonical order, with [*_latency] histograms and
    [cache.*] counters stripped (both depend on the clock or on task
    placement), so it is bit-identical at any [jobs]. When [obs]
    streams, each run's trace lines are replayed to it in canonical
    order — minus the per-run metric snapshots — followed by the
    batch's [pool.retry] spans and per-worker [pool.batch] lanes and
    one merged snapshot (latency kept, [cache.*] dropped), so the
    trace's non-span lines and its final snapshot modulo latency are
    identical at any [jobs]. A resumed sweep's trace would miss the
    replayed runs, which is why [qelect chaos] refuses [--trace-out]
    with [--resume]. *)
