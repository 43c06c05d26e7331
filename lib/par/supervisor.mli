(** Supervised batch execution: per-task outcomes, deadlines, seeded
    retry/backoff, quarantine, and worker replacement.

    {!Pool} is the fast path: it assumes tasks are well behaved (an
    exception aborts the batch by re-raising at the smallest failing
    index, and nothing bounds a task's run time). The supervisor is the
    robust path for campaign-scale sweeps: every task settles to its own
    {!outcome}, a misbehaving task is retried on a deterministic
    backoff schedule and finally {e quarantined} — one poisoned instance
    no longer takes down a 3600-run sweep — and a task that overruns its
    wall-clock deadline is timed out, its worker domain written off as
    wedged and replaced.

    {b Execution model.} [jobs] worker domains claim ready tasks in
    index order off a shared, mutex-protected table; the caller's domain
    is the {e monitor}: it watches running attempts against the
    deadline, schedules retries, replaces wedged workers and collects
    the batch. (Without a deadline and without harness chaos the monitor
    never polls — it sleeps on a condition variable until the last task
    settles.) OCaml domains cannot be killed, so "replacing" a wedged
    worker means abandoning it — the supervisor stops waiting for it,
    spawns a fresh worker, and the wedged domain is left to finish or
    rot (its late result is discarded by attempt claim tokens). After
    [max_replacements] replacements the supervisor stops spawning and
    {e degrades}: the monitor runs the remaining tasks inline,
    single-file — the [-j 1] limp-home mode.

    {b Determinism.} Settled values are index-addressed, [f] sees only
    [(index, item)], and the backoff schedule (which attempt waits how
    long) is a pure function of [(seed, task, attempt)] — see
    {!backoff_ns}. Deadline timeouts are wall-clock and therefore
    inherently racy; everything else (including every
    {!Harness_chaos} decision) is reproducible at any job count.

    {b Telemetry.} Settling a batch adds [pool.retry], [pool.timeout],
    [pool.quarantine], [pool.worker.replaced], [pool.degraded] and
    [pool.chaos.*] counters to the ambient {!Qe_obs.Sink} and to the
    process-wide {!totals}; each retried or timed-out attempt also
    leaves a [pool.retry] span (attrs: [task], [attempt], [backoff_ns],
    [why]) so traces show the supervision tree, and every worker that
    settled a task leaves one [pool.batch] span tree (attrs: [domain] —
    the worker id, [0] for the monitor — and [tasks]) whose [pool.task]
    children (attrs: [idx], [attempt]) are the attempts it settled, in
    start order: the per-domain lanes of the Chrome-trace export. A
    batch run inline draws no lanes. All recording happens on the
    monitor after the batch — nothing is added to a healthy task's path
    beyond two clock reads. *)

type 'a outcome =
  | Done of 'a
  | Failed of exn  (** the last attempt's exception *)
  | Timed_out  (** the last attempt overran the deadline *)

type 'a report = {
  outcome : 'a outcome;
  attempts : int;  (** attempts actually started (>= 1) *)
  quarantined : bool;
      (** [true] iff the task exhausted [max_attempts] without a [Done]:
          the final outcome is its last failure *)
}

val value : 'a report -> 'a option
(** [Some v] iff the outcome is [Done v]. *)

type policy = {
  deadline_ns : int option;  (** per-attempt wall-clock cap *)
  max_attempts : int;  (** total attempts per task, >= 1 *)
  backoff_base_ns : int;  (** first retry's nominal wait *)
  backoff_factor : float;  (** growth per further attempt *)
  backoff_max_ns : int;  (** cap on the nominal wait *)
  jitter : float;  (** +/- fraction of the nominal wait, in [0, 1] *)
  seed : int;  (** drives the jitter stream *)
  max_replacements : int;  (** replacement domains before degrading *)
}

val policy :
  ?deadline_ns:int ->
  ?max_attempts:int ->
  ?backoff_base_ns:int ->
  ?backoff_factor:float ->
  ?backoff_max_ns:int ->
  ?jitter:float ->
  ?seed:int ->
  ?max_replacements:int ->
  unit ->
  policy
(** Defaults: no deadline, 3 attempts, base 1 ms, factor 2, cap 1 s,
    jitter 0.5, seed 0, 4 replacements. Out-of-range values are
    clamped. *)

val backoff_ns : policy -> task:int -> attempt:int -> int
(** The wait before [attempt] (>= 2) of [task]:
    [base * factor^(attempt-2)], capped at [backoff_max_ns], then
    jittered by a factor drawn in [1 - jitter, 1 + jitter] from a
    private RNG reseeded from [(seed, task, attempt)]. Pure — the whole
    retry schedule is fixed by the policy, so tests can assert it and
    reruns reproduce it. *)

val map :
  ?policy:policy ->
  ?chaos:Harness_chaos.t ->
  ?jobs:int ->
  f:(int -> 'a -> 'b) ->
  'a array ->
  'b report array
(** Run [f i arr.(i)] for every [i] under supervision; slot [i] of the
    result is task [i]'s report, whatever domain ran it and however
    many attempts it took. [jobs] (default 1) is the number of worker
    domains; unlike {!Pool.map} the caller is the monitor, not a
    worker, except at [jobs:1] with no deadline and no chaos, where
    everything runs inline in the caller. A batch never raises on task
    failure — failures are data here. *)

(** {1 Process-wide supervision totals} *)

type totals = {
  supervised : int;  (** tasks settled under supervision *)
  retries : int;  (** attempts beyond each task's first *)
  timeouts : int;  (** attempts killed by the deadline *)
  quarantined : int;  (** tasks that exhausted max_attempts *)
  replaced : int;  (** worker domains written off and replaced *)
  degraded : int;  (** batches that fell back to inline execution *)
  chaos_injected : int;  (** harness faults fired (kill+delay+wedge) *)
}

val totals : unit -> totals
val reset_totals : unit -> unit

val metrics_snapshot : unit -> Qe_obs.Metrics.snapshot
(** {!totals} as sorted [pool.*] counters — a ready-made source for
    {!Qe_obs.Expose}, alongside {!Pool.metrics_snapshot}. *)
