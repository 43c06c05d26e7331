(** Supervised batch execution: per-task outcomes, deadlines, retry,
    quarantine, and worker replacement.

    This is the one parallel executor: sweeps, [selftest] and
    [frontier] all fan out here, at every job count. Every task settles
    to its own {!outcome}, a failed attempt is retried at once and the
    task finally {e quarantined} — one poisoned instance no longer takes
    down a 3600-run sweep — and a task that overruns its wall-clock
    deadline is timed out, its worker domain written off as wedged and
    replaced. Callers that want a failure to abort instead read the
    batch through {!values}.

    {b Execution model.} Workers claim ready tasks in index order off a
    shared, mutex-protected table. Without a deadline the caller's
    domain is one of the [jobs] workers, beside [jobs - 1] spawned
    domains — at [jobs = 1] the only one. With a deadline the caller is
    the {e monitor} instead: it watches the [jobs] running workers
    against the deadline, times out overruns, replaces wedged workers
    and collects the batch. OCaml domains cannot be killed, so
    "replacing" a wedged worker means abandoning it — the supervisor
    stops waiting for it, spawns a fresh worker, and the wedged domain
    is left to finish or rot (its late result is discarded by attempt
    claim tokens). After four replacements in one batch the supervisor
    stops spawning and {e degrades}: the monitor runs the remaining
    tasks inline, single-file — the [-j 1] limp-home mode.

    {b Determinism.} Settled values are index-addressed and [f] sees
    only [(index, item)]. A retry waits for nothing: a task is a
    deterministic function of its index and every {!Harness_chaos}
    decision of [(seed, task, attempt)], so no wait could change an
    attempt's fate. Deadline timeouts are wall-clock and therefore
    inherently racy; everything else is reproducible at any job count.

    {b Telemetry.} Settling a batch adds [pool.retry], [pool.timeout],
    [pool.quarantine], [pool.worker.replaced], [pool.degraded] and
    [pool.chaos.*] counters to the ambient {!Qe_obs.Sink} and to the
    process-wide {!totals}; each failed or timed-out attempt also
    leaves a [pool.retry] span (attrs: [task], [attempt], [why]) so
    traces show the supervision tree, and every worker that settled a
    task leaves one [pool.batch] span tree (attrs: [domain] — the
    worker id, [0] for a degraded monitor — and [tasks]) whose
    [pool.task] children (attrs: [idx], [attempt]) are the attempts it
    settled, in start order: the per-domain lanes of the Chrome-trace
    export. A batch that spawned no domain draws no lanes. All
    recording happens on the caller after the batch — nothing is added
    to a healthy task's path beyond two clock reads. *)

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

val values : 'a report array -> 'a array
(** Every [Done] value, in slot order, or the failure of the smallest
    index that did not finish: its exception is re-raised ([Failure]
    for a timeout). With [max_attempts:1] this is a plain parallel map
    whose error reporting is as deterministic as its results. *)

val resolve_jobs : int -> int
(** The CLI's [-j]: [0] means the machine's
    [Domain.recommended_domain_count ()] capped at 16 (instance-level
    parallelism, not oversubscription); anything else is clamped to
    [>= 1]. *)

type policy = {
  deadline_ns : int option;  (** per-attempt wall-clock cap *)
  max_attempts : int;  (** total attempts per task, >= 1 *)
}

val policy : ?deadline_ns:int -> ?max_attempts:int -> unit -> policy
(** Defaults: no deadline, 3 attempts. Out-of-range values are
    clamped. *)

val map :
  ?policy:policy ->
  ?chaos:Harness_chaos.t ->
  ?jobs:int ->
  f:(int -> 'a -> 'b) ->
  'a array ->
  'b report array
(** Run [f i arr.(i)] for every [i] under supervision; slot [i] of the
    result is task [i]'s report, whatever domain ran it and however
    many attempts it took. [jobs] (default 1) is the number of workers,
    clamped to the batch length; see the execution model for whether
    the caller is one of them. At [jobs:1] with no deadline the caller
    runs every attempt, spawns no domain and draws no lanes. A batch
    never raises on task failure — failures are data here. *)

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
    {!Qe_obs.Expose}. *)
