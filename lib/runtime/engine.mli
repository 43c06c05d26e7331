(** The discrete-event execution engine.

    Agents are coroutines (OCaml effects): a scheduler turn resumes one
    agent, which runs atomically until it moves, waits, or halts. Any fair
    interleaving of such turns is a legal asynchronous execution of the
    paper's model; the scheduler strategies below give reproducible
    (seeded) or adversarial interleavings.

    Asleep agents (all agents not in [awake]) do not run until the
    whiteboard of their home-base changes — being "woken up" by a visiting
    agent's sign, as in MAP-DRAWING. At setup the engine marks every
    home-base with a ["home-base"] sign of the owner's color, exactly the
    initial marking the paper posits. *)

type strategy =
  | Round_robin  (** cycle through agents fairly *)
  | Random_fair of int  (** seeded uniform choice among runnable agents *)
  | Lifo
      (** most-recently-enabled agent first, with a periodic fairness
          injection (every 16th pick goes to the oldest-enabled agent) —
          adversarial in flavor but fair, as the model requires *)
  | Fifo_mailbox
      (** oldest-enabled first: the message-passing discipline of the
          Figure 1 transformation (an agent parked at a node is a queued
          message [(P, M)]) *)
  | Synchronous
      (** lock-step rounds: every runnable agent takes one turn per round
          — the adversary used in the paper's impossibility arguments *)

val strategy_name : strategy -> string
(** Stable lowercase name ("round-robin", "random", "lifo",
    "fifo-mailbox", "synchronous") — used in telemetry counter names and
    the CLI. *)

type agent_stats = {
  moves : int;
  posts : int;
  erases : int;
  reads : int;
  turns : int;
}

type inconsistency = {
  reason : string;  (** one-line diagnosis, e.g. ["2 leaders, 1 failed"] *)
  conflicting : (Qe_color.Color.t * Protocol.verdict) list;
      (** the verdicts that contradict each other — the aborted agents,
          or the full leader/failed split on a multi-leader run *)
}

type outcome =
  | Elected of Qe_color.Color.t
      (** exactly one leader; everyone else defeated *)
  | Declared_unsolvable  (** all agents report the election impossible *)
  | Deadlock  (** no agent can run and some are not done *)
  | Step_limit  (** the turn budget ([max_turns]) ran out *)
  | Timeout of Qe_fault.Watchdog.reason
      (** a {!Qe_fault.Watchdog} budget fired — distinct from
          [Step_limit] so harnesses can tell "the experiment's step cap"
          from "the watchdog killed a wedged run" *)
  | Inconsistent of inconsistency
      (** contradictory verdicts — a protocol bug, or fault-induced
          divergence; the payload carries the conflicting verdicts *)

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_string : outcome -> string

type result = {
  outcome : outcome;
  verdicts : (Qe_color.Color.t * Protocol.verdict) list;
  per_agent : (Qe_color.Color.t * agent_stats) list;
  final_locations : (Qe_color.Color.t * int) list;
      (** where each agent halted (world node ids — for oracles and tests;
          protocols never see these) *)
  total_moves : int;
  total_accesses : int;  (** posts + erases + board reads *)
  scheduler_turns : int;
  wall_time_ns : int;
      (** monotonic wall time of the whole run ({!Qe_obs.Clock}) — runs
          are timeable without an external stopwatch *)
  faults_injected : (Qe_fault.Kind.t * int) list;
      (** how many faults of each kind actually fired ([[]] when no plan
          was armed, or when one was armed but nothing fired) *)
}

type event =
  | Woke of { agent : Qe_color.Color.t }
  | Moved of { agent : Qe_color.Color.t; from_node : int; to_node : int }
  | Posted of { agent : Qe_color.Color.t; node : int; tag : string }
  | Erased of {
      agent : Qe_color.Color.t;
      node : int;
      tag : string;
      count : int;
    }
  | Halted of { agent : Qe_color.Color.t; verdict : Protocol.verdict }
  | Crashed of { agent : Qe_color.Color.t; node : int }
      (** fault: amnesiac crash-restart at the agent's current node *)
  | Sign_lost of { agent : Qe_color.Color.t; node : int; tag : string }
      (** fault: the post was dropped — no revision bump, no wake-ups *)
  | Sign_duplicated of {
      agent : Qe_color.Color.t;
      node : int;
      tag : string;
    }  (** fault: the post landed twice *)
  | Wake_delayed of { agent : Qe_color.Color.t; until_turn : int }
      (** fault: a home-base wake was suppressed until the given turn *)
  | Stuttered of { agent : Qe_color.Color.t }
      (** fault: the scheduler turn was consumed without running the
          agent

          Execution events, in scheduler order. Node ids are world-side
          (diagnostics only). *)

val pp_event : Format.formatter -> event -> unit

val run :
  ?strategy:strategy ->
  ?seed:int ->
  ?max_turns:int ->
  ?awake:int list ->
  ?on_event:(event -> unit) ->
  ?obs:Qe_obs.Sink.t ->
  ?faults:Qe_fault.Plan.t ->
  ?watchdog:Qe_fault.Watchdog.t ->
  World.t ->
  Protocol.t ->
  result
(** [run world protocol] executes one agent per home-base.
    [strategy] defaults to [Random_fair seed]; [seed] defaults to 0;
    [max_turns] to 2_000_000; [awake] (agent indices) to all agents.
    [awake:[]] is legal and deadlocks immediately (no agent can ever
    run), yielding a clean [Deadlock] outcome.

    Port symbols are presented to each agent in an agent-specific shuffled
    order derived from [seed], so no global symbol order leaks. For a
    quantitative protocol, [ctx.rank] is the agent index; for a
    qualitative one it is [None].

    [on_event] receives every event in order. Event values are built
    only when [on_event] is given or [obs] streams lines; without
    either, a run builds none, and its result is the same.

    [obs] attaches a telemetry sink (default: none, at zero hot-path
    cost). The run then records per-run and per-agent counters into
    [obs.metrics] ([engine.moves], [engine.posts], [engine.erases],
    [engine.reads], [engine.turns], [engine.wakes], scheduler picks
    total and per strategy as [engine.picks.<name>], per-agent
    [engine.agent.<color>.*], and an [engine.agent.moves] histogram),
    wraps the run in an ["engine.run"] span with ["setup"],
    ["schedule"] and ["collect"] phases, and — when the sink has an
    [on_line] stream — writes the full JSONL trace: one {e meta} header,
    one {e event} line per engine event (sequence-numbered), the closed
    span tree, and a final cumulative metrics snapshot
    ({!Qe_obs.Export}). Totals in the snapshot match this [result]
    exactly.

    [faults] arms a deterministic {!Qe_fault.Plan}: injection decisions
    are drawn from private per-kind RNG streams seeded by the plan, so
    the engine's own scheduling RNG is never perturbed and a plan whose
    rates are all zero is observationally identical to no plan (same
    outcome, same events — only the trace meta line records the plan).
    Every fault that fires is an engine event ([Crashed], [Sign_lost],
    [Sign_duplicated], [Wake_delayed], [Stuttered]), a
    [fault.injected.<kind>] counter when [obs] is attached, and a row in
    [result.faults_injected]. With [faults = None] (the default) every
    injection point is an untaken match branch.

    [watchdog] arms run budgets ({!Qe_fault.Watchdog}); when one fires
    the run stops with [Timeout reason] instead of running on. *)

val home_tag : string
(** The tag of the setup-time home-base marks ("home-base"). *)
