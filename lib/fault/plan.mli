(** Deterministic, seeded fault plans.

    A plan is a pure description: per-kind firing rates, the wake-delay
    length, and a global fault budget. It carries no mutable state — the
    per-run decision stream lives in {!Injector}. Two runs of the same
    engine configuration under the same plan inject exactly the same
    faults at exactly the same points.

    Rates are probabilities in [0, 1], evaluated independently at each
    injection point of the matching kind (see {!Kind.t} for what one
    "point" is per kind). The [budget] caps the {e total} number of
    faults a plan may inject in one run; once exhausted, the execution's
    suffix is fault-free — which is what lets chaos runs on solvable
    instances terminate instead of being crash-restarted forever. *)

type t = {
  seed : int;  (** drives the injector's private decision stream *)
  crash_restart : float;  (** per scheduled turn of a stateful agent *)
  sign_loss : float;  (** per agent post *)
  sign_dup : float;  (** per agent post (evaluated after loss) *)
  delayed_wake : float;  (** per would-be sleeper wake *)
  wake_delay : int;  (** suppression length, in scheduler turns *)
  turn_stutter : float;  (** per scheduled turn *)
  budget : int;  (** max total faults injected per run *)
}

val none : t
(** All rates zero, budget zero: observationally identical to running
    with no plan at all (tested). *)

val make :
  ?crash_restart:float ->
  ?sign_loss:float ->
  ?sign_dup:float ->
  ?delayed_wake:float ->
  ?wake_delay:int ->
  ?turn_stutter:float ->
  ?budget:int ->
  seed:int ->
  unit ->
  t
(** Rates default to 0, [wake_delay] to 8, [budget] to 16. Rates are
    clamped to [0, 1]; [wake_delay] and [budget] to be non-negative. *)

val chaos : seed:int -> t
(** The default chaotic mix used by [qelect chaos] and
    {!Qe_elect.Campaign.chaos_sweep} (both run the same supervised
    pipeline, at any [-j]): every kind enabled at a low rate
    (crash-restart 0.2%, sign-loss and sign-dup 0.5%, delayed-wake 5%,
    turn-stutter 1%), wake delay 8, budget 16. Tuned so the sweep
    exercises every injection point while the fault count per run stays
    small enough to observe ELECT's safety envelope. *)

val crash_only : seed:int -> t
(** Crash-restart only (rate 1%, budget 4): the plan behind the
    liveness invariant "crash-restart runs on solvable Cayley instances
    still terminate". *)

val rate : t -> Kind.t -> float
(** The configured rate for one kind ([wake_delay]/[budget] aside). *)

val enabled : t -> bool
(** [true] iff some kind has a positive rate and the budget is
    positive — i.e. the plan can fire at all. *)

val summary : t -> string
(** One-line human description, e.g.
    ["seed 3: crash-restart=0.002 sign-loss=0.005 ... budget=16"]. *)
