(** Run watchdogs: hard budgets that turn a wedged or livelocked run into
    a structured [Timeout] outcome instead of an indistinct [Step_limit]
    or a hung process.

    All three budgets are optional and independent:

    - [wall_ns] — monotonic wall-clock budget for the whole run
      ({!Qe_obs.Clock}); checked every 256 scheduler turns to keep the
      probe off the hot path.
    - [turn_budget] — scheduler-turn budget. Unlike [Engine.run
      ~max_turns] (which yields [Step_limit]), exceeding a watchdog turn
      budget yields [Timeout Turn_budget] — scripts can tell "the
      experiment's step cap" apart from "the watchdog fired".
    - [livelock_window] — the no-progress window: if this many
      consecutive scheduler turns pass without a single whiteboard
      revision (no effective post, no effective erase), the run is
      declared livelocked. Agents that merely walk forever make no board
      progress, which is exactly the failure mode this catches; protocols
      legitimately quiet for long stretches need a wider window. *)

type t = {
  wall_ns : int option;
  turn_budget : int option;
  livelock_window : int option;
}

val make :
  ?wall_ns:int -> ?turn_budget:int -> ?livelock_window:int -> unit -> t
(** All [None] by default; negative values are rejected with
    [Invalid_argument]. *)

type reason = Wall_clock | Turn_budget | Livelock

val reason_name : reason -> string
(** "wall-clock" | "turn-budget" | "livelock". *)
