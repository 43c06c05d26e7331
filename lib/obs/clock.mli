(** Monotonic time for telemetry.

    A thin binding to [clock_gettime(CLOCK_MONOTONIC)]: unaffected by
    wall-clock adjustments, nanosecond resolution, allocation-free. All
    span timings and [Engine.result.wall_time_ns] use this clock. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed epoch. Only differences are
    meaningful. *)

val pp_ns : Format.formatter -> int -> unit
(** Render a duration with an adaptive unit ("742 ns", "1.24 ms",
    "3.1 s"). *)
