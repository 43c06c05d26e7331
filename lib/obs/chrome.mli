(** Chrome-trace (Catapult "Trace Event Format") export.

    Converts decoded {!Export} trace lines into the JSON that
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto} load
    directly: [{"traceEvents": [...]}].

    - {!Export.Span_tree} lines render as nested [B]/[E] duration-event
      pairs, timestamps in microseconds on the monotonic span clock.
    - The lane ([tid]) of a tree is taken from a ["domain"] attribute on
      its root: pool batch trees carry [domain d] and land in lane
      [d + 1]; everything else renders in lane 0 (["main"]). Each lane
      gets a [thread_name] metadata event.
    - {!Export.Event} lines carrying a ["t_ns"] attribute (the cache's
      hit markers from traced runs) render as instant events;
      events without a timestamp (the engine's logical execution events)
      are skipped — they have sequence order, not wall-clock extent.
    - [Meta] and [Metric_snapshot] lines are skipped.

    [B]/[E] events are balanced per lane by construction (each closed
    span emits exactly one of each, in nesting order). *)

val of_lines : Export.line list -> Jsonl.value

val write_file : string -> Export.line list -> unit
(** [of_lines] rendered to [path], newline-terminated. *)
