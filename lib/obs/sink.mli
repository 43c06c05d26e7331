(** The telemetry sink: where instrumented code sends its signals.

    A sink bundles a {!Metrics.registry}, a {!Span.tracer} and an
    optional raw line emitter. Instrumentation comes in two shapes:

    - {e threaded}: hot code that already takes parameters accepts
      [?obs:Sink.t] (e.g. [Engine.run ?obs]) — [None] means every probe
      compiles down to an untaken branch;
    - {e ambient}: deep library code with a fixed signature (the
      symmetry kernel) reads the current sink via {!ambient}. It is
      {e domain-local} (each domain of a parallel pool has its own
      slot, initially empty) and {e explicitly scoped}: only
      {!with_ambient} installs it, and only for the extent of its thunk
      on the calling domain.
      With no ambient sink installed (the default), the probe is one
      [ref] read returning [None]. *)

type t = {
  metrics : Metrics.registry;
  spans : Span.tracer;
  on_line : (Export.line -> unit) option;
      (** raw JSONL stream consumer, e.g. a file writer; [None] disables
          event streaming while keeping metrics and spans live *)
  cache_events : bool;
      (** when true (and [on_line] is set), the artifact cache streams a
          timestamped [Export.Event] per hit — the instant-event
          markers the Chrome exporter draws. Off by default: hit events
          carry wall-clock timestamps and a fresh [seq = 0], so they do
          not belong in streams consumed by determinism checks or
          sequence-gap audits. *)
}

val create :
  ?on_line:(Export.line -> unit) -> ?cache_events:bool -> unit -> t
(** A sink with a fresh registry and tracer. [cache_events] defaults to
    [false]. *)

val emit : t -> Export.line -> unit
(** Forward to [on_line]; no-op when the sink has no stream. *)

val ambient : unit -> t option
(** The ambient sink installed on the calling domain, if any. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient sink for the extent of
    the thunk (exception-safe, restores the previous sink — nesting
    works). Other domains are unaffected. *)
