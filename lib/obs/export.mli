(** The versioned JSONL trace format.

    A trace file is a sequence of JSON objects, one per line, each
    carrying a ["kind"] discriminator:

    - [meta] — stream header: schema name/version plus free-form
      attributes (protocol, strategy, instance, seed...). Emitted once
      per recorded run; a file may hold several runs.
    - [event] — one execution event: a sequence number, an event name
      (["woke"], ["moved"], ["posted"], ["erased"], ["halted"]..., and
      since version 2 the fault events ["crashed"], ["sign-lost"],
      ["sign-dup"], ["wake-delayed"], ["stuttered"]) and named
      attributes.
    - [span] — a completed span tree (see {!Span}).
    - [metrics] — a {!Metrics.snapshot}. In a stream this is cumulative
      for its sink registry; diff consecutive snapshots for intervals.

    Unknown kinds are a decode error (bump {!version} when adding any).
    Producers must write lines in this order per run: meta, events,
    span, metrics — readers may rely on the meta line coming first. *)

val schema : string
(** ["qelect-trace"]. *)

val version : int
(** 3. Decoders reject newer versions. Version 3 added the [lo]/[hi]
    observed extremes to histogram samples (absent fields decode as 0,
    so version-2 traces still read — quantile clamping just loses its
    envelope); version 2 added the engine fault events and the
    [fault_seed]/[fault_plan] meta attributes; version-1 traces still
    decode (the version check is an upper bound). *)

type event = {
  seq : int;
  name : string;
  attrs : (string * Jsonl.value) list;
}

type line =
  | Meta of { producer : string; attrs : (string * Jsonl.value) list }
  | Event of event
  | Span_tree of Span.closed
  | Metric_snapshot of Metrics.snapshot

val to_json : line -> Jsonl.value
val of_json : Jsonl.value -> (line, string) result
(** Exact inverses: [of_json (to_json l) = Ok l]. *)

val write : out_channel -> line -> unit
(** One line, newline-terminated. *)

val of_line : string -> (line, string) result

val read_file : string -> (line list, string) result
(** All lines until EOF; blank lines are skipped; the first error aborts
    with its line number. *)

val read_file_lenient : string -> line list * (int * string) option
(** Like {!read_file}, but tolerant of truncated or damaged tails: a
    run killed mid-write (crash, [SIGKILL], full disk) leaves a valid
    prefix followed by a cut line. Returns every line that decodes up to
    the first failure, plus [Some (lineno, error)] describing the cut
    ([None] for a clean read). Never raises on malformed input. *)
