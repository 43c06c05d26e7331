(** Crash-safe sweep journals: append-only JSONL checkpoints that
    survive [kill -9].

    A checkpoint records each completed task of a campaign as one JSON
    line keyed by its index in the canonical task matrix. Because sweep
    records are deterministic per index, replaying the journal and
    running only the missing indices reproduces the uninterrupted run's
    output byte-for-byte — see {!Campaign.sweep} and
    {!Campaign.chaos_sweep}, whose shared pipeline decodes each payload
    and re-runs any task whose line does not decode.

    {b Crash model.} The file is created via temp-file + [rename], so a
    checkpoint either exists with a valid header or not at all. Each
    completed task is appended as one line and flushed; a crash can at
    worst leave a torn final line, which {!load} silently discards
    (lenient tail decode). Nothing is ever rewritten in place.

    {b Format.} Line 1 is a header object ([{"qelect-checkpoint": 1,
    ...meta}]) identifying the sweep; every further line is
    [{"i": <index>, ...payload}]. On resume the header's meta fields
    must match the requested sweep exactly — resuming a checkpoint
    written by a different sweep refuses loudly rather than merging
    silently. Duplicate indices are legal (last wins), so re-journaling
    an already-journaled task is harmless. *)

type t
(** An open journal, safe to {!append} from multiple domains. *)

val create : path:string -> meta:(string * Qe_obs.Jsonl.value) list -> t
(** Start a fresh journal at [path] (atomically: written to a temp file
    in the same directory, then renamed into place), with [meta] folded
    into the header line. Truncates any previous file at [path]. *)

val append : t -> int -> (string * Qe_obs.Jsonl.value) list -> unit
(** [append t i payload] journals task [i] as one line and flushes it to
    the OS. Thread-safe; line-atomic with respect to crashes. *)

val close : t -> unit

val load :
  path:string ->
  meta:(string * Qe_obs.Jsonl.value) list ->
  (int * Qe_obs.Jsonl.value) list
(** Read a journal back for resumption: validates the header against
    [meta] (every requested field must be present and equal), then
    returns the completed entries as [(index, full line object)] pairs
    in file order, duplicates included (callers keep the last). A
    torn or unparsable tail line ends the scan without error.

    @raise Failure if [path] is unreadable, has no header, or the
    header's meta fields do not match [meta]. *)

val resume :
  path:string -> meta:(string * Qe_obs.Jsonl.value) list -> t
(** Reopen an existing journal for further {!append}s (positioned at the
    end). Validates the header exactly like {!load}. *)
