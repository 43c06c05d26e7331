(** Span tracing: nestable begin/end intervals on the monotonic clock.

    A {!tracer} keeps a stack of open spans; {!exit} closes the innermost
    one and attaches it to its parent, building a tree. Completed
    top-level trees accumulate in {!roots} (execution order) and can be
    rendered as a text flame summary or exported as JSONL via
    {!Export}. *)

type tracer
type span
(** A handle to an open span. *)

type closed = {
  name : string;
  start_ns : int;  (** monotonic, {!Clock.now_ns} epoch *)
  dur_ns : int;
  attrs : (string * Jsonl.value) list;
  children : closed list;  (** in execution order *)
}

val tracer : unit -> tracer

val enter : ?attrs:(string * Jsonl.value) list -> tracer -> string -> span
(** Open a span as a child of the innermost open span (or as a new
    root). *)

val add_attr : span -> string -> Jsonl.value -> unit
(** Attach an attribute to a still-open span (appended after any
    [enter]-time attributes). *)

val exit : tracer -> span -> closed
(** Close the innermost open span, which must be [span] itself —
    spans are strictly nested.
    @raise Invalid_argument on out-of-order exit or a span from another
    tracer. *)

val with_span :
  ?attrs:(string * Jsonl.value) list -> tracer -> string -> (unit -> 'a) -> 'a
(** [enter]/[exit] around a thunk, exception-safe. *)

val roots : tracer -> closed list
(** Completed top-level spans so far, in completion order. *)

val add_root : tracer -> closed -> unit
(** Append an externally-built tree to {!roots}. [closed] is a plain
    record, so span trees can be synthesized from raw timing data
    gathered where no tracer can live (e.g. the per-worker lanes of a
    {!Qe_par.Supervisor} batch, reconstructed on the caller's domain
    after the batch) and still flow through the one export path. *)

val flame : closed -> string
(** An indented text rendering of one tree: name, duration, percentage
    of the root, per level. *)
