(** Recording and analysing execution traces.

    Plug {!recorder} into [Engine.run ~on_event] to capture the full event
    stream, then slice it: per-agent activity, whiteboard-tag histograms
    (which expose a protocol's phase structure — map-drawing posts, sync
    barriers, match races...), and a rendered timeline for debugging. *)

type t

val recorder : unit -> t * (Engine.event -> unit)
(** A fresh trace and the callback that feeds it. *)

val events : t -> Engine.event list
(** In execution order. *)

val length : t -> int
val moves_of : t -> Qe_color.Color.t -> int

val tag_prefix : string -> string
(** The phase prefix of a whiteboard tag: the part up to (excluding) the
    first [':']. A tag with no [':'] is {e its own prefix} — the whole
    tag is returned unchanged ([tag_prefix "home-base" = "home-base"]).
    This is deliberate: colon-free tags like ["home-base"] name a phase
    by themselves, so they bucket under their full name rather than
    under [""]. *)

val tag_histogram : t -> (string * int) list
(** Posted signs counted by tag prefix ({!tag_prefix}) — e.g. ELECT
    traces show "node-id", "sync", "match", "leader"... Sorted by
    descending count, ties by tag. *)

val verdict_counts : t -> int * int * int * int
(** [(leaders, defeated, failed, aborted)] among the [Halted] events —
    the verdict detail that {!summary} renders. *)

val nodes_touched : t -> int list
(** Nodes that saw at least one post, ascending. *)

val timeline : ?limit:int -> t -> string
(** Human-readable rendering, one event per line ([limit] defaults to
    everything). [Woke] lines carry the agent, [Halted] lines the full
    verdict (including abort messages), consistent with {!summary}'s
    verdict breakdown. *)

val summary : t -> string
(** One paragraph: event totals (wakes, moves, posts, erases, halts),
    the halts broken down by verdict, and the tag histogram. *)
