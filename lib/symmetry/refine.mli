(** Equitable partition refinement (1-dimensional Weisfeiler–Leman) on
    colored digraphs.

    Splits cells by the multiset of (arc color, neighbor cell) seen on
    out- and in-arcs until stable. {!fixpoint} runs a worklist-based
    incremental refiner in the Hopcroft/McKay style: only cells adjacent
    to a queued splitter cell are re-examined, only their touched
    members are sorted, (arc color, target cell) signatures are packed
    integers, and scratch arrays are reused across rounds and calls —
    far cheaper than the historical re-signature-everything round, while
    producing the same equitable partition. Cell numbering is isomorphism-invariant: every ordering
    decision (fragment order by ascending splitter count, worklist
    seeding, splitter processing) depends only on invariant data, so two
    isomorphic digraphs get corresponding partitions. This is both the
    canonical-labeling workhorse and, run on an edge-labeled graph,
    exactly the view-equivalence computation of Yamashita–Kameda
    (Norris: stabilisation within [n - 1] rounds). *)

type partition = int array
(** [p.(u)] is the cell id of node [u]; cell ids are [0 .. k-1] with no
    gaps. *)

val initial : Cdigraph.t -> partition
(** Cells by node color (colors ranked increasingly). *)

val step : Cdigraph.t -> partition -> partition
(** One global refinement round (the reference 1-WL round: new cells
    ordered by (old cell, out-signature, in-signature)). One {!step}
    distinguishes exactly one more level of view trees, so depth-bounded
    view queries iterate it; {!fixpoint} does not. *)

val fixpoint : Cdigraph.t -> partition -> partition
(** Refine until stable (incremental worklist refiner). The resulting
    partition has the same cells as iterating {!step} to stability; the
    invariant cell ordering may differ.

    Telemetry: when an ambient sink is installed
    ({!Qe_obs.Sink.with_ambient}), each call records counters
    [refine.fixpoints] (calls) and [refine.splitters] (worklist pops),
    gauge [refine.queue_hwm] (worklist high-water mark, max across
    calls) and histogram [refine.cells] (final cell count). With no
    ambient sink the only cost is two local ints. *)

val equitable : Cdigraph.t -> partition
(** [fixpoint g (initial g)]. *)

val individualize : Cdigraph.t -> partition -> int -> partition
(** [individualize g p u] is [fixpoint g (split p u)], exactly, for a
    [p] that is equitable on [g] (a {!fixpoint} result): the intact
    cells of [p] cannot split anything, so they are not re-processed as
    splitters. The individualization step of the canonical search. *)

val num_cells : partition -> int
val cell_members : partition -> int list array
(** Members of each cell, ascending. *)

val first_non_singleton : partition -> int list
(** Members (ascending) of the lowest-numbered cell with at least two
    members, or [[]] if the partition is discrete. O(n), allocating only
    the result — the target-cell probe of the canonical search. *)

val is_discrete : partition -> bool
val split : partition -> int -> partition
(** [split p u] individualizes node [u]: [u] moves to a fresh cell placed
    just before the rest of its old cell (invariant renumbering). *)

val rounds_to_stability : Cdigraph.t -> int
(** Number of rounds of {!step} needed — compared against the Norris
    [n-1] bound in tests. *)
