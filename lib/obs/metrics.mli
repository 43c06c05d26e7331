(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) hot-path recording.

    A registry is an explicit value — create one per run, per campaign,
    or per process as the scope demands (instrumented code reaches the
    ambient one through {!Sink}). Instruments are looked up by name once
    ({!counter} / {!gauge} / {!histogram}, which register on first use)
    and then recorded into with plain mutable-field updates: {!incr},
    {!add}, {!set}, {!record_max} and {!observe} touch no table and
    allocate nothing.

    {!snapshot} freezes the registry into a plain value; {!diff} and
    {!merge} give interval readings and cross-instance aggregation. *)

type registry

val create : unit -> registry

(** {1 Instruments} *)

type counter

val counter : registry -> string -> counter
(** Register (or fetch) the counter named [name]. Registering the same
    name twice returns the same instrument.
    @raise Invalid_argument if the name is already a gauge/histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge

val gauge : registry -> string -> gauge
(** A gauge holds the last {!set} value — or the running maximum under
    {!record_max} (high-water marks). An untouched gauge reads 0. *)

val set : gauge -> int -> unit
val record_max : gauge -> int -> unit
val gauge_value : gauge -> int

type histogram

val histogram : ?buckets:int array -> registry -> string -> histogram
(** Fixed upper-bound buckets, ascending; an implicit overflow bucket
    catches everything above the last bound. [buckets] defaults to
    powers of four [[|1; 4; 16; ...; 4^9|]]. The bucket layout is fixed
    at registration; re-registering with different bounds raises. *)

val latency_buckets : int array
(** Log-scale bounds for nanosecond latencies: powers of two from 2^6
    (64 ns) to 2^36 (~68.7 s), ratio 2 between adjacent bounds. With
    the recorded min/max, {!quantile} estimates carry a worst-case
    relative error of the bucket ratio (2x), and much less in practice
    thanks to linear interpolation within the bucket. Every latency
    histogram shares this array: read it, never write it. *)

val latency : registry -> string -> histogram
(** [histogram ~buckets:latency_buckets]. By convention latency
    histograms are named with an [_latency] suffix (see {!is_latency});
    campaign-level aggregation strips them from determinism-checked
    snapshots, since wall-clock distributions legitimately vary across
    job counts and cache states. *)

val is_latency : string -> bool
(** True iff [name] ends with ["_latency"]. *)

val observe : histogram -> int -> unit
(** O(log #buckets): binary search for the bucket, three field
    updates plus min/max maintenance. *)

(** {1 Snapshots} *)

type sample =
  | Counter of int
  | Gauge of int
  | Hist of {
      bounds : int array;
      counts : int array;
      sum : int;
      count : int;
      lo : int;
      hi : int;
    }
      (** [counts] has [length bounds + 1] entries; the last is the
          overflow bucket. [bounds] is the live histogram's own array,
          shared by every snapshot of it: read it, never write it. [lo]/[hi] are the minimum and maximum
          observed values, both 0 when [count = 0] (and on snapshots
          decoded from pre-v3 traces, which did not record them). *)

type snapshot = (string * sample) list
(** Sorted by name. *)

val snapshot : registry -> snapshot
val find : snapshot -> string -> sample option

val quantile : sample -> float -> float option
(** [quantile s q] estimates the [q]-quantile (nearest-rank) of a
    histogram sample: walk the cumulative bucket counts to the bucket
    holding the rank, linearly interpolate within it, and clamp to the
    recorded [lo]/[hi] envelope when available. [None] for counters,
    gauges, empty histograms, or [q] outside [0, 1]. The estimate is
    exact at the recorded extremes and within one bucket ratio
    elsewhere (2x for {!latency_buckets}). *)

val diff : after:snapshot -> before:snapshot -> snapshot
(** Interval reading: counters and histogram buckets subtract (names
    only in [after] count as coming from 0), gauges keep their [after]
    value. Names only in [before] are dropped (instruments never
    disappear from a live registry, so nothing is lost).
    @raise Invalid_argument on mismatched sample kinds or histogram
    bounds for the same name. *)

val merge : snapshot -> snapshot -> snapshot
(** Aggregation across registries: counters and histograms add, gauges
    take the max (gauges are used as high-water marks throughout).
    @raise Invalid_argument on mismatched kinds or bounds. *)

val apply : registry -> snapshot -> unit
(** Replay a snapshot into a live registry: counters {!add} their value,
    gauges {!record_max} theirs, histograms add bucket counts, sum and
    count (registering instruments on first use, histograms with the
    snapshot's bounds). Applying an interval reading ({!diff}) is
    equivalent to re-recording the observations it summarizes — the
    cache layer uses this to make memoized computations
    metric-transparent.
    @raise Invalid_argument on a kind or bounds clash with an existing
    instrument of the same name. *)

val render : snapshot -> string
(** A two-column text table (name, value); histograms render as
    [count/sum/mean] plus their non-empty buckets. *)
