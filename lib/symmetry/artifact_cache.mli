(** Fingerprint-keyed memoization of symmetry artifacts across runs and
    domains.

    Every sweep record used to recompute the whole symmetry stack —
    {!Classes.compute}, the oracle verdicts, the ELECT plan — per
    (instance, strategy, seed), even though all of them are pure
    functions of the bicolored instance. This module is a process-wide,
    domain-safe cache for those artifacts: a fixed array of shards per
    table, each a [Mutex]-protected [Hashtbl], with {e single-flight}
    admission so two domains asking for the same key never duplicate an
    in-flight computation (the second blocks on a condition variable
    until the first publishes). A value computed on one domain is a hit
    on every other. Each shard keeps its counts and its hit-latency
    histogram under its own mutex, so {!stats} is exact at any job
    count.

    {b Keys.} Every table is keyed by the instance's {e structural
    identity} ({!key_of_bicolored}): its node count, each node's degree,
    each node's sorted neighbour multiset and its node colours, plus a
    wide hash over all of them. The graph part is memoized on the
    {!Qe_graph.Graph.t} and the colour hash on the
    {!Qe_graph.Bicolored.t}, both computed on the first lookup (never at
    construction), so a repeat lookup hashes nothing and the key shares
    the instance's arrays instead of printing them into a string. The
    memos are published atomically (graph) or as one immediate word
    (colour hash) rather than through [Lazy.t], which raises when two
    domains force it at once; a race at worst computes the identity
    twice. The hash only picks the bucket and the shard: a hit is
    confirmed by {!Key.equal} — physical equality, then a full
    comparison of node count, colours, degrees and sorted neighbours —
    so a hash collision costs one comparison and can never serve
    another instance's value.
    Identities are equal exactly when the printable {!exact_key}s are:
    numbering- and placement-sensitive on purpose, blind to port order
    and edge ids. Agent maps are drawn deterministically per
    (instance, home), so exact identities already capture all
    cross-seed / cross-strategy redundancy, while keeping every
    numbering-dependent byproduct ([canon.*] / [refine.*] counters,
    class node ids) bit-identical to the uncached computation. The
    {e canonical} fingerprint ({!fingerprint}: [Canon] certificate plus
    black-node orbit signature, equal across isomorphic instances) is
    itself one of the memoized artifacts.

    {b Metric transparency.} A miss runs the computation under a private
    scratch sink and stores the resulting kernel-metric delta next to
    the value; every lookup — hit or miss — replays that delta into the
    caller's ambient sink via {!Qe_obs.Metrics.apply}. Cached and
    uncached sweeps therefore produce identical metric snapshots, modulo
    the cache's own [cache.hit.<kind>] / [cache.miss.<kind>] /
    [cache.single_flight_wait] counters (stripped from stored deltas
    so replays never inject stale cache counters). Exceptions
    (e.g. {!Canon.Budget_exceeded}) are deterministic for a given key,
    so they are cached and re-raised like values. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Disable ([false]) or re-enable the cache process-wide. While
    disabled, {!memo} calls the computation directly — no scratch sink,
    no counters: exactly the pre-cache behavior. Backs
    [qelect sweep|chaos --no-cache]. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drop every settled entry of every table at once (stats are kept;
    see {!reset_stats}). Safe to call concurrently with lookups: an
    in-flight computation still publishes its value. *)

(** {1 Tables} *)

type 'a table
(** A named memo table. [kind] tags the telemetry counters
    ([cache.hit.<kind>], [cache.miss.<kind>]) and the {!stats} row. *)

val create_table : kind:string -> unit -> 'a table
(** Tables register themselves in a process-wide list so {!clear} and
    {!stats} can reach them; create them once at module toplevel.
    @raise Invalid_argument if [kind] is already taken. *)

(** {1 Keys} *)

type key
(** The structural identity of an instance (see {b Keys} above). It
    holds the instance's own memoized arrays, not copies. *)

val key_of_bicolored : Qe_graph.Bicolored.t -> key
(** The identity of a bicolored instance: equal exactly when
    {!exact_key} is. O(1) once the instance's identity is memoized;
    the first call pays O(m log d) for the sorted adjacency and O(n + m)
    for the hash. *)

val key_of_graph : Qe_graph.Graph.t -> key
(** The identity of a bare (uncolored) graph: node count, degrees and
    sorted neighbour multisets. *)

module Key : Hashtbl.HashedType with type t = key
(** [equal] is physical equality, then a full comparison of node
    count, colours, degrees and sorted neighbours (each array compared
    physically first); it never consults the hash. [hash] is the stored
    hash. *)

(** {1 Memoization} *)

val memo : 'a table -> key:key -> (unit -> 'a) -> 'a
(** [memo t ~key f] returns the cached value for [key], or runs [f]
    (single-flight across domains) and caches its result — including a
    raised exception, which is re-raised on every subsequent hit.
    Do not call [memo t ~key] recursively from its own [f] (it would
    deadlock on its own flight); nesting across distinct tables or keys
    is fine and is how the plan table layers on the classes table.

    A miss runs [f] under a scratch ambient sink, whose metric delta is
    stored and replayed on every hit. When the caller has an ambient
    sink, the miss also shows on the caller's tracer as one
    [cache.compute] span with a [kind] attribute (the table's kind);
    spans opened inside [f] go to the scratch sink. *)

(** {1 Statistics} *)

type stat = {
  kind : string;
  hits : int;  (** includes lookups that waited on a single flight *)
  misses : int;
  single_flight_waits : int;
  l1_latency : Qe_obs.Metrics.sample;
      (** hit-latency histogram ({!Qe_obs.Metrics.Hist} over
          {!Qe_obs.Metrics.latency_buckets}) of every hit on this table,
          a waiter's including its wait; its count equals [hits]. Feed
          it {!Qe_obs.Metrics.quantile}. The name survives from a
          former per-domain first level, because the benchmark harness
          reads the field by it. *)
}

val stats : unit -> stat list
(** One row per table, sorted by [kind]. Process-global counts since the
    last {!reset_stats} — unlike the [cache.*] sink counters, these are
    tallied even when no ambient sink is installed. *)

val reset_stats : unit -> unit

val metrics_snapshot : unit -> Qe_obs.Metrics.snapshot
(** The process-global cache counters and hit-latency histograms as a
    sorted snapshot ([cache.hit.<kind>], [cache.miss.<kind>],
    [cache.<kind>.hit_latency], [cache.single_flight_wait]) — a
    ready-made source for {!Qe_obs.Expose}. *)

val hit_rate : stat list -> float
(** Combined [hits / (hits + misses)] over the rows; [0.] when idle. *)

(** {1 Cached artifacts} *)

val exact_key : Qe_graph.Bicolored.t -> string
(** The printable identity certificate of the instance's bicolored
    digraph ({!Cdigraph.certificate_of_identity}): equal iff same graph
    numbering and same placement. O(n + m) and several megabytes at
    10{^5} nodes — no memo table uses it; {!key_of_bicolored} is its
    hashable counterpart. *)

val fingerprint : Qe_graph.Bicolored.t -> string
(** Canonical instance fingerprint: the {!Canon} certificate of the
    bicolored digraph joined with the black-node orbit signature (sorted
    sizes of the orbits containing home-bases). Equal exactly on
    isomorphic instances. Memoized (kind ["certificate"]) under the
    instance's identity. *)

val fingerprint_uncached : Qe_graph.Bicolored.t -> string
(** The same computation with no memoization at all — [qelect selftest]
    uses it so a cache hit can never mask a kernel defect. *)

val classes : Qe_graph.Bicolored.t -> Classes.t
(** Memoized {!Classes.compute} (kind ["classes"], default leaf
    budget). *)
