(** Fingerprint-keyed memoization of symmetry artifacts across runs and
    domains.

    Every sweep record used to recompute the whole symmetry stack —
    {!Classes.compute}, the oracle verdicts, the ELECT plan — per
    (instance, strategy, seed), even though all of them are pure
    functions of the bicolored instance. This module is a process-wide,
    domain-safe, {e two-level} cache for those artifacts:

    - {b L1} — a per-domain, lock-free hashtable in domain-local
      storage, consulted first. A warm lookup touches no mutex and no
      shared cacheline (beyond reading the invalidation generation and
      bumping the domain's private stat cell). Populated from L2 hits
      and own computes; invalidated lazily via a global generation
      bumped by {!clear}.
    - {b L2} — a fixed array of shards, each a [Mutex]-protected
      [Hashtbl], with {e single-flight} admission so two domains asking
      for the same key never duplicate an in-flight computation (the
      second blocks on a condition variable until the first publishes).
      Entered only on an L1 miss; any settled entry found is copied
      into the caller's L1 on the way out.

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
    [cache.single_flight_wait] counters — L1 hits additionally count
    under [cache.l1.hit.<kind>] — (stripped from stored deltas so
    replays never inject stale cache counters). Exceptions
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
(** Drop every entry of every table (stats are kept; see
    {!reset_stats}). Per-domain L1s are invalidated lazily: the global
    generation is bumped and each domain flushes its local table on its
    next lookup. Safe to call concurrently with lookups. *)

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
  hits : int;
      (** total over both levels (includes single-flight waiters);
          [hits - l1_hits] is the shared-shard (L2) hit count *)
  l1_hits : int;
      (** subset of [hits] served lock-free from a per-domain L1,
          pooled across every domain that ever touched the table *)
  misses : int;
  single_flight_waits : int;
  l1_latency : Qe_obs.Metrics.sample;
      (** hit-latency histogram ({!Qe_obs.Metrics.Hist} over
          {!Qe_obs.Metrics.latency_buckets}) of this table's L1 hits,
          pooled across domains — feed it {!Qe_obs.Metrics.quantile} *)
  l2_latency : Qe_obs.Metrics.sample;
      (** same for L2 hits; a waiter's latency includes its
          single-flight wait *)
}

val stats : unit -> stat list
(** One row per table, sorted by [kind]. Process-global counts since the
    last {!reset_stats} — unlike the [cache.*] sink counters, these are
    tallied even when no ambient sink is installed (hit latencies are
    tallied in per-domain cells, so the lock-free L1 path stays free of
    shared writes). *)

val reset_stats : unit -> unit

val metrics_snapshot : unit -> Qe_obs.Metrics.snapshot
(** The process-global cache counters and hit-latency histograms as a
    sorted snapshot ([cache.hit.<kind>], [cache.l1.hit.<kind>],
    [cache.miss.<kind>], [cache.<kind>.l1.hit_latency],
    [cache.<kind>.l2.hit_latency], [cache.single_flight_wait]) — a
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
