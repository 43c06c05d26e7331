(** Ground truth for the experiments: what the theorems predict for an
    instance, computed outside the agents.

    Every predicate here is a pure function of the bicolored instance.
    {!predict} and {!translation_impossible} are memoized in
    {!Qe_symmetry.Artifact_cache} (keyed by the instance's structural
    identity), and {!gcd_classes} reads the cached class partition, so
    sweeps that interrogate the oracle once per (strategy, seed) pay the
    symmetry stack once per instance. {!symmetric_labeling_exists}, a
    test-only cross-check, is computed afresh on every call. The memoization is metric-transparent: cached and uncached
    calls record identical kernel counters into the ambient sink, modulo
    the [cache.*] counters themselves. [Artifact_cache.set_enabled
    false] restores the direct computations. *)

type prediction =
  | Solvable  (** election succeeds (some protocol here elects it) *)
  | Unsolvable  (** provably impossible *)
  | Frontier
      (** the open zone: ELECT cannot elect it ([gcd > 1]) but no
          impossibility proof applies — e.g. the Petersen instance *)

val gcd_classes : Qe_graph.Bicolored.t -> int
(** [gcd(|C_1|, ..., |C_k|)] over the Definition 2.1 classes. *)

val elect_prediction : Qe_graph.Bicolored.t -> [ `Elects | `Reports_failure ]
(** What Theorem 3.1 says ELECT will do. *)

val translation_impossible : Qe_graph.Bicolored.t -> bool
(** Theorem 4.1 impossibility: some regular subgroup of [Aut(G)] contains
    a non-identity placement-preserving translation. (Meaningful when the
    graph is Cayley; always sound as an impossibility proof.) Always the
    exhaustive regular-subgroup search, so it is bounded by
    {!Qe_symmetry.Cayley_detect}'s caps; an attached transitivity witness
    is not consulted. *)

val symmetric_labeling_exists : Qe_graph.Bicolored.t -> bool
(** Theorem 2.1 impossibility via the natural Cayley labelings: for each
    regular subgroup, check whether the induced natural labeling has
    label-equivalence classes of size > 1. Equivalent to
    {!translation_impossible}; computed through the labeling machinery as
    a cross-check. *)

val predict : Qe_graph.Bicolored.t -> prediction
(** Combined prediction, cheapest decisive test first:
    + [Unsolvable] if the placement is uniform and the graph's certified
      witness has a generator with all cycles of one length > 1
      ({!Qe_symmetry.Transitive.certified_regular}, a deductive Theorem
      2.1 exhibit checked in O(n));
    + [Solvable] if [gcd_classes = 1];
    + [Unsolvable] if {!translation_impossible};
    + [Frontier] otherwise.

    Reading the gcd before the search is sound: gcd = 1 means ELECT
    elects (Theorem 3.1), so no placement-preserving translation exists
    (Theorem 4.1) and the search could only agree. A gcd = 1 placement
    therefore never pays for, nor hits the caps of, the regular-subgroup
    search.

    Telemetry: each computed verdict increments one ambient counter
    naming the test that decided it, [oracle.predict.witness],
    [oracle.predict.gcd] or [oracle.predict.search]; a cache hit replays
    it. *)

val is_cayley : Qe_graph.Graph.t -> bool

val agrees :
  prediction -> Qe_runtime.Engine.outcome -> bool
(** Did an engine outcome conform to a prediction? [Solvable] expects
    [Elected]; [Unsolvable] and [Frontier] expect [Declared_unsolvable]
    (ELECT-family protocols report failure on the frontier too). *)

val pp_prediction : Format.formatter -> prediction -> unit
