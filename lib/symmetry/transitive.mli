(** Verified vertex-transitivity witnesses.

    Cayley constructors ({!Qe_group} families, the presentation
    generator) and {!Cayley_detect} attach an {e untrusted} witness to
    the graphs they build: claimed automorphism generators plus a
    translation oracle (see {!Qe_graph.Graph.witness}). This module is
    the trust boundary — it checks every generator really is a graph
    automorphism (sorted neighbor-multiset comparison against the graph's
    memoized sorted adjacency, O(m log d) per generator, one
    degree-sized buffer) and that the generated group moves
    node 0 onto every node. Only a witness that passes becomes a
    certificate; the verdict is cached on the graph, so verification
    runs once per graph no matter how many consumers ask.

    Soundness note: a certificate proves the graph is vertex-transitive.
    It does {e not} by itself determine the classes of an arbitrary
    placement (translations may generate a proper subgroup of the full
    automorphism group); consumers such as {!Classes} only use it where
    transitivity alone pins the answer — the uniform all-black placement,
    where one orbit means exactly one class — and fall through to the
    full search everywhere else. *)

val certified : Qe_graph.Graph.t -> Qe_graph.Graph.witness option
(** The graph's witness if it verifies (cached), [None] if absent or
    rejected. *)

val certified_regular : Qe_graph.Graph.t -> int array option
(** Evidence that the certified witness's translation family really is a
    regular (sharply transitive, Cayley-provenance) family: sharp
    transitivity and closure are checked on a deterministic sample, and
    the returned exhibit — a non-identity, fixed-point-free translation —
    is verified in full. [None] when the graph is not certified
    transitive, has fewer than 2 nodes, or any check fails. Positive
    answers only: callers needing a definitive negative must run the
    regular-subgroup search. The outcome is cached on the graph (reset by
    {!Qe_graph.Graph.set_transitivity_witness}), so the probes run once
    per graph. *)

val certified_translation :
  Qe_graph.Graph.t -> to_:int -> int array option
(** A verified automorphism sending node 0 to [to_] — the witness's
    translation oracle output, individually re-checked (automorphism +
    fixed-point-free for [to_ <> 0]). [None] if the graph has no
    certified witness or the oracle's output fails the check. *)

val is_automorphism : Qe_graph.Graph.t -> int array -> bool
(** [is_automorphism g phi] — is [phi] a permutation of the nodes that
    preserves the edge multiset? Exposed for tests and for spot checks
    by other consumers. *)

val is_identity : int array -> bool
val is_fixed_point_free : int array -> bool

val verify : Qe_graph.Graph.t -> Qe_graph.Graph.witness -> bool
(** Uncached verification (used by the differential tests). *)
