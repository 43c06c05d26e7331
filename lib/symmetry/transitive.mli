(** Verified vertex-transitivity witnesses.

    Cayley constructors ({!Qe_group} families, the presentation
    generator) and {!Cayley_detect} attach an {e untrusted} witness to
    the graphs they build: claimed automorphism generators (see
    {!Qe_graph.Graph.witness}). This module is the trust boundary — it
    checks the generators in order, each with {!is_automorphism}
    (sorted neighbor-multiset comparison against the graph's memoized
    sorted adjacency, O(m log d) per generator, one degree-sized
    buffer), and stops at the first prefix whose generated group moves
    node 0 onto every node (one union-find over the edges u-phi(u) grows
    the orbits as each generator passes). Only a witness with such a
    prefix becomes a certificate, and the certificate is that prefix; it
    is cached on the graph, so verification runs once per graph no
    matter how many consumers ask.

    Soundness note: a certificate proves the graph is vertex-transitive.
    It does {e not} by itself determine the classes of an arbitrary
    placement (the generators may generate a proper subgroup of the full
    automorphism group); consumers such as {!Classes} only use it where
    transitivity alone pins the answer — the uniform all-black placement,
    where one orbit means exactly one class — and fall through to the
    full search everywhere else. The one further conclusion drawn from
    it, impossibility of election, is {!certified_regular}'s deductive
    exhibit (DESIGN §14.3). *)

val certified : Qe_graph.Graph.t -> Qe_graph.Graph.witness option
(** The graph's witness cut to its certified generator prefix (cached),
    [None] if absent or rejected. Under an ambient {!Qe_obs.Sink}, the
    ask that verifies records one [transitive.certify] span with the
    attributes [checked] (generators run through {!is_automorphism})
    and [prefix] (the certified prefix length, [null] when rejected);
    an ask answered from the cache records none. *)

val certified_regular : Qe_graph.Graph.t -> int array option
(** The first generator of the certified prefix whose cycles on the
    nodes all share one length [L >= 2]. Such an automorphism preserves
    the uniform placement and, lifted to darts, generates a group that
    acts freely on them; copying port labels along its dart orbits gives
    a labeling in which every node has a twin, so by Theorem 2.1
    election on the uniform placement is impossible (DESIGN §14.3). No
    oracle call: every generator there already passed
    {!is_automorphism}, and the scan is O(n) per generator. [None] when
    the graph is not certified transitive or no certified generator has
    equal cycle lengths — callers then fall through to the search.

    The name predates the argument and stays for the benchmark that
    calls it: "regular" reads as {e semiregular}, the generated cyclic
    group acting regularly on each of its orbits. *)

val uniform_cycle_length : int array -> int option
(** [Some L] if every cycle of the permutation has length [L]
    ([Some 1] for the identity), [None] if the cycle lengths differ or
    the array is empty. The argument must be a permutation of
    [0 .. n-1]. *)

val is_automorphism : Qe_graph.Graph.t -> int array -> bool
(** [is_automorphism g phi] — is [phi] a permutation of the nodes that
    preserves the edge multiset? Exposed for tests and for spot checks
    by other consumers. *)

val verify : Qe_graph.Graph.t -> Qe_graph.Graph.witness -> Qe_graph.Graph.witness option
(** Uncached verification: the witness cut to its shortest prefix of
    automorphisms with one orbit, [None] if no prefix qualifies. *)
