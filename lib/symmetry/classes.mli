(** Equivalence classes of a bicolored instance, with the total order [≺]
    (Section 3.1 of the paper).

    Two nodes are equivalent (Definition 2.1) iff their surroundings
    (Definition 3.1) are isomorphic, i.e. iff they lie in one orbit of
    the color-preserving automorphisms (Lemma 3.1's first claim, which
    the test suite cross-checks against surrounding certificates and
    {!Brute}). One {!Canon.run} on {!Cdigraph.of_bicolored} yields both
    the orbits and the order: black classes first, then classes by the
    least canonical position of any member, largest first.

    That order is what Lemma 3.1 requires: deterministic, independent of
    agent colors and edge labels, and isomorphism-invariant. Take an
    isomorphism [φ : G → G'] and canonical labelings [λ], [λ'] of the two
    instances. Both canonical forms are equal, so [λ'∘φ∘λ⁻¹] is an
    automorphism of that common form. It maps the image [λ(O)] of an
    orbit [O] of [G] onto [λ'(φ(O))], and since [λ(O)] is an orbit of the
    form's automorphism group, the two sets are equal. So each orbit's
    set of canonical positions, and its least element, do not depend on
    the numbering, and every agent computes the same ordered classes
    from its map. *)

type t

val compute : ?max_leaves:int -> Qe_graph.Bicolored.t -> t
(** Computes the ordered classes. When the instance's graph carries a
    {e verified} transitivity certificate ({!Transitive.certified}) and
    the placement is uniform (every node black), the answer is pinned
    without any automorphism search — one orbit means exactly one class
    — and the search is skipped entirely; every other instance takes
    {!compute_slow}'s one canonical run. Both paths produce identical
    results (differentially tested on every Cayley family). *)

val compute_slow : ?max_leaves:int -> Qe_graph.Bicolored.t -> t
(** One {!Canon.run} unconditionally — the differential baseline for the
    fast path. Its orbits are the classes and its canonical labeling
    orders them; no other canonical run is made.
    @raise Canon.Budget_exceeded past [max_leaves]. *)

val used_fast_path : t -> bool
(** Did {!compute} take the transitivity fast path? *)

val classes : t -> int list list
(** [C_1 .. C_k]: the classes containing home-bases first (sorted by [≺]),
    then the all-white classes (sorted by [≺]) — the order Protocol ELECT
    consumes. Each class is sorted by node id. *)

val num_black_classes : t -> int
(** [ℓ], the number of classes consisting of home-bases. *)

val num_classes : t -> int
val sizes : t -> int list
(** Sizes of [C_1 .. C_k] in class order. *)

val gcd_sizes : t -> int
(** [gcd(|C_1|, ..., |C_k|)] — ELECT succeeds iff this is 1
    (Theorem 3.1). *)

val class_of_node : t -> int -> int
(** Index (0-based) into {!classes} of the class containing a node. *)

val representative : t -> int -> int
(** [representative t i] is the smallest member of class [i] — total on
    [0 .. num_classes - 1] (classes are never empty by construction). *)

val size : t -> int -> int
(** [size t i] is [|C_{i+1}|], without building any list. *)

val gcd_all : int list -> int
(** Gcd of a list; [gcd_all [] = 0]. *)

val pp : Format.formatter -> t -> unit
