(** The effectual election protocol for anonymous Cayley graphs
    (Theorem 4.1).

    After MAP-DRAWING every agent tests — locally, deterministically, and
    isomorphism-invariantly, so all agents agree — whether its map is a
    Cayley graph, and whether {e some} regular subgroup of its automorphism
    group contains a non-identity placement-preserving translation. If one
    does, the constructive proof of Theorem 4.1 turns that translation into
    an edge-labeling whose label-equivalence classes are bigger than
    singletons, and Theorem 2.1 makes the election impossible: every agent
    then declares failure outright. Otherwise the generic ELECT reduction
    machinery runs (on non-Cayley inputs it simply falls back to generic
    ELECT — the theorem promises effectualness only on the Cayley class).

    A reproduction note (also in DESIGN.md): the paper says agents "select
    isomorphic groups and hence agree on the translation-classes", leaving
    implicit how agents agree on one regular subgroup when several exist
    (e.g. [K4] is Cayley over both [Z4] and [Z2xZ2], with different
    placement-preserving translations), and how tied translation classes
    would be ordered by [≺]. Quantifying over {e all} regular subgroups
    resolves both: the impossibility test is a canonical predicate, and no
    ordering of translation classes is ever needed. *)

val protocol : Qe_runtime.Protocol.t
