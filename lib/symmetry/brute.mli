(** Brute-force reference implementations (factorial-time), used to validate
    the canonical-labeling engine on small digraphs — this is literally the
    [min over all permutations of the matrix word] construction of
    Lemma 3.1. Refuses inputs with more than 9 nodes. *)

val min_certificate : Cdigraph.t -> string
(** Minimum identity-certificate over all node numberings. *)

val orbits : Cdigraph.t -> int array
(** [orbits.(u)] = smallest node in [u]'s true automorphism orbit. *)

val isomorphic : Cdigraph.t -> Cdigraph.t -> bool
