(** Cayley graphs [Cay(Γ, S)] with their natural generator labeling:
    the Theorem 4.1 helpers and the standard networks.

    Nodes are the group elements; [{a, a·s}] is an edge for each [s ∈ S].
    The natural labeling puts symbol [s = u⁻¹v] on the port of [u] toward
    [v] — the labeling used in the proof of Theorem 4.1, preserved by every
    translation [a ↦ γa].

    A Cayley graph is a {!Presentation.instance}, built by the one
    builder {!Presentation.cayley}; so every network here shares edge
    order, ports, labels and the left-translation transitivity witness
    with the large presentation instances. *)

type t = Presentation.instance

val port_generator : t -> int -> int -> int
(** [port_generator c u i] is the generator [s] with
    [dart c u i = u * s]. *)

val translation : t -> int -> int -> int
(** [translation c gamma a = gamma * a] — the node map of the translation
    automorphism [φ_γ]. *)

val translation_preserves_labeling : t -> int -> bool
(** Sanity of the Theorem 4.1 claim: every translation preserves the
    natural labeling ([(γx)⁻¹(γy) = x⁻¹y]). Always true; exercised in
    tests. *)

val color_preserving_translations : t -> black:int list -> int list
(** The subgroup [{γ : γ · blacks = blacks}] (as element list, sorted) of
    translations preserving a placement. *)

val translation_classes : t -> black:int list -> int list list
(** Orbits of the nodes under {!color_preserving_translations}: the
    translation-equivalence classes of Section 4. Classes are sorted by
    their minimum node; each class is sorted. *)

(** {1 Standard networks as Cayley graphs}

    {!Presentation.circulant} and {!Presentation.cube_connected_cycles}
    complete the set. *)

val ring : int -> t
val hypercube : int -> t
(** [Q_d = Cay(Z_2^d, unit vectors)], [d >= 1]. *)

val complete : int -> t
val torus : int -> int -> t
(** Sides [>= 3]. *)

val star_graph : int -> t
(** The star network [ST_k] = [Cay(S_k, {(1 i) transpositions})],
    [3 <= k <= 6]. *)

val dihedral_cayley : int -> t
(** [Cay(D_n, {s, sr})] — a [2n]-cycle presentation of the dihedral
    group. *)
