(** Cayley graphs [Cay(Γ, S)] with their natural generator labeling.

    Nodes are the group elements; [{a, a·s}] is an edge for each [s ∈ S].
    The natural labeling puts symbol [s = u⁻¹v] on the port of [u] toward
    [v] — the labeling used in the proof of Theorem 4.1, preserved by every
    translation [a ↦ γa].

    There is one builder: {!make} is {!Presentation.cayley} over
    {!Presentation.of_group}, so the table-backed networks below and the
    large presentation instances share edge order, ports, labels and the
    left-translation transitivity witness. *)

type t

val make : Genset.t -> t
(** Builds [Cay(Γ, S)] through {!Presentation.cayley}. *)

val graph : t -> Qe_graph.Graph.t
val labeling : t -> Qe_graph.Labeling.t
(** The natural labeling; the symbol on a port is the generator's element
    id. *)

val group : t -> Group.t
val genset : t -> Genset.t

val port_generator : t -> int -> int -> int
(** [port_generator c u i] is the generator [s] with
    [dart c u i = u * s]. *)

val translation : t -> int -> int -> int
(** [translation c gamma a = gamma * a] — the node map of the translation
    automorphism [φ_γ]. *)

val is_automorphism : t -> (int -> int) -> bool
(** Checks a node map is a graph automorphism (ignores labels). *)

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

(** {1 Standard networks as Cayley graphs} *)

val ring : int -> t
val hypercube : int -> t
val complete : int -> t
val torus : int -> int -> t
(** Sides [>= 3]. *)

val circulant : int -> int list -> t
val star_graph : int -> t
(** The star network [ST_k] = [Cay(S_k, {(1 i) transpositions})],
    [3 <= k <= 6]. *)

val cube_connected_cycles : int -> t
(** [CCC(d) = Cay(Z_2^d ⋊ Z_d, {shift, shift⁻¹, flip_0})], [d >= 3]. *)

val dihedral_cayley : int -> t
(** [Cay(D_n, {s, sr})] — a [2n]-cycle presentation of the dihedral
    group. *)
