(** Cayley-graph recognition from the bare topology.

    A connected graph is a Cayley graph iff its automorphism group contains
    a subgroup acting regularly on the nodes (Sabidussi). The effectual
    protocol of Theorem 4.1 needs agents to (a) decide this from their map
    and (b) agree on the translation classes; both are served here. The
    search is deterministic, so all agents recover the same regular
    subgroup from the same map — the paper's "agents select isomorphic
    groups" requirement. *)

type recognition = {
  group : Qe_group.Presentation.t;
      (** The abstract group [Γ] recovered from the regular action;
          element [w]'s left-multiplication permutation is
          [translations.(w)], and element 0 is the identity (node 0 is the
          chosen base vertex). *)
  generators : int list;
      (** The connection set [S] = neighbors of the base vertex, as group
          elements. [Cay(group, generators)] is isomorphic to the input —
          in fact equal to it under the node = element identification. *)
  translations : int array array;
      (** [translations.(w)] is the translation automorphism mapping the
          base vertex to [w]. *)
}

type outcome =
  | Cayley of recognition
  | Not_cayley
  | Unknown of string
      (** Search aborted (automorphism group above cap, or budget hit). *)

val recognize : ?max_aut:int -> ?max_leaves:int -> Qe_graph.Graph.t -> outcome
(** [max_aut] caps the automorphism-group enumeration (default 50_000). *)

val is_cayley : ?max_aut:int -> ?max_leaves:int -> Qe_graph.Graph.t -> bool
(** [true] only on a definite yes.
    @raise Failure on [Unknown]. *)

val translation_classes : recognition -> black:int list -> int list list
(** Orbits of the placement-preserving translations — the classes the
    effectual ELECT consumes. Ordered by smallest member; each sorted. *)

val verify : Qe_graph.Graph.t -> recognition -> bool
(** Checks the recovered structure: translations form a regular subgroup of
    automorphisms and the group table matches composition. For tests. *)

val all_regular_subgroups :
  ?max_aut:int -> ?max_leaves:int -> ?limit:int -> Qe_graph.Graph.t ->
  int array array list
(** Every regular subgroup of the automorphism group (each as the array of
    its [n] translations, indexed by the image of the base vertex 0), up
    to [limit] (default 10_000) subgroups. Empty when not Cayley.
    @raise Failure when the automorphism group exceeds [max_aut]. *)

val exists_preserving_translation :
  ?max_aut:int -> ?max_leaves:int -> Qe_graph.Graph.t -> black:int list ->
  bool
(** Does {e some} regular subgroup contain a non-identity translation that
    preserves the placement? If yes, the Theorem 4.1 construction produces
    an edge-labeling with label-equivalence classes of size > 1, so
    election on [(G, p)] is impossible (Theorem 2.1). This predicate is a
    function of the isomorphism class of [(G, p)] only, so every agent
    computes the same answer from its own map. *)
