(** Label-equivalence (Definition 2.2): orbits of the label-preserving,
    placement-preserving automorphisms of an edge-labeled bicolored graph.

    Theorem 2.1: if some edge-labeling makes these classes bigger than
    singletons, election on [(G, p)] is impossible. *)

val classes :
  ?placement:Qe_graph.Bicolored.t ->
  ?max_leaves:int ->
  Qe_graph.Labeling.t ->
  int list list
(** Orbits, ordered by smallest member. *)

val all_same_size : int list list -> bool
(** Lemma 2.1 says label-equivalence classes always have equal size; this
    checks it (used by property tests). *)

val max_class_size :
  ?placement:Qe_graph.Bicolored.t ->
  ?max_leaves:int ->
  Qe_graph.Labeling.t ->
  int

val equivalent :
  ?placement:Qe_graph.Bicolored.t ->
  ?max_leaves:int ->
  Qe_graph.Labeling.t ->
  int ->
  int ->
  bool
(** [x ~lab y]. *)

val implies_same_view :
  ?placement:Qe_graph.Bicolored.t -> Qe_graph.Labeling.t -> bool
(** Equation (1) of the paper: [x ~lab y => x ~view y], verified
    exhaustively over node pairs of the given instance. Always true;
    exercised by tests (its converse is refuted by Figure 2(c)). *)
