(** Views (Yamashita–Kameda) of edge-labeled, optionally bicolored graphs.

    The view [V(v)] is the infinite labeled tree of all walks out of [v].
    Norris: isomorphism to depth [n-1] implies isomorphism to all depths,
    and because port labels are distinct at each node the view-equivalence
    partition equals the fixpoint of signature refinement — which is how
    {!classes} computes it. The explicit bounded-depth trees are kept for
    cross-checks and for the Figure 2 demonstration. *)

type tree = { color : int; children : ((int * int) * tree) list }
(** A depth-bounded view: children keyed by (near label, far label), in
    sorted key order. *)

val classes :
  ?placement:Qe_graph.Bicolored.t -> Qe_graph.Labeling.t -> int list list
(** View-equivalence classes, ordered by smallest member. With a placement,
    views are bicolored (home-bases are distinguished). *)

val sigma :
  ?placement:Qe_graph.Bicolored.t -> Qe_graph.Labeling.t -> int
(** [σ_ℓ(G)]: the common size of all view-equivalence classes.
    @raise Failure if classes are not all the same size (cannot happen on a
    connected graph; guarded as an internal sanity check). *)

val tree :
  ?placement:Qe_graph.Bicolored.t ->
  Qe_graph.Labeling.t ->
  depth:int ->
  int ->
  tree
(** [tree l ~depth v]: the view of [v] truncated at [depth]. *)

val equal_trees : tree -> tree -> bool

val equal_views :
  ?placement:Qe_graph.Bicolored.t -> Qe_graph.Labeling.t -> int -> int -> bool
(** [x ~view y]. Decided by running [n-1] refinement rounds (each round
    is one level of view depth; Norris's bound makes [n-1] sufficient), so
    this stays polynomial where materialising the depth-[n-1] tree would
    be exponential. *)

val equal_views_to_depth :
  ?placement:Qe_graph.Bicolored.t ->
  Qe_graph.Labeling.t ->
  depth:int ->
  int ->
  int ->
  bool
(** Same, truncated at a chosen depth. *)

val max_sigma_sampled :
  ?placement:Qe_graph.Bicolored.t ->
  ?attempts:int ->
  Qe_graph.Graph.t ->
  int * int option
(** A lower bound on the symmetricity [σ(G) = max over labelings of σ_ℓ]
    (Yamashita–Kameda): the largest [σ_ℓ] over the standard labeling plus
    [attempts] (default 30) pseudo-random labelings. Returns the best
    value and the witness seed ([None] = the standard labeling won).
    Exact maximisation is exponential; a sampled bound is what the
    Theorem 2.1 experiments need. *)
