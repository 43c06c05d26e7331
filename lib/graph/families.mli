(** Named graph families used throughout the paper and the experiments.

    All constructors return connected graphs (for parameters that make
    sense) with deterministic node numbering, so instances are reproducible
    across runs. Cayley-graph families built {e from their groups} (with the
    natural generator labeling) live in [Qe_group.Cayley]; the constructors
    here build the same topologies directly. *)

val path : int -> Graph.t
(** [path n], nodes [0..n-1] in a line. [n >= 1]. *)

val cycle : int -> Graph.t
(** [cycle n], [n >= 3]. The ring [C_n = Cay(Z_n, {+1, -1})]. *)

val complete : int -> Graph.t
(** [complete n], [n >= 1]. [K_2] is the paper's minimal counterexample. *)

val complete_bipartite : int -> int -> Graph.t

val star : int -> Graph.t
(** [star k]: the tree [K_{1,k}] — center is node 0. Election is trivial
    here (Section 1.3): everyone meets at the center. *)

val hypercube : int -> Graph.t
(** [hypercube d]: [Q_d] on [2^d] nodes; node [u] adjacent to [u lxor bit]. *)

val grid : int -> int -> Graph.t
(** Non-wrapping 2-D grid (not vertex-transitive). *)

val torus : int -> int -> Graph.t
(** Wrapping 2-D torus; side lengths [>= 3] to stay a simple graph. *)

val circulant : int -> int list -> Graph.t
(** [circulant n jumps]: [Cay(Z_n, jumps ∪ -jumps)]. Jumps must be in
    [1 .. n/2]; a jump of exactly [n/2] yields a single (perfect-matching)
    edge.
    @raise Invalid_argument otherwise, from {!circulant_range}. *)

val circulant_range : ctor:string -> int -> int list -> unit
(** The circulant bounds every circulant builder applies: [n >= 3] and
    each jump in [1 .. n/2]. @raise Invalid_argument
    ["<ctor>: <reason>"] when [n] or a jump is out of range. *)

val petersen : unit -> Graph.t
(** The Petersen graph — vertex-transitive, {e not} Cayley; the paper's
    counterexample to ELECT's effectualness (Figure 5). Outer 5-cycle
    [0..4], inner pentagram [5..9], spokes [i -- i+5]. *)

val cube_connected_cycles : int -> Graph.t
(** [cube_connected_cycles d]: CCC(d) on [d * 2^d] nodes, [d >= 3]. *)

val binary_tree : int -> Graph.t
(** Complete binary tree of the given height ([>= 0]). *)

val wheel : int -> Graph.t
(** [wheel k]: a [k]-cycle ([k >= 3]) plus a hub (node [k]). *)

val generalized_petersen : int -> int -> Graph.t
(** [generalized_petersen n k], [n >= 3], [1 <= k < n/2]: outer n-cycle
    [0..n-1], inner nodes [n..2n-1] joined by step [k], spokes [i -- n+i].
    [GP(5,2)] is the Petersen graph; [GP(8,3)] (Möbius–Kantor) is Cayley;
    [GP(10,2)] (dodecahedron) and [GP(10,3)] (Desargues) are
    vertex-transitive non-Cayley — more specimens for the effectualness
    frontier. *)

val moebius_kantor : unit -> Graph.t
(** [GP(8,3)]. *)

val dodecahedron : unit -> Graph.t
(** [GP(10,2)]. *)

val desargues : unit -> Graph.t
(** [GP(10,3)]. *)

val kneser : int -> int -> Graph.t
(** [kneser n k]: nodes are the k-subsets of [n], edges join disjoint
    subsets. [kneser 5 2] is the Petersen graph. Requires
    [n >= 2k + 1 >= 3] and at most a few thousand nodes. *)

val complete_multipartite : int list -> Graph.t
(** [complete_multipartite sizes]: nodes partitioned into groups of the
    given sizes, all inter-group edges present. *)

val double_star : int -> int -> Graph.t
(** [double_star a b]: two adjacent hubs (nodes 0 and 1) with [a] leaves
    on the first ([2 .. a+1]) and [b] on the second. With all leaves as
    home-bases and [a], [b] coprime Fibonacci neighbors, this drives
    AGENT-REDUCE through its worst-case (subtractive-Euclid) round
    count. *)

val random_connected : seed:int -> n:int -> extra_edges:int -> Graph.t
(** A random spanning tree plus [extra_edges] distinct random non-tree
    edges. Deterministic in [seed]. *)

val figure2_path : unit -> Graph.t * Labeling.t
(** The 3-node path of the paper's Figure 2 with its exact labeling
    ([l_x(xy)=1, l_y(xy)=1, l_y(yz)=2, l_z(yz)=1] — symbols rendered as
    ints). Nodes: x=0, y=1, z=2. *)

val figure2c : unit -> Graph.t * Labeling.t
(** The 3-node multigraph of Figure 2(c): a directed-ring-style labeled
    triangle plus two parallel [x--y] edges and a loop at [z], with the
    paper's labeling. All nodes have the same view yet three distinct
    label-equivalence classes. Nodes: x=0, y=1, z=2. *)
