(** Anonymous networks: connected undirected multigraphs with ports.

    Nodes are unlabeled — the integer node ids of this module are simulator
    bookkeeping that no protocol ever observes. Each node has [deg] ports
    (dart endpoints); loops and parallel edges are supported (the paper's
    Figure 2(c) uses both). Port labels live in {!Labeling}, separate from
    the structure, because a single structure admits many labelings and
    protocols must work under all of them.

    Internally a graph is a {!Csr.t} — flat int arrays shared by every
    layer of the pipeline. The dart-record API below is kept for
    compatibility; hot paths should use {!iter_darts}/{!fold_darts_at},
    which touch no heap. *)

type t
(** An undirected multigraph. Structure is immutable once built; an
    optional transitivity witness (see below) may be attached later. *)

type dart = { dst : int; dst_port : int; edge : int }
(** One endpoint's view of an incident edge: the opposite endpoint [dst],
    the port index this edge occupies at [dst], and a global edge id. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the multigraph on nodes [0 .. n-1] with the
    given edge list. Edges are assigned ids in list order; ports are
    assigned per node in order of appearance. A loop [(u, u)] occupies two
    ports at [u].
    @raise Invalid_argument on out-of-range endpoints or [n <= 0]. *)

val of_csr : Csr.t -> t
(** Wrap an already-built CSR adjacency — the zero-copy entry point for
    large generated instances. *)

val csr : t -> Csr.t
(** The underlying flat adjacency. O(1), no copy. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges (a loop counts once). *)

val degree : t -> int -> int
(** [degree g u] is the number of ports at [u] (a loop contributes 2). *)

val max_degree : t -> int

val dart : t -> int -> int -> dart
(** [dart g u i] is the dart at port [i] of node [u].
    @raise Invalid_argument if [i] is out of range. *)

val iter_darts : t -> int -> (int -> int -> int -> int -> unit) -> unit
(** [iter_darts g u f] calls [f port dst dst_port edge] for every dart of
    [u] in port order. Allocation-free. *)

val fold_darts_at :
  t -> int -> init:'a -> f:('a -> int -> int -> int -> int -> 'a) -> 'a
(** Allocation-free fold over one node's darts:
    [f acc port dst dst_port edge]. *)

val neighbors : t -> int -> int list
(** Opposite endpoints of all ports at [u], with multiplicity, in port
    order. *)

val edges : t -> (int * int) list
(** The edge list, in edge-id order, with endpoints as given at build time. *)

val edge_endpoints : t -> int -> int * int
(** Endpoints of an edge id. *)

val is_simple : t -> bool
(** No loops and no parallel edges. *)

val equal_structure : t -> t -> bool
(** Same node count and identical edge list — structural identity, not
    isomorphism. *)

val pp : Format.formatter -> t -> unit

(** {1 Structural identity}

    What makes two graphs the same instance under their current
    numbering: the node count, each node's degree ([off]) and each
    node's neighbour multiset. Port order and edge ids do not count.
    Both values below come from one memo computed on first use — never
    at construction — in O(m log d), and safe to request from several
    domains at once. *)

val sorted_neighbors : t -> int array
(** A copy of the CSR [dst] array with every node's slice
    [off.(u) .. off.(u+1)-1] sorted ascending. Memoized; the caller must
    not mutate it. *)

val structure_hash : t -> int
(** A non-negative hash over every element of [n], [off] and
    {!sorted_neighbors}. Memoized with them. Equal identities have equal
    hashes; the converse is only likely, so consumers confirm equality
    on the arrays. *)

val hash_mix : int -> int -> int
(** [hash_mix h x] folds [x] into the running hash [h] — the step
    {!structure_hash} uses, for layers that extend the identity
    ({!Bicolored} adds node colours). *)

(** {1 Transitivity witnesses}

    A constructor that knows its graph is vertex-transitive (Cayley
    builders, the presentation generator, {!Qe_symmetry.Cayley_detect})
    can attach a witness: a list of claimed automorphism generators
    whose group acts transitively. The witness is {e untrusted}:
    consumers must verify it — [Qe_symmetry.Transitive.certified] checks
    the generators in order and keeps the shortest prefix that is all
    genuine automorphisms with one orbit, then caches that prefix
    here. *)

type witness = {
  w_gens : int array array;
      (** claimed automorphism generators, each a permutation of nodes *)
}

val set_transitivity_witness : t -> witness -> unit
(** Attach a witness (resets any cached verification). Call at
    construction time, before the graph is shared across domains. *)

val transitivity_witness : t -> witness option

val certified_witness : t -> witness option option
(** Cached verification result: [None] if nobody checked yet,
    [Some (Some w)] with [w] the certified generator prefix,
    [Some None] if the witness was rejected. *)

val set_certified_witness : t -> witness option -> unit

val witness_verdict : t -> bool option
(** Whether the cached verification accepted the witness, if a consumer
    already checked. *)
