(** Implicit (presentation-style) groups and the large-instance Cayley
    generator.

    {!Group.t} stores an O(n²) multiplication table — fine at order ≤
    a few thousand, hopeless at the 10⁵–10⁶ element orders the frontier
    targets. A {!t} here is just [order] plus [mul]/[inv] closures;
    constructions compose arithmetically (mixed-radix encodings), and
    every encoding agrees element-for-element with the corresponding
    {!Group} construction where both exist, so differential tests can
    compare them directly.

    {!cayley} is the one Cayley-graph builder: {!Cayley.make} calls it
    through {!of_group}. It streams the graph straight into
    {!Qe_graph.Csr} flat arrays, checks that the result is connected
    (which holds iff the connection set generates the group), attaches
    the natural edge labeling (the port toward [v] at [u] carries the
    generator [u⁻¹v]) and registers a transitivity witness — the left
    translations — on the graph for {!Qe_symmetry.Transitive} to
    verify. *)

type t

val order : t -> int
val name : t -> string

val mul : t -> int -> int -> int
val inv : t -> int -> int
val is_involution : t -> int -> bool
val elt_order : t -> int -> int

val of_group : Group.t -> t
(** Wrap a table-based group — how {!Cayley.make} builds through
    {!cayley}. *)

val cyclic : int -> t
(** Z_n; same encoding as {!Group.cyclic}. *)

val product : t -> t -> t
(** Direct product; [(a, b)] encoded as [a * order h + b], matching
    {!Group.product}. *)

val power : t -> int -> t
(** Iterated product, first factor most significant ({!Group.power}). *)

val dihedral : int -> t
(** D_n on [2n] elements; encoding matches {!Group.dihedral}. *)

val wreath_shift : base:int -> int -> t
(** [wreath_shift ~base d] is the wreath-like product [Z_base ≀ Z_d] =
    Z_base^d ⋊ Z_d (cyclic coordinate shift), order [base^d * d].
    Element [(w, i)] is encoded [w * d + i], [w] a base-[base] digit
    vector. *)

val semidirect_shift : int -> t
(** [wreath_shift ~base:2] — bit-identical to {!Group.semidirect_shift};
    its Cayley graph on generators [{shift, flip_0}] is CCC_d. *)

(** {1 Large Cayley instances} *)

type instance = {
  graph : Qe_graph.Graph.t;
  labeling : Qe_graph.Labeling.t;
  connection : int list;
      (** the connection set: generators closed under inverse, sorted *)
  group : t;
}

val cayley : t -> int list -> instance
(** [cayley p gens] builds the Cayley graph of [p] on [gens] (closed
    under inverses), streamed into CSR with no intermediate edge list.
    Each edge [{a, a·s}] is listed once, per generator in sorted
    connection order: an involution from its smaller endpoint, a
    non-involution via the smaller of [{s, s⁻¹}]. Generation is checked
    on the built graph: one BFS over the CSR, since a Cayley graph is
    connected iff its connection set generates the group.
    @raise Invalid_argument if a generator is the identity or out of
    range, or the graph is disconnected (the set does not generate the
    group). *)

val circulant : int -> int list -> instance
(** [circulant n jumps] — Z_n with the given jump set. *)

val cube_connected_cycles : int -> instance
(** CCC_d for any [d >= 3] — [cayley (semidirect_shift d) [shift; flip_0]];
    order [d * 2^d], so [d = 13] already exceeds 10⁵ nodes. *)
