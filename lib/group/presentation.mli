(** Finite groups as closures, and the one Cayley-graph generator.

    A group {!t} is its order plus [mul]/[inv] closures over the
    elements [0 .. order-1]; element [0] is always the identity. This is
    all the paper needs: Cayley graphs [Cay(Γ, S)] for the
    interconnection-network groups (cyclic, products, dihedral, the CCC
    shift, [S_k]) and translations [a ↦ γa]. Constructions compose
    arithmetically (mixed-radix encodings) and scale to the 10⁵–10⁶
    element orders the frontier targets. A table backs a group only where
    the input is a table ({!of_mul_table}: a recovered regular subgroup,
    or {!Group}'s [S_k], [A_k] and [Q_8]).

    {!cayley} is the one Cayley-graph builder. It streams the graph
    straight into {!Qe_graph.Csr} flat arrays, checks that the result is
    connected (which holds iff the connection set generates the group),
    attaches the natural edge labeling (the port toward [v] at [u]
    carries the generator [u⁻¹v], read off the generator that emitted the
    edge) and registers a transitivity witness — the left translations —
    on the graph for {!Qe_symmetry.Transitive} to verify. *)

type t

val order : t -> int
val name : t -> string

val mul : t -> int -> int -> int
val inv : t -> int -> int
val is_involution : t -> int -> bool
val elt_order : t -> int -> int

val of_mul_table : ?name:string -> int array array -> t
(** A group from its full multiplication table [table.(a).(b) = a*b].
    Checks: squareness, range, identity at 0, associativity (exhaustive
    up to order 256, a fixed sample above), inverses.
    @raise Invalid_argument when the table is not a group. *)

(** {1 Constructions}

    The products below raise [Invalid_argument "<ctor>: group order
    exceeds max_int"] when the order does not fit in an [int]. *)

val cyclic : int -> t
(** Z_n, addition modulo [n]. *)

val product : t -> t -> t
(** Direct product; [(a, b)] encoded as [a * order h + b]. *)

val power : t -> int -> t
(** [power g k] = [g × ... × g], [k >= 1] factors, first factor most
    significant — the encoding of folding {!product}, computed in one
    digit loop. A factor of order 2 makes [mul] an [lxor] and [inv] the
    identity. *)

val dihedral : int -> t
(** D_n on [2n] elements, [n >= 1]: rotations [0..n-1], reflections
    [n..2n-1]. *)

val wreath_shift : base:int -> int -> t
(** [wreath_shift ~base d] is the wreath-like product [Z_base ≀ Z_d] =
    Z_base^d ⋊ Z_d (cyclic coordinate shift), order [base^d * d].
    Element [(w, i)] is encoded [w * d + i], [w] a base-[base] digit
    vector. The shift rotates the digit string in O(1)
    ([(w mod base^(d-i))·base^i + w / base^(d-i)]); in base 2 the
    digit-wise sum is [lxor] and negation the identity, so [mul] and
    [inv] are O(1). Other bases add and negate digit by digit, O(d). *)

val semidirect_shift : int -> t
(** [wreath_shift ~base:2]: [Z_2^d ⋊ Z_d], the group of the
    cube-connected-cycles network; its Cayley graph on generators
    [{shift, flip_0}] is CCC_d. *)

(** {1 Cayley graphs} *)

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
    non-involution via the smaller of [{s, s⁻¹}]. So edge ids come in
    one block per emitting generator [s] ([n/2] edges for an
    involution, [n] otherwise), and a dart's label is [s] at [a] and
    [s⁻¹] at [a·s]: labeling calls no group arithmetic, and needs no
    per-edge table. Generation is checked on the built graph: one BFS
    over the CSR, since a Cayley graph is connected iff its connection
    set generates the group. The labels' per-node distinctness is still
    validated ({!Qe_graph.Labeling.make}), and the witness stays
    untrusted until {!Qe_symmetry.Transitive} verifies it.

    Under an ambient {!Qe_obs.Sink}, generation records one [gen.cayley]
    span (attributes [n], [m]) with the children [gen.edges], [gen.csr],
    [gen.connected], [gen.labeling] and [gen.witness]; with none, the
    cost is one probe.
    @raise Invalid_argument if a generator is the identity or out of
    range, or the graph is disconnected (the set does not generate the
    group). *)

val circulant : int -> int list -> instance
(** [circulant n jumps] — Z_n with the given jump set. *)

val cube_connected_cycles : int -> instance
(** CCC_d for any [d >= 3] — [cayley (semidirect_shift d) [shift; flip_0]];
    order [d * 2^d], so [d = 13] already exceeds 10⁵ nodes. *)
