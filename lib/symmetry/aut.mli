(** Automorphism groups of colored digraphs. *)

exception Too_large
(** Raised when the group has more elements than the requested cap. *)

val generators : ?max_leaves:int -> Cdigraph.t -> int array list
(** Generators of the automorphism group (possibly empty for a rigid
    digraph), from the canonical-labeling search. *)

val group : ?max_leaves:int -> ?cap:int -> Cdigraph.t -> int array list
(** All automorphisms, identity first, by closing the generators under
    composition. [cap] defaults to 100_000 elements.
    @raise Too_large if the group is bigger. *)

val group_order : ?max_leaves:int -> ?cap:int -> Cdigraph.t -> int

val orbit_partition : ?max_leaves:int -> Cdigraph.t -> int list list
(** Orbits as sorted classes, ordered by smallest member. *)

val equivalent : ?max_leaves:int -> Cdigraph.t -> int -> int -> bool
(** Are two nodes in the same orbit? (Definition 2.1 when the digraph is a
    bicolored graph; Definition 2.2 when arcs carry the edge labels.) *)

val is_vertex_transitive : ?max_leaves:int -> Cdigraph.t -> bool
