(** Groups whose input is a table, and group isomorphism.

    Every group is a {!Presentation.t}. The arithmetic families (cyclic,
    products, dihedral, the CCC shift) are {!Presentation} constructions;
    the groups here have no such arithmetic, so they are built from
    their multiplication tables ({!Presentation.of_mul_table}). *)

type t = Presentation.t

val symmetric : int -> t
(** [S_k], [1 <= k <= 6] (order [k!], capped to keep tables small).
    Elements are the permutations of [0..k-1] in lexicographic order,
    multiplied by composition: [(p * q)(i) = p(q(i))]. *)

val of_permutation : int array -> int
(** [of_permutation p] is the element of [symmetric (Array.length p)]
    that is [p] in one-line notation ([i ↦ p.(i)]): its lexicographic
    rank. *)

val alternating : int -> t
(** [A_k], [2 <= k <= 6] (order [k!/2]): the even permutations, in
    lexicographic order. *)

val quaternion : unit -> t
(** [Q_8]: [1, -1, i, -i, j, -j, k, -k] as [0..7]. *)

val elements : t -> int list
val is_abelian : t -> bool

val closure : t -> int list -> int list
(** Subgroup generated by a set, as a sorted element list. *)

val find_isomorphism : t -> t -> int array option
(** A group isomorphism [g -> h] as an element map, if one exists.
    Backtracking over generator images with order-profile pruning;
    practical for the orders this library works with (≤ a few hundred). *)

val isomorphic : t -> t -> bool

val identify : t -> string option
(** Recognizes the group against a catalog of standard groups up to order
    24 (cyclic, dihedral, products of small cyclics, quaternion, A4, S4,
    semidirect shifts...). Returns the catalog name, or [None] when the
    group is outside the catalog. *)
