(** Bicolored instances [(G, p)]: a graph plus the placement of home-bases.

    Black nodes are home-bases, white nodes are initially empty — the
    paper's Section 2 convention (not to be confused with agent colors). *)

type t

val make : Graph.t -> black:int list -> t
(** @raise Invalid_argument on duplicates or out-of-range nodes, or if the
    black list is empty (an election needs at least one agent). *)

val graph : t -> Graph.t

val black_array : t -> bool array
(** [black_array t].(u) iff [u] is a home-base. The instance's own
    array: the caller must not mutate it. *)

val identity_hash : t -> int
(** A non-negative hash of the instance's identity — the graph's
    {!Graph.structure_hash} extended with every node colour. Memoized on
    first use, not at {!make}. *)

val is_black : t -> int -> bool
val blacks : t -> int list
(** Home-bases in increasing node order. *)

val num_blacks : t -> int
val node_color : t -> int -> int
(** 1 for black, 0 for white — the node-color view used by the symmetry
    engine. *)

val complement : t -> t
(** Swap black and white (only valid if some node is white). Used in tests
    of color-preservation. *)

val pp : Format.formatter -> t -> unit
